//! Matrix Market headers are untrusted input: a size line may declare any
//! entry count, and `mtx::parse` must answer with a typed error instead of
//! sizing an allocation by it.

use fafnir_sparse::mtx;

#[test]
fn huge_declared_entry_counts_are_errors_not_aborts() {
    for (field, symmetry, entry) in [
        ("real", "general", "1 2 3.5"),
        ("integer", "symmetric", "2 1 7"),
        ("pattern", "skew-symmetric", "2 1"),
    ] {
        for nnz in [u64::MAX, u64::MAX / 2, 1 << 40] {
            let text = format!(
                "%%MatrixMarket matrix coordinate {field} {symmetry}\n% comment\n3 3 {nnz}\n{entry}\n"
            );
            let error = mtx::parse(&text).expect_err("one entry cannot satisfy the declared count");
            assert!(
                error.to_string().contains(&format!("declared {nnz} entries, found 1")),
                "{field} {symmetry} nnz={nnz}: unexpected error: {error}"
            );
        }
    }
}

#[test]
fn non_finite_values_are_errors_naming_their_line() {
    for field in ["real", "integer"] {
        for symmetry in ["general", "symmetric", "skew-symmetric"] {
            for value in ["nan", "NaN", "inf", "-inf", "+infinity", "1e400"] {
                let text = format!(
                    "%%MatrixMarket matrix coordinate {field} {symmetry}\n% comment\n3 3 2\n\
                     1 1 2.0\n2 1 {value}\n"
                );
                let error = mtx::parse(&text).expect_err("a non-finite entry is not a value");
                assert_eq!(error.line, 5, "{field} {symmetry} {value}: {error}");
                assert!(
                    error.to_string().contains(&format!("non-finite value `{value}`")),
                    "{field} {symmetry} {value}: unexpected error: {error}"
                );
            }
        }
    }
}
