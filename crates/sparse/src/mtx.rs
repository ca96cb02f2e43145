//! Matrix Market (`.mtx`) I/O.
//!
//! The paper's Fig. 14 workloads come from SuiteSparse-style collections,
//! which are distributed in the Matrix Market exchange format. This module
//! reads and writes the `coordinate` flavour (general, symmetric, and
//! skew-symmetric; `real`, `integer`, and `pattern` fields), so real inputs
//! can replace the synthetic generators without code changes:
//!
//! ```text
//! %%MatrixMarket matrix coordinate real general
//! % comments…
//! rows cols nnz
//! row col value        (1-based indices)
//! ```

use crate::coo::CooMatrix;

/// The largest row or column count [`parse`] accepts.
///
/// A size line is untrusted, and the SpMV paths size dense buffers by the
/// declared dimensions: the operand `x` and output `y`, the LIL column
/// offsets, the partition's band tables. 2^26 (67,108,864) admits Fig. 9's
/// 20-million-column matrices with room to spare and keeps each such
/// buffer at or under 512 MiB; a larger dimension is an [`MtxError`] on the
/// size line.
pub const MAX_DIMENSION: usize = 1 << 26;

/// Error reading a Matrix Market file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MtxError {
    /// 1-based line number (0 for structural errors like a missing header).
    pub line: usize,
    /// Description of the problem.
    pub message: String,
}

impl MtxError {
    fn new(line: usize, message: impl Into<String>) -> Self {
        Self { line, message: message.into() }
    }
}

impl std::fmt::Display for MtxError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "mtx line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for MtxError {}

/// Symmetry declared in the header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Symmetry {
    General,
    Symmetric,
    SkewSymmetric,
}

/// Value field declared in the header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Field {
    Real,
    Integer,
    Pattern,
}

/// Parses Matrix Market `coordinate` text into a [`CooMatrix`].
///
/// Symmetric and skew-symmetric inputs are expanded to their full (general)
/// form; `pattern` entries get value 1.0.
///
/// # Examples
///
/// ```
/// let text = "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 2 3.5\n";
/// let matrix = fafnir_sparse::mtx::parse(text)?;
/// assert_eq!(matrix.entries(), &[(0, 1, 3.5)]);
/// # Ok::<(), fafnir_sparse::mtx::MtxError>(())
/// ```
///
/// # Errors
///
/// Returns [`MtxError`] naming the offending line for malformed headers,
/// counts, dimensions above [`MAX_DIMENSION`], indices out of range, or
/// unsupported flavours (`array`, `complex`, `hermitian`).
pub fn parse(text: &str) -> Result<CooMatrix, MtxError> {
    let mut lines = text.lines().enumerate();

    // Header: %%MatrixMarket matrix coordinate <field> <symmetry>
    let (_, header) = lines.next().ok_or_else(|| MtxError::new(0, "empty input"))?;
    let tokens: Vec<String> = header.split_whitespace().map(str::to_ascii_lowercase).collect();
    if tokens.len() != 5 || tokens[0] != "%%matrixmarket" || tokens[1] != "matrix" {
        return Err(MtxError::new(1, "expected `%%MatrixMarket matrix coordinate …` header"));
    }
    if tokens[2] != "coordinate" {
        return Err(MtxError::new(
            1,
            format!("unsupported format `{}` (only coordinate)", tokens[2]),
        ));
    }
    let field = match tokens[3].as_str() {
        "real" => Field::Real,
        "integer" => Field::Integer,
        "pattern" => Field::Pattern,
        other => return Err(MtxError::new(1, format!("unsupported field `{other}`"))),
    };
    let symmetry = match tokens[4].as_str() {
        "general" => Symmetry::General,
        "symmetric" => Symmetry::Symmetric,
        "skew-symmetric" => Symmetry::SkewSymmetric,
        other => return Err(MtxError::new(1, format!("unsupported symmetry `{other}`"))),
    };

    // Size line: first non-comment line.
    let mut size: Option<(usize, usize, usize)> = None;
    let mut size_line = 0;
    for (number, line) in lines.by_ref() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('%') {
            continue;
        }
        let parts: Vec<&str> = line.split_whitespace().collect();
        if parts.len() != 3 {
            return Err(MtxError::new(number + 1, "size line must be `rows cols nnz`"));
        }
        let parse_dim = |token: &str| -> Result<usize, MtxError> {
            token
                .parse()
                .map_err(|_| MtxError::new(number + 1, format!("`{token}` is not a count")))
        };
        size = Some((parse_dim(parts[0])?, parse_dim(parts[1])?, parse_dim(parts[2])?));
        size_line = number + 1;
        break;
    }
    let (rows, cols, nnz) = size.ok_or_else(|| MtxError::new(0, "missing size line"))?;
    if rows == 0 || cols == 0 {
        return Err(MtxError::new(size_line, "matrix dimensions must be non-zero"));
    }
    if rows > MAX_DIMENSION || cols > MAX_DIMENSION {
        return Err(MtxError::new(
            size_line,
            format!("matrix dimensions {rows} x {cols} exceed the limit of {MAX_DIMENSION}"),
        ));
    }
    // Mirrored (col, row) entries are only meaningful on square matrices;
    // on a non-square size line they would land out of bounds and panic in
    // `CooMatrix::push` instead of surfacing a proper parse error.
    if symmetry != Symmetry::General && rows != cols {
        let flavour = if symmetry == Symmetry::Symmetric { "symmetric" } else { "skew-symmetric" };
        return Err(MtxError::new(
            size_line,
            format!("{flavour} matrices must be square, got {rows} x {cols}"),
        ));
    }

    let mut triplets: Vec<(usize, usize, f64)> = Vec::new();
    let mut seen = 0usize;
    for (number, line) in lines {
        let line = line.trim();
        if line.is_empty() || line.starts_with('%') {
            continue;
        }
        let parts: Vec<&str> = line.split_whitespace().collect();
        let expected = if field == Field::Pattern { 2 } else { 3 };
        if parts.len() != expected {
            return Err(MtxError::new(
                number + 1,
                format!("expected {expected} fields, got {}", parts.len()),
            ));
        }
        let row: usize = parts[0]
            .parse()
            .map_err(|_| MtxError::new(number + 1, format!("bad row `{}`", parts[0])))?;
        let col: usize = parts[1]
            .parse()
            .map_err(|_| MtxError::new(number + 1, format!("bad col `{}`", parts[1])))?;
        if row == 0 || col == 0 || row > rows || col > cols {
            return Err(MtxError::new(
                number + 1,
                format!("entry ({row},{col}) outside 1..={rows} x 1..={cols}"),
            ));
        }
        let value = match field {
            Field::Pattern => 1.0,
            Field::Real | Field::Integer => {
                // `f64::from_str` also accepts `nan`, `inf` and overflowing
                // literals; none of them is a matrix entry.
                let value = parts[2]
                    .parse::<f64>()
                    .map_err(|_| MtxError::new(number + 1, format!("bad value `{}`", parts[2])))?;
                if !value.is_finite() {
                    return Err(MtxError::new(
                        number + 1,
                        format!("non-finite value `{}`", parts[2]),
                    ));
                }
                value
            }
        };
        let (row, col) = (row - 1, col - 1);
        triplets.push((row, col, value));
        match symmetry {
            Symmetry::General => {}
            Symmetry::Symmetric if row != col => triplets.push((col, row, value)),
            Symmetry::SkewSymmetric if row != col => triplets.push((col, row, -value)),
            _ => {}
        }
        seen += 1;
    }
    if seen != nnz {
        return Err(MtxError::new(0, format!("size line declared {nnz} entries, found {seen}")));
    }
    Ok(CooMatrix::from_triplets(rows, cols, triplets))
}

/// Reads a `.mtx` file from disk.
///
/// # Errors
///
/// Returns [`MtxError`] for I/O failures (line 0) or parse errors.
pub fn read_file(path: &std::path::Path) -> Result<CooMatrix, MtxError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| MtxError::new(0, format!("cannot read {}: {e}", path.display())))?;
    parse(&text)
}

/// Serializes a matrix as Matrix Market `coordinate real general` text.
#[must_use]
pub fn write(matrix: &CooMatrix) -> String {
    let mut out = String::from("%%MatrixMarket matrix coordinate real general\n");
    out.push_str("% written by the fafnir reproduction\n");
    out.push_str(&format!("{} {} {}\n", matrix.rows(), matrix.cols(), matrix.nnz()));
    for &(row, col, value) in matrix.entries() {
        out.push_str(&format!("{} {} {value}\n", row + 1, col + 1));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
%%MatrixMarket matrix coordinate real general
% a 3x3 example
3 3 4
1 1 1.5
2 3 -2.0
3 1 0.25
3 3 4.0
";

    #[test]
    fn parses_general_real_coordinate() {
        let matrix = parse(SAMPLE).unwrap();
        assert_eq!(matrix.rows(), 3);
        assert_eq!(matrix.nnz(), 4);
        assert_eq!(matrix.entries(), &[(0, 0, 1.5), (1, 2, -2.0), (2, 0, 0.25), (2, 2, 4.0)]);
    }

    #[test]
    fn round_trips_through_write() {
        let matrix = parse(SAMPLE).unwrap();
        let again = parse(&write(&matrix)).unwrap();
        assert_eq!(matrix, again);
    }

    #[test]
    fn expands_symmetric_storage() {
        let text = "\
%%MatrixMarket matrix coordinate real symmetric
2 2 2
1 1 3.0
2 1 5.0
";
        let matrix = parse(text).unwrap();
        assert_eq!(matrix.nnz(), 3, "off-diagonal mirrored");
        assert_eq!(matrix.entries(), &[(0, 0, 3.0), (0, 1, 5.0), (1, 0, 5.0)]);
    }

    #[test]
    fn expands_skew_symmetric_with_negation() {
        let text = "\
%%MatrixMarket matrix coordinate real skew-symmetric
2 2 1
2 1 4.0
";
        let matrix = parse(text).unwrap();
        assert_eq!(matrix.entries(), &[(0, 1, -4.0), (1, 0, 4.0)]);
    }

    #[test]
    fn non_square_symmetric_inputs_error_instead_of_panicking() {
        // Regression: the mirrored (col, row) entry was never bounds-checked
        // against the transposed orientation, so a 3x2 symmetric input with
        // an entry in row 3 asserted inside `CooMatrix::push`.
        let symmetric = "\
%%MatrixMarket matrix coordinate real symmetric
3 2 1
3 1 4.0
";
        let error = parse(symmetric).unwrap_err();
        assert_eq!(error.line, 2, "the size line is the offender");
        assert!(error.message.contains("square"), "{error}");
        assert!(error.message.contains("3 x 2"), "{error}");

        let skew = "\
%%MatrixMarket matrix coordinate real skew-symmetric
2 3 1
1 3 4.0
";
        let error = parse(skew).unwrap_err();
        assert_eq!(error.line, 2);
        assert!(error.message.contains("skew-symmetric"), "{error}");
    }

    #[test]
    fn pattern_entries_get_unit_values() {
        let text = "\
%%MatrixMarket matrix coordinate pattern general
2 3 2
1 2
2 3
";
        let matrix = parse(text).unwrap();
        assert_eq!(matrix.entries(), &[(0, 1, 1.0), (1, 2, 1.0)]);
    }

    #[test]
    fn errors_name_the_line() {
        assert!(parse("").is_err());
        let bad_header = parse("%%MatrixMarket matrix array real general\n2 2 1\n1 1 1\n");
        assert!(bad_header.unwrap_err().message.contains("array"));
        let bad_entry = "\
%%MatrixMarket matrix coordinate real general
2 2 1
3 1 1.0
";
        let error = parse(bad_entry).unwrap_err();
        assert_eq!(error.line, 3);
        assert!(error.message.contains("outside"));
        let short = "\
%%MatrixMarket matrix coordinate real general
2 2 2
1 1 1.0
";
        assert!(parse(short).unwrap_err().message.contains("declared 2"));
    }

    #[test]
    fn file_round_trip() {
        let matrix = parse(SAMPLE).unwrap();
        let path = std::env::temp_dir().join("fafnir-mtx-test.mtx");
        std::fs::write(&path, write(&matrix)).unwrap();
        let back = read_file(&path).unwrap();
        assert_eq!(back, matrix);
        std::fs::remove_file(&path).ok();
        assert!(read_file(std::path::Path::new("/nonexistent.mtx")).is_err());
    }

    #[test]
    fn parsed_matrix_runs_through_the_engines() {
        let matrix = parse(SAMPLE).unwrap();
        let lil = crate::lil::LilMatrix::from(&matrix);
        let x = vec![1.0, 2.0, 3.0];
        let run = crate::fafnir_spmv::execute(&lil, &x, 2048);
        assert_eq!(run.y, matrix.multiply_dense(&x));
    }
}
