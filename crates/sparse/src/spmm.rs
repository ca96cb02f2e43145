//! Sparse matrix × dense matrix (SpMM) on the FAFNIR tree.
//!
//! The paper's conclusion names matrix algebra — beyond single-vector SpMV —
//! as a target domain. SpMM with `k` right-hand sides runs the vectorized
//! SpMV dataflow once per column of the dense operand; the matrix is
//! streamed from memory each time, so the plan (iterations/rounds) is that
//! of the underlying SpMV and times scale linearly in `k`.

use crate::fafnir_spmv::{self, SpmvTiming};
use crate::lil::LilMatrix;
use crate::stream::StreamOps;
use crate::two_step;

/// Result of one SpMM execution.
#[derive(Debug, Clone, PartialEq)]
pub struct SpmmRun {
    /// The product, column-major: `y[j]` is `A · x[j]`.
    pub columns: Vec<Vec<f64>>,
    /// Summed operation counts across all SpMVs.
    pub ops: StreamOps,
    /// Total FAFNIR time in nanoseconds.
    pub fafnir_ns: f64,
    /// Total Two-Step time in nanoseconds.
    pub two_step_ns: f64,
}

impl SpmmRun {
    /// FAFNIR's speedup over Two-Step for the whole product.
    #[must_use]
    pub fn speedup(&self) -> f64 {
        if self.fafnir_ns <= 0.0 {
            1.0
        } else {
            self.two_step_ns / self.fafnir_ns
        }
    }
}

/// Computes `Y = A · X` where `X` is given as `k` dense columns.
///
/// # Panics
///
/// Panics if any column's length differs from `matrix.cols()` or `X` is
/// empty.
#[must_use]
pub fn execute(
    matrix: &LilMatrix,
    x_columns: &[Vec<f64>],
    vector_size: usize,
    timing: &SpmvTiming,
) -> SpmmRun {
    assert!(!x_columns.is_empty(), "SpMM needs at least one right-hand side");
    let mut columns = Vec::with_capacity(x_columns.len());
    let mut ops = StreamOps::default();
    let mut fafnir_ns = 0.0;
    let mut two_step_ns = 0.0;
    for x in x_columns {
        assert_eq!(x.len(), matrix.cols(), "operand length mismatch");
        let run = fafnir_spmv::execute(matrix, x, vector_size);
        let baseline = two_step::execute(matrix, x, vector_size);
        fafnir_ns += timing.fafnir_ns(&run);
        two_step_ns += timing.two_step_ns(&baseline);
        ops.merge(&run.ops);
        columns.push(run.y);
    }
    SpmmRun { columns, ops, fafnir_ns, two_step_ns }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::CooMatrix;
    use crate::gen;

    #[test]
    fn spmm_matches_per_column_dense_reference() {
        let coo = gen::uniform(60, 80, 0.08, 51);
        let lil = LilMatrix::from(&coo);
        let x_columns: Vec<Vec<f64>> =
            (0..3).map(|k| (0..80).map(|i| (i + k) as f64 * 0.1).collect()).collect();
        let run = execute(&lil, &x_columns, 32, &SpmvTiming::paper());
        assert_eq!(run.columns.len(), 3);
        for (column, x) in run.columns.iter().zip(&x_columns) {
            let want = coo.multiply_dense(x);
            for (a, b) in column.iter().zip(&want) {
                assert!((a - b).abs() < 1e-9, "{a} vs {b}");
            }
        }
    }

    #[test]
    fn time_scales_linearly_in_rhs_count() {
        let coo = gen::banded(200, 3, 52);
        let lil = LilMatrix::from(&coo);
        let timing = SpmvTiming::paper();
        let one = execute(&lil, &[vec![1.0; 200]], 2048, &timing);
        let four = execute(&lil, &vec![vec![1.0; 200]; 4], 2048, &timing);
        assert!((four.fafnir_ns / one.fafnir_ns - 4.0).abs() < 1e-9);
        assert_eq!(four.ops.multiplies, 4 * one.ops.multiplies);
    }

    #[test]
    fn speedup_matches_underlying_spmv() {
        let coo = gen::rmat(8, 3_000, 53);
        let lil = LilMatrix::from(&coo);
        let timing = SpmvTiming::paper();
        let run = execute(&lil, &vec![vec![0.5; 256]; 2], 2048, &timing);
        assert!(run.speedup() > 1.0 && run.speedup() <= 4.6);
    }

    #[test]
    #[should_panic(expected = "at least one right-hand side")]
    fn empty_rhs_panics() {
        let coo = CooMatrix::from_triplets(2, 2, [(0, 0, 1.0)]);
        let _ = execute(&LilMatrix::from(&coo), &[], 8, &SpmvTiming::paper());
    }
}
