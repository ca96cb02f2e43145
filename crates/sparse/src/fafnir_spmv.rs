//! SpMV on the FAFNIR tree (paper Sec. IV-D, Figs. 7–8).
//!
//! Embedding lookup reduces distinct vectors into one vector; SpMV reduces
//! the elements of a vector into one element. FAFNIR bridges the gap with
//! *vectorization*: each leaf PE streams one column's non-zeros (LIL),
//! multiplies them by the operand element, and emits a row-sorted
//! `(row, value)` stream; tree PEs merge streams, summing equal rows.
//! Matrices wider than the tree run in iterations and rounds per
//! [`crate::iteration::SpmvPlan`]: iteration 0 multiplies, later iterations
//! only merge (leaf PEs skip the multiply, exactly like embedding mode).
//!
//! The engine allocates per run, not per stream: an iteration's streams
//! sit back to back in one buffer, each round's tree alternates between two
//! reused level buffers, and every merge is the one kernel behind
//! [`crate::stream::merge_two`]. Each round pairs streams exactly as
//! [`crate::stream::merge_tree`] does — (0, 1), (2, 3), …, an odd last
//! stream carried up unmerged — so every sum associates, and every output
//! bit and [`StreamOps`] counter comes out, as in a `merge_tree` per round.

use crate::iteration::SpmvPlan;
use crate::lil::LilMatrix;
use crate::stream::{reduce_group, PartialStream, Runs, StreamOps, TreeScratch};

/// Per-entry timing constants of the SpMV engines, in nanoseconds.
///
/// Derived from the streaming-bandwidth and pipeline analysis of Sec. VI:
/// FAFNIR streams LIL straight off DRAM into the multiply tree (no
/// decompression, fully parallel reduction), so its multiply phase is
/// several times faster per non-zero; the Two-Step accelerator's multi-way
/// merge core makes its *merge* phase faster per entry instead.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpmvTiming {
    /// FAFNIR iteration-0 cost per non-zero.
    pub fafnir_multiply_ns: f64,
    /// FAFNIR merge-iteration cost per input entry.
    pub fafnir_merge_ns: f64,
    /// Two-Step iteration-0 cost per non-zero (decompression + adder chain).
    pub two_step_multiply_ns: f64,
    /// Two-Step merge cost per input entry (optimized multi-way merge).
    pub two_step_merge_ns: f64,
    /// Fixed per-round overhead (kernel launch, stream setup).
    pub round_overhead_ns: f64,
    /// Synchronization cost per partial-result entry reduced *across*
    /// partition ranks (see [`crate::partition`]): a cross-rank entry pays
    /// the tree-merge cost plus the accumulator-link transfer, the way
    /// `fafnir-cluster` prices cross-shard accumulator traffic.
    pub sync_merge_ns: f64,
}

impl SpmvTiming {
    /// Constants calibrated to Fig. 14's envelope: up to ≈4.6× for
    /// merge-free workloads, tapering toward ≈1.1× when merges dominate.
    #[must_use]
    pub fn paper() -> Self {
        Self {
            fafnir_multiply_ns: 0.16,
            fafnir_merge_ns: 0.48,
            two_step_multiply_ns: 0.16 * 4.6,
            two_step_merge_ns: 0.48 * 0.2,
            round_overhead_ns: 100.0,
            sync_merge_ns: 0.8,
        }
    }

    /// Total time of a run on FAFNIR given its per-iteration entry volumes.
    #[must_use]
    pub fn fafnir_ns(&self, run: &SpmvRun) -> f64 {
        self.fafnir_parts_ns(&run.volumes, run.plan.total_rounds())
    }

    /// Time of one (sub-)run from its raw per-iteration volumes and round
    /// count — the form partition ranks carry (see [`crate::partition`]).
    #[must_use]
    pub fn fafnir_parts_ns(&self, volumes: &[u64], total_rounds: usize) -> f64 {
        let mut total = volumes.first().map_or(0.0, |&v| v as f64 * self.fafnir_multiply_ns);
        for &volume in volumes.iter().skip(1) {
            total += volume as f64 * self.fafnir_merge_ns;
        }
        total + total_rounds as f64 * self.round_overhead_ns
    }

    /// Total time of the same run on the Two-Step accelerator.
    #[must_use]
    pub fn two_step_ns(&self, run: &SpmvRun) -> f64 {
        let mut total = run.volumes[0] as f64 * self.two_step_multiply_ns;
        for &volume in &run.volumes[1..] {
            total += volume as f64 * self.two_step_merge_ns;
        }
        total + run.plan.total_rounds() as f64 * self.round_overhead_ns
    }

    /// FAFNIR's speedup over Two-Step for a run (Fig. 14's y-axis).
    #[must_use]
    pub fn speedup(&self, run: &SpmvRun) -> f64 {
        self.two_step_ns(run) / self.fafnir_ns(run)
    }
}

impl Default for SpmvTiming {
    fn default() -> Self {
        Self::paper()
    }
}

/// The record of one SpMV execution: result, plan, and measured volumes.
#[derive(Debug, Clone, PartialEq)]
pub struct SpmvRun {
    /// The product vector `y = A·x`.
    pub y: Vec<f64>,
    /// The iteration/round plan used.
    pub plan: SpmvPlan,
    /// Entries processed per iteration: `volumes[0]` is the non-zero count,
    /// later entries are merge-iteration input volumes.
    pub volumes: Vec<u64>,
    /// Exact operation counts across the run.
    pub ops: StreamOps,
}

/// The outcome of [`execute_to_stream`]: the tree's final combined
/// row-sorted stream plus the plan/volume accounting, *before* the stream
/// is scattered into a dense vector. This is the form a partition rank
/// ships to the synchronization stage (see [`crate::partition`]), where
/// partial rows from several ranks still have to be reduced.
#[derive(Debug, Clone, PartialEq)]
pub struct SpmvStreamRun {
    /// The combined row-sorted partial-result stream.
    pub stream: PartialStream,
    /// The iteration/round plan used.
    pub plan: SpmvPlan,
    /// Entries processed per iteration (see [`SpmvRun::volumes`]).
    pub volumes: Vec<u64>,
    /// Exact operation counts across the run.
    pub ops: StreamOps,
}

/// Executes `y = A·x` on the FAFNIR tree, functionally and with exact
/// per-iteration volume accounting.
///
/// # Panics
///
/// Panics if `x.len() != matrix.cols()` or `vector_size < 2` — a
/// 1-stream merge round can never shrink the stream count, so
/// `vector_size == 1` would loop forever (the tree needs at least two
/// inputs per PE to make progress).
#[must_use]
pub fn execute(matrix: &LilMatrix, x: &[f64], vector_size: usize) -> SpmvRun {
    let SpmvStreamRun { stream, plan, volumes, ops } = execute_to_stream(matrix, x, vector_size);
    SpmvRun { y: stream.to_dense(matrix.rows()), plan, volumes, ops }
}

/// Like [`execute`], but returns the final combined stream instead of a
/// dense vector — the sparse form cross-partition synchronization merges.
///
/// # Panics
///
/// Panics if `x.len() != matrix.cols()` or `vector_size < 2` (see
/// [`execute`]).
#[must_use]
pub fn execute_to_stream(matrix: &LilMatrix, x: &[f64], vector_size: usize) -> SpmvStreamRun {
    let mut root = Runs::default();
    let (plan, volumes, ops) =
        execute_into(matrix, x, vector_size, &mut SpmvScratch::default(), &mut root);
    SpmvStreamRun { stream: PartialStream::from_root(root), plan, volumes, ops }
}

/// The reusable buffers of [`execute_into`]: the current and next
/// iteration's streams, back to back, and the merge trees' level buffers.
#[derive(Debug, Default)]
pub(crate) struct SpmvScratch {
    current: Runs,
    next: Runs,
    tree: TreeScratch,
}

/// The engine behind [`execute_to_stream`]: appends the final combined
/// stream to `root` as one run and returns the plan, per-iteration volumes
/// and operation counts.
///
/// Every round reduces its streams through [`reduce_group`], the same
/// pairwise tree [`crate::stream::merge_tree`] builds, so the association
/// of every sum — and with it every output bit and counter — is that of a
/// `merge_tree` per round.
///
/// # Panics
///
/// Panics if `x.len() != matrix.cols()` or `vector_size < 2` (see
/// [`execute`]).
pub(crate) fn execute_into(
    matrix: &LilMatrix,
    x: &[f64],
    vector_size: usize,
    scratch: &mut SpmvScratch,
    root: &mut Runs,
) -> (SpmvPlan, Vec<u64>, StreamOps) {
    assert_eq!(x.len(), matrix.cols(), "operand length mismatch");
    assert!(
        vector_size >= 2,
        "vector size must be at least 2: a 1-stream merge round never \
         shrinks the stream count"
    );
    let plan = SpmvPlan::new(matrix.cols(), vector_size);
    let mut ops = StreamOps { multiplies: matrix.nnz() as u64, ..StreamOps::default() };
    let mut volumes = vec![matrix.nnz() as u64];
    let SpmvScratch { current, next, tree } = scratch;

    // Iteration 0's leaves: each column's products, one stream per column,
    // equal rows combined as `PartialStream::push` combines them.
    current.clear();
    for (list, &scale) in matrix.columns().zip(x) {
        for &(row, value) in list {
            current.push(row, value * scale);
        }
        current.seal();
    }

    // Every iteration reduces rounds of up to `vector_size` streams:
    // iteration 0 one round per column chunk (leaf PEs multiply), merge
    // iterations the previous iteration's outputs (leaf PEs skip the
    // multiply, Table II). A single round is the last and writes the root.
    loop {
        let streams = current.len();
        let last = streams <= vector_size;
        let out = if last {
            &mut *root
        } else {
            next.clear();
            &mut *next
        };
        for start in (0..streams).step_by(vector_size) {
            let round = start..(start + vector_size).min(streams);
            reduce_group(current, round, out, tree, &mut ops);
        }
        if last {
            break;
        }
        std::mem::swap(current, next);
        volumes.push(current.entries() as u64);
    }
    debug_assert_eq!(volumes.len(), plan.iterations());
    (plan, volumes, ops)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::CooMatrix;
    use crate::gen;

    fn lil(coo: &CooMatrix) -> LilMatrix {
        LilMatrix::from(coo)
    }

    fn assert_close(a: &[f64], b: &[f64]) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert!((x - y).abs() < 1e-9_f64.max(y.abs() * 1e-12), "{x} vs {y}");
        }
    }

    #[test]
    fn matches_dense_reference_on_small_matrix() {
        let coo = gen::uniform(64, 64, 0.1, 5);
        let x: Vec<f64> = (0..64).map(|i| (i as f64) * 0.25 - 4.0).collect();
        let run = execute(&lil(&coo), &x, 2048);
        assert_close(&run.y, &coo.multiply_dense(&x));
        assert_eq!(run.plan.merge_iterations(), 0);
        assert_eq!(run.volumes.len(), 1);
    }

    #[test]
    fn chunked_execution_still_matches_reference() {
        // Force many rounds and a merge iteration with a tiny vector size.
        let coo = gen::rmat(7, 1500, 6); // 128 × 128
        let x: Vec<f64> = (0..128).map(|i| 1.0 / (i as f64 + 1.0)).collect();
        let run = execute(&lil(&coo), &x, 16);
        assert_close(&run.y, &coo.multiply_dense(&x));
        assert!(run.plan.multiply_rounds() == 8);
        assert_eq!(run.plan.merge_iterations(), 1);
        assert_eq!(run.volumes.len(), 2);
        assert!(run.volumes[1] > 0);
    }

    #[test]
    fn multiply_count_equals_nnz() {
        let coo = gen::banded(100, 3, 7);
        let x = vec![1.0; 100];
        let run = execute(&lil(&coo), &x, 32);
        assert_eq!(run.ops.multiplies, coo.nnz() as u64);
    }

    #[test]
    fn merge_free_runs_are_fastest_relative_to_two_step() {
        let timing = SpmvTiming::paper();
        let coo_small = gen::uniform(512, 512, 0.02, 8);
        let x = vec![1.0; 512];
        let small = execute(&lil(&coo_small), &x, 2048);
        // No merge iterations: speedup equals the multiply advantage, minus
        // the shared round overhead.
        let speedup = timing.speedup(&small);
        assert!(speedup > 3.0 && speedup <= 4.6, "speedup {speedup}");
    }

    #[test]
    fn merge_heavy_runs_shrink_the_speedup_but_stay_above_one() {
        let timing = SpmvTiming::paper();
        let coo = gen::rmat(9, 20_000, 9); // 512 × 512, denser
        let x = vec![1.0; 512];
        // Tiny vector size ⇒ many rounds and merge volume.
        let run = execute(&lil(&coo), &x, 8);
        let speedup = timing.speedup(&run);
        assert!(speedup >= 1.05, "worst case stays ≥ ~1.1: {speedup}");
        let easy = execute(&lil(&coo), &x, 2048);
        assert!(timing.speedup(&easy) > speedup, "fewer merges ⇒ bigger win");
    }

    #[test]
    #[should_panic(expected = "vector size must be at least 2")]
    fn vector_size_one_fails_fast_instead_of_livelocking() {
        // Regression: the merge loop groups `take(vector_size)` streams per
        // round, so with vector_size == 1 the stream count never shrank and
        // `execute` spun forever. It must panic immediately instead.
        let coo = gen::uniform(8, 8, 0.5, 3);
        let x = vec![1.0; 8];
        let _ = execute(&lil(&coo), &x, 1);
    }

    #[test]
    fn stream_variant_matches_the_dense_path() {
        let coo = gen::rmat(6, 400, 11);
        let x: Vec<f64> = (0..64).map(|i| 0.5 + i as f64 * 0.1).collect();
        let dense = execute(&lil(&coo), &x, 16);
        let stream = execute_to_stream(&lil(&coo), &x, 16);
        assert_eq!(stream.stream.to_dense(64), dense.y);
        assert_eq!(stream.plan, dense.plan);
        assert_eq!(stream.volumes, dense.volumes);
        assert_eq!(stream.ops, dense.ops);
    }

    #[test]
    fn empty_column_matrix_works() {
        let coo = CooMatrix::from_triplets(4, 4, [(1, 1, 3.0)]);
        let run = execute(&lil(&coo), &[1.0, 2.0, 1.0, 1.0], 2);
        assert_eq!(run.y, vec![0.0, 6.0, 0.0, 0.0]);
    }
}
