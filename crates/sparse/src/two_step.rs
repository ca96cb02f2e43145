//! The Two-Step NDP SpMV baseline (paper Sec. V, \[10\]).
//!
//! The Two-Step algorithm converts SpMV's random accesses into regular
//! streaming: step 1 multiplies the matrix in column order, emitting sorted
//! partial-result runs; step 2 combines all runs in a *single* pass through
//! a binary-tree-based multi-way merge core — the part the accelerator
//! optimizes hardest. Compared to FAFNIR it pays more per non-zero in step
//! 1 (decompression plus a chain of adders instead of a parallel tree) but
//! less per entry in the merge.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::fafnir_spmv::{SpmvRun, SpmvTiming};
use crate::iteration::SpmvPlan;
use crate::lil::LilMatrix;
use crate::stream::{PartialStream, StreamOps};

/// Executes `y = A·x` with the Two-Step structure: chunked multiply, then
/// one multi-way merge pass.
///
/// Returns an [`SpmvRun`] whose `volumes` reflect Two-Step's phases:
/// `volumes[0]` is the non-zero count and `volumes[1]` (when present) the
/// single merge pass's input volume.
///
/// # Panics
///
/// Panics if `x.len() != matrix.cols()` or `vector_size < 2` (the shared
/// [`SpmvPlan`] rejects 1-stream merge rounds).
#[must_use]
pub fn execute(matrix: &LilMatrix, x: &[f64], vector_size: usize) -> SpmvRun {
    assert_eq!(x.len(), matrix.cols(), "operand length mismatch");
    assert!(
        vector_size >= 2,
        "vector size must be at least 2: a 1-stream merge round never \
         shrinks the stream count"
    );
    let mut ops = StreamOps::default();
    let mut volumes = vec![matrix.nnz() as u64];

    // Step 1: per-chunk multiply producing one sorted run per chunk. The
    // hardware uses a chain of adders; functionally it is a column-order
    // accumulation into a row-sorted run.
    let runs: Vec<PartialStream> = matrix
        .column_chunks(vector_size)
        .map(|chunk| {
            let mut entries: Vec<(usize, f64)> = Vec::with_capacity(chunk.nnz());
            for (col, list) in chunk.columns() {
                ops.multiplies += list.len() as u64;
                entries.extend(list.iter().map(|&(row, value)| (row, value * x[col])));
            }
            entries.sort_by_key(|&(row, _)| row);
            PartialStream::from_sorted(entries)
        })
        .collect();

    // Step 2: one k-way merge over all runs (the optimized merge core).
    let y = if runs.len() > 1 {
        volumes.push(runs.iter().map(|r| r.len() as u64).sum());
        k_way_merge(&runs, &mut ops).to_dense(matrix.rows())
    } else {
        runs.into_iter().next().unwrap_or_default().to_dense(matrix.rows())
    };

    // Two-Step always completes in at most two phases; reuse the plan type
    // with its actual round structure (multiply rounds + 1 merge round).
    let plan = SpmvPlan::new(matrix.cols(), vector_size);
    SpmvRun { y, plan, volumes, ops }
}

/// Merges `k` sorted runs in one pass, summing equal rows.
fn k_way_merge(runs: &[PartialStream], ops: &mut StreamOps) -> PartialStream {
    // A min-heap of (row, run, position) heads, one per live run: the
    // lowest row wins and equal rows go to the lowest run index. The
    // modelled binary compare tree inspects every live head per output, so
    // each round counts one compare per live head.
    let mut heads: BinaryHeap<Reverse<(usize, usize, usize)>> = runs
        .iter()
        .enumerate()
        .filter_map(|(run_index, run)| {
            run.entries().first().map(|&(row, _)| Reverse((row, run_index, 0)))
        })
        .collect();
    let mut out = PartialStream::new();
    while let Some(Reverse((row, run_index, position))) = heads.pop() {
        ops.compares += heads.len() as u64 + 1;
        let entries = runs[run_index].entries();
        let (_, value) = entries[position];
        if let Some(&(next_row, _)) = entries.get(position + 1) {
            heads.push(Reverse((next_row, run_index, position + 1)));
        }
        // PartialStream::push folds equal rows, modelling the merge core's
        // accumulate-on-tie behaviour.
        if out.entries().last().is_some_and(|&(last, _)| last == row) {
            ops.adds += 1;
        } else {
            ops.forwards += 1;
        }
        out.push(row, value);
    }
    out
}

/// Convenience: FAFNIR-vs-Two-Step speedup on the same problem, each engine
/// timed on its own run record (Fig. 14's y-axis).
#[must_use]
pub fn speedup(timing: &SpmvTiming, fafnir_run: &SpmvRun, two_step_run: &SpmvRun) -> f64 {
    timing.two_step_ns(two_step_run) / timing.fafnir_ns(fafnir_run)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fafnir_spmv;
    use crate::gen;

    fn assert_close(a: &[f64], b: &[f64]) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert!((x - y).abs() < 1e-9_f64.max(y.abs() * 1e-12), "{x} vs {y}");
        }
    }

    #[test]
    fn matches_dense_reference() {
        let coo = gen::uniform(80, 120, 0.08, 11);
        let lil = LilMatrix::from(&coo);
        let x: Vec<f64> = (0..120).map(|i| (i % 7) as f64 - 3.0).collect();
        let run = execute(&lil, &x, 32);
        assert_close(&run.y, &coo.multiply_dense(&x));
    }

    #[test]
    fn agrees_with_fafnir_engine() {
        let coo = gen::rmat(7, 2000, 12);
        let lil = LilMatrix::from(&coo);
        let x: Vec<f64> = (0..128).map(|i| 0.5 + (i as f64) * 0.01).collect();
        let fafnir = fafnir_spmv::execute(&lil, &x, 16);
        let two_step = execute(&lil, &x, 16);
        assert_close(&fafnir.y, &two_step.y);
    }

    #[test]
    fn single_chunk_needs_no_merge_pass() {
        let coo = gen::uniform(32, 32, 0.1, 13);
        let lil = LilMatrix::from(&coo);
        let run = execute(&lil, &vec![1.0; 32], 64);
        assert_eq!(run.volumes.len(), 1);
    }

    #[test]
    fn multi_chunk_reports_merge_volume() {
        let coo = gen::uniform(64, 64, 0.2, 14);
        let lil = LilMatrix::from(&coo);
        let run = execute(&lil, &vec![1.0; 64], 8);
        assert_eq!(run.volumes.len(), 2);
        assert!(run.volumes[1] > 0);
    }

    #[test]
    fn fig14_envelope_holds() {
        let timing = SpmvTiming::paper();
        // Merge-free scientific kernel: big win.
        let small = gen::uniform(1024, 1024, 0.01, 15);
        let lil_small = LilMatrix::from(&small);
        let x_small = vec![1.0; 1024];
        let f_small = fafnir_spmv::execute(&lil_small, &x_small, 2048);
        let t_small = execute(&lil_small, &x_small, 2048);
        let s_small = speedup(&timing, &f_small, &t_small);
        assert!(s_small > 3.5 && s_small <= 4.6, "merge-free speedup {s_small}");

        // Merge-heavy graph: win shrinks toward ~1.1 but stays ≥ 1.
        let big = gen::rmat(9, 30_000, 16);
        let lil_big = LilMatrix::from(&big);
        let x_big = vec![1.0; 512];
        let f_big = fafnir_spmv::execute(&lil_big, &x_big, 8);
        let t_big = execute(&lil_big, &x_big, 8);
        let s_big = speedup(&timing, &f_big, &t_big);
        assert!(s_big >= 1.0, "worst case at least parity: {s_big}");
        assert!(s_big < s_small, "merges shrink the advantage");
    }
}
