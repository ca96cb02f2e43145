//! Load-balanced 1D/2D SpMV partitioning across ranks (real-PIM style).
//!
//! Giannoula et al.'s real-PIM SpMV study splits the matrix across memory
//! ranks — 1D by rows or columns, 2D as a grid — balances either row count
//! or nonzero count per rank, and pays an explicit *synchronization* step
//! to reduce partial results for rows that more than one rank touches.
//! This module is that recipe over the FAFNIR tree:
//!
//! * [`SpmvPartition`] plans one of four [`PartitionStrategy`] layouts over
//!   a [`CooMatrix`], producing per-rank sub-problems (contiguous row/column
//!   windows with their nonzero loads);
//! * [`execute_partitioned`] runs every sub-problem through the existing
//!   [`crate::fafnir_spmv::execute_to_stream`] tree path (paper Sec. IV-D)
//!   and merges partial rows across ranks, counting the entries that cross
//!   a partition boundary;
//! * [`stream_partitioned`] does the same one rank at a time, so inputs
//!   larger than one rank's span never materialize more than one sub-matrix
//!   (plus the running output) at once;
//! * [`PartitionedRun`] prices the whole thing through [`SpmvTiming`]: the
//!   parallel makespan is the slowest rank plus the synchronization stage
//!   ([`SpmvTiming::sync_merge_ns`] per cross-rank entry), the way
//!   `fafnir-cluster` prices cross-shard accumulator transfer.
//!
//! Row-partitioned layouts (`RowBlock`, `NnzBalancedRows`) never overlap
//! output rows, so their merge is free; column and grid layouts trade rank
//! parallelism against cross-rank partial-row reduction.

use std::ops::Range;

use crate::coo::{self, CooMatrix};
use crate::fafnir_spmv::{self, SpmvRun, SpmvScratch, SpmvTiming};
use crate::iteration::SpmvPlan;
use crate::lil::LilMatrix;
use crate::stream::{merge_into, reduce_group, Runs, StreamOps, TreeScratch};

/// How the matrix is split across ranks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PartitionStrategy {
    /// 1D contiguous row blocks with (near-)equal *row counts* per rank.
    RowBlock,
    /// 1D contiguous row blocks balanced by *nonzero count* per rank — the
    /// load-balancing fix for skewed (power-law) matrices.
    NnzBalancedRows,
    /// 1D contiguous column blocks with (near-)equal column counts; every
    /// rank produces partials for all rows, so the merge pays for it.
    ColumnBlock,
    /// 2D grid of `row_ranks × col_ranks` tiles: row bands bound the merge
    /// width, column bands bound each rank's operand slice.
    Grid {
        /// Row bands.
        row_ranks: usize,
        /// Column bands per row band.
        col_ranks: usize,
    },
}

impl PartitionStrategy {
    /// The most-square 2D grid over `ranks` ranks (e.g. 8 → 2×4, 16 → 4×4).
    ///
    /// # Panics
    ///
    /// Panics if `ranks` is zero.
    #[must_use]
    pub fn grid(ranks: usize) -> Self {
        assert!(ranks > 0, "a grid needs at least one rank");
        let mut row_ranks = 1;
        for d in 1..=ranks {
            if d * d > ranks {
                break;
            }
            if ranks.is_multiple_of(d) {
                row_ranks = d;
            }
        }
        Self::Grid { row_ranks, col_ranks: ranks / row_ranks }
    }

    /// Short name used by the CLI and benchmark records.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Self::RowBlock => "row",
            Self::NnzBalancedRows => "nnz",
            Self::ColumnBlock => "col",
            Self::Grid { .. } => "grid",
        }
    }
}

/// One rank's sub-problem: a contiguous row/column window and its load.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RankSpan {
    /// Rank index.
    pub rank: usize,
    /// Global row window (half-open).
    pub rows: Range<usize>,
    /// Global column window (half-open).
    pub cols: Range<usize>,
    /// Nonzeros inside the window.
    pub nnz: usize,
}

/// A partition plan: per-rank windows over a concrete matrix.
///
/// # Examples
///
/// ```
/// use fafnir_sparse::{gen, PartitionStrategy, SpmvPartition};
///
/// let matrix = gen::rmat(8, 4_000, 7);
/// let row = SpmvPartition::new(&matrix, PartitionStrategy::RowBlock, 8);
/// let nnz = SpmvPartition::new(&matrix, PartitionStrategy::NnzBalancedRows, 8);
/// // Balancing by nonzeros beats balancing by rows on a skewed matrix.
/// assert!(nnz.nnz_imbalance() < row.nnz_imbalance());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpmvPartition {
    /// The layout strategy.
    pub strategy: PartitionStrategy,
    /// Matrix rows.
    pub rows: usize,
    /// Matrix columns.
    pub cols: usize,
    /// Matrix nonzeros.
    pub nnz: usize,
    /// Row-band boundaries (`row_bands + 1` entries, starting 0, ending
    /// `rows`).
    row_bounds: Vec<usize>,
    /// Column-band boundaries (`col_bands + 1` entries).
    col_bounds: Vec<usize>,
    /// Per-rank windows in row-major band order.
    spans: Vec<RankSpan>,
}

/// Even boundaries: `parts + 1` cut points over `0..n`.
fn even_bounds(n: usize, parts: usize) -> Vec<usize> {
    (0..=parts).map(|k| k * n / parts).collect()
}

/// Boundaries balancing the per-part sum of `counts`, kept strictly
/// increasing so every band spans at least one row.
fn balanced_bounds(counts: &[usize], parts: usize) -> Vec<usize> {
    let n = counts.len();
    let mut prefix = vec![0usize; n + 1];
    for (i, &c) in counts.iter().enumerate() {
        prefix[i + 1] = prefix[i] + c;
    }
    let total = prefix[n];
    let mut bounds = Vec::with_capacity(parts + 1);
    bounds.push(0);
    for k in 1..parts {
        let target = (k * total).div_ceil(parts);
        let cut = prefix.partition_point(|&p| p < target);
        // Strictly increasing, and leave at least one row per later band.
        let cut = cut.max(bounds[k - 1] + 1).min(n - (parts - k));
        bounds.push(cut);
    }
    bounds.push(n);
    bounds
}

/// Index of the band containing `index` (boundaries are sorted, start 0).
fn band_of(bounds: &[usize], index: usize) -> usize {
    bounds.partition_point(|&b| b <= index) - 1
}

/// Row→band and column→band lookup tables: one load per coordinate instead
/// of a binary search over the boundaries, for passes over every entry.
struct BandTables {
    rows: Vec<u32>,
    cols: Vec<u32>,
    col_bands: usize,
}

impl BandTables {
    fn new(row_bounds: &[usize], col_bounds: &[usize]) -> Self {
        let table = |bounds: &[usize]| -> Vec<u32> {
            let mut table = Vec::with_capacity(bounds[bounds.len() - 1]);
            for (band, window) in bounds.windows(2).enumerate() {
                let band = u32::try_from(band).expect("band count fits in u32");
                table.resize(window[1], band);
            }
            table
        };
        Self { rows: table(row_bounds), cols: table(col_bounds), col_bands: col_bounds.len() - 1 }
    }

    /// The rank owning cell `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if the coordinate is out of bounds.
    fn rank(&self, row: usize, col: usize) -> usize {
        self.rows[row] as usize * self.col_bands + self.cols[col] as usize
    }
}

impl SpmvPartition {
    /// Plans a partition of `matrix` over `ranks` ranks.
    ///
    /// # Panics
    ///
    /// Panics if `ranks` is zero, if a 1D strategy asks for more ranks than
    /// it has rows (or columns) to hand out, or if a [`PartitionStrategy::
    /// Grid`]'s `row_ranks × col_ranks` does not equal `ranks` or exceeds
    /// either matrix dimension.
    #[must_use]
    pub fn new(matrix: &CooMatrix, strategy: PartitionStrategy, ranks: usize) -> Self {
        assert!(ranks > 0, "a partition needs at least one rank");
        let (rows, cols) = (matrix.rows(), matrix.cols());
        let (row_bounds, col_bounds) = match strategy {
            PartitionStrategy::RowBlock => {
                assert!(ranks <= rows, "cannot split {rows} rows over {ranks} ranks");
                (even_bounds(rows, ranks), vec![0, cols])
            }
            PartitionStrategy::NnzBalancedRows => {
                assert!(ranks <= rows, "cannot split {rows} rows over {ranks} ranks");
                let mut row_counts = vec![0usize; rows];
                for &(row, _, _) in matrix.entries() {
                    row_counts[row] += 1;
                }
                (balanced_bounds(&row_counts, ranks), vec![0, cols])
            }
            PartitionStrategy::ColumnBlock => {
                assert!(ranks <= cols, "cannot split {cols} columns over {ranks} ranks");
                (vec![0, rows], even_bounds(cols, ranks))
            }
            PartitionStrategy::Grid { row_ranks, col_ranks } => {
                assert!(
                    row_ranks * col_ranks == ranks,
                    "grid {row_ranks}x{col_ranks} does not cover {ranks} ranks"
                );
                assert!(row_ranks <= rows, "cannot split {rows} rows into {row_ranks} bands");
                assert!(col_ranks <= cols, "cannot split {cols} columns into {col_ranks} bands");
                (even_bounds(rows, row_ranks), even_bounds(cols, col_ranks))
            }
        };
        let col_bands = col_bounds.len() - 1;
        let mut spans: Vec<RankSpan> = (0..ranks)
            .map(|rank| RankSpan {
                rank,
                rows: row_bounds[rank / col_bands]..row_bounds[rank / col_bands + 1],
                cols: col_bounds[rank % col_bands]..col_bounds[rank % col_bands + 1],
                nnz: 0,
            })
            .collect();
        let tables = BandTables::new(&row_bounds, &col_bounds);
        for &(row, col, _) in matrix.entries() {
            spans[tables.rank(row, col)].nnz += 1;
        }
        Self { strategy, rows, cols, nnz: matrix.nnz(), row_bounds, col_bounds, spans }
    }

    /// Rank count.
    #[must_use]
    pub fn ranks(&self) -> usize {
        self.spans.len()
    }

    /// Row bands (1 for column partitions).
    #[must_use]
    fn row_bands(&self) -> usize {
        self.row_bounds.len() - 1
    }

    /// Column bands per row band (1 for row partitions).
    #[must_use]
    fn col_bands(&self) -> usize {
        self.col_bounds.len() - 1
    }

    /// Per-rank windows in row-major band order.
    #[must_use]
    pub fn spans(&self) -> &[RankSpan] {
        &self.spans
    }

    /// The rank owning matrix cell `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if the coordinate is out of bounds.
    #[must_use]
    pub fn rank_of(&self, row: usize, col: usize) -> usize {
        assert!(row < self.rows && col < self.cols, "cell ({row},{col}) out of bounds");
        band_of(&self.row_bounds, row) * self.col_bands() + band_of(&self.col_bounds, col)
    }

    /// Nonzero-load imbalance factor: the busiest rank's nonzeros over the
    /// per-rank mean (max/mean, matching `ClusterReport`'s convention).
    /// 1.0 is perfect balance; `ranks` is total skew. Returns 1.0 for an
    /// empty matrix.
    #[must_use]
    pub fn nnz_imbalance(&self) -> f64 {
        if self.nnz == 0 {
            return 1.0;
        }
        let max = self.spans.iter().map(|s| s.nnz).max().unwrap_or(0) as f64;
        max / (self.nnz as f64 / self.ranks() as f64)
    }
}

/// One rank's executed sub-problem: its plan, volumes, and the size of the
/// partial-result stream it ships to the synchronization stage.
#[derive(Debug, Clone, PartialEq)]
pub struct RankRun {
    /// Rank index.
    pub rank: usize,
    /// Nonzeros the rank multiplied.
    pub nnz: u64,
    /// The rank's iteration/round plan.
    pub plan: SpmvPlan,
    /// Entries processed per iteration (see
    /// [`crate::fafnir_spmv::SpmvRun::volumes`]).
    pub volumes: Vec<u64>,
    /// Exact operation counts inside the rank.
    pub ops: StreamOps,
    /// Entries in the rank's final combined stream — what crosses the
    /// partition boundary if the merge stage needs it.
    pub partial_entries: u64,
}

/// The record of one partitioned SpMV: result, per-rank runs, and the
/// synchronization stage's measured volume.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionedRun {
    /// The product vector `y = A·x`.
    pub y: Vec<f64>,
    /// The partition plan executed.
    pub partition: SpmvPartition,
    /// Per-rank execution records (rank order).
    pub rank_runs: Vec<RankRun>,
    /// Partial-result entries that crossed a partition boundary during the
    /// merge stage (0 for row-partitioned layouts).
    pub sync_entries: u64,
    /// Merge stages performed (one per row band that more than one rank
    /// contributed partials to).
    pub sync_rounds: usize,
    /// Operation counts of the synchronization merges themselves.
    pub sync_ops: StreamOps,
}

impl PartitionedRun {
    /// Each rank's modeled time under `timing`.
    #[must_use]
    pub fn rank_ns(&self, timing: &SpmvTiming) -> Vec<f64> {
        self.rank_runs
            .iter()
            .map(|r| timing.fafnir_parts_ns(&r.volumes, r.plan.total_rounds()))
            .collect()
    }

    /// The slowest rank's time — the parallel phase's makespan.
    #[must_use]
    pub fn critical_path_ns(&self, timing: &SpmvTiming) -> f64 {
        self.rank_ns(timing).into_iter().fold(0.0, f64::max)
    }

    /// The synchronization stage's cost: every cross-rank entry pays
    /// [`SpmvTiming::sync_merge_ns`], every merge stage one round overhead.
    #[must_use]
    pub fn sync_ns(&self, timing: &SpmvTiming) -> f64 {
        self.sync_entries as f64 * timing.sync_merge_ns
            + self.sync_rounds as f64 * timing.round_overhead_ns
    }

    /// End-to-end modeled time: slowest rank, then synchronization.
    #[must_use]
    pub fn total_ns(&self, timing: &SpmvTiming) -> f64 {
        self.critical_path_ns(timing) + self.sync_ns(timing)
    }

    /// Measured speedup over an unpartitioned run of the same problem
    /// (ideal would be the rank count).
    #[must_use]
    pub fn speedup_over(&self, serial: &SpmvRun, timing: &SpmvTiming) -> f64 {
        timing.fafnir_ns(serial) / self.total_ns(timing)
    }

    /// Time-load imbalance factor: slowest rank over the mean rank time
    /// (max/mean). Returns 1.0 when every rank is free.
    #[must_use]
    pub fn time_imbalance(&self, timing: &SpmvTiming) -> f64 {
        let times = self.rank_ns(timing);
        let mean = times.iter().sum::<f64>() / times.len() as f64;
        if mean == 0.0 {
            return 1.0;
        }
        self.critical_path_ns(timing) / mean
    }
}

/// The buffers one rank's run needs, reused from rank to rank.
struct RankScratch {
    lil: LilMatrix,
    spmv: SpmvScratch,
}

impl RankScratch {
    fn new() -> Self {
        Self { lil: LilMatrix::empty(), spmv: SpmvScratch::default() }
    }
}

/// Runs one rank's window through the tree path and appends its final
/// combined stream to `partials` as one run. `triplets` holds the window's
/// entries in local coordinates; duplicates are summed and the order made
/// row-major first, as [`CooMatrix::from_triplets`] would.
fn run_rank(
    span: &RankSpan,
    triplets: &mut Vec<(usize, usize, f64)>,
    x: &[f64],
    vector_size: usize,
    scratch: &mut RankScratch,
    partials: &mut Runs,
) -> RankRun {
    coo::sum_duplicates(triplets);
    scratch.lil.refill(span.rows.len(), span.cols.len(), triplets);
    let before = partials.entries();
    let (plan, volumes, ops) = fafnir_spmv::execute_into(
        &scratch.lil,
        &x[span.cols.clone()],
        vector_size,
        &mut scratch.spmv,
        partials,
    );
    RankRun {
        rank: span.rank,
        nnz: triplets.len() as u64,
        plan,
        volumes,
        ops,
        partial_entries: (partials.entries() - before) as u64,
    }
}

/// Scatters a band's merged stream into the output window.
fn scatter(y: &mut [f64], rows: &Range<usize>, stream: &[(usize, f64)]) {
    for &(row, value) in stream {
        y[rows.start + row] += value;
    }
}

/// Executes `y = A·x` across a partition: every rank's window runs through
/// the FAFNIR tree path, then partial rows are reduced across ranks band by
/// band (balanced merge trees, like the hardware would gang spare PEs).
///
/// # Panics
///
/// Panics if `x.len()`, the matrix shape and the partition disagree, or if
/// `vector_size < 2` (see [`crate::fafnir_spmv::execute`]).
#[must_use]
pub fn execute_partitioned(
    matrix: &CooMatrix,
    x: &[f64],
    partition: &SpmvPartition,
    vector_size: usize,
) -> PartitionedRun {
    assert_eq!(x.len(), matrix.cols(), "operand length mismatch");
    assert_eq!(
        (partition.rows, partition.cols, partition.nnz),
        (matrix.rows(), matrix.cols(), matrix.nnz()),
        "partition was planned for a different matrix"
    );
    // One pass buckets every entry into its rank's local coordinates.
    let tables = BandTables::new(&partition.row_bounds, &partition.col_bounds);
    let mut buckets: Vec<Vec<(usize, usize, f64)>> =
        partition.spans.iter().map(|s| Vec::with_capacity(s.nnz)).collect();
    for &(row, col, value) in matrix.entries() {
        let rank = tables.rank(row, col);
        let span = &partition.spans[rank];
        buckets[rank].push((row - span.rows.start, col - span.cols.start, value));
    }

    // Every rank's final stream lands in `partials`, one run per rank.
    let mut scratch = RankScratch::new();
    let mut partials = Runs::default();
    let rank_runs: Vec<RankRun> = partition
        .spans
        .iter()
        .zip(buckets)
        .map(|(span, mut bucket)| {
            run_rank(span, &mut bucket, x, vector_size, &mut scratch, &mut partials)
        })
        .collect();

    // Synchronization: within each row band, reduce the column ranks'
    // partial rows; across bands, outputs are disjoint.
    let mut y = vec![0.0; partition.rows];
    let (mut sync_entries, mut sync_rounds) = (0u64, 0usize);
    let mut sync_ops = StreamOps::default();
    let col_bands = partition.col_bands();
    let (mut merged, mut tree) = (Runs::default(), TreeScratch::default());
    for band in 0..partition.row_bands() {
        let band_rows = &partition.spans[band * col_bands].rows;
        let group = band * col_bands..(band + 1) * col_bands;
        if col_bands > 1 {
            sync_entries += partials.entries_in(&group) as u64;
            sync_rounds += 1;
            merged.clear();
            reduce_group(&partials, group, &mut merged, &mut tree, &mut sync_ops);
            scatter(&mut y, band_rows, merged.run(0));
        } else {
            scatter(&mut y, band_rows, partials.run(band));
        }
    }
    PartitionedRun {
        y,
        partition: partition.clone(),
        rank_runs,
        sync_entries,
        sync_rounds,
        sync_ops,
    }
}

/// The streaming driver: identical accounting to [`execute_partitioned`],
/// but ranks are extracted and executed one at a time and their partials
/// folded immediately, so at no point does more than one rank's sub-matrix
/// (plus the running output and one band accumulator) live in memory — a
/// matrix larger than any single rank's span never materializes a full
/// dense intermediate.
///
/// Floating-point note: the band fold is sequential (left to right) rather
/// than a balanced tree, so results can differ from
/// [`execute_partitioned`] by rounding only.
///
/// # Panics
///
/// Panics under the same conditions as [`execute_partitioned`].
#[must_use]
pub fn stream_partitioned(
    matrix: &CooMatrix,
    x: &[f64],
    partition: &SpmvPartition,
    vector_size: usize,
) -> PartitionedRun {
    assert_eq!(x.len(), matrix.cols(), "operand length mismatch");
    assert_eq!(
        (partition.rows, partition.cols, partition.nnz),
        (matrix.rows(), matrix.cols(), matrix.nnz()),
        "partition was planned for a different matrix"
    );
    let mut y = vec![0.0; partition.rows];
    let mut rank_runs = Vec::with_capacity(partition.ranks());
    let (mut sync_entries, mut sync_rounds) = (0u64, 0usize);
    let mut sync_ops = StreamOps::default();
    let col_bands = partition.col_bands();
    let mut scratch = RankScratch::new();
    let (mut bucket, mut partial) = (Vec::new(), Runs::default());
    let (mut accumulator, mut merged) = (Vec::new(), Vec::new());
    for band in 0..partition.row_bands() {
        let band_rows = &partition.spans[band * col_bands].rows;
        accumulator.clear();
        for span in &partition.spans[band * col_bands..(band + 1) * col_bands] {
            // One scan extracts the rank's window in local coordinates.
            bucket.clear();
            bucket.extend(
                matrix
                    .entries()
                    .iter()
                    .filter(|(row, col, _)| span.rows.contains(row) && span.cols.contains(col))
                    .map(|&(row, col, value)| {
                        (row - span.rows.start, col - span.cols.start, value)
                    }),
            );
            partial.clear();
            rank_runs.push(run_rank(span, &mut bucket, x, vector_size, &mut scratch, &mut partial));
            if col_bands > 1 {
                sync_entries += partial.entries() as u64;
                merged.clear();
                merge_into(&accumulator, partial.run(0), &mut merged, &mut sync_ops);
                std::mem::swap(&mut accumulator, &mut merged);
            }
        }
        if col_bands > 1 {
            sync_rounds += 1;
            scatter(&mut y, band_rows, &accumulator);
        } else {
            scatter(&mut y, band_rows, partial.run(0));
        }
    }
    PartitionedRun {
        y,
        partition: partition.clone(),
        rank_runs,
        sync_entries,
        sync_rounds,
        sync_ops,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    fn assert_close(a: &[f64], b: &[f64]) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert!((x - y).abs() < 1e-9_f64.max(y.abs() * 1e-12), "{x} vs {y}");
        }
    }

    fn operand(cols: usize) -> Vec<f64> {
        (0..cols).map(|i| 0.5 + (i % 17) as f64 * 0.25).collect()
    }

    fn strategies(ranks: usize) -> [PartitionStrategy; 4] {
        [
            PartitionStrategy::RowBlock,
            PartitionStrategy::NnzBalancedRows,
            PartitionStrategy::ColumnBlock,
            PartitionStrategy::grid(ranks),
        ]
    }

    #[test]
    fn grid_factorization_is_most_square() {
        assert_eq!(
            PartitionStrategy::grid(1),
            PartitionStrategy::Grid { row_ranks: 1, col_ranks: 1 }
        );
        assert_eq!(
            PartitionStrategy::grid(8),
            PartitionStrategy::Grid { row_ranks: 2, col_ranks: 4 }
        );
        assert_eq!(
            PartitionStrategy::grid(16),
            PartitionStrategy::Grid { row_ranks: 4, col_ranks: 4 }
        );
        assert_eq!(
            PartitionStrategy::grid(7),
            PartitionStrategy::Grid { row_ranks: 1, col_ranks: 7 }
        );
    }

    #[test]
    fn spans_tile_the_matrix_exactly() {
        let matrix = gen::rmat(7, 2_000, 5);
        for strategy in strategies(8) {
            let partition = SpmvPartition::new(&matrix, strategy, 8);
            assert_eq!(partition.ranks(), 8, "{strategy:?}");
            let total: usize = partition.spans().iter().map(|s| s.nnz).sum();
            assert_eq!(total, matrix.nnz(), "{strategy:?} must cover every entry");
            // Every cell maps to exactly the span that contains it.
            for &(row, col, _) in matrix.entries().iter().step_by(97) {
                let span = &partition.spans()[partition.rank_of(row, col)];
                assert!(span.rows.contains(&row) && span.cols.contains(&col));
            }
            // Windows are non-empty even on skewed inputs.
            for span in partition.spans() {
                assert!(!span.rows.is_empty() && !span.cols.is_empty(), "{strategy:?}");
            }
        }
    }

    #[test]
    fn nnz_balancing_beats_row_counting_on_skewed_matrices() {
        let matrix = gen::rmat(9, 30_000, 6);
        let row = SpmvPartition::new(&matrix, PartitionStrategy::RowBlock, 8);
        let nnz = SpmvPartition::new(&matrix, PartitionStrategy::NnzBalancedRows, 8);
        assert!(
            nnz.nnz_imbalance() < row.nnz_imbalance() - 0.2,
            "nnz {} vs row {}",
            nnz.nnz_imbalance(),
            row.nnz_imbalance()
        );
        assert!(nnz.nnz_imbalance() < 1.2, "greedy cuts land near balance");
    }

    #[test]
    fn balanced_bounds_survive_one_row_holding_everything() {
        // All weight in one row: bands stay non-empty and strictly ordered.
        let mut counts = vec![0usize; 10];
        counts[4] = 100;
        let bounds = balanced_bounds(&counts, 4);
        assert_eq!(bounds.first(), Some(&0));
        assert_eq!(bounds.last(), Some(&10));
        for window in bounds.windows(2) {
            assert!(window[0] < window[1], "{bounds:?}");
        }
    }

    #[test]
    fn every_strategy_matches_the_dense_reference() {
        let suite =
            [gen::rmat(7, 3_000, 8), gen::banded(150, 3, 9), gen::uniform(96, 96, 0.08, 10)];
        for matrix in &suite {
            let x = operand(matrix.cols());
            let reference = matrix.multiply_dense(&x);
            let serial = fafnir_spmv::execute(&LilMatrix::from(matrix), &x, 32);
            assert_close(&serial.y, &reference);
            for ranks in [1usize, 3, 8] {
                for strategy in strategies(ranks) {
                    let partition = SpmvPartition::new(matrix, strategy, ranks);
                    let run = execute_partitioned(matrix, &x, &partition, 32);
                    assert_close(&run.y, &reference);
                    assert_close(&run.y, &serial.y);
                    let streamed = stream_partitioned(matrix, &x, &partition, 32);
                    assert_close(&streamed.y, &reference);
                    assert_eq!(streamed.sync_entries, run.sync_entries, "{strategy:?}");
                    assert_eq!(streamed.sync_rounds, run.sync_rounds);
                    let nnz: u64 = run.rank_runs.iter().map(|r| r.nnz).sum();
                    assert_eq!(nnz, matrix.nnz() as u64, "{strategy:?}");
                }
            }
        }
    }

    #[test]
    fn row_partitions_need_no_synchronization_and_column_partitions_do() {
        let matrix = gen::rmat(7, 2_000, 12);
        let x = operand(matrix.cols());
        for strategy in [PartitionStrategy::RowBlock, PartitionStrategy::NnzBalancedRows] {
            let run =
                execute_partitioned(&matrix, &x, &SpmvPartition::new(&matrix, strategy, 4), 32);
            assert_eq!(run.sync_entries, 0, "{strategy:?}");
            assert_eq!(run.sync_rounds, 0);
        }
        let col = execute_partitioned(
            &matrix,
            &x,
            &SpmvPartition::new(&matrix, PartitionStrategy::ColumnBlock, 4),
            32,
        );
        assert!(col.sync_entries > 0);
        assert_eq!(col.sync_rounds, 1, "one band, one merge stage");
        let timing = SpmvTiming::paper();
        assert!(col.sync_ns(&timing) > 0.0);
        assert!(col.total_ns(&timing) > col.critical_path_ns(&timing));
    }

    #[test]
    fn partitioning_speeds_up_over_the_serial_run() {
        let matrix = gen::banded(2_048, 6, 13);
        let x = operand(matrix.cols());
        let timing = SpmvTiming::paper();
        let serial = fafnir_spmv::execute(&LilMatrix::from(&matrix), &x, 64);
        let mut last = 0.0;
        for ranks in [2usize, 4, 8] {
            let partition = SpmvPartition::new(&matrix, PartitionStrategy::NnzBalancedRows, ranks);
            let run = execute_partitioned(&matrix, &x, &partition, 64);
            let speedup = run.speedup_over(&serial, &timing);
            assert!(speedup > 1.2, "{ranks} ranks: {speedup}");
            assert!(speedup > last, "more ranks, more speedup on a balanced band");
            assert!(run.time_imbalance(&timing) >= 1.0);
            last = speedup;
        }
    }

    #[test]
    #[should_panic(expected = "different matrix")]
    fn partition_and_matrix_must_agree() {
        let a = gen::banded(32, 1, 1);
        let b = gen::banded(48, 1, 1);
        let partition = SpmvPartition::new(&a, PartitionStrategy::RowBlock, 4);
        let x = vec![1.0; b.cols()];
        let _ = execute_partitioned(&b, &x, &partition, 32);
    }

    #[test]
    #[should_panic(expected = "cannot split")]
    fn more_ranks_than_rows_is_rejected() {
        let matrix = gen::banded(4, 1, 1);
        let _ = SpmvPartition::new(&matrix, PartitionStrategy::RowBlock, 8);
    }
}
