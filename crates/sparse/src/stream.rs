//! Sorted partial-result streams and their tree reduction.
//!
//! In SpMV mode FAFNIR streams `(row, value)` pairs — indices travel *with*
//! the data, unlike embedding lookup where indices are known up front
//! (Table II of the paper). Each leaf PE multiplies a column's non-zeros by
//! its operand element, producing a row-sorted stream; the tree then merges
//! streams pairwise, summing entries with equal row indices. This module is
//! that dataflow, with operation counting for the timing model.
//!
//! One pairwise merge kernel serves every caller. [`merge_two`] and
//! [`merge_tree`] are its stream-at-a-time face; the SpMV engines run it on
//! runs laid back to back in reused flat buffers, with the same pairing.

/// A row-sorted stream of partial results.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PartialStream {
    entries: Vec<(usize, f64)>,
}

impl PartialStream {
    /// An empty stream.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds from entries that must already be sorted by row, duplicates
    /// allowed (they are combined).
    ///
    /// # Panics
    ///
    /// Debug-panics if the entries are not sorted.
    #[must_use]
    pub fn from_sorted(entries: Vec<(usize, f64)>) -> Self {
        debug_assert!(entries.windows(2).all(|w| w[0].0 <= w[1].0), "entries must be row-sorted");
        let mut stream = Self::new();
        for (row, value) in entries {
            stream.push(row, value);
        }
        stream
    }

    /// The single run of a tree's root buffer.
    pub(crate) fn from_root(root: Runs) -> Self {
        debug_assert_eq!(root.len(), 1, "a tree root is one run");
        Self { entries: root.data }
    }

    /// Appends an entry, combining with the tail if the row matches.
    ///
    /// # Panics
    ///
    /// Debug-panics if `row` is smaller than the current tail row.
    pub fn push(&mut self, row: usize, value: f64) {
        match self.entries.last_mut() {
            Some((last, acc)) if *last == row => *acc += value,
            Some((last, _)) => {
                debug_assert!(*last < row, "push must preserve row order");
                self.entries.push((row, value));
            }
            None => self.entries.push((row, value)),
        }
    }

    /// Entry count.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the stream holds no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The sorted entries.
    #[must_use]
    pub fn entries(&self) -> &[(usize, f64)] {
        &self.entries
    }

    /// Scatters the stream into a dense vector of length `rows`.
    ///
    /// # Panics
    ///
    /// Panics if any row index is out of bounds.
    #[must_use]
    pub fn to_dense(&self, rows: usize) -> Vec<f64> {
        let mut dense = vec![0.0; rows];
        for &(row, value) in &self.entries {
            dense[row] += value;
        }
        dense
    }
}

/// Operation counters of a stream reduction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StreamOps {
    /// Index comparisons during merging.
    pub compares: u64,
    /// Additions of equal-row values (reduce operations).
    pub adds: u64,
    /// Entries forwarded unchanged.
    pub forwards: u64,
    /// Multiplications at the leaves.
    pub multiplies: u64,
}

impl StreamOps {
    /// Adds another counter block into this one.
    pub fn merge(&mut self, other: &StreamOps) {
        self.compares += other.compares;
        self.adds += other.adds;
        self.forwards += other.forwards;
        self.multiplies += other.multiplies;
    }
}

/// Merges two row-sorted runs into `out`, summing equal rows — one PE
/// firing in SpMV mode, and the only merge loop of the crate: the tree
/// levels, the cross-rank synchronization stage and the streaming fold all
/// call it. On equal rows the sum is `a`'s value plus `b`'s.
pub(crate) fn merge_into(
    a: &[(usize, f64)],
    b: &[(usize, f64)],
    out: &mut Vec<(usize, f64)>,
    ops: &mut StreamOps,
) {
    out.reserve(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        ops.compares += 1;
        match a[i].0.cmp(&b[j].0) {
            std::cmp::Ordering::Less => {
                out.push(a[i]);
                ops.forwards += 1;
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(b[j]);
                ops.forwards += 1;
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push((a[i].0, a[i].1 + b[j].1));
                ops.adds += 1;
                i += 1;
                j += 1;
            }
        }
    }
    ops.forwards += (a.len() - i + b.len() - j) as u64;
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
}

/// Merges two row-sorted streams, summing equal rows — one PE firing in
/// SpMV mode.
#[must_use]
pub fn merge_two(a: &PartialStream, b: &PartialStream, ops: &mut StreamOps) -> PartialStream {
    let mut entries = Vec::new();
    merge_into(a.entries(), b.entries(), &mut entries, ops);
    PartialStream { entries }
}

/// Reduces many streams through a balanced binary tree — the FAFNIR tree in
/// SpMV mode. Returns the single combined stream.
///
/// Each level pairs streams (0, 1), (2, 3), …; an odd last stream moves up
/// a level unmerged and uncounted.
#[must_use]
pub fn merge_tree(streams: Vec<PartialStream>, ops: &mut StreamOps) -> PartialStream {
    if streams.is_empty() {
        return PartialStream::new();
    }
    let mut leaves = Runs::default();
    for stream in &streams {
        leaves.push_run(stream.entries());
    }
    let mut root = Runs::default();
    reduce_group(&leaves, 0..leaves.len(), &mut root, &mut TreeScratch::default(), ops);
    PartialStream::from_root(root)
}

/// Row-sorted runs laid back to back in one buffer: run `i` is
/// `data[bounds[i]..bounds[i + 1]]`. The flat engine keeps every level of
/// its merge trees in two of these instead of one `Vec` per stream.
#[derive(Debug)]
pub(crate) struct Runs {
    data: Vec<(usize, f64)>,
    bounds: Vec<usize>,
}

impl Default for Runs {
    fn default() -> Self {
        Self { data: Vec::new(), bounds: vec![0] }
    }
}

impl Runs {
    /// Empties the buffer, keeping its capacity.
    pub(crate) fn clear(&mut self) {
        self.data.clear();
        self.bounds.clear();
        self.bounds.push(0);
    }

    /// Run count.
    pub(crate) fn len(&self) -> usize {
        self.bounds.len() - 1
    }

    /// Run `i`.
    pub(crate) fn run(&self, i: usize) -> &[(usize, f64)] {
        &self.data[self.bounds[i]..self.bounds[i + 1]]
    }

    /// Entries in all runs.
    pub(crate) fn entries(&self) -> usize {
        self.data.len()
    }

    /// Entries in runs `group`.
    pub(crate) fn entries_in(&self, group: &std::ops::Range<usize>) -> usize {
        self.bounds[group.end] - self.bounds[group.start]
    }

    /// Appends an entry to the open (last, unsealed) run, combining with
    /// its tail if the row matches — [`PartialStream::push`] on a run.
    pub(crate) fn push(&mut self, row: usize, value: f64) {
        let open = *self.bounds.last().expect("bounds start at 0") < self.data.len();
        match self.data.last_mut() {
            Some((last, acc)) if open && *last == row => *acc += value,
            _ => self.data.push((row, value)),
        }
    }

    /// Closes the open run (possibly empty).
    pub(crate) fn seal(&mut self) {
        self.bounds.push(self.data.len());
    }

    /// Appends a whole run.
    pub(crate) fn push_run(&mut self, run: &[(usize, f64)]) {
        self.data.extend_from_slice(run);
        self.seal();
    }
}

/// The two level buffers a [`reduce_group`] tree alternates between, kept
/// so repeated trees reuse their capacity.
#[derive(Debug, Default)]
pub(crate) struct TreeScratch {
    level: Runs,
    spare: Runs,
}

/// One tree level over runs `group` of `src`, appended to `dst`: pairs
/// (0, 1), (2, 3), … merge; an odd last run moves up unmerged.
fn merge_level(src: &Runs, group: std::ops::Range<usize>, dst: &mut Runs, ops: &mut StreamOps) {
    let mut i = group.start;
    while i + 1 < group.end {
        merge_into(src.run(i), src.run(i + 1), &mut dst.data, ops);
        dst.seal();
        i += 2;
    }
    if i < group.end {
        dst.push_run(src.run(i));
    }
}

/// Reduces runs `group` (non-empty) of `src` through a balanced pairwise
/// tree and appends the single result to `dst` as one run — the exact
/// association of [`merge_tree`], level by level in `scratch`'s two
/// buffers.
pub(crate) fn reduce_group(
    src: &Runs,
    group: std::ops::Range<usize>,
    dst: &mut Runs,
    scratch: &mut TreeScratch,
    ops: &mut StreamOps,
) {
    debug_assert!(!group.is_empty(), "a tree needs at least one stream");
    if group.len() <= 2 {
        merge_level(src, group, dst, ops);
        return;
    }
    let TreeScratch { level, spare } = scratch;
    level.clear();
    merge_level(src, group, level, ops);
    while level.len() > 2 {
        spare.clear();
        merge_level(level, 0..level.len(), spare, ops);
        std::mem::swap(level, spare);
    }
    merge_level(level, 0..level.len(), dst, ops);
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn push_combines_equal_rows() {
        let mut stream = PartialStream::new();
        stream.push(1, 2.0);
        stream.push(1, 3.0);
        stream.push(4, 1.0);
        assert_eq!(stream.entries(), &[(1, 5.0), (4, 1.0)]);
    }

    #[test]
    fn merge_two_sums_common_rows() {
        let a = PartialStream::from_sorted(vec![(0, 1.0), (2, 2.0), (5, 3.0)]);
        let b = PartialStream::from_sorted(vec![(2, 4.0), (3, 1.0)]);
        let mut ops = StreamOps::default();
        let merged = merge_two(&a, &b, &mut ops);
        assert_eq!(merged.entries(), &[(0, 1.0), (2, 6.0), (3, 1.0), (5, 3.0)]);
        assert_eq!(ops.adds, 1);
        assert!(ops.compares >= 3);
    }

    #[test]
    fn merge_tree_handles_odd_counts_and_empties() {
        let streams = vec![
            PartialStream::from_sorted(vec![(0, 1.0)]),
            PartialStream::new(),
            PartialStream::from_sorted(vec![(0, 2.0), (1, 1.0)]),
        ];
        let mut ops = StreamOps::default();
        let merged = merge_tree(streams, &mut ops);
        assert_eq!(merged.entries(), &[(0, 3.0), (1, 1.0)]);
        assert!(merge_tree(Vec::new(), &mut ops).is_empty());
    }

    #[test]
    fn to_dense_scatters() {
        let stream = PartialStream::from_sorted(vec![(1, 2.0), (3, -1.0)]);
        assert_eq!(stream.to_dense(4), vec![0.0, 2.0, 0.0, -1.0]);
    }

    proptest! {
        #[test]
        fn tree_merge_equals_dense_sum(
            lists in proptest::collection::vec(
                proptest::collection::vec((0usize..32, -10.0f64..10.0), 0..20), 1..8)
        ) {
            // Any split into sorted streams reduces to the same dense total.
            let mut expected = vec![0.0; 32];
            let mut streams = Vec::new();
            for list in &lists {
                let mut sorted = list.clone();
                sorted.sort_by_key(|&(row, _)| row);
                for &(row, value) in &sorted {
                    expected[row] += value;
                }
                streams.push(PartialStream::from_sorted(sorted));
            }
            let mut ops = StreamOps::default();
            let merged = merge_tree(streams, &mut ops);
            let dense = merged.to_dense(32);
            for (a, b) in dense.iter().zip(&expected) {
                prop_assert!((a - b).abs() < 1e-9);
            }
        }
    }
}
