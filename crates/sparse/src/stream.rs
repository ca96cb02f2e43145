//! Sorted partial-result streams and their tree reduction.
//!
//! In SpMV mode FAFNIR streams `(row, value)` pairs — indices travel *with*
//! the data, unlike embedding lookup where indices are known up front
//! (Table II of the paper). Each leaf PE multiplies a column's non-zeros by
//! its operand element, producing a row-sorted stream; the tree then merges
//! streams pairwise, summing entries with equal row indices. This module is
//! that dataflow, with operation counting for the timing model.

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

/// Merges two row-sorted streams, summing equal rows — one PE firing in
/// SpMV mode.
#[must_use]
pub fn merge_two(a: &PartialStream, b: &PartialStream, ops: &mut StreamOps) -> PartialStream {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    let (ea, eb) = (a.entries(), b.entries());
    while i < ea.len() && j < eb.len() {
        ops.compares += 1;
        match ea[i].0.cmp(&eb[j].0) {
            std::cmp::Ordering::Less => {
                out.push(ea[i]);
                ops.forwards += 1;
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(eb[j]);
                ops.forwards += 1;
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push((ea[i].0, ea[i].1 + eb[j].1));
                ops.adds += 1;
                i += 1;
                j += 1;
            }
        }
    }
    ops.forwards += (ea.len() - i + eb.len() - j) as u64;
    out.extend_from_slice(&ea[i..]);
    out.extend_from_slice(&eb[j..]);
    PartialStream { entries: out }
}

/// Reduces many streams through a balanced binary tree — the FAFNIR tree in
/// SpMV mode. Returns the single combined stream.
#[must_use]
pub fn merge_tree(mut streams: Vec<PartialStream>, ops: &mut StreamOps) -> PartialStream {
    if streams.is_empty() {
        return PartialStream::new();
    }
    while streams.len() > 1 {
        let mut next = Vec::with_capacity(streams.len().div_ceil(2));
        let mut iter = streams.into_iter();
        while let Some(a) = iter.next() {
            match iter.next() {
                Some(b) => next.push(merge_two(&a, &b, ops)),
                None => next.push(a),
            }
        }
        streams = next;
    }
    streams.pop().expect("non-empty")
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
