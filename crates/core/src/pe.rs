//! The processing element (PE): compute units plus a merge unit.
//!
//! A PE takes two input streams (A and B), each a list of [`Item`]s, and for
//! every item and every pending-query entry decides to **reduce** (the
//! partner holding the rest of the query sits on the other input) or
//! **forward** (the partner is elsewhere in the tree). Reductions follow the
//! paper's header rule: if `B[x].queries[j]` contains all elements of
//! `A[i].indices`, the values are combined, the `indices` fields are
//! concatenated, and the consumed indices leave the `queries` field
//! (Sec. IV-B, Fig. 6). Comparisons run in both directions, so the raw
//! output list contains duplicates and split headers; the **merge unit**
//! removes redundant outputs and concatenates the `queries` fields of
//! outputs that carry the same value — which is what bounds a PE's output
//! count by the batch size (Table I).

use std::sync::Arc;

use crate::item::{Header, Item, PendingQuery};
use crate::reduce::ReduceOperator;
use crate::timing::PeTiming;

/// Operation counters accumulated by one PE invocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PeOpCounts {
    /// Header subset comparisons performed by the compute units.
    pub compares: u64,
    /// Value reductions (element-wise combines).
    pub reduces: u64,
    /// Forwards (items passed through for an unmatched query entry).
    pub forwards: u64,
    /// Raw outputs removed or folded by the merge unit.
    pub merges: u64,
    /// Raw outputs before merging.
    pub raw_outputs: u64,
    /// Final outputs after merging.
    pub outputs: u64,
    /// Largest input-side occupancy seen (buffer sizing, Table I).
    pub max_input_items: u64,
}

impl PeOpCounts {
    /// Adds another counter block into this one.
    pub fn merge(&mut self, other: &PeOpCounts) {
        self.compares += other.compares;
        self.reduces += other.reduces;
        self.forwards += other.forwards;
        self.merges += other.merges;
        self.raw_outputs += other.raw_outputs;
        self.outputs += other.outputs;
        self.max_input_items = self.max_input_items.max(other.max_input_items);
    }
}

/// A processing element with the paper's two-input microarchitecture.
///
/// The PE itself is stateless between invocations; FIFOs and wiring live in
/// [`crate::tree::ReductionTree`]. [`ProcessingElement::process_owned`] is
/// the combinational behaviour of one firing.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ProcessingElement {
    /// Stage latencies.
    pub timing: PeTiming,
}

impl ProcessingElement {
    /// Processes inputs A and B, returning merged outputs and op counts.
    ///
    /// The compute units combine with `operator`; item values are opaque
    /// accumulators, and the header dataflow (compare/forward/merge) is
    /// operator-independent. Both input streams are consumed, and each
    /// accumulator *moves* into its last surviving output instead of being
    /// cloned, since items climb the tree by value.
    ///
    /// Items in the result carry `ready_ns` timestamps derived from their
    /// input items plus compare/reduce/forward/merge latencies; the caller
    /// (the tree) applies output-port serialization.
    #[must_use]
    pub fn process_owned(
        &self,
        operator: &dyn ReduceOperator,
        a: Vec<Item>,
        b: Vec<Item>,
    ) -> (Vec<Item>, PeOpCounts) {
        let mut counts =
            PeOpCounts { max_input_items: a.len().max(b.len()) as u64, ..PeOpCounts::default() };
        let split = a.len();
        // Both sides in one buffer so disjoint mutable access by input index
        // (for buffer stealing) is a `split_at_mut` away.
        let mut inputs = a;
        inputs.extend(b);
        let mut raw: Vec<RawOutput> = Vec::new();
        {
            let (a, b) = inputs.split_at(split);
            self.scan_side(a, b, 0, split, &mut raw, &mut counts);
            self.scan_side(b, a, split, 0, &mut raw, &mut counts);
        }
        counts.raw_outputs = raw.len() as u64;
        let merged = self.merge_unit(raw, &mut counts);
        counts.outputs = merged.len() as u64;
        // Per-input remaining-use counts over the *surviving* outputs: once
        // an input's count hits zero its buffer is free to be moved out.
        let mut uses = vec![0u32; inputs.len()];
        for out in &merged {
            match out.source {
                RawSource::Reduce { x, y } => {
                    uses[x] += 1;
                    uses[y] += 1;
                }
                RawSource::Forward { x } => uses[x] += 1,
            }
        }
        let outputs = self.materialize_owned(operator, merged, &mut inputs, &mut uses);
        (outputs, counts)
    }

    /// One direction of the compute-unit array: each item of `from` is
    /// compared, per pending-query entry, against all items of `against`.
    ///
    /// Outputs are *planned*, not built: headers and timestamps are final,
    /// but accumulators are deferred to `materialize_owned`
    /// so that duplicates dropped by the merge unit never pay a combine.
    /// `from_base`/`against_base` map slice positions to the shared input
    /// index space (side A first, then side B).
    fn scan_side(
        &self,
        from: &[Item],
        against: &[Item],
        from_base: usize,
        against_base: usize,
        raw: &mut Vec<RawOutput>,
        counts: &mut PeOpCounts,
    ) {
        // Small partner sides: the direct quadratic scan beats building an
        // index (outcome and counters are identical either way).
        if against.len() <= 8 {
            self.scan_side_direct(from, against, from_base, against_base, raw, counts);
            return;
        }
        // Query index over the `against` side: (query, position) sorted by
        // query, positions ascending. Partners without a given query can
        // never match it, so the hardware scan's outcome is decided entirely
        // by this candidate list — visiting candidates in position order is
        // equivalent to the full front-to-back partner scan.
        let mut candidates: Vec<(crate::index::QueryId, u32)> = against
            .iter()
            .enumerate()
            .flat_map(|(pos, partner)| {
                partner.header.queries.iter().map(move |p| (p.query, pos as u32))
            })
            .collect();
        candidates.sort_unstable();
        for (from_pos, item) in from.iter().enumerate() {
            for pending in &item.header.queries {
                let lo = candidates.partition_point(|&(q, _)| q < pending.query);
                let mut matched = false;
                for &(query, against_pos) in &candidates[lo..] {
                    if query != pending.query {
                        break;
                    }
                    let partner = &against[against_pos as usize];
                    let partner_pending =
                        partner.header.pending_for(pending.query).expect("indexed above");
                    // Paper's rule: the partner's remaining set must contain
                    // everything this item has already reduced.
                    if item.header.indices.is_subset_of(&partner_pending.remaining) {
                        // The modeled comparator scan walks partners
                        // front-to-back and stops here: one compare per
                        // partner up to and including the match.
                        counts.compares += u64::from(against_pos) + 1;
                        raw.push(self.plan_reduce(
                            item,
                            partner,
                            pending.query,
                            from_base + from_pos,
                            against_base + against_pos as usize,
                        ));
                        counts.reduces += 1;
                        matched = true;
                        break;
                    }
                }
                if !matched {
                    // No match: the modeled scan visits every partner.
                    counts.compares += against.len() as u64;
                    raw.push(self.plan_forward(item, pending, from_base + from_pos));
                    counts.forwards += 1;
                }
            }
        }
    }

    /// The literal front-to-back partner scan, used for small sides.
    fn scan_side_direct(
        &self,
        from: &[Item],
        against: &[Item],
        from_base: usize,
        against_base: usize,
        raw: &mut Vec<RawOutput>,
        counts: &mut PeOpCounts,
    ) {
        for (from_pos, item) in from.iter().enumerate() {
            for pending in &item.header.queries {
                let mut matched = false;
                for (against_pos, partner) in against.iter().enumerate() {
                    counts.compares += 1;
                    let Some(partner_pending) = partner.header.pending_for(pending.query) else {
                        continue;
                    };
                    // Paper's rule: the partner's remaining set must contain
                    // everything this item has already reduced.
                    if item.header.indices.is_subset_of(&partner_pending.remaining) {
                        raw.push(self.plan_reduce(
                            item,
                            partner,
                            pending.query,
                            from_base + from_pos,
                            against_base + against_pos,
                        ));
                        counts.reduces += 1;
                        matched = true;
                        break;
                    }
                }
                if !matched {
                    raw.push(self.plan_forward(item, pending, from_base + from_pos));
                    counts.forwards += 1;
                }
            }
        }
    }

    /// Plans the combination of two items for one query.
    fn plan_reduce(
        &self,
        x: &Item,
        y: &Item,
        query: crate::index::QueryId,
        x_index: usize,
        y_index: usize,
    ) -> RawOutput {
        let indices = x.header.indices.union(&y.header.indices);
        let x_pending = x.header.pending_for(query).expect("caller checked");
        let remaining = x_pending.remaining.difference(&y.header.indices);
        debug_assert!(remaining.is_disjoint_from(&indices));
        let ready = x.ready_ns.max(y.ready_ns) + self.timing.reduce_latency_ns();
        RawOutput {
            header: Arc::new(Header {
                indices,
                queries: vec![PendingQuery::new(query, remaining)],
            }),
            ready_ns: ready,
            source: RawSource::Reduce { x: x_index, y: y_index },
        }
    }

    /// Plans an item passing through for one unmatched query entry.
    fn plan_forward(&self, item: &Item, pending: &PendingQuery, x_index: usize) -> RawOutput {
        // Forwarding an item whose header already is exactly this one entry
        // (the common case above the leaf level) shares the header instead
        // of rebuilding it.
        let header = if item.header.queries.len() == 1 && item.header.queries[0] == *pending {
            Arc::clone(&item.header)
        } else {
            Arc::new(Header {
                indices: item.header.indices.clone(),
                queries: vec![pending.clone()],
            })
        };
        RawOutput {
            header,
            ready_ns: item.ready_ns + self.timing.forward_latency_ns(),
            source: RawSource::Forward { x: x_index },
        }
    }

    /// The merge unit: deduplicates identical raw outputs and concatenates
    /// the queries fields of outputs carrying the same value (same indices
    /// set). The first raw output of a group survives; its deferred source
    /// is the one materialized, so the surviving operand order — and hence
    /// the output bit pattern — matches the eager path exactly. (The exact
    /// operand-order laws the duplicates rely on are pinned by the
    /// commutativity proptests in [`crate::reduce`].)
    fn merge_unit(&self, raw: Vec<RawOutput>, counts: &mut PeOpCounts) -> Vec<RawOutput> {
        let mut merged: Vec<RawOutput> = Vec::new();
        for item in raw {
            if let Some(existing) =
                merged.iter_mut().find(|m| m.header.indices == item.header.indices)
            {
                counts.merges += 1;
                existing.ready_ns = existing.ready_ns.max(item.ready_ns);
                let queries = match Arc::try_unwrap(item.header) {
                    Ok(header) => header.queries,
                    Err(shared) => shared.queries.clone(),
                };
                for pending in queries {
                    match existing.header.queries.iter().find(|p| p.query == pending.query) {
                        Some(present) => debug_assert_eq!(
                            present.remaining, pending.remaining,
                            "conflicting remaining sets for one query"
                        ),
                        // Copy-on-write: only folding a new query entry into
                        // a (possibly shared) header forces a header copy.
                        None => Arc::make_mut(&mut existing.header).queries.push(pending),
                    }
                }
            } else {
                merged.push(item);
            }
        }
        merged
    }

    /// Owned-input materialization: an input buffer whose last remaining use
    /// this is is *moved* out instead of cloned, so the common
    /// symmetric-pair reduction (one surviving reduce per input pair) is
    /// allocation-free.
    fn materialize_owned(
        &self,
        operator: &dyn ReduceOperator,
        merged: Vec<RawOutput>,
        inputs: &mut [Item],
        uses: &mut [u32],
    ) -> Vec<Item> {
        // Clones `index`'s accumulator — or moves it out on its last
        // remaining use (`uses` proves no later output reads it again).
        fn claim(item: &mut Item, uses: &mut [u32], index: usize) -> Vec<f32> {
            uses[index] -= 1;
            if uses[index] == 0 {
                std::mem::take(&mut item.value)
            } else {
                item.value.clone()
            }
        }
        let merge_ns = self.timing.merge_cycles as f64 * self.timing.cycle_ns();
        merged
            .into_iter()
            .map(|out| {
                let value = match out.source {
                    RawSource::Reduce { x, y } => {
                        // x and y come from opposite sides, so they are
                        // always distinct indices.
                        let (x_item, y_item) = if x < y {
                            let (lo, hi) = inputs.split_at_mut(y);
                            (&mut lo[x], &hi[0])
                        } else {
                            let (lo, hi) = inputs.split_at_mut(x);
                            (&mut hi[0], &lo[y])
                        };
                        let mut acc = claim(x_item, uses, x);
                        operator.combine_into(&mut acc, &y_item.value);
                        uses[y] -= 1;
                        acc
                    }
                    RawSource::Forward { x } => claim(&mut inputs[x], uses, x),
                };
                Item { header: out.header, value, ready_ns: out.ready_ns + merge_ns }
            })
            .collect()
    }
}

/// A planned PE output: final header and timestamp, deferred accumulator.
struct RawOutput {
    header: Arc<Header>,
    ready_ns: f64,
    source: RawSource,
}

/// Which input accumulators produce a raw output's value. Indices address
/// the concatenated input space: side A items first, then side B.
#[derive(Clone, Copy)]
enum RawSource {
    /// `acc = value[x]; combine_into(acc, value[y])`.
    Reduce { x: usize, y: usize },
    /// Pass `value[x]` through.
    Forward { x: usize },
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::{QueryId, VectorIndex};
    use crate::indexset;

    /// Builds a leaf item: one index, a constant vector, pending entries.
    fn leaf(index: u32, fill: f32, entries: &[(u32, &[u32])]) -> Item {
        let queries = entries
            .iter()
            .map(|(q, remaining)| {
                PendingQuery::new(QueryId(*q), remaining.iter().copied().map(VectorIndex).collect())
            })
            .collect();
        Item::new(Header::leaf(VectorIndex(index), queries), vec![fill; 4])
    }

    /// Fires a default-timing PE on A and B under `operator`.
    fn fire(operator: &dyn ReduceOperator, a: Vec<Item>, b: Vec<Item>) -> (Vec<Item>, PeOpCounts) {
        ProcessingElement::default().process_owned(operator, a, b)
    }

    fn sum(a: Vec<Item>, b: Vec<Item>) -> (Vec<Item>, PeOpCounts) {
        fire(&crate::reduce::SumOperator, a, b)
    }

    #[test]
    fn fig6_pe01_produces_three_unique_outputs() {
        // PE (0|1) of Fig. 6: A = index 50 with entries for queries b and c;
        // B = index 11 with entries for queries a and c.
        // (Query letters a..d map to ids 0..3.)
        let a = leaf(50, 1.0, &[(1, &[83, 94]), (2, &[11, 94, 26])]);
        let b = leaf(11, 2.0, &[(0, &[44, 32, 83, 77]), (2, &[50, 94, 26])]);
        let (out, counts) = sum(vec![a], vec![b]);
        // Raw: forward(A,b), reduce(A,B,c), forward(B,a), reduce(B,A,c) → the
        // two reduces merge: three unique outputs (Fig. 6c).
        assert_eq!(counts.raw_outputs, 4);
        assert_eq!(counts.reduces, 2);
        assert_eq!(counts.forwards, 2);
        assert_eq!(counts.merges, 1);
        assert_eq!(out.len(), 3);
        let reduced = out
            .iter()
            .find(|item| item.header.indices == indexset![50, 11])
            .expect("reduced item present");
        assert_eq!(reduced.header.queries.len(), 1);
        assert_eq!(reduced.header.queries[0].query, QueryId(2));
        assert_eq!(reduced.header.queries[0].remaining, indexset![94, 26]);
        assert_eq!(reduced.value, vec![3.0; 4]);
    }

    #[test]
    fn unmatched_items_forward_with_their_entries() {
        let a = leaf(1, 1.0, &[(0, &[7])]);
        let b = leaf(2, 2.0, &[(1, &[9])]);
        let (out, counts) = sum(vec![a], vec![b]);
        assert_eq!(counts.reduces, 0);
        assert_eq!(counts.forwards, 2);
        assert_eq!(out.len(), 2);
        assert!(out.iter().all(|item| item.header.queries.len() == 1));
    }

    #[test]
    fn one_sided_input_forwards_automatically() {
        // Like PE (4|15) in Fig. 6: only one input exists.
        let a = leaf(4, 1.0, &[(3, &[15, 77])]);
        let (out, counts) = sum(vec![a], Vec::new());
        assert_eq!(out.len(), 1);
        assert_eq!(counts.forwards, 1);
        assert_eq!(out[0].header.indices, indexset![4]);
    }

    #[test]
    fn shared_value_serves_two_queries_with_merged_header() {
        // Index 5 is used by queries 0 and 1; its partner for both sits on
        // the other input. Both reduces produce the same indices set and the
        // merge unit folds them into one output with two query entries.
        let a = leaf(5, 1.0, &[(0, &[6]), (1, &[6])]);
        let b = leaf(6, 2.0, &[(0, &[5]), (1, &[5])]);
        let (out, counts) = sum(vec![a], vec![b]);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].header.queries.len(), 2);
        assert!(out[0].header.queries.iter().all(|p| p.is_complete()));
        assert_eq!(out[0].value, vec![3.0; 4]);
        assert!(counts.merges >= 2);
    }

    #[test]
    fn completed_query_keeps_travelling_as_forward() {
        // An item whose query is complete (remaining empty) and a stranger on
        // the other side: it must forward, not vanish.
        let done = Item::new(
            Header {
                indices: indexset![1, 2],
                queries: vec![PendingQuery::new(QueryId(0), indexset![])],
            },
            vec![3.0; 4],
        );
        let other = leaf(9, 1.0, &[(1, &[10])]);
        let (out, _) = sum(vec![done], vec![other]);
        let carried = out
            .iter()
            .find(|item| item.header.indices == indexset![1, 2])
            .expect("completed item forwarded");
        assert!(carried.header.queries[0].is_complete());
    }

    #[test]
    fn outputs_never_exceed_query_count() {
        // Table I invariant: outputs ≤ min(nm + n + m, B).
        let a: Vec<Item> = (0..4).map(|i| leaf(i, 1.0, &[(i, &[i + 100])])).collect();
        let b: Vec<Item> = (0..4).map(|i| leaf(i + 100, 2.0, &[(i, &[i])])).collect();
        let (out, _) = sum(a, b);
        assert!(out.len() <= 4, "got {} outputs", out.len());
        assert!(out.iter().all(|item| item.header.queries.iter().all(PendingQuery::is_complete)));
    }

    #[test]
    fn reduce_timing_dominates_forward_timing() {
        let a = leaf(1, 1.0, &[(0, &[2])]).ready_at(100.0);
        let b = leaf(2, 1.0, &[(0, &[1])]).ready_at(50.0);
        let (out, _) = sum(vec![a], vec![b]);
        let timing = PeTiming::default();
        let expected =
            100.0 + timing.reduce_latency_ns() + timing.merge_cycles as f64 * timing.cycle_ns();
        assert!((out[0].ready_ns - expected).abs() < 1e-9, "{} vs {expected}", out[0].ready_ns);
    }

    #[test]
    fn headers_keep_invariant_through_processing() {
        let a = leaf(3, 1.0, &[(0, &[4, 8]), (1, &[4])]);
        let b = leaf(4, 2.0, &[(0, &[3, 8]), (1, &[3])]);
        let (out, _) = sum(vec![a], vec![b]);
        for item in &out {
            assert!(item.header.invariant_holds(), "violated: {}", item.header);
        }
    }

    #[test]
    fn outputs_respect_the_table1_bound_on_random_inputs() {
        use crate::model::buffers::BufferModel;
        use proptest::prelude::*;
        use proptest::test_runner::TestRunner;
        let mut runner = TestRunner::default();
        // Valid dataflow windows: one item per query per side, distinct
        // indices; B carries a random subset of A's queries (partners) plus
        // its own strangers.
        runner
            .run(
                &(1usize..6, 1usize..6, proptest::collection::vec(any::<bool>(), 6)),
                |(n, m, partnered)| {
                    let a: Vec<Item> = (0..n)
                        .map(|i| leaf(i as u32, 1.0, &[(i as u32, &[i as u32 + 16])]))
                        .collect();
                    let b: Vec<Item> = (0..m)
                        .map(|j| {
                            if partnered[j] && j < n {
                                // Partner of A's query j.
                                leaf(j as u32 + 16, 2.0, &[(j as u32, &[j as u32])])
                            } else {
                                // Stranger query with no partner present.
                                leaf(j as u32 + 16, 2.0, &[(j as u32 + 32, &[j as u32 + 48])])
                            }
                        })
                        .collect();
                    let (out, _) = sum(a, b);
                    let model = BufferModel::paper(32);
                    prop_assert!(
                        out.len() <= model.max_outputs(n, m),
                        "{} > min(nm+n+m, B)",
                        out.len()
                    );
                    // With one entry per item, outputs are also bounded by
                    // the live query count.
                    prop_assert!(out.len() <= n + m);
                    Ok(())
                },
            )
            .unwrap();
    }

    #[test]
    fn max_reduce_produces_elementwise_max() {
        let a = leaf(1, 5.0, &[(0, &[2])]);
        let b = leaf(2, 3.0, &[(0, &[1])]);
        let (out, _) = fire(&crate::reduce::MaxOperator, vec![a], vec![b]);
        assert_eq!(out[0].value, vec![5.0; 4]);
    }

    #[test]
    fn process_owned_runs_an_injected_operator() {
        // A top-2 operator passed explicitly: item values are (score, index)
        // accumulators, and the PE merges them like any other value.
        use crate::reduce::TopKOperator;
        let operator = TopKOperator::new(2);
        let a = Item::new(
            Header::leaf(VectorIndex(1), vec![PendingQuery::new(QueryId(0), indexset![2])]),
            operator.lift(VectorIndex(1), &[5.0; 4]),
        );
        let b = Item::new(
            Header::leaf(VectorIndex(2), vec![PendingQuery::new(QueryId(0), indexset![1])]),
            operator.lift(VectorIndex(2), &[3.0; 4]),
        );
        let (out, counts) = fire(&operator, vec![a], vec![b]);
        assert_eq!(counts.reduces, 2);
        assert_eq!(out.len(), 1);
        let decoded = TopKOperator::decode(&out[0].value);
        assert_eq!(decoded, vec![(VectorIndex(1), 20.0), (VectorIndex(2), 12.0)]);
    }
}
