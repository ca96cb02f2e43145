//! Construction of the leaf-PE input streams from a preprocessed batch.
//!
//! The tree's PEs only ever reduce items arriving on *opposite* inputs, so
//! the dataflow invariant is: **at every PE, each query owns at most one
//! item per input side**. For indices of one query that happen to live on
//! the same leaf input (co-resident operands), the reduction cannot happen
//! across PE inputs; it happens *serially as the rank streams the values
//! out* — the leaf PE folds them one by one, paying one reduce latency per
//! extra operand. This module performs that grouping and produces, for
//! every rank, the item list entering the tree:
//!
//! * one **shared item** per unique index, carrying entries for all queries
//!   whose only local operand it is (this is the cache-free reuse mechanism
//!   of Sec. IV-C), and
//! * one **pre-reduced item** per (query, leaf-input) group of two or more
//!   co-resident operands.

use crate::batch::Batch;
use crate::index::{IndexSet, VectorIndex};
use crate::item::{Header, Item, PendingQuery};
use crate::reduce::ReduceOperator;
use crate::timing::PeTiming;

/// Everything the injector needs to know about one gathered vector.
#[derive(Debug, Clone, PartialEq)]
pub struct GatheredVector {
    /// The vector's index.
    pub index: VectorIndex,
    /// Global rank the vector was read from.
    pub rank: usize,
    /// The vector's value, shared with the embedding source's store.
    pub value: std::sync::Arc<[f32]>,
    /// Nanosecond timestamp of the read's completion.
    pub ready_ns: f64,
}

/// Builds the per-rank leaf input lists for `tree_ranks` ranks.
///
/// `ranks_per_leaf` must match the tree the items will be fed into: it
/// determines which ranks share a leaf-PE input side and therefore which
/// co-resident operands must pre-reduce serially. Every gathered vector is
/// **lifted** into `operator`'s accumulator encoding at the leaf (so item
/// values entering the tree are accumulators, not raw vectors), and
/// co-resident operands pre-reduce with the operator's combine.
///
/// # Panics
///
/// Panics if any gathered vector names a rank `≥ tree_ranks`.
#[must_use]
pub fn build_rank_inputs_with(
    batch: &Batch,
    gathered: &[GatheredVector],
    tree_ranks: usize,
    ranks_per_leaf: usize,
    operator: &dyn ReduceOperator,
    timing: &PeTiming,
) -> Vec<Vec<Item>> {
    let span = (ranks_per_leaf / 2).max(1);
    let mut inputs: Vec<Vec<Item>> = vec![Vec::new(); tree_ranks];
    // First occurrence wins, matching a front-to-back scan of `gathered`.
    let by_index: std::collections::HashMap<VectorIndex, &GatheredVector> =
        gathered.iter().rev().map(|g| (g.index, g)).collect();
    let lookup = |index: VectorIndex| -> Option<&GatheredVector> { by_index.get(&index).copied() };

    // Queries' operands grouped by leaf-input side: side id = rank / span.
    // For each query, sides with ≥2 operands get a dedicated pre-reduced
    // item; the (query, index) pairs covered that way are excluded from the
    // shared items.
    let mut covered: std::collections::HashSet<(crate::index::QueryId, VectorIndex)> =
        std::collections::HashSet::new();
    for query in batch.queries() {
        let mut by_side: std::collections::BTreeMap<usize, Vec<&GatheredVector>> =
            std::collections::BTreeMap::new();
        for index in query.indices.iter() {
            if let Some(vector) = lookup(index) {
                assert!(vector.rank < tree_ranks, "rank {} out of range", vector.rank);
                by_side.entry(vector.rank / span).or_default().push(vector);
            }
        }
        for group in by_side.values().filter(|group| group.len() >= 2) {
            let indices = IndexSet::from_iter_dedup(group.iter().map(|g| g.index));
            let remaining = query.indices.difference(&indices);
            let mut value = operator.lift(group[0].index, &group[0].value);
            let mut ready = group[0].ready_ns;
            for vector in &group[1..] {
                operator.combine_into(&mut value, &operator.lift(vector.index, &vector.value));
                // Serial streaming reduction: each extra operand costs one
                // reduce-path traversal after both operands are available.
                ready = ready.max(vector.ready_ns) + timing.reduce_latency_ns();
            }
            let item = Item {
                header: std::sync::Arc::new(Header {
                    indices,
                    queries: vec![PendingQuery::new(query.id, remaining)],
                }),
                value,
                ready_ns: ready,
            };
            inputs[group[0].rank].push(item);
            covered.extend(group.iter().map(|g| (query.id, g.index)));
        }
    }

    // Shared items: one per unique index, with entries for the queries not
    // covered by a pre-reduced group.
    for (index, pending) in batch.leaf_headers() {
        let Some(vector) = lookup(index) else { continue };
        let queries: Vec<PendingQuery> =
            pending.into_iter().filter(|p| !covered.contains(&(p.query, index))).collect();
        if queries.is_empty() {
            continue;
        }
        let item = Item {
            header: std::sync::Arc::new(Header { indices: IndexSet::singleton(index), queries }),
            value: operator.lift(index, &vector.value),
            ready_ns: vector.ready_ns,
        };
        inputs[vector.rank].push(item);
    }
    inputs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::QueryId;
    use crate::indexset;
    use crate::reduce::{ReduceOp, SumOperator};

    fn gather(indices: &[u32], ranks: usize) -> Vec<GatheredVector> {
        indices
            .iter()
            .map(|&i| GatheredVector {
                index: VectorIndex(i),
                rank: i as usize % ranks,
                value: vec![i as f32; 4].into(),
                ready_ns: 10.0 * f64::from(i),
            })
            .collect()
    }

    #[test]
    fn disjoint_ranks_produce_one_shared_item_per_index() {
        let batch = Batch::from_index_sets([indexset![0, 1], indexset![1, 2]]);
        let gathered = gather(&[0, 1, 2], 8);
        let inputs =
            build_rank_inputs_with(&batch, &gathered, 8, 2, &SumOperator, &PeTiming::default());
        let total: usize = inputs.iter().map(Vec::len).sum();
        assert_eq!(total, 3);
        // Index 1 carries both query entries.
        let shared = &inputs[1][0];
        assert_eq!(shared.header.queries.len(), 2);
    }

    #[test]
    fn co_resident_operands_pre_reduce_serially() {
        // Query {0, 8} on 8 ranks: both on rank 0 → one pre-reduced item.
        let batch = Batch::from_index_sets([indexset![0, 8]]);
        let gathered = gather(&[0, 8], 8);
        let timing = PeTiming::default();
        let inputs = build_rank_inputs_with(&batch, &gathered, 8, 2, &SumOperator, &timing);
        assert_eq!(inputs[0].len(), 1);
        let item = &inputs[0][0];
        assert_eq!(item.header.indices, indexset![0, 8]);
        assert!(item.header.queries[0].is_complete());
        assert_eq!(item.value, vec![8.0; 4]);
        // Serial fold: available only after the later read plus one reduce.
        assert!((item.ready_ns - (80.0 + timing.reduce_latency_ns())).abs() < 1e-9);
    }

    #[test]
    fn shared_and_pre_reduced_items_coexist_for_one_index() {
        // Query a = {0, 8} (co-resident on rank 0); query b = {0, 1}.
        // Index 0 feeds a pre-reduced item for a and a shared item for b.
        let batch = Batch::from_index_sets([indexset![0, 8], indexset![0, 1]]);
        let gathered = gather(&[0, 1, 8], 8);
        let inputs =
            build_rank_inputs_with(&batch, &gathered, 8, 2, &SumOperator, &PeTiming::default());
        assert_eq!(inputs[0].len(), 2);
        let pre = inputs[0].iter().find(|i| i.header.indices.len() == 2).unwrap();
        let shared = inputs[0].iter().find(|i| i.header.indices.len() == 1).unwrap();
        assert_eq!(pre.header.queries[0].query, QueryId(0));
        assert_eq!(shared.header.queries[0].query, QueryId(1));
    }

    #[test]
    fn sides_of_wide_leaves_group_across_ranks() {
        // With 1PE:4R, ranks 0 and 1 share input side A: a query with one
        // operand on each must pre-reduce.
        let batch = Batch::from_index_sets([indexset![0, 1]]);
        let gathered = gather(&[0, 1], 8);
        let inputs =
            build_rank_inputs_with(&batch, &gathered, 8, 4, &SumOperator, &PeTiming::default());
        let items: Vec<&Item> = inputs.iter().flatten().collect();
        assert_eq!(items.len(), 1);
        assert_eq!(items[0].header.indices, indexset![0, 1]);
    }

    #[test]
    fn missing_gathered_vectors_are_skipped() {
        let batch = Batch::from_index_sets([indexset![0, 5]]);
        let gathered = gather(&[0], 8); // index 5 never gathered
        let inputs =
            build_rank_inputs_with(&batch, &gathered, 8, 2, &SumOperator, &PeTiming::default());
        let total: usize = inputs.iter().map(Vec::len).sum();
        assert_eq!(total, 1);
    }

    #[test]
    fn lifting_operators_inject_accumulators() {
        // Mean lifts each vector to [values…, count]: the shared item gets
        // count 1 and the co-resident pre-reduce accumulates count 2.
        let batch = Batch::from_index_sets([indexset![0, 8], indexset![1]]);
        let gathered = gather(&[0, 1, 8], 8);
        let operator = ReduceOp::Mean.operator();
        let inputs =
            build_rank_inputs_with(&batch, &gathered, 8, 2, &*operator, &PeTiming::default());
        let pre = inputs[0].iter().find(|i| i.header.indices.len() == 2).unwrap();
        assert_eq!(pre.value.len(), 5);
        assert_eq!(pre.value[4], 2.0, "pre-reduced accumulator counts two vectors");
        let shared = &inputs[1][0];
        assert_eq!(shared.value, vec![1.0, 1.0, 1.0, 1.0, 1.0]);
    }

    #[test]
    fn every_query_has_at_most_one_item_per_side() {
        // Adversarial batch with heavy co-location on 4 ranks.
        let sets: Vec<_> = (0..12u32).map(|i| indexset![i, i + 4, i + 8, (i * 7) % 16]).collect();
        let batch = Batch::from_index_sets(sets);
        let all: Vec<u32> = batch.unique_indices().iter().map(|v| v.value()).collect();
        let gathered = gather(&all, 4);
        let inputs =
            build_rank_inputs_with(&batch, &gathered, 4, 2, &SumOperator, &PeTiming::default());
        for (rank, items) in inputs.iter().enumerate() {
            let mut seen = std::collections::HashSet::new();
            for item in items {
                for pending in &item.header.queries {
                    assert!(
                        seen.insert(pending.query),
                        "rank {rank} has two items for {}",
                        pending.query
                    );
                }
            }
        }
    }
}
