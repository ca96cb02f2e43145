//! Property tests pinning the cluster's parity contract: for arbitrary
//! batches, shard counts 1..8, and both row-wise strategies,
//!
//! * a query resolved by a **single shard** is `to_bits`-identical to the
//!   single-tree reference engine on the same batch (for every operator);
//! * **selection** operators (max/min/argmax/top-k) are exactly
//!   associative, so even split queries are `to_bits`-identical to the
//!   single tree;
//! * **every** operator (including float sum/mean, whose grouping changes
//!   rounding) is `to_bits`-identical to an independently computed
//!   grouped fold over the routed sub-queries — the documented
//!   `ReduceOperator` merge semantics;
//! * sum stays within the engine-level tolerance of the flat software
//!   reference even when queries split.

use proptest::prelude::*;

use fafnir_cluster::{route, ClusterEngine, RouterPolicy};
use fafnir_core::{
    Batch, EmbeddingSource, FafnirConfig, FafnirEngine, GatherEngine, IndexSet, LookupService,
    QueryId, ReduceOp, ShardPlan, ShardStrategy, StripedSource, VectorIndex,
};
use fafnir_mem::{MemoryConfig, MemoryModelKind};

const UNIVERSE: u32 = 96;

fn batch_strategy() -> impl Strategy<Value = Batch> {
    proptest::collection::vec(proptest::collection::vec(0u32..UNIVERSE, 1..10), 1..12).prop_map(
        |sets| {
            sets.into_iter()
                .map(|s| IndexSet::from_iter_dedup(s.into_iter().map(VectorIndex)))
                .collect()
        },
    )
}

fn op_for(choice: usize) -> ReduceOp {
    [
        ReduceOp::Sum,
        ReduceOp::Mean,
        ReduceOp::Max,
        ReduceOp::Min,
        ReduceOp::ArgMax,
        ReduceOp::TopK { k: 3 },
    ][choice]
}

fn strategy_for(rowhash: bool) -> ShardStrategy {
    if rowhash {
        ShardStrategy::RowHash
    } else {
        ShardStrategy::RowRange { universe: UNIVERSE }
    }
}

fn small_config(op: ReduceOp) -> (FafnirConfig, MemoryConfig) {
    let mut mem = MemoryConfig::with_total_ranks(8);
    mem.model = MemoryModelKind::Fast;
    let config =
        FafnirConfig { op, ranks_per_leaf: 2, vector_dim: 8, ..FafnirConfig::paper_default() };
    (config, mem)
}

fn build(
    op: ReduceOp,
    plan: ShardPlan,
    policy: RouterPolicy,
) -> (ClusterEngine, FafnirEngine, StripedSource) {
    let (config, mem) = small_config(op);
    let cluster = ClusterEngine::new(config, mem, plan, policy).expect("valid config");
    let single = FafnirEngine::new(config, mem).expect("valid config");
    let source = StripedSource::new(mem.topology, 8);
    (cluster, single, source)
}

fn bits(value: &[f32]) -> Vec<u32> {
    value.iter().map(|x| x.to_bits()).collect()
}

/// The number of distinct home shards a query's indices land on (no
/// replication): 1 means the cluster must be bit-equal to the single tree.
fn shards_touched(plan: &ShardPlan, indices: &IndexSet) -> usize {
    let mut shards: Vec<usize> = indices.iter().map(|i| plan.home_shard(i)).collect();
    shards.sort_unstable();
    shards.dedup();
    shards.len()
}

/// Independent grouped-fold reference: fold each routed sub-query's indices
/// in ascending order into an unfinalized partial, combine partials in
/// ascending shard order, finalize once.
fn grouped_reference(
    batch: &Batch,
    plan: &ShardPlan,
    policy: RouterPolicy,
    op: ReduceOp,
    source: &StripedSource,
) -> Vec<(QueryId, usize, Vec<f32>)> {
    let operator = op.operator();
    let routed = route(batch, plan, policy);
    batch
        .queries()
        .iter()
        .enumerate()
        .filter_map(|(position, query)| {
            let touched = &routed.touched[position];
            let mut acc: Option<Vec<f32>> = None;
            for &shard in touched {
                let sub = routed.per_shard[shard]
                    .iter()
                    .find(|sq| sq.position == position)
                    .expect("touched shards hold a sub-query");
                let mut indices = sub.indices.iter();
                let first = indices.next().expect("sub-queries are non-empty");
                let mut partial = operator.lift(first, &source.value_of(first));
                for index in indices {
                    operator
                        .combine_into(&mut partial, &operator.lift(index, &source.value_of(index)));
                }
                match &mut acc {
                    None => acc = Some(partial),
                    Some(acc) => operator.combine_into(acc, &partial),
                }
            }
            acc.map(|acc| (query.id, touched.len(), operator.finalize(&acc)))
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn single_shard_queries_match_the_single_tree_bitwise(
        batch in batch_strategy(),
        shards in 1usize..9,
        rowhash in any::<bool>(),
        op_choice in 0usize..6,
    ) {
        let op = op_for(op_choice);
        let plan = ShardPlan::new(shards, strategy_for(rowhash));
        let (cluster, single, source) = build(op, plan.clone(), RouterPolicy::RoundRobin);
        let ours = LookupService::lookup(&cluster, &batch, &source).expect("cluster lookup");
        let theirs = GatherEngine::lookup(&single, &batch, &source).expect("single lookup");
        prop_assert_eq!(ours.outputs.len(), theirs.outputs.len());
        for (((qa, got), (qb, want)), query) in
            ours.outputs.iter().zip(&theirs.outputs).zip(batch.queries())
        {
            prop_assert_eq!(qa, qb);
            if shards_touched(&plan, &query.indices) == 1 {
                prop_assert_eq!(
                    bits(got), bits(want),
                    "single-shard query {:?} must be bit-equal under {:?}", qa, op
                );
            }
        }
    }

    #[test]
    fn selection_operators_match_the_single_tree_bitwise_everywhere(
        batch in batch_strategy(),
        shards in 1usize..9,
        rowhash in any::<bool>(),
        op_choice in 2usize..6, // max, min, argmax, topk — exactly associative
    ) {
        let op = op_for(op_choice);
        let plan = ShardPlan::new(shards, strategy_for(rowhash));
        let (cluster, single, source) = build(op, plan, RouterPolicy::RoundRobin);
        let ours = LookupService::lookup(&cluster, &batch, &source).expect("cluster lookup");
        let theirs = GatherEngine::lookup(&single, &batch, &source).expect("single lookup");
        prop_assert_eq!(ours.outputs.len(), theirs.outputs.len());
        for ((qa, got), (qb, want)) in ours.outputs.iter().zip(&theirs.outputs) {
            prop_assert_eq!(qa, qb);
            prop_assert_eq!(bits(got), bits(want), "{:?} under {:?}", qa, op);
        }
    }

    #[test]
    fn every_operator_matches_the_grouped_fold_reference_bitwise(
        batch in batch_strategy(),
        shards in 1usize..9,
        rowhash in any::<bool>(),
        op_choice in 0usize..6,
        least_loaded in any::<bool>(),
        replicated_prefix in 0u32..16,
    ) {
        let op = op_for(op_choice);
        let policy = if least_loaded { RouterPolicy::LeastLoaded } else { RouterPolicy::RoundRobin };
        let plan = ShardPlan::new(shards, strategy_for(rowhash))
            .with_replicated((0..replicated_prefix).map(VectorIndex));
        let (cluster, _, source) = build(op, plan.clone(), policy);
        let ours = LookupService::lookup(&cluster, &batch, &source).expect("cluster lookup");
        let want = grouped_reference(&batch, &plan, policy, op, &source);
        prop_assert_eq!(ours.outputs.len(), want.len());
        for ((qa, got), (qb, touched, expected)) in ours.outputs.iter().zip(&want) {
            prop_assert_eq!(qa, qb);
            // Single-shard queries keep the tree-shaped fold verbatim (pinned
            // against the single tree above); the grouped fold governs merges.
            if *touched > 1 {
                prop_assert_eq!(
                    bits(got), bits(expected),
                    "query {:?} must match the grouped fold under {:?}", qa, op
                );
            }
        }
    }

    #[test]
    fn sum_stays_within_engine_tolerance_of_the_flat_reference(
        batch in batch_strategy(),
        shards in 2usize..9,
        rowhash in any::<bool>(),
    ) {
        let plan = ShardPlan::new(shards, strategy_for(rowhash));
        let (cluster, _, source) = build(ReduceOp::Sum, plan, RouterPolicy::RoundRobin);
        let ours = LookupService::lookup(&cluster, &batch, &source).expect("cluster lookup");
        let reference = fafnir_core::reference_lookup_with(&batch, &source, &*ReduceOp::Sum.operator());
        prop_assert_eq!(ours.outputs.len(), reference.len());
        for ((qa, got), (qb, want)) in ours.outputs.iter().zip(&reference) {
            prop_assert_eq!(qa, qb);
            for (x, y) in got.iter().zip(want) {
                let tolerance = 1e-4_f32.max(y.abs() * 1e-5);
                prop_assert!((x - y).abs() <= tolerance, "{:?}: {} vs {}", qa, x, y);
            }
        }
    }

    #[test]
    fn cluster_traffic_counts_unique_indices_per_shard(
        batch in batch_strategy(),
        shards in 1usize..9,
    ) {
        // Per-shard dedup: each shard reads exactly its owned unique
        // indices once, so the cluster-wide read count equals the number
        // of (shard, unique index) pairs — with no replication that is
        // exactly the batch's unique indices.
        let plan = ShardPlan::new(shards, ShardStrategy::RowRange { universe: UNIVERSE });
        let (cluster, _, source) = build(ReduceOp::Sum, plan, RouterPolicy::RoundRobin);
        let ours = LookupService::lookup(&cluster, &batch, &source).expect("cluster lookup");
        prop_assert_eq!(ours.traffic.vectors_read, batch.unique_indices().len() as u64);
    }
}
