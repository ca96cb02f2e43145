//! Property tests of the full FAFNIR engine: for *arbitrary* batches,
//! configurations, and rank counts, the accelerator's outputs must equal
//! the software reference, and the structural invariants the paper states
//! must hold.

use proptest::prelude::*;

use fafnir_core::{
    Batch, FafnirConfig, FafnirEngine, GatherEngine, IndexSet, ReduceOp, StripedSource, VectorIndex,
};
use fafnir_mem::MemoryConfig;

/// A random batch over a small universe (to provoke sharing, co-residence,
/// and every routing corner).
fn batch_strategy() -> impl Strategy<Value = Batch> {
    proptest::collection::vec(proptest::collection::vec(0u32..96, 1..10), 1..12).prop_map(|sets| {
        sets.into_iter()
            .map(|s| IndexSet::from_iter_dedup(s.into_iter().map(VectorIndex)))
            .collect()
    })
}

fn check(engine: &FafnirEngine, source: &StripedSource, batch: &Batch, op: ReduceOp) {
    let result = engine.lookup(batch, source).expect("lookup succeeds");
    let reference = fafnir_core::reference_lookup_with(batch, source, &*op.operator());
    assert_eq!(result.outputs.len(), reference.len(), "query count");
    for ((qa, got), (qb, want)) in result.outputs.iter().zip(&reference) {
        assert_eq!(qa, qb);
        for (x, y) in got.iter().zip(want) {
            let tolerance = 1e-4_f32.max(y.abs() * 1e-5);
            assert!((x - y).abs() <= tolerance, "{qa}: {x} vs {y}");
        }
    }
    // Paper invariants.
    assert_eq!(
        result.traffic.vectors_read,
        batch.unique_indices().len() as u64,
        "dedup reads exactly the unique indices"
    );
    assert_eq!(
        result.traffic.bytes_to_host,
        (batch.len() * engine.config().vector_bytes()) as u64,
        "host traffic is n x v"
    );
    assert_eq!(result.tree.incomplete_outputs, 0);
    assert!(result.latency.total_ns >= result.latency.memory_ns);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn engine_matches_reference_on_paper_system(batch in batch_strategy()) {
        let mem = MemoryConfig::ddr4_2400_4ch();
        let engine = FafnirEngine::new(FafnirConfig::paper_default(), mem).unwrap();
        let source = StripedSource::new(mem.topology, 128);
        check(&engine, &source, &batch, ReduceOp::Sum);
    }

    #[test]
    fn engine_matches_reference_across_rank_counts(
        batch in batch_strategy(),
        ranks_pow in 1u32..6,
    ) {
        let ranks = 1usize << ranks_pow; // 2..32
        let mem = MemoryConfig::with_total_ranks(ranks);
        let config = FafnirConfig {
            ranks_per_leaf: ranks.min(2),
            vector_dim: 16,
            ..FafnirConfig::paper_default()
        };
        let engine = FafnirEngine::new(config, mem).unwrap();
        let source = StripedSource::new(mem.topology, 16);
        check(&engine, &source, &batch, ReduceOp::Sum);
    }

    #[test]
    fn engine_matches_reference_across_leaf_ratios(
        batch in batch_strategy(),
        ratio_pow in 0u32..3,
    ) {
        let ratio = 1usize << ratio_pow; // 1, 2, 4
        let mem = MemoryConfig::with_total_ranks(16);
        let config = FafnirConfig {
            ranks_per_leaf: ratio,
            vector_dim: 16,
            ..FafnirConfig::paper_default()
        };
        let engine = FafnirEngine::new(config, mem).unwrap();
        let source = StripedSource::new(mem.topology, 16);
        check(&engine, &source, &batch, ReduceOp::Sum);
    }

    #[test]
    fn max_and_min_reductions_match_reference(batch in batch_strategy(), use_max in any::<bool>()) {
        let op = if use_max { ReduceOp::Max } else { ReduceOp::Min };
        let mem = MemoryConfig::with_total_ranks(8);
        let config = FafnirConfig {
            op,
            ranks_per_leaf: 2,
            vector_dim: 8,
            ..FafnirConfig::paper_default()
        };
        let engine = FafnirEngine::new(config, mem).unwrap();
        let source = StripedSource::new(mem.topology, 8);
        let result = engine.lookup(&batch, &source).unwrap();
        let reference = fafnir_core::reference_lookup_with(&batch, &source, &*op.operator());
        for ((_, got), (_, want)) in result.outputs.iter().zip(&reference) {
            prop_assert_eq!(got, want, "min/max must be exact");
        }
    }

    #[test]
    fn no_dedup_reads_every_reference_and_still_matches(batch in batch_strategy()) {
        let mem = MemoryConfig::with_total_ranks(8);
        let config = FafnirConfig {
            dedup: false,
            ranks_per_leaf: 2,
            vector_dim: 8,
            ..FafnirConfig::paper_default()
        };
        let engine = FafnirEngine::new(config, mem).unwrap();
        let source = StripedSource::new(mem.topology, 8);
        let result = engine.lookup(&batch, &source).unwrap();
        prop_assert_eq!(result.traffic.vectors_read, batch.total_references() as u64);
        let reference = fafnir_core::reference_lookup_with(&batch, &source, &*ReduceOp::Sum.operator());
        for ((_, got), (_, want)) in result.outputs.iter().zip(&reference) {
            for (x, y) in got.iter().zip(want) {
                prop_assert!((x - y).abs() <= 1e-4_f32.max(y.abs() * 1e-5));
            }
        }
    }

    #[test]
    fn buffer_occupancy_never_exceeds_unique_plus_batch(batch in batch_strategy()) {
        // Table I's sizing logic: PE inputs are bounded by the hardware
        // batch (queries) plus the shared items feeding them.
        let mem = MemoryConfig::with_total_ranks(8);
        let config = FafnirConfig {
            ranks_per_leaf: 2,
            vector_dim: 8,
            ..FafnirConfig::paper_default()
        };
        let engine = FafnirEngine::new(config, mem).unwrap();
        let source = StripedSource::new(mem.topology, 8);
        let result = engine.lookup(&batch, &source).unwrap();
        let bound = (batch.len() + batch.unique_indices().len()) as u64;
        prop_assert!(
            result.tree.max_buffer_items <= bound,
            "{} > {bound}",
            result.tree.max_buffer_items
        );
    }
}
