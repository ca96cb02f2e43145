//! Golden digests of every reduction entry point, for every operator.
//!
//! Seeded batches with heavily shared indices run through, per operator
//! and leaf ratio (`ranks_per_leaf` of 1, 2 and 4):
//!
//! * `FafnirEngine::lookup` on both memory models and on the event-timed
//!   and cycle tree backends (outputs, per-query times, latency, tree,
//!   traffic and memory counters);
//! * the software reference, `reference_lookup_with`;
//! * `CycleTree::run_with` and `run_stepped_with` (root items plus their
//!   completion, stall and occupancy counts);
//! * `ReductionTree::run_with` with `TreeRun::query_outputs_with` and its
//!   `TreeStats`.
//!
//! Every `f32`/`f64` folds in by `to_bits`, so the digests pin outputs and
//! timing bit for bit. Re-record them only for a change that means to
//! alter modeled output, and say so.

use fafnir_core::cycle_sim::{CycleRun, CycleTree};
use fafnir_core::inject::{build_rank_inputs_with, GatheredVector};
use fafnir_core::{
    reference_lookup_with, Batch, EmbeddingSource, FafnirConfig, FafnirEngine, GatherEngine,
    IndexSet, Item, QueryId, ReduceOp, ReduceOperator, ReductionTree, StripedSource, TreeBackend,
    VectorIndex,
};
use fafnir_mem::{MemoryConfig, MemoryModelKind};

/// FNV-1a, 64-bit.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn word(&mut self, word: u64) {
        self.bytes(&word.to_le_bytes());
    }

    fn f64(&mut self, value: f64) {
        self.word(value.to_bits());
    }

    fn debug(&mut self, value: &impl std::fmt::Debug) {
        self.bytes(format!("{value:?}").as_bytes());
    }

    fn outputs(&mut self, outputs: &[(QueryId, Vec<f32>)]) {
        self.word(outputs.len() as u64);
        for (query, value) in outputs {
            self.word(u64::from(query.0));
            self.word(value.len() as u64);
            for x in value {
                self.word(u64::from(x.to_bits()));
            }
        }
    }

    fn items(&mut self, items: &[Item]) {
        self.word(items.len() as u64);
        for item in items {
            self.debug(&item.header);
            self.f64(item.ready_ns);
            for x in &item.value {
                self.word(u64::from(x.to_bits()));
            }
        }
    }

    fn cycle_run(&mut self, run: &CycleRun) {
        self.items(&run.outputs);
        self.word(run.completion_cycle);
        self.f64(run.completion_ns);
        self.word(run.stall_cycles);
        self.word(run.max_occupancy as u64);
    }
}

/// SplitMix64: a fixed, dependency-free stream for the batch generator.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound
    }
}

const DIM: usize = 16;
const RANKS: usize = 32;

/// Up to 24 queries of 1..=8 indices drawn from 96 rows: on 32 striped
/// ranks every index is shared and many queries hold co-resident operands.
fn batch(seed: u64) -> Batch {
    let mut rng = Rng(seed);
    let queries = 8 + rng.below(17);
    Batch::from_index_sets((0..queries).map(|_| {
        let len = 1 + rng.below(8);
        IndexSet::from_iter_dedup((0..len).map(|_| VectorIndex(rng.below(96) as u32)))
    }))
}

const OPERATORS: [ReduceOp; 6] = [
    ReduceOp::Sum,
    ReduceOp::Mean,
    ReduceOp::Max,
    ReduceOp::Min,
    ReduceOp::ArgMax,
    ReduceOp::TopK { k: 3 },
];

fn config(op: ReduceOp, ranks_per_leaf: usize) -> FafnirConfig {
    FafnirConfig { op, ranks_per_leaf, vector_dim: DIM, ..FafnirConfig::paper_default() }
}

/// Leaf inputs for the bare trees: values from the striped source, ranks
/// by `index mod 32`, seeded staggered read completions.
fn rank_inputs(
    batch: &Batch,
    source: &StripedSource,
    operator: &dyn ReduceOperator,
    config: &FafnirConfig,
    seed: u64,
) -> Vec<Vec<Item>> {
    let mut rng = Rng(seed ^ 0x5eed);
    let gathered: Vec<GatheredVector> = batch
        .unique_indices()
        .iter()
        .map(|index| GatheredVector {
            index,
            rank: index.value() as usize % RANKS,
            value: source.shared_value_of(index),
            ready_ns: rng.below(400) as f64 * 0.75,
        })
        .collect();
    build_rank_inputs_with(
        batch,
        &gathered,
        RANKS,
        config.ranks_per_leaf,
        operator,
        &config.pe_timing,
    )
}

/// Per operator: (lookup, reference, cycle tree, event tree) digests.
fn digests(op: ReduceOp) -> (u64, u64, u64, u64) {
    let operator = &*op.operator();
    let memory = MemoryConfig::ddr4_2400_4ch();
    assert_eq!(memory.topology.total_ranks(), RANKS);
    let source = StripedSource::new(memory.topology, DIM);
    let (mut lookup, mut reference, mut cycle, mut event) =
        (Fnv::new(), Fnv::new(), Fnv::new(), Fnv::new());
    for seed in 1..=3u64 {
        let batch = batch(seed);
        reference.outputs(&reference_lookup_with(&batch, &source, operator));
        for ranks_per_leaf in [1usize, 2, 4] {
            let config = config(op, ranks_per_leaf);
            for model in [MemoryModelKind::Cycle, MemoryModelKind::Fast] {
                for backend in
                    [TreeBackend::EventTimed, TreeBackend::CycleStepped { fifo_capacity: 32 }]
                {
                    let engine = FafnirEngine::new(config, MemoryConfig { model, ..memory })
                        .expect("valid configuration")
                        .with_backend(backend);
                    let result = engine.lookup(&batch, &source).expect("lookup succeeds");
                    lookup.outputs(&result.outputs);
                    for &(query, ns) in &result.per_query_ns {
                        lookup.word(u64::from(query.0));
                        lookup.f64(ns);
                    }
                    lookup.f64(result.latency.total_ns);
                    lookup.f64(result.latency.memory_ns);
                    lookup.f64(result.latency.compute_tail_ns);
                    lookup.debug(&result.tree);
                    lookup.debug(&result.traffic);
                    lookup.debug(&result.memory);
                }
            }

            let tree = ReductionTree::new(config, RANKS).expect("valid tree");
            let inputs = || rank_inputs(&batch, &source, operator, &config, seed);
            let sim = CycleTree::new(&tree, 32).expect("non-zero FIFO");
            cycle.cycle_run(&sim.run_with(operator, inputs()).expect("no deadlock"));
            cycle.cycle_run(&sim.run_stepped_with(operator, inputs()).expect("no deadlock"));

            let run = tree.run_with(operator, inputs());
            event.outputs(&run.query_outputs_with(operator));
            event.items(&run.outputs);
            event.debug(&run.stats);
        }
    }
    (lookup.0, reference.0, cycle.0, event.0)
}

/// Digests recorded before the `ReduceOp`-taking entry points were
/// removed, per operator: (lookup, reference, cycle tree, event tree).
const GOLDEN: &[(&str, u64, u64, u64, u64)] = &[
    ("sum", 0x59404ec8cda7cb8b, 0xf622790d26e6a64d, 0x9ec70be9e752d1ab, 0x8d2f454972dc9ed1),
    ("mean", 0x648405ecd7be9745, 0x1261acdc82b8c08c, 0xbb777397db2e4f07, 0xfc6262a20d81759f),
    ("max", 0xe1c33da3c3935faf, 0x68c2eb4df408a3a4, 0xfcde3e8bc15f086d, 0x573d84346d5ac31d),
    ("min", 0x7f751165e8c9bd6b, 0x504bc8e4b1f235d0, 0xc576c38df9b3fc13, 0x897b3555da207683),
    ("argmax", 0x5df225f366e61e8f, 0xc57cf9eecada0b84, 0x1c068d217b4cf61d, 0xf346a7f66f26efe1),
    ("topk:3", 0xc14c8aedfbbfd2a9, 0xc4f1b207340f7049, 0xc72d60c037cc88fd, 0x73446168af62a9dd),
];

#[test]
fn every_operator_reproduces_its_golden_digests() {
    let actual: Vec<(String, u64, u64, u64, u64)> = OPERATORS
        .into_iter()
        .map(|op| {
            let (lookup, reference, cycle, event) = digests(op);
            (op.to_string(), lookup, reference, cycle, event)
        })
        .collect();
    let table: String = actual
        .iter()
        .map(|(name, a, b, c, d)| {
            format!("    (\"{name}\", {a:#018x}, {b:#018x}, {c:#018x}, {d:#018x}),\n")
        })
        .collect();
    let golden: Vec<(String, u64, u64, u64, u64)> =
        GOLDEN.iter().map(|&(name, a, b, c, d)| (name.to_string(), a, b, c, d)).collect();
    assert_eq!(actual, golden, "digests moved; this run's table:\n{table}");
}
