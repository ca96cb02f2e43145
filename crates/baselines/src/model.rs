//! Shared pieces of the baseline engines: the host/core cost model and
//! the whole-batch result shape of their analytic reduce stages.

use fafnir_core::batch::Batch;
use fafnir_core::placement::EmbeddingSource;
use fafnir_core::{
    AnalyticView, LatencyBreakdown, LookupResult, QueryId, TrafficStats, TreeStats,
    HOST_LINK_BYTES_PER_NS,
};
use fafnir_mem::MemoryStats;

/// Cost model of the host side: the link from memory to cores and the cores'
/// reduction throughput.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoreModel {
    /// Element-wise f32 operations the cores sustain per nanosecond
    /// (SIMD reduction over vectors streaming through the cache hierarchy).
    pub elems_per_ns: f64,
    /// Marginal overhead per partial result handed to the cores, in
    /// nanoseconds.
    pub per_partial_overhead_ns: f64,
    /// Fixed software overhead per batch handed to the cores (kernel sync /
    /// scheduling), in nanoseconds.
    pub batch_overhead_ns: f64,
    /// Memory-to-host link bandwidth in bytes per nanosecond (≈ GB/s).
    pub link_bytes_per_ns: f64,
}

impl CoreModel {
    /// A contemporary server CPU: AVX-512-class streaming reduction
    /// (~32 f32 element-ops/ns), 2 ns marginal cost per partial, 1 µs batch
    /// sync overhead. The host link runs at
    /// [`HOST_LINK_BYTES_PER_NS`], the rate FAFNIR's root forwards at.
    #[must_use]
    pub fn server_cpu() -> Self {
        Self {
            elems_per_ns: 32.0,
            per_partial_overhead_ns: 2.0,
            batch_overhead_ns: 1_000.0,
            link_bytes_per_ns: HOST_LINK_BYTES_PER_NS,
        }
    }

    /// Time for the cores to reduce `partials` partial vectors of `dim`
    /// elements down to their outputs (`max(partials − outputs, 0)` combines).
    #[must_use]
    pub fn reduce_ns(&self, partials: u64, outputs: u64, dim: usize) -> f64 {
        let combines = partials.saturating_sub(outputs);
        self.batch_overhead_ns
            + combines as f64 * dim as f64 / self.elems_per_ns
            + partials as f64 * self.per_partial_overhead_ns
    }

    /// Time to move `bytes` across the host link.
    #[must_use]
    pub fn transfer_ns(&self, bytes: u64) -> f64 {
        bytes as f64 / self.link_bytes_per_ns
    }
}

impl Default for CoreModel {
    fn default() -> Self {
        Self::server_cpu()
    }
}

/// The result of an analytic reduce stage: every query completes when the
/// whole batch does (`total_ns`), and no tree statistics exist.
pub(crate) fn whole_batch_result(
    outputs: Vec<(QueryId, Vec<f32>)>,
    latency: LatencyBreakdown,
    memory: MemoryStats,
    traffic: TrafficStats,
    analytic: AnalyticView,
) -> LookupResult {
    let per_query_ns = outputs.iter().map(|&(query, _)| (query, latency.total_ns)).collect();
    LookupResult {
        outputs,
        per_query_ns,
        latency,
        memory,
        tree: TreeStats::default(),
        traffic,
        analytic,
    }
}

/// Validates a result's outputs against the software reference folded
/// with `operator`; panics with a descriptive message on mismatch.
/// Test/benchmark helper.
///
/// # Panics
///
/// Panics if outputs are missing or differ beyond tolerance.
pub fn assert_outputs_match<S: EmbeddingSource>(
    result: &LookupResult,
    batch: &Batch,
    source: &S,
    operator: &dyn fafnir_core::ReduceOperator,
) {
    let reference = fafnir_core::reference_lookup_with(batch, source, operator);
    assert_eq!(result.outputs.len(), reference.len(), "missing query outputs");
    for ((qa, got), (qb, expected)) in result.outputs.iter().zip(&reference) {
        assert_eq!(qa, qb, "query order mismatch");
        for (pos, (x, y)) in got.iter().zip(expected).enumerate() {
            assert!(
                (x - y).abs() <= 1e-3_f32.max(y.abs() * 1e-4),
                "query {qa} element {pos}: {x} vs {y}"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn core_reduce_time_scales_with_work() {
        let core = CoreModel::server_cpu();
        let small = core.reduce_ns(4, 1, 128);
        let large = core.reduce_ns(16, 1, 128);
        assert!(large > small);
        // No combines needed when partials == outputs; only overheads remain.
        let none = core.reduce_ns(2, 2, 128);
        let expected = core.batch_overhead_ns + 2.0 * core.per_partial_overhead_ns;
        assert!((none - expected).abs() < 1e-9);
    }

    #[test]
    fn transfer_time_is_linear() {
        let core = CoreModel::server_cpu();
        assert!((core.transfer_ns(3840) - 100.0).abs() < 1e-9);
    }

    #[test]
    fn fafnir_lookup_matches_reference_and_is_all_ndp() {
        use fafnir_core::{indexset, FafnirConfig, FafnirEngine, GatherEngine, StripedSource};
        let mem = fafnir_mem::MemoryConfig::ddr4_2400_4ch();
        let fafnir = FafnirEngine::new(FafnirConfig::paper_default(), mem).unwrap();
        let source = StripedSource::new(mem.topology, 128);
        let batch = Batch::from_index_sets([indexset![1, 2, 5, 6], indexset![3, 4, 5]]);
        let result = fafnir.lookup(&batch, &source).unwrap();
        assert_outputs_match(&result, &batch, &source, &*fafnir.active_operator());
        assert_eq!(result.analytic.core_elem_ops, 0);
        assert!(result.analytic.ndp_elem_ops > 0);
        assert_eq!(result.ndp_fraction(), 1.0);
    }

    #[test]
    fn baselines_agree_with_fafnir_for_lifted_operators() {
        use crate::no_ndp::NoNdpEngine;
        use crate::recnmp::RecNmpEngine;
        use crate::tensordimm::TensorDimmEngine;
        use fafnir_core::timing::PeTiming;
        use fafnir_core::{
            indexset, FafnirConfig, FafnirEngine, GatherEngine, ReduceOp, StripedSource,
        };

        let mem = fafnir_mem::MemoryConfig::ddr4_2400_4ch();
        let source = StripedSource::new(mem.topology, 128);
        let batch = Batch::from_index_sets([indexset![1, 2, 5, 6], indexset![3, 4, 5]]);
        for op in [ReduceOp::Mean, ReduceOp::ArgMax, ReduceOp::TopK { k: 2 }] {
            let config = FafnirConfig { op, ..FafnirConfig::paper_default() };
            let fafnir = FafnirEngine::new(config, mem).unwrap();
            let expected = fafnir.lookup(&batch, &source).unwrap().outputs;
            let no_ndp = NoNdpEngine::new(mem, CoreModel::server_cpu(), op);
            let tensordimm = TensorDimmEngine::new(mem, PeTiming::fpga_200mhz(), op);
            let recnmp =
                RecNmpEngine::new(mem, CoreModel::server_cpu(), PeTiming::fpga_200mhz(), op);
            let results = [
                no_ndp.lookup(&batch, &source).unwrap(),
                tensordimm.lookup(&batch, &source).unwrap(),
                recnmp.lookup(&batch, &source).unwrap(),
            ];
            for result in &results {
                assert_eq!(result.outputs.len(), expected.len(), "{op}");
                for ((qa, got), (qb, want)) in result.outputs.iter().zip(&expected) {
                    assert_eq!(qa, qb, "{op} query order");
                    assert_eq!(got.len(), want.len(), "{op} output width");
                    for (x, y) in got.iter().zip(want) {
                        assert!((x - y).abs() <= 1e-3_f32.max(y.abs() * 1e-4), "{op}: {x} vs {y}");
                    }
                }
            }
        }
    }
}
