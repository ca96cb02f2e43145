//! Shared types for embedding-lookup engines: the outcome record, the
//! host/core cost model, and the engine trait.

use fafnir_core::batch::Batch;
use fafnir_core::pipeline::GatherEngine;
use fafnir_core::placement::EmbeddingSource;
use fafnir_core::{FafnirEngine, FafnirError, LookupResult, QueryId, TrafficStats};
use fafnir_mem::MemoryStats;

/// Result of one batch lookup on any engine (FAFNIR or a baseline).
#[derive(Debug, Clone, PartialEq)]
pub struct LookupOutcome {
    /// Finished per-query outputs, sorted by query id.
    pub outputs: Vec<(QueryId, Vec<f32>)>,
    /// End-to-end latency in nanoseconds.
    pub total_ns: f64,
    /// Memory phase: last DRAM read completed.
    pub memory_ns: f64,
    /// Exposed (non-overlapped) computation latency.
    pub compute_ns: f64,
    /// Computation cost as a *pipeline stage* (throughput view): how long
    /// the compute stage is busy per batch. For the baselines' serial
    /// pipelines and core-side combines this equals `compute_ns`; for
    /// FAFNIR's fully pipelined tree it is the root's output serialization,
    /// far below the tree's latency.
    pub compute_throughput_ns: f64,
    /// Time the batch's results (raw vectors or partials) occupy the
    /// memory-to-host link. Zero when the read path itself delivers the
    /// data to the cores (no-NDP baseline).
    pub host_transfer_ns: f64,
    /// DRAM counters.
    pub memory: MemoryStats,
    /// Vector reads issued to DRAM.
    pub vectors_read: u64,
    /// Bytes crossing from the memory side to the host.
    pub bytes_to_host: u64,
    /// Element-wise reduction operations executed at NDP.
    pub ndp_elem_ops: u64,
    /// Element-wise reduction operations executed at the cores.
    pub core_elem_ops: u64,
}

impl LookupOutcome {
    /// Lookup throughput in queries per second, latency-based (one batch at
    /// a time).
    #[must_use]
    pub fn queries_per_second(&self) -> f64 {
        if self.total_ns <= 0.0 {
            0.0
        } else {
            self.outputs.len() as f64 / (self.total_ns * 1e-9)
        }
    }

    /// Sustained time per batch when batches run back to back: the gather,
    /// host-link, and compute stages pipeline across batches, so the
    /// slowest stage sets the rate.
    #[must_use]
    pub fn sustained_ns(&self) -> f64 {
        self.memory_ns.max(self.compute_throughput_ns).max(self.host_transfer_ns)
    }

    /// Sustained throughput in queries per second (pipelined batches).
    #[must_use]
    pub fn sustained_queries_per_second(&self) -> f64 {
        let sustained = self.sustained_ns();
        if sustained <= 0.0 {
            0.0
        } else {
            self.outputs.len() as f64 / (sustained * 1e-9)
        }
    }

    /// Fraction of reduction work done at NDP (1.0 for FAFNIR/TensorDIMM).
    #[must_use]
    pub fn ndp_fraction(&self) -> f64 {
        let total = self.ndp_elem_ops + self.core_elem_ops;
        if total == 0 {
            1.0
        } else {
            self.ndp_elem_ops as f64 / total as f64
        }
    }

    /// Converts this analytic outcome into the staged pipeline's
    /// [`LookupResult`] shape so baselines can serve the [`GatherEngine`]
    /// trait. Latency and traffic totals carry over exactly; tree statistics
    /// stay at their defaults (the baselines have no reduction tree).
    #[must_use]
    pub fn into_lookup_result(self, total_references: u64) -> LookupResult {
        let traffic = TrafficStats {
            total_references,
            vectors_read: self.vectors_read,
            bytes_from_dram: self.memory.bytes_transferred,
            bytes_to_host: self.bytes_to_host,
        };
        fafnir_core::pipeline::analytic_result(
            self.outputs,
            self.total_ns,
            self.memory_ns,
            self.memory,
            traffic,
        )
    }
}

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
    /// Aggregate memory-to-host link bandwidth in bytes per nanosecond
    /// (≈ GB/s); four DDR4-2400 channels sustain ≈ 76.8 GB/s.
    pub link_bytes_per_ns: f64,
}

impl CoreModel {
    /// A contemporary server CPU: AVX-512-class streaming reduction
    /// (~32 f32 element-ops/ns), 2 ns marginal cost per partial, 1 µs batch
    /// sync overhead. The host link sustains 38.4 GB/s for forwarded
    /// partials: half the 4-channel aggregate, since forwards contend with
    /// the ongoing gather traffic at the host memory interface.
    #[must_use]
    pub fn server_cpu() -> Self {
        Self {
            elems_per_ns: 32.0,
            per_partial_overhead_ns: 2.0,
            batch_overhead_ns: 1_000.0,
            link_bytes_per_ns: 38.4,
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

/// An embedding-lookup engine: FAFNIR or one of the baselines.
///
/// The generic method keeps sources statically dispatched; engines are used
/// as type parameters in benchmarks, not as trait objects.
pub trait LookupEngine {
    /// Short name for reports ("fafnir", "recnmp", …).
    fn name(&self) -> &'static str;

    /// Runs one batch against `source`.
    ///
    /// # Errors
    ///
    /// Returns an error for empty batches or mismatched vector dimensions.
    fn lookup<S: EmbeddingSource>(
        &self,
        batch: &Batch,
        source: &S,
    ) -> Result<LookupOutcome, FafnirError>;
}

/// FAFNIR viewed through the baselines' analytic lens: the staged
/// [`GatherEngine`] lookup runs the full simulation, and the extra
/// [`LookupOutcome`] fields (host link occupancy, throughput view, NDP op
/// counts) are derived from its result. This replaces the old
/// `FafnirLookup` wrapper.
impl LookupEngine for FafnirEngine {
    fn name(&self) -> &'static str {
        "fafnir"
    }

    fn lookup<S: EmbeddingSource>(
        &self,
        batch: &Batch,
        source: &S,
    ) -> Result<LookupOutcome, FafnirError> {
        let result = GatherEngine::lookup(self, batch, source)?;
        let dim = source.vector_dim() as u64;
        // The root forwards n output vectors to the host over c links.
        let host_transfer_ns =
            result.traffic.bytes_to_host as f64 / CoreModel::server_cpu().link_bytes_per_ns;
        let output_count = result.outputs.len() as f64;
        Ok(LookupOutcome {
            outputs: result.outputs,
            total_ns: result.latency.total_ns,
            memory_ns: result.latency.memory_ns,
            compute_ns: result.latency.compute_tail_ns,
            // The tree is fully pipelined: per batch it is busy only for the
            // root's output serialization (one output per initiation
            // interval per query), not the tree's depth.
            compute_throughput_ns: output_count
                * self.config().pe_timing.output_interval_cycles as f64
                * self.config().pe_timing.cycle_ns(),
            host_transfer_ns,
            memory: result.memory,
            vectors_read: result.traffic.vectors_read,
            bytes_to_host: result.traffic.bytes_to_host,
            // Every reduce the tree performed happened at NDP; count merged
            // (deduplicated) reduces as element ops.
            ndp_elem_ops: (result.tree.ops.reduces / 2).max(result.tree.ops.reduces.min(1)) * dim,
            core_elem_ops: 0,
        })
    }
}

/// Validates an outcome's outputs against the software reference folded
/// with `operator`; panics with a descriptive message on mismatch.
/// Test/benchmark helper.
///
/// # Panics
///
/// Panics if outputs are missing or differ beyond tolerance.
pub fn assert_outputs_match<S: EmbeddingSource>(
    outcome: &LookupOutcome,
    batch: &Batch,
    source: &S,
    operator: &dyn fafnir_core::ReduceOperator,
) {
    let reference = fafnir_core::reference_lookup_with(batch, source, operator);
    assert_eq!(outcome.outputs.len(), reference.len(), "missing query outputs");
    for ((qa, got), (qb, expected)) in outcome.outputs.iter().zip(&reference) {
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
    fn ndp_fraction_handles_empty() {
        let outcome = LookupOutcome {
            outputs: Vec::new(),
            total_ns: 0.0,
            memory_ns: 0.0,
            compute_ns: 0.0,
            compute_throughput_ns: 0.0,
            host_transfer_ns: 0.0,
            memory: MemoryStats::default(),
            vectors_read: 0,
            bytes_to_host: 0,
            ndp_elem_ops: 0,
            core_elem_ops: 0,
        };
        assert_eq!(outcome.ndp_fraction(), 1.0);
        assert_eq!(outcome.queries_per_second(), 0.0);
        assert_eq!(outcome.sustained_queries_per_second(), 0.0);
    }

    #[test]
    fn fafnir_as_lookup_engine_matches_reference_and_is_all_ndp() {
        use fafnir_core::{indexset, FafnirConfig, StripedSource};
        let mem = fafnir_mem::MemoryConfig::ddr4_2400_4ch();
        let fafnir = FafnirEngine::new(FafnirConfig::paper_default(), mem).unwrap();
        let source = StripedSource::new(mem.topology, 128);
        let batch = Batch::from_index_sets([indexset![1, 2, 5, 6], indexset![3, 4, 5]]);
        let outcome = LookupEngine::lookup(&fafnir, &batch, &source).unwrap();
        assert_outputs_match(&outcome, &batch, &source, &*fafnir.active_operator());
        assert_eq!(outcome.core_elem_ops, 0);
        assert_eq!(LookupEngine::name(&fafnir), "fafnir");
        assert!(outcome.ndp_elem_ops > 0);
    }

    #[test]
    fn baselines_agree_with_fafnir_for_lifted_operators() {
        use crate::no_ndp::NoNdpEngine;
        use crate::recnmp::RecNmpEngine;
        use crate::tensordimm::TensorDimmEngine;
        use fafnir_core::timing::PeTiming;
        use fafnir_core::{indexset, FafnirConfig, ReduceOp, StripedSource};

        let mem = fafnir_mem::MemoryConfig::ddr4_2400_4ch();
        let source = StripedSource::new(mem.topology, 128);
        let batch = Batch::from_index_sets([indexset![1, 2, 5, 6], indexset![3, 4, 5]]);
        for op in [ReduceOp::Mean, ReduceOp::ArgMax, ReduceOp::TopK { k: 2 }] {
            let config = FafnirConfig { op, ..FafnirConfig::paper_default() };
            let fafnir = FafnirEngine::new(config, mem).unwrap();
            let expected = LookupEngine::lookup(&fafnir, &batch, &source).unwrap().outputs;
            let no_ndp = NoNdpEngine::new(mem, CoreModel::server_cpu(), op);
            let tensordimm = TensorDimmEngine::new(mem, PeTiming::fpga_200mhz(), op);
            let recnmp =
                RecNmpEngine::new(mem, CoreModel::server_cpu(), PeTiming::fpga_200mhz(), op);
            let outcomes = [
                LookupEngine::lookup(&no_ndp, &batch, &source).unwrap(),
                LookupEngine::lookup(&tensordimm, &batch, &source).unwrap(),
                LookupEngine::lookup(&recnmp, &batch, &source).unwrap(),
            ];
            for outcome in &outcomes {
                assert_eq!(outcome.outputs.len(), expected.len(), "{op}");
                for ((qa, got), (qb, want)) in outcome.outputs.iter().zip(&expected) {
                    assert_eq!(qa, qb, "{op} query order");
                    assert_eq!(got.len(), want.len(), "{op} output width");
                    for (x, y) in got.iter().zip(want) {
                        assert!((x - y).abs() <= 1e-3_f32.max(y.abs() * 1e-4), "{op}: {x} vs {y}");
                    }
                }
            }
        }
    }

    #[test]
    fn sustained_is_the_slowest_stage() {
        let outcome = LookupOutcome {
            outputs: Vec::new(),
            total_ns: 10.0,
            memory_ns: 4.0,
            compute_ns: 7.0,
            compute_throughput_ns: 7.0,
            host_transfer_ns: 9.0,
            memory: MemoryStats::default(),
            vectors_read: 0,
            bytes_to_host: 0,
            ndp_elem_ops: 0,
            core_elem_ops: 0,
        };
        assert_eq!(outcome.sustained_ns(), 9.0);
    }
}
