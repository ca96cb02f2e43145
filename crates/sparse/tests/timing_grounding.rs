//! Physical grounding of the SpMV timing constants.
//!
//! [`fafnir_sparse::SpmvTiming`]'s per-entry costs are calibrated to
//! Fig. 14's ratios; these tests check they are *physically realizable*
//! against the two hard bounds of the machine:
//!
//! 1. **DRAM streaming** — LIL entries stream sequentially from all ranks'
//!    own NDP ports; the per-entry time is measured by driving the actual
//!    `fafnir-mem` simulator with a block-sequential read pattern.
//! 2. **Tree ingestion** — each leaf PE consumes one SIMD-vectorized group
//!    of entries per NDP cycle (Fig. 7c's vectorization).
//!
//! A calibrated constant below either bound would promise impossible
//! hardware; the tests pin `fafnir_multiply_ns` above both.

use fafnir_core::PeTiming;
use fafnir_mem::{Location, MemoryConfig, MemorySystem};
use fafnir_sparse::SpmvTiming;

/// Bytes per streamed LIL entry: an f64 value plus a u32 row index.
const ENTRY_BYTES: usize = 12;

/// Measures the DRAM streaming bound by reading `blocks_per_rank` 512-byte
/// blocks sequentially from every rank (block-sequential = row streaming)
/// and dividing by the entries moved.
fn measured_stream_bound_ns_per_entry(mem_config: MemoryConfig, blocks_per_rank: usize) -> f64 {
    let mut config = mem_config;
    config.ndp_data_path = true; // leaf PEs read over rank ports
    let mut memory = MemorySystem::new(config);
    let topology = config.topology;
    let blocks_per_row = topology.row_bytes() / 512;
    for channel in 0..topology.channels {
        for rank in 0..topology.ranks_per_channel() {
            for block in 0..blocks_per_rank {
                // Walk banks round-robin, rows sequentially: the streaming
                // layout a chunked LIL occupies.
                let banks = topology.banks_per_rank();
                let flat_bank = block % banks;
                let slot = block / banks;
                let location = Location {
                    channel,
                    rank,
                    bank_group: flat_bank / topology.banks_per_group,
                    bank: flat_bank % topology.banks_per_group,
                    row: slot / blocks_per_row.max(1) % topology.rows,
                    column: (slot % blocks_per_row.max(1)) * (512 / topology.burst_bytes),
                };
                memory.submit_read_at(location, 512, 0);
            }
        }
    }
    let done = memory.run_until_idle();
    let total_ns = config.timing.cycles_to_ns(done);
    let total_entries = (topology.total_ranks() * blocks_per_rank * 512 / ENTRY_BYTES) as f64;
    total_ns / total_entries
}

/// The tree-ingestion bound: `leaves` leaf PEs each consume `simd_lanes`
/// entries per NDP cycle.
fn tree_ingest_bound_ns_per_entry(timing: &PeTiming, leaves: usize, simd_lanes: usize) -> f64 {
    timing.cycle_ns() / (leaves * simd_lanes) as f64
}

#[test]
fn dram_streaming_is_fast_and_row_hit_dominated() {
    let bound = measured_stream_bound_ns_per_entry(MemoryConfig::ddr4_2400_4ch(), 32);
    // 32 ranks streaming on their own ports, bounded by the shared
    // per-channel command bus: ≈0.14 ns per 12-byte entry — and the
    // calibrated multiply constant (0.16) sits just above it.
    assert!(bound > 0.05 && bound < 0.2, "bound {bound} ns/entry");
}

#[test]
fn fewer_ranks_stream_slower() {
    let wide = measured_stream_bound_ns_per_entry(MemoryConfig::ddr4_2400_4ch(), 32);
    let narrow = measured_stream_bound_ns_per_entry(MemoryConfig::with_total_ranks(2), 32);
    assert!(narrow > 4.0 * wide, "2 ranks {narrow} vs 32 ranks {wide}");
}

#[test]
fn tree_bound_scales_with_leaves_and_lanes() {
    let timing = PeTiming::fpga_200mhz();
    let narrow = tree_ingest_bound_ns_per_entry(&timing, 4, 1);
    let wide = tree_ingest_bound_ns_per_entry(&timing, 16, 16);
    assert!((narrow / wide - 64.0).abs() < 1e-9);
}

#[test]
fn paper_calibration_is_physically_realizable() {
    let calibrated = SpmvTiming::paper().fafnir_multiply_ns;
    let dram_bound = measured_stream_bound_ns_per_entry(MemoryConfig::ddr4_2400_4ch(), 64);
    // 16 leaf PEs at 1PE:2R, 16-lane vectorized entry ingestion.
    let tree_bound = tree_ingest_bound_ns_per_entry(&PeTiming::fpga_200mhz(), 16, 16);
    // Realizable: the calibrated constant does not promise more than the
    // hardware can deliver.
    let binding = dram_bound.max(tree_bound);
    assert!(
        calibrated >= binding * 0.99,
        "calibrated {calibrated} vs dram {dram_bound} / tree {tree_bound}"
    );
    // And it is not absurdly conservative either: within ~20x of the
    // binding constraint.
    assert!(calibrated < 20.0 * binding);
}
