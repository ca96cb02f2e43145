//! DRAM energy model.
//!
//! FAFNIR's energy claim (Sec. VI, "Memory Energy Saving") is that removing
//! redundant reads removes their DRAM energy, with DRAM dominating compute.
//! This model converts the simulator's command counts into energy using
//! per-command constants derived from DDR4 IDD figures (Micron power
//! calculator methodology, the same source the paper cites).

use crate::stats::MemoryStats;

/// Per-command energy constants, in picojoules.
///
/// # Examples
///
/// ```
/// use fafnir_mem::{EnergyModel, MemoryStats};
///
/// let model = EnergyModel::ddr4();
/// let stats = MemoryStats { reads: 8, activations: 1, ..Default::default() };
/// assert!(model.dynamic_nj(&stats) > 10.0); // one vector read costs > 10 nJ
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyModel {
    /// Energy of one ACT+PRE pair (row activation cycle).
    pub act_pre_pj: f64,
    /// Energy of one 64-byte read burst (array + I/O).
    pub read_pj: f64,
    /// Energy of one 64-byte write burst.
    pub write_pj: f64,
}

impl EnergyModel {
    /// DDR4-2400 x8 constants (approximate, datasheet-derived).
    #[must_use]
    pub fn ddr4() -> Self {
        Self { act_pre_pj: 2_500.0, read_pj: 1_300.0, write_pj: 1_400.0 }
    }

    /// Dynamic (command-driven) energy in nanojoules for the given counters.
    #[must_use]
    pub fn dynamic_nj(&self, stats: &MemoryStats) -> f64 {
        (stats.activations as f64 * self.act_pre_pj
            + stats.reads as f64 * self.read_pj
            + stats.writes as f64 * self.write_pj)
            / 1_000.0
    }
}

impl Default for EnergyModel {
    fn default() -> Self {
        Self::ddr4()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dynamic_energy_scales_with_commands() {
        let model = EnergyModel::ddr4();
        let stats = MemoryStats { activations: 2, reads: 10, writes: 0, ..Default::default() };
        let expected = (2.0 * model.act_pre_pj + 10.0 * model.read_pj) / 1_000.0;
        assert!((model.dynamic_nj(&stats) - expected).abs() < 1e-9);
    }

    #[test]
    fn fewer_reads_cost_less_energy() {
        let model = EnergyModel::ddr4();
        let full = MemoryStats { reads: 32, activations: 32, ..Default::default() };
        let deduped = MemoryStats { reads: 14, activations: 14, ..Default::default() };
        assert!(model.dynamic_nj(&deduped) < model.dynamic_nj(&full));
    }
}
