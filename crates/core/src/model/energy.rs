//! Tree-side (accelerator) energy model.
//!
//! The paper argues DRAM energy dominates (Sec. VI), but a full accounting
//! needs the PE side too: this model converts the tree's operation counters
//! into energy, calibrated from the 7 nm ASIC power figures (a PE draws
//! ≈3.2 mW; at a 1 GHz ASIC clock that is ≈3.2 pJ per active cycle, split
//! over the Table IV stage lengths and the Fig. 16b component shares).

use crate::pe::PeOpCounts;

/// Per-operation energy constants for the tree, in picojoules.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TreeEnergyModel {
    /// One header comparison (subset test).
    pub compare_pj: f64,
    /// One value+header reduction (512 B element-wise combine).
    pub reduce_pj: f64,
    /// One forward (FIFO read + output write).
    pub forward_pj: f64,
    /// One merge-unit fold.
    pub merge_pj: f64,
}

impl TreeEnergyModel {
    /// Constants derived from the ASAP7 PE power at 1 GHz and the Table IV
    /// stage lengths (compare 12, reduce 20, forward 2, merge 2 cycles of
    /// ≈3.2 pJ each, weighted by the Fig. 16b component shares).
    #[must_use]
    pub fn asap7() -> Self {
        Self { compare_pj: 12.7, reduce_pj: 64.0, forward_pj: 6.4, merge_pj: 6.4 }
    }

    /// Energy of a tree traversal in nanojoules.
    #[must_use]
    pub fn tree_energy_nj(&self, ops: &PeOpCounts) -> f64 {
        (ops.compares as f64 * self.compare_pj
            + ops.reduces as f64 * self.reduce_pj
            + ops.forwards as f64 * self.forward_pj
            + ops.merges as f64 * self.merge_pj)
            / 1_000.0
    }
}

impl Default for TreeEnergyModel {
    fn default() -> Self {
        Self::asap7()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ops(compares: u64, reduces: u64, forwards: u64, merges: u64) -> PeOpCounts {
        PeOpCounts { compares, reduces, forwards, merges, ..PeOpCounts::default() }
    }

    #[test]
    fn reduces_dominate_per_op_cost() {
        let model = TreeEnergyModel::asap7();
        assert!(model.reduce_pj > model.compare_pj);
        assert!(model.compare_pj > model.forward_pj);
    }

    #[test]
    fn energy_is_linear_in_ops() {
        let model = TreeEnergyModel::asap7();
        let one = model.tree_energy_nj(&ops(10, 5, 3, 2));
        let two = model.tree_energy_nj(&ops(20, 10, 6, 4));
        assert!((two - 2.0 * one).abs() < 1e-12);
        assert_eq!(model.tree_energy_nj(&ops(0, 0, 0, 0)), 0.0);
    }

    #[test]
    fn dram_energy_dominates_a_typical_lookup() {
        // The paper's premise: DRAM dynamic energy ≫ tree energy. A batch of
        // 32 × 16 lookups does ~2 k tree ops but ~2 k DRAM bursts at ~1 nJ
        // each.
        let model = TreeEnergyModel::asap7();
        let tree = model.tree_energy_nj(&ops(2_000, 500, 1_500, 400));
        let dram_stats =
            fafnir_mem::MemoryStats { reads: 2_000, activations: 250, ..Default::default() };
        let dram = fafnir_mem::EnergyModel::ddr4().dynamic_nj(&dram_stats);
        assert!(dram > 10.0 * tree, "dram {dram} nJ vs tree {tree} nJ");
    }
}
