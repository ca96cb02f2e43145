//! 7 nm ASIC area and power model (paper Table VI, Fig. 16b).
//!
//! The paper fabricates a PE at 274 µm × 282 µm in ASAP7, groups seven PEs
//! into a DIMM/rank node (492 µm × 575 µm) and three into a channel node,
//! and reports 23.82 mW per four DIMMs plus 111.64 mW for a four-channel
//! system with a total tree area of ≈1.2 mm². This module reproduces those
//! figures as a parametric model so scaling experiments (more ranks, other
//! leaf ratios) can report area/power too.

/// Per-component area/power constants at 7 nm.
///
/// Node figures are primary (they come from the paper's layouts); a node
/// packs its PEs tighter than a standalone PE chip, whose 274 µm × 282 µm
/// footprint includes per-chip overhead.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AsicModel {
    /// Area of a standalone PE chip in mm² (274 µm × 282 µm).
    pub pe_chip_area_mm2: f64,
    /// Area of a DIMM/rank node (seven PEs, 492 µm × 575 µm).
    pub dimm_rank_node_area_mm2: f64,
    /// Area of a channel node (three PEs) — the paper's "tiny 0.121 mm²
    /// chip between the memory channels and core".
    pub channel_node_area_mm2: f64,
    /// Power of one PE in mW.
    pub pe_power_mw: f64,
    /// Node-level glue power (clocking, IO) of a DIMM/rank node in mW.
    pub dimm_node_glue_mw: f64,
    /// Node-level glue power of a channel node in mW (wider channel-side
    /// links make it larger).
    pub channel_node_glue_mw: f64,
}

impl AsicModel {
    /// Constants calibrated to the paper's Table VI totals.
    #[must_use]
    pub fn asap7() -> Self {
        Self {
            pe_chip_area_mm2: 0.0773,       // 274 µm × 282 µm
            dimm_rank_node_area_mm2: 0.283, // 492 µm × 575 µm
            channel_node_area_mm2: 0.121,
            pe_power_mw: 3.2,
            dimm_node_glue_mw: 1.42,
            channel_node_glue_mw: 6.76,
        }
    }

    /// Effective per-PE area when packed inside a node.
    #[must_use]
    fn packed_pe_area_mm2(&self) -> f64 {
        self.dimm_rank_node_area_mm2 / 7.0
    }

    /// Power of a DIMM/rank node in mW (the paper's 23.82 mW per 4 DIMMs).
    #[must_use]
    pub fn dimm_rank_node_power_mw(&self) -> f64 {
        7.0 * self.pe_power_mw + self.dimm_node_glue_mw
    }

    /// Power of a channel node in mW.
    #[must_use]
    pub fn channel_node_power_mw(&self) -> f64 {
        3.0 * self.pe_power_mw + self.channel_node_glue_mw
    }

    /// Total tree area in mm² for a deployment of `dimm_rank_nodes` and
    /// `channel_nodes` (the paper's 32-rank system: 4 + 1 → ≈1.25 mm²).
    #[must_use]
    pub fn system_area_mm2(&self, dimm_rank_nodes: usize, channel_nodes: usize) -> f64 {
        dimm_rank_nodes as f64 * self.dimm_rank_node_area_mm2
            + channel_nodes as f64 * self.channel_node_area_mm2
    }

    /// Area in mm² of an arbitrary tree of `pes` PEs at packed density.
    #[must_use]
    pub fn tree_area_mm2(&self, pes: usize) -> f64 {
        pes as f64 * self.packed_pe_area_mm2()
    }

    /// Total power in mW for the paper's 4-channel deployment: four
    /// DIMM/rank nodes plus one channel node (111.64 mW).
    #[must_use]
    pub fn four_channel_system_power_mw(&self) -> f64 {
        4.0 * self.dimm_rank_node_power_mw() + self.channel_node_power_mw()
    }

    /// Per-DIMM added power in mW (the paper's 5.9 mW per DIMM).
    #[must_use]
    pub fn per_dimm_power_mw(&self) -> f64 {
        self.dimm_rank_node_power_mw() / 4.0
    }
}

impl Default for AsicModel {
    fn default() -> Self {
        Self::asap7()
    }
}

/// Fraction of a PE's power by subcomponent (Fig. 16b's uniform
/// distribution: no hot spot).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PePowerBreakdown {
    /// Input FIFO buffers.
    pub buffers: f64,
    /// Compute units (compare + reduce + forward).
    pub compute: f64,
    /// Merge unit.
    pub merge: f64,
    /// Clock tree and control.
    pub clock_control: f64,
}

impl PePowerBreakdown {
    /// The near-uniform distribution the paper reports.
    #[must_use]
    pub fn paper() -> Self {
        Self { buffers: 0.31, compute: 0.33, merge: 0.17, clock_control: 0.19 }
    }

    /// The fractions sum to 1 (within rounding).
    #[must_use]
    pub fn total(&self) -> f64 {
        self.buffers + self.compute + self.merge + self.clock_control
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pe_area_matches_published_dimensions() {
        let model = AsicModel::asap7();
        let expected = 0.274 * 0.282; // mm
        assert!((model.pe_chip_area_mm2 - expected).abs() < 1e-3);
        let node = 0.492 * 0.575;
        assert!((model.dimm_rank_node_area_mm2 - node).abs() < 1e-2);
    }

    #[test]
    fn four_dimm_power_matches_table6() {
        let model = AsicModel::asap7();
        // Paper: 23.82 mW per four DIMMs (one DIMM/rank node).
        assert!(
            (model.dimm_rank_node_power_mw() - 23.82).abs() < 0.1,
            "got {}",
            model.dimm_rank_node_power_mw()
        );
        assert!((model.per_dimm_power_mw() - 5.9).abs() < 0.1);
    }

    #[test]
    fn system_power_matches_paper_total() {
        let model = AsicModel::asap7();
        // Paper: 111.64 mW for the four-channel memory system.
        let total = model.four_channel_system_power_mw();
        assert!((total - 111.64).abs() < 0.5, "got {total}");
    }

    #[test]
    fn system_area_is_about_1_25_mm2_for_32_ranks() {
        let model = AsicModel::asap7();
        // Four DIMM/rank nodes + one channel node (Fig. 4a): ~1.25 mm².
        let area = model.system_area_mm2(4, 1);
        assert!((area - 1.25).abs() < 0.05, "got {area}");
        assert!(area > model.system_area_mm2(2, 1));
        // Generic-tree accounting stays in the same ballpark.
        assert!((model.tree_area_mm2(31) - area).abs() < 0.2);
    }

    #[test]
    fn power_breakdown_is_uniform_and_normalized() {
        let breakdown = PePowerBreakdown::paper();
        assert!((breakdown.total() - 1.0).abs() < 1e-9);
        // "Uniform" per the paper: no component above 40 %.
        for share in
            [breakdown.buffers, breakdown.compute, breakdown.merge, breakdown.clock_control]
        {
            assert!(share < 0.4);
        }
    }
}
