//! PE stage latencies (paper Table IV) and NDP clocking.

/// Latencies of the compute-unit components of a PE, in NDP clock cycles.
///
/// Reproduces Table IV of the paper (FPGA implementation @200 MHz): the
/// compare unit feeds two parallel paths — reduce (value + header, the
/// slower one, which defines the critical path) and forward.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PeTiming {
    /// Header comparison (subset test over the queries field).
    pub compare_cycles: u64,
    /// Element-wise reduction of two values (wide SIMD over the vector).
    pub reduce_value_cycles: u64,
    /// Construction of the reduced item's header.
    pub reduce_header_cycles: u64,
    /// Forwarding an input unchanged.
    pub forward_cycles: u64,
    /// Merge-unit post-processing per output item.
    pub merge_cycles: u64,
    /// Minimum gap between consecutive outputs on one PE's output port
    /// (pipeline initiation interval).
    pub output_interval_cycles: u64,
    /// NDP clock in MHz (the paper's FPGA runs at 200 MHz).
    pub clock_mhz: u64,
}

impl PeTiming {
    /// Table IV values for the 200 MHz FPGA implementation.
    #[must_use]
    pub fn fpga_200mhz() -> Self {
        Self {
            compare_cycles: 12,
            reduce_value_cycles: 4,
            reduce_header_cycles: 16,
            forward_cycles: 2,
            merge_cycles: 2,
            output_interval_cycles: 1,
            clock_mhz: 200,
        }
    }

    /// Nanoseconds per NDP cycle.
    #[must_use]
    pub fn cycle_ns(&self) -> f64 {
        1_000.0 / self.clock_mhz as f64
    }

    /// Latency of the reduce path: compare, then value and header reduction
    /// in parallel (the critical path of Table IV).
    #[must_use]
    pub fn reduce_path_cycles(&self) -> u64 {
        self.compare_cycles + self.reduce_value_cycles.max(self.reduce_header_cycles)
    }

    /// Latency of the forward path: compare, then forward. Runs in parallel
    /// with the reduce path and is shorter.
    #[must_use]
    pub fn forward_path_cycles(&self) -> u64 {
        self.compare_cycles + self.forward_cycles
    }

    /// Reduce-path latency in nanoseconds (including the merge stage).
    #[must_use]
    pub fn reduce_latency_ns(&self) -> f64 {
        (self.reduce_path_cycles() + self.merge_cycles) as f64 * self.cycle_ns()
    }

    /// Forward-path latency in nanoseconds (including the merge stage).
    #[must_use]
    pub fn forward_latency_ns(&self) -> f64 {
        (self.forward_path_cycles() + self.merge_cycles) as f64 * self.cycle_ns()
    }
}

impl Default for PeTiming {
    fn default() -> Self {
        Self::fpga_200mhz()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn critical_path_is_reduce_not_forward() {
        let timing = PeTiming::fpga_200mhz();
        assert!(timing.reduce_path_cycles() > timing.forward_path_cycles());
    }

    #[test]
    fn fpga_cycle_is_5ns() {
        assert!((PeTiming::fpga_200mhz().cycle_ns() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn reduce_path_takes_slower_parallel_branch() {
        let timing = PeTiming::fpga_200mhz();
        assert_eq!(
            timing.reduce_path_cycles(),
            timing.compare_cycles + timing.reduce_header_cycles
        );
    }
}
