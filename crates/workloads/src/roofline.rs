//! Roofline positioning of embedding lookup (paper Sec. II).
//!
//! The paper motivates NDP by placing embedding lookup "in the memory-bound
//! region of the roofline model of CPUs and far below the ceiling" — low
//! arithmetic intensity plus poor bandwidth utilization. This module makes
//! that argument quantitative for any workload shape.

/// A machine roofline: peak compute vs peak memory bandwidth.
///
/// # Examples
///
/// ```
/// use fafnir_workloads::roofline::{embedding_lookup_intensity, Roofline};
///
/// let cpu = Roofline::server_cpu_ddr4();
/// assert!(cpu.is_memory_bound(embedding_lookup_intensity(16)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Roofline {
    /// Peak f32 operations per nanosecond (GFLOP/s = this × 1).
    pub peak_flops_per_ns: f64,
    /// Peak memory bandwidth in bytes per nanosecond (GB/s = this × 1).
    pub peak_bytes_per_ns: f64,
}

impl Roofline {
    /// A server CPU with four DDR4-2400 channels: ~1 TFLOP/s f32 and
    /// 76.8 GB/s.
    #[must_use]
    pub fn server_cpu_ddr4() -> Self {
        Self { peak_flops_per_ns: 1_000.0, peak_bytes_per_ns: 76.8 }
    }

    /// The ridge point: the arithmetic intensity (flops/byte) above which a
    /// kernel becomes compute-bound.
    #[must_use]
    pub fn ridge_intensity(&self) -> f64 {
        self.peak_flops_per_ns / self.peak_bytes_per_ns
    }

    /// The attainable performance (flops/ns) at the given intensity.
    #[must_use]
    pub fn attainable_flops_per_ns(&self, intensity: f64) -> f64 {
        (intensity * self.peak_bytes_per_ns).min(self.peak_flops_per_ns)
    }

    /// True when a kernel with this intensity is memory-bound.
    #[must_use]
    pub fn is_memory_bound(&self, intensity: f64) -> bool {
        intensity < self.ridge_intensity()
    }
}

/// Arithmetic intensity of an embedding-lookup batch: `(q − 1)` adds per
/// element gathered against `q` elements (4 B each) read.
///
/// For the paper's q = 16 that is 15/64 ≈ 0.23 flops/byte — two orders of
/// magnitude below a server CPU's ridge point.
#[must_use]
pub fn embedding_lookup_intensity(query_len: usize) -> f64 {
    if query_len <= 1 {
        0.0
    } else {
        (query_len as f64 - 1.0) / (query_len as f64 * 4.0)
    }
}

/// Arithmetic intensity of SpMV in LIL: one multiply + ~one add per
/// 12-byte entry (8 B value + 4 B index).
#[must_use]
pub fn spmv_intensity() -> f64 {
    2.0 / 12.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn embedding_lookup_is_deep_in_the_memory_bound_region() {
        let roofline = Roofline::server_cpu_ddr4();
        let intensity = embedding_lookup_intensity(16);
        assert!(roofline.is_memory_bound(intensity));
        // "Far below the ceiling": attainable performance under 2 % of peak.
        let attainable = roofline.attainable_flops_per_ns(intensity);
        assert!(attainable / roofline.peak_flops_per_ns < 0.02, "{attainable}");
    }

    #[test]
    fn spmv_is_memory_bound_too() {
        let roofline = Roofline::server_cpu_ddr4();
        assert!(roofline.is_memory_bound(spmv_intensity()));
    }

    #[test]
    fn ridge_point_separates_regimes() {
        let roofline = Roofline::server_cpu_ddr4();
        let ridge = roofline.ridge_intensity();
        assert!(roofline.is_memory_bound(ridge * 0.5));
        assert!(!roofline.is_memory_bound(ridge * 2.0));
        // At the ridge, both bounds agree.
        let at_ridge = roofline.attainable_flops_per_ns(ridge);
        assert!((at_ridge - roofline.peak_flops_per_ns).abs() < 1e-9);
    }

    #[test]
    fn degenerate_single_index_query_does_no_flops() {
        assert_eq!(embedding_lookup_intensity(1), 0.0);
        assert_eq!(embedding_lookup_intensity(0), 0.0);
    }

    #[test]
    fn intensity_grows_slowly_with_query_length() {
        assert!(embedding_lookup_intensity(32) > embedding_lookup_intensity(16));
        assert!(embedding_lookup_intensity(1_000) < 0.25, "bounded by 1/4 flops per byte");
    }
}
