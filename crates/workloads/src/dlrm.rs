//! A parametric DLRM-style inference cost model.
//!
//! Fig. 12 of the paper treats the non-embedding side of recommendation
//! inference as a fixed 0.5 ms. This module derives that number instead of
//! assuming it: a DLRM forward pass is bottom MLP (dense features) →
//! embedding gather (the part FAFNIR accelerates) → pairwise feature
//! interaction → top MLP, and each stage's latency follows from its FLOP
//! count and the host's throughput. The default configuration reproduces
//! the paper's 0.5 ms FC assumption at batch 32.

/// A multi-layer perceptron given by its layer widths (input first).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MlpSpec {
    widths: Vec<usize>,
}

impl MlpSpec {
    /// An MLP with the given layer widths.
    ///
    /// # Panics
    ///
    /// Panics with fewer than two layers or a zero width.
    #[must_use]
    pub fn new(widths: Vec<usize>) -> Self {
        assert!(widths.len() >= 2, "an MLP needs an input and at least one layer");
        assert!(widths.iter().all(|&w| w > 0), "layer widths must be non-zero");
        Self { widths }
    }

    /// FLOPs for one sample (2 per multiply-accumulate).
    #[must_use]
    pub fn flops_per_sample(&self) -> u64 {
        self.widths.windows(2).map(|w| 2 * w[0] as u64 * w[1] as u64).sum()
    }

    /// Parameter count (weights + biases).
    #[must_use]
    pub fn parameters(&self) -> u64 {
        self.widths.windows(2).map(|w| (w[0] as u64 + 1) * w[1] as u64).sum()
    }
}

/// Per-stage latency of one DLRM inference batch, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DlrmBreakdown {
    /// Bottom MLP over the dense features.
    pub bottom_mlp_ns: f64,
    /// Embedding gather + pooling (the FAFNIR-accelerated stage).
    pub embedding_ns: f64,
    /// Pairwise feature interaction (dot products).
    pub interaction_ns: f64,
    /// Top MLP producing the click probability.
    pub top_mlp_ns: f64,
}

impl DlrmBreakdown {
    /// Total inference latency.
    #[must_use]
    pub fn total_ns(&self) -> f64 {
        self.bottom_mlp_ns + self.embedding_ns + self.interaction_ns + self.top_mlp_ns
    }

    /// End-to-end speedup over another breakdown of the same model.
    #[must_use]
    pub fn speedup_over(&self, baseline: &DlrmBreakdown) -> f64 {
        baseline.total_ns() / self.total_ns()
    }
}

/// A DLRM model shape plus the host's compute throughput.
///
/// # Examples
///
/// ```
/// use fafnir_workloads::DlrmModel;
///
/// let model = DlrmModel::rm2();
/// let inference = model.breakdown(2_000.0, 32); // 2 µs embedding stage
/// assert!(inference.total_ns() - inference.embedding_ns > inference.embedding_ns);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DlrmModel {
    /// Dense (continuous) input features.
    pub dense_features: usize,
    /// Bottom MLP (dense features → embedding dimension).
    pub bottom_mlp: MlpSpec,
    /// Top MLP (interaction features → prediction).
    pub top_mlp: MlpSpec,
    /// Sparse features (embedding tables looked up per sample).
    pub sparse_features: usize,
    /// Embedding dimension (elements per vector).
    pub embedding_dim: usize,
    /// Host throughput in f32 FLOPs per nanosecond.
    pub host_flops_per_ns: f64,
}

impl DlrmModel {
    /// A representative mid-size configuration (RM2-class): 13 dense
    /// features, bottom MLP 13-512-256-128, 32 tables of 128-dim vectors,
    /// top MLP over the pairwise interactions, host at ~96 effective f32
    /// FLOPs/ns. Non-embedding cost lands at ≈0.5 ms for a batch of 32 —
    /// the paper's Fig. 12 assumption.
    #[must_use]
    pub fn rm2() -> Self {
        let sparse_features = 32;
        let embedding_dim = 128;
        let interaction_width = Self::interaction_features(sparse_features) + embedding_dim;
        Self {
            dense_features: 13,
            bottom_mlp: MlpSpec::new(vec![13, 512, 256, embedding_dim]),
            top_mlp: MlpSpec::new(vec![interaction_width, 512, 256, 1]),
            sparse_features,
            embedding_dim,
            host_flops_per_ns: 96.0,
        }
    }

    /// Pairwise-interaction feature count for `tables` sparse features plus
    /// the bottom-MLP output: `C(tables + 1, 2)`.
    #[must_use]
    fn interaction_features(tables: usize) -> usize {
        (tables + 1) * tables / 2
    }

    /// FLOPs of the interaction stage for one sample: one `embedding_dim`
    /// dot product per feature pair.
    #[must_use]
    pub fn interaction_flops_per_sample(&self) -> u64 {
        2 * Self::interaction_features(self.sparse_features) as u64 * self.embedding_dim as u64
    }

    /// Builds the per-stage breakdown for a batch, given the measured
    /// embedding latency (e.g. from a FAFNIR or baseline lookup).
    #[must_use]
    pub fn breakdown(&self, embedding_ns: f64, batch_size: usize) -> DlrmBreakdown {
        let samples = batch_size as f64;
        let to_ns = |flops: u64| samples * flops as f64 / self.host_flops_per_ns;
        DlrmBreakdown {
            bottom_mlp_ns: to_ns(self.bottom_mlp.flops_per_sample()),
            embedding_ns,
            interaction_ns: to_ns(self.interaction_flops_per_sample()),
            top_mlp_ns: to_ns(self.top_mlp.flops_per_sample()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mlp_flops_and_parameters() {
        let mlp = MlpSpec::new(vec![4, 8, 2]);
        assert_eq!(mlp.flops_per_sample(), 2 * (4 * 8 + 8 * 2));
        assert_eq!(mlp.parameters(), 5 * 8 + 9 * 2);
    }

    #[test]
    fn rm2_non_embedding_cost_matches_the_papers_half_millisecond() {
        let model = DlrmModel::rm2();
        let breakdown = model.breakdown(0.0, 32);
        let non_embedding_ms = (breakdown.total_ns() - breakdown.embedding_ns) / 1e6;
        assert!(
            (0.3..0.9).contains(&non_embedding_ms),
            "non-embedding cost {non_embedding_ms:.2} ms should be ~0.5 ms"
        );
        // Top MLP dominates the non-embedding side, as in production DLRMs.
        assert!(breakdown.top_mlp_ns > breakdown.bottom_mlp_ns);
    }

    #[test]
    fn embedding_acceleration_follows_amdahl() {
        let model = DlrmModel::rm2();
        let slow = model.breakdown(2_000_000.0, 32); // 2 ms embedding
        let fast = model.breakdown(2_000.0, 32); // accelerated 1000x
        let speedup = fast.speedup_over(&slow);
        let bound = slow.total_ns() / (slow.total_ns() - slow.embedding_ns);
        assert!(speedup > 2.0 && speedup <= bound, "{speedup} vs bound {bound}");
    }

    #[test]
    fn interaction_features_are_pairwise() {
        assert_eq!(DlrmModel::interaction_features(32), 528);
        assert_eq!(DlrmModel::interaction_features(1), 1);
        assert_eq!(DlrmModel::interaction_features(0), 0);
    }

    #[test]
    fn breakdown_scales_linearly_with_batch() {
        let model = DlrmModel::rm2();
        let one = model.breakdown(0.0, 1);
        let eight = model.breakdown(0.0, 8);
        assert!((eight.total_ns() / one.total_ns() - 8.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "input and at least one layer")]
    fn degenerate_mlp_panics() {
        let _ = MlpSpec::new(vec![4]);
    }
}
