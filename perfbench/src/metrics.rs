//! Metric names, units, and the small statistics every workload shares.

use std::collections::BTreeMap;
use std::time::Instant;

/// End-to-end metrics: printed by every workload with `--trace 0`. Each is
/// defined on every workload (see `BENCHMARK.json`) and is never zero.
pub const END_TO_END: &[(&str, &str)] =
    &[("setup_s", "s"), ("peak_rss_mib", "MiB"), ("sim_qps", "q/s"), ("sim_nnz_per_s", "nnz/s")];

/// Per-layer metrics: printed by every workload with `--trace 1`. A layer a
/// workload never calls reads 0. Host times are medians over traced
/// repetitions, per repetition; counts and modeled values repeat exactly for
/// a seed.
pub const PER_LAYER: &[(&str, &str)] = &[
    // Modeled end-to-end figures and output checks, per workload.
    ("model_p50_us", "us"),
    ("model_p99_us", "us"),
    ("model_max_rate_mqps", "Mq/s"),
    ("dram_reads_per_query", "reads"),
    ("model_spmv_nnz_us", "us"),
    ("model_spmv_grid_us", "us"),
    ("fast_model_err", "ratio"),
    ("max_abs_err", "abs"),
    ("failed_frac", "ratio"),
    // workloads: traffic and arrival generation.
    ("workloads.query_ms", "ms"),
    ("workloads.arrival_ms", "ms"),
    ("workloads.queries", "count"),
    // serve: event loop, batcher and reports.
    ("serve.loop_ms", "ms"),
    ("serve.lookup_ms", "ms"),
    ("serve.lookup_calls", "count"),
    ("serve.report_ms", "ms"),
    ("serve.batches", "count"),
    ("serve.mean_batch_size", "queries"),
    ("serve.queue_wait_p50_us", "us"),
    ("serve.queue_wait_p99_us", "us"),
    ("serve.service_p50_us", "us"),
    ("serve.service_p99_us", "us"),
    ("serve.shed", "count"),
    ("serve.failed", "count"),
    // core: preprocess/dedup, the fast-mode fold and the event-timed tree.
    ("core.preprocess_ms", "ms"),
    ("core.reduce_ms", "ms"),
    ("core.plans", "count"),
    ("core.dedup_savings", "ratio"),
    ("core.memory_p99_us", "us"),
    ("core.compute_tail_p99_us", "us"),
    ("tree.reduces", "count"),
    ("tree.forwards", "count"),
    // mem: the fast or cycle memory model.
    ("mem.gather_ms", "ms"),
    ("mem.reads", "count"),
    ("mem.row_hit_rate", "ratio"),
    ("mem.row_conflicts", "count"),
    ("mem.max_queue_depth", "count"),
    // cluster: router and cross-shard merge.
    ("cluster.route_ms", "ms"),
    ("cluster.merge_ms", "ms"),
    ("cluster.shard_batches", "count"),
    ("cluster.split_fraction", "ratio"),
    ("cluster.imbalance", "ratio"),
    ("cluster.cross_shard_bytes", "bytes"),
    ("cluster.merge_p99_ns", "ns"),
    // sparse: partitioning, the per-rank tree and the sync merge.
    ("sparse.partition_ms", "ms"),
    ("sparse.execute_ms", "ms"),
    ("sparse.multiplies", "count"),
    ("sparse.nnz.nnz_imbalance", "ratio"),
    ("sparse.nnz.time_imbalance", "ratio"),
    ("sparse.nnz.sync_entries", "count"),
    ("sparse.nnz.sync_us", "us"),
    ("sparse.nnz.critical_path_us", "us"),
    ("sparse.grid.nnz_imbalance", "ratio"),
    ("sparse.grid.time_imbalance", "ratio"),
    ("sparse.grid.sync_entries", "count"),
    ("sparse.grid.sync_us", "us"),
    ("sparse.grid.critical_path_us", "us"),
    // The traced run against the untraced one.
    ("trace.overhead_pct", "%"),
    ("trace.reps", "count"),
];

/// Repetitions every timed loop runs at least, however short `--seconds`.
const MIN_REPS: usize = 3;

/// Everything one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Run {
    /// Operations attempted in the timed repetitions.
    pub attempted: u64,
    /// Of those, operations shed, failed, or mismatching the reference.
    pub failed: u64,
    /// Every metric the workload measured, by name.
    pub values: BTreeMap<&'static str, f64>,
    /// Failed checks, one line each; empty when the run is correct.
    pub problems: Vec<String>,
}

impl Run {
    /// Records `value` under `name`, which must be a declared metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|&(known, _)| known == name),
            "undeclared metric {name}"
        );
        self.values.insert(name, value);
    }

    /// Sets `failed_frac` from the attempted and failed counts.
    pub fn set_failed_frac(&mut self) {
        self.set("failed_frac", self.failed as f64 / self.attempted.max(1) as f64);
    }
}

/// The median of `samples` (mean of the middle pair for even counts).
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Runs `setup` `reps` times and returns the last result with the median
/// set-up time in seconds.
pub fn timed_setup<T>(reps: usize, mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        drop(last.take());
        let start = Instant::now();
        last = Some(setup());
        times.push(start.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up"), median(&times))
}

/// Calls `rep` until `seconds` have passed and at least [`MIN_REPS`]
/// repetitions ran.
pub fn repeat_for(seconds: f64, mut rep: impl FnMut()) {
    let start = Instant::now();
    let mut reps = 0;
    while reps < MIN_REPS || start.elapsed().as_secs_f64() < seconds {
        rep();
        reps += 1;
    }
}

/// Largest relative divergence of `values` from `reference`, pairwise.
pub fn max_relative_error(values: &[f64], reference: &[f64]) -> f64 {
    values
        .iter()
        .zip(reference)
        .map(|(&v, &r)| if r == 0.0 { (v - r).abs() } else { ((v - r) / r).abs() })
        .fold(0.0, f64::max)
}

/// Largest absolute difference over `pairs`; a NaN difference counts as
/// infinite, so it can never pass a tolerance.
pub fn max_abs_diff(pairs: impl Iterator<Item = (f64, f64)>) -> f64 {
    pairs
        .map(|(a, b)| (a - b).abs())
        .map(|d| if d.is_nan() { f64::INFINITY } else { d })
        .fold(0.0, f64::max)
}

/// Seconds elapsed since `start`.
pub fn since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}
