//! The serving workloads: one tree (`serve-zipf-fast`) and a sharded
//! cluster (`cluster-uniform-cycle`), both driven through
//! [`fafnir_serve::simulate`] with open-loop Poisson arrivals in virtual
//! time and deadline batching.
//!
//! The timed repetitions call `simulate` and build the report, nothing
//! else. A traced repetition times the same run from outside: the traffic
//! and arrival generators are replayed with the run's seeds, the engine is
//! wrapped in [`Traced`] to time every `LookupService::lookup`, and the
//! batches the run formed are replayed through the engine's stages
//! (`GatherEngine::preprocess`/`gather`/`reduce`, plus `route` and the
//! whole cluster lookup on the cluster).

use std::cell::{Cell, RefCell};
use std::hint::black_box;
use std::time::Instant;

use fafnir_cluster::{cluster_setup, route, ClusterEngine, ClusterReport, RouterPolicy};
use fafnir_core::{
    nearest_rank_percentile_ns, reference_lookup_with, Batch, EmbeddingSource, FafnirConfig,
    FafnirEngine, FafnirError, GatherEngine, IndexSet, LookupResult, LookupService, ReduceOp,
    ShardPlan, ShardStrategy, StripedSource,
};
use fafnir_mem::MemoryModelKind;
use fafnir_serve::{
    paper_setup, simulate, worker_setup, BatchPolicy, BatchRecord, ServeConfig, ServeOutcome,
    ServeReport,
};
use fafnir_workloads::arrival::ArrivalProcess;
use fafnir_workloads::query::{BatchGenerator, Popularity};

use crate::metrics::{max_abs_diff, max_relative_error, median, repeat_for, since, Run};

/// Indices per query.
const QUERY_LEN: usize = 16;
/// Deadline batching: the longest a query waits for companions.
const WINDOW_NS: f64 = 4_000.0;
/// Deadline batching: the hardware batch cap.
const MAX_BATCH: usize = 32;
/// Largest output difference from `reference_lookup_with` that still counts
/// as a match. The tree and the cross-shard merge fold in another order than
/// the reference, which changes f32 rounding only.
const TOLERANCE: f64 = 1e-4;
/// Share of `serve.lookup_ms` within which the staged replay must land.
const STAGED_SHARE: f64 = 0.3;
/// Mixed into `--seed` for the extra-seed determinism check.
const EXTRA_SEED: u64 = 0x5EED;
/// Mixed into `--seed` for the arrival schedule (query contents use the
/// seed itself).
const ARRIVAL_SEED: u64 = 0xA771_7A15;

/// Modeled p99 latency limit for `model_max_rate_mqps`.
const P99_LIMIT_US: f64 = 20.0;
/// Fixed offered rates above the base rate, for `model_max_rate_mqps`.
const LADDER_QPS: [f64; 3] = [8e6, 16e6, 32e6];
/// A rate has no growing backlog when goodput stays within this share of
/// the offered rate.
const MIN_GOODPUT_SHARE: f64 = 0.95;
/// Queries of the fixed prefix priced under both memory models.
const FAST_ERR_PREFIX: usize = 2_048;

/// One serving workload's traffic and serving policy.
struct Scenario {
    popularity: Popularity,
    universe: u64,
    op: ReduceOp,
    model: MemoryModelKind,
    workers: usize,
    rate_qps: f64,
    /// Queries offered per repetition.
    queries: usize,
}

impl Scenario {
    fn config(&self, rate_qps: f64, queries: usize, seed: u64) -> ServeConfig {
        ServeConfig {
            arrivals: ArrivalProcess::Poisson { rate_qps },
            policy: BatchPolicy::Deadline { max_wait_ns: WINDOW_NS, max_batch: MAX_BATCH },
            workers: self.workers,
            queries,
            seed: seed ^ ARRIVAL_SEED,
            ..ServeConfig::default()
        }
    }

    fn traffic(&self, seed: u64) -> BatchGenerator {
        BatchGenerator::new(self.popularity, self.universe, QUERY_LEN, seed)
    }

    fn engine_config(&self) -> FafnirConfig {
        FafnirConfig { op: self.op, ..FafnirConfig::paper_default() }
    }
}

const SERVE_ZIPF_FAST: Scenario = Scenario {
    popularity: Popularity::Zipf { exponent: 1.15 },
    universe: 2_000,
    op: ReduceOp::Sum,
    model: MemoryModelKind::Fast,
    workers: 1,
    rate_qps: 2e6,
    queries: 8_192,
};

const CLUSTER_UNIFORM_CYCLE: Scenario = Scenario {
    popularity: Popularity::Uniform,
    universe: 1_000_000,
    op: ReduceOp::Mean,
    model: MemoryModelKind::Cycle,
    workers: 2,
    rate_qps: 1e6,
    queries: 4_096,
};

/// Host seconds spent in each layer during one traced repetition.
#[derive(Debug, Default, Clone, Copy)]
struct Spans {
    query: f64,
    arrival: f64,
    simulate: f64,
    lookup: f64,
    report: f64,
    preprocess: f64,
    gather: f64,
    reduce: f64,
    route: f64,
    merge: f64,
}

impl Spans {
    /// Time of the staged replay: every stage timed from outside.
    fn staged(&self) -> f64 {
        self.preprocess + self.gather + self.reduce + self.route + self.merge
    }

    /// The event loop's own time: the `simulate` span minus its lookup
    /// children and the traffic it generates.
    fn serve_loop(&self) -> f64 {
        self.simulate - self.lookup - self.query - self.arrival
    }
}

/// Base counts of one traced repetition; they repeat exactly for a seed.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
struct Counts {
    lookup_calls: u64,
    replayed: u64,
    plans: u64,
    shard_batches: u64,
}

/// A serving system under test: the engine `simulate` drives, plus the
/// staged replay of one formed batch through its layers.
trait System {
    type Service: LookupService;

    fn service(&self) -> &Self::Service;

    /// Clears state a previous repetition left behind.
    fn reset(&self) {}

    /// Times each stage of `batch` from outside the engine.
    fn replay(&self, batch: &Batch, source: &StripedSource, spans: &mut Spans, counts: &mut Counts);

    /// Records the layer counters the system keeps over a whole run.
    fn counters(&self, _report: &ServeReport, _run: &mut Run) {}
}

/// Replays one batch through a tree's three stages, timing each.
fn replay_stages(
    engine: &FafnirEngine,
    batch: &Batch,
    source: &StripedSource,
    spans: &mut Spans,
    counts: &mut Counts,
) {
    let start = Instant::now();
    let plans = engine.preprocess(batch, source).expect("the simulation served this batch");
    spans.preprocess += since(start);
    for plan in &plans {
        let start = Instant::now();
        let gathered = engine.gather(plan);
        spans.gather += since(start);
        let start = Instant::now();
        let result = engine.reduce(plan, gathered, source);
        spans.reduce += since(start);
        black_box(result.expect("the simulation served this batch"));
    }
    counts.plans += plans.len() as u64;
}

impl System for FafnirEngine {
    type Service = Self;

    fn service(&self) -> &Self {
        self
    }

    fn replay(
        &self,
        batch: &Batch,
        source: &StripedSource,
        spans: &mut Spans,
        counts: &mut Counts,
    ) {
        replay_stages(self, batch, source, spans, counts);
    }
}

/// A cluster plus a replica of its per-shard engine: the replica runs each
/// shard's sub-batch through the stages, which the cluster keeps private.
struct Sharded {
    cluster: ClusterEngine,
    replica: FafnirEngine,
}

impl System for Sharded {
    type Service = ClusterEngine;

    fn service(&self) -> &ClusterEngine {
        &self.cluster
    }

    fn reset(&self) {
        self.cluster.reset_stats();
    }

    /// Times `route`, every shard's stages, and the whole cluster lookup;
    /// the merge is the whole lookup minus the route and the stages.
    fn replay(
        &self,
        batch: &Batch,
        source: &StripedSource,
        spans: &mut Spans,
        counts: &mut Counts,
    ) {
        let whole = || {
            let start = Instant::now();
            black_box(
                self.cluster.lookup(batch, source).expect("the simulation served this batch"),
            );
            since(start)
        };
        // Whichever of the two runs second finds the batch's values in the
        // host caches; alternating the order per batch cancels that bias.
        let whole_first = counts.replayed.is_multiple_of(2);
        counts.replayed += 1;
        let mut whole_s = if whole_first { whole() } else { 0.0 };
        let start = Instant::now();
        let routed = route(batch, self.cluster.plan(), self.cluster.policy());
        let route_s = since(start);
        let mut shards = Spans::default();
        for sub_queries in routed.per_shard.iter().filter(|s| !s.is_empty()) {
            let sub_batch = Batch::from_index_sets(sub_queries.iter().map(|sq| sq.indices.clone()));
            replay_stages(&self.replica, &sub_batch, source, &mut shards, counts);
            counts.shard_batches += 1;
        }
        if !whole_first {
            whole_s = whole();
        }
        spans.route += route_s;
        spans.preprocess += shards.preprocess;
        spans.gather += shards.gather;
        spans.reduce += shards.reduce;
        spans.merge += whole_s - route_s - shards.staged();
    }

    fn counters(&self, report: &ServeReport, run: &mut Run) {
        let cluster = ClusterReport::new(&self.cluster, report);
        run.set("cluster.split_fraction", cluster.stats.split_fraction());
        run.set("cluster.imbalance", cluster.imbalance);
        run.set("cluster.cross_shard_bytes", cluster.stats.cross_shard_bytes as f64);
        run.set("cluster.merge_p99_ns", cluster.merge.p99_ns);
    }
}

/// Modeled counters of one formed batch, read at the lookup boundary.
#[derive(Debug, Clone, Copy)]
struct BatchModel {
    memory_ns: f64,
    compute_tail_ns: f64,
    reduces: u64,
    forwards: u64,
    reads: u64,
    row_hits: u64,
    row_accesses: u64,
    row_conflicts: u64,
    max_queue_depth: u64,
}

impl BatchModel {
    fn of(result: &LookupResult) -> Self {
        let memory = &result.memory;
        Self {
            memory_ns: result.latency.memory_ns,
            compute_tail_ns: result.latency.compute_tail_ns,
            reduces: result.tree.ops.reduces,
            forwards: result.tree.ops.forwards,
            reads: memory.reads,
            row_hits: memory.row_hits,
            row_accesses: memory.row_hits + memory.row_misses + memory.row_conflicts,
            row_conflicts: memory.row_conflicts,
            max_queue_depth: memory.max_queue_depth,
        }
    }
}

/// Wraps a service to time every lookup and keep its modeled counters.
struct Traced<'a, E> {
    inner: &'a E,
    seconds: Cell<f64>,
    batches: RefCell<Vec<BatchModel>>,
}

impl<'a, E> Traced<'a, E> {
    fn new(inner: &'a E) -> Self {
        Self { inner, seconds: Cell::new(0.0), batches: RefCell::new(Vec::new()) }
    }
}

impl<E: LookupService> LookupService for Traced<'_, E> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn lookup<S: EmbeddingSource>(
        &self,
        batch: &Batch,
        source: &S,
    ) -> Result<LookupResult, FafnirError> {
        let start = Instant::now();
        let result = self.inner.lookup(batch, source);
        self.seconds.set(self.seconds.get() + since(start));
        if let Ok(result) = &result {
            self.batches.borrow_mut().push(BatchModel::of(result));
        }
        result
    }
}

/// The modeled statistics every repetition of one seed must repeat exactly.
fn fingerprint(report: &ServeReport) -> Vec<u64> {
    let mut print = vec![
        report.served as u64,
        report.shed as u64,
        report.failed as u64,
        report.batches as u64,
        report.references,
        report.vectors_read,
        report.makespan_ns.to_bits(),
    ];
    for stats in [&report.latency, &report.queue_wait, &report.service] {
        print.extend([stats.mean_ns, stats.p50_ns, stats.p99_ns, stats.max_ns].map(f64::to_bits));
    }
    print
}

/// One serving workload, set up: the system under test, its embedding
/// source, the traffic generator every repetition clones, and the seed.
struct Bench<Sys> {
    system: Sys,
    source: StripedSource,
    traffic: BatchGenerator,
    scenario: &'static Scenario,
    seed: u64,
}

impl<Sys: System> Bench<Sys> {
    /// The run's serving configuration at `rate_qps` over `queries` queries.
    fn config(&self, rate_qps: f64, queries: usize) -> ServeConfig {
        self.scenario.config(rate_qps, queries, self.seed)
    }

    /// One untraced repetition over the queries `traffic` yields.
    fn rep_with(
        &self,
        traffic: &BatchGenerator,
        config: &ServeConfig,
    ) -> (f64, ServeOutcome, ServeReport) {
        self.system.reset();
        let mut traffic = traffic.clone();
        let start = Instant::now();
        let outcome = simulate(self.system.service(), &self.source, &mut traffic, config)
            .expect("the workload's serving configuration is valid");
        let report = ServeReport::new(config, &outcome);
        (since(start), outcome, report)
    }

    /// One untraced repetition: `simulate` plus the report, timed together.
    fn rep(&self, config: &ServeConfig) -> (f64, ServeOutcome, ServeReport) {
        self.rep_with(&self.traffic, config)
    }

    /// One traced repetition: generator replays, the wrapped `simulate`, the
    /// report, then the staged replay of every formed batch.
    fn traced_rep(&self, config: &ServeConfig) -> TracedRep {
        self.system.reset();
        let mut spans = Spans::default();
        let start = Instant::now();
        let shapes = self.replay_traffic(config.queries);
        spans.query = since(start);
        let start = Instant::now();
        black_box(config.arrivals.schedule(config.queries, config.seed));
        spans.arrival = since(start);

        let traced = Traced::new(self.system.service());
        let mut traffic = self.traffic.clone();
        let start = Instant::now();
        let outcome = simulate(&traced, &self.source, &mut traffic, config)
            .expect("the workload's serving configuration is valid");
        spans.simulate = since(start);
        let start = Instant::now();
        let report = ServeReport::new(config, &outcome);
        spans.report = since(start);
        spans.lookup = traced.seconds.get();
        let batches = traced.batches.into_inner();

        let mut counts = Counts { lookup_calls: batches.len() as u64, ..Counts::default() };
        for record in &outcome.batches {
            let batch = formed_batch(record, &shapes);
            self.system.replay(&batch, &self.source, &mut spans, &mut counts);
        }
        TracedRep { spans, counts, report, batches }
    }

    /// The queries the bench's generator yields, in submission order.
    fn replay_traffic(&self, queries: usize) -> Vec<IndexSet> {
        let mut traffic = self.traffic.clone();
        (0..queries).map(|_| traffic.query()).collect()
    }

    /// Replays every formed batch through the service and compares it with
    /// `reference_lookup_with`; returns the queries that mismatched.
    fn check_outputs(&self, outcome: &ServeOutcome, run: &mut Run) -> u64 {
        let shapes = self.replay_traffic(outcome.records.len());
        let operator = self.scenario.op.operator();
        let mut mismatched = 0u64;
        let mut max_err = 0.0f64;
        for record in &outcome.batches {
            let batch = formed_batch(record, &shapes);
            let result = self
                .system
                .service()
                .lookup(&batch, &self.source)
                .expect("the simulation served this batch");
            let reference = reference_lookup_with(&batch, &self.source, operator.as_ref());
            mismatched += result.outputs.len().abs_diff(reference.len()) as u64;
            for ((id, value), (ref_id, ref_value)) in result.outputs.iter().zip(&reference) {
                let err = if id == ref_id && value.len() == ref_value.len() {
                    max_abs_diff(value.iter().zip(ref_value).map(|(&a, &b)| (a.into(), b.into())))
                } else {
                    f64::INFINITY
                };
                max_err = max_err.max(err);
                mismatched += u64::from(err > TOLERANCE);
            }
        }
        if mismatched > 0 {
            run.problems.push(format!(
                "{mismatched} queries differ from reference_lookup_with (max abs error {max_err})"
            ));
        }
        run.set("max_abs_err", max_err);
        mismatched
    }

    /// Runs a second seed twice: it must repeat exactly, and differ from the
    /// main seed, or the determinism check would pass vacuously.
    fn check_extra_seed(&self, main: &[u64], run: &mut Run) {
        let extra = self.seed ^ EXTRA_SEED;
        let config = self.scenario.config(self.scenario.rate_qps, self.scenario.queries, extra);
        let traffic = self.scenario.traffic(extra);
        let first = fingerprint(&self.rep_with(&traffic, &config).2);
        let second = fingerprint(&self.rep_with(&traffic, &config).2);
        if first != second {
            run.problems
                .push(format!("modeled statistics differ between two runs of seed {extra}"));
        }
        if first == main {
            run.problems
                .push(format!("seeds {} and {extra} give identical modeled statistics", self.seed));
        }
    }
}

/// The batch `simulate` formed for `record`.
fn formed_batch(record: &BatchRecord, shapes: &[IndexSet]) -> Batch {
    Batch::from_index_sets(record.queries.iter().map(|&id| shapes[id].clone()))
}

/// What one traced repetition measured.
struct TracedRep {
    spans: Spans,
    counts: Counts,
    report: ServeReport,
    batches: Vec<BatchModel>,
}

/// The modeled end-to-end figures and serve-layer counters of a report.
fn record_model(report: &ServeReport, run: &mut Run) {
    run.set("model_p50_us", report.latency.p50_ns / 1e3);
    run.set("model_p99_us", report.latency.p99_ns / 1e3);
    run.set("dram_reads_per_query", report.dram_reads_per_query);
    run.set("serve.batches", report.batches as f64);
    run.set("serve.mean_batch_size", report.mean_batch_size);
    run.set("serve.queue_wait_p50_us", report.queue_wait.p50_ns / 1e3);
    run.set("serve.queue_wait_p99_us", report.queue_wait.p99_ns / 1e3);
    run.set("serve.service_p50_us", report.service.p50_ns / 1e3);
    run.set("serve.service_p99_us", report.service.p99_ns / 1e3);
    run.set("serve.shed", report.shed as f64);
    run.set("serve.failed", report.failed as f64);
    run.set("core.dedup_savings", report.dedup_savings);
}

/// The per-batch modeled counters of a traced repetition.
fn record_batches(batches: &[BatchModel], run: &mut Run) {
    let memory: Vec<f64> = batches.iter().map(|b| b.memory_ns).collect();
    let tail: Vec<f64> = batches.iter().map(|b| b.compute_tail_ns).collect();
    let sum = |field: fn(&BatchModel) -> u64| batches.iter().map(field).sum::<u64>() as f64;
    let row_accesses = sum(|b| b.row_accesses);
    run.set("core.memory_p99_us", nearest_rank_percentile_ns(&memory, 0.99) / 1e3);
    run.set("core.compute_tail_p99_us", nearest_rank_percentile_ns(&tail, 0.99) / 1e3);
    run.set("tree.reduces", sum(|b| b.reduces));
    run.set("tree.forwards", sum(|b| b.forwards));
    run.set("mem.reads", sum(|b| b.reads));
    run.set(
        "mem.row_hit_rate",
        if row_accesses > 0.0 { sum(|b| b.row_hits) / row_accesses } else { 0.0 },
    );
    run.set("mem.row_conflicts", sum(|b| b.row_conflicts));
    run.set(
        "mem.max_queue_depth",
        batches.iter().map(|b| b.max_queue_depth).max().unwrap_or(0) as f64,
    );
}

/// The modeled fingerprint of a traced repetition's per-batch counters.
fn batch_fingerprint(batches: &[BatchModel]) -> Vec<u64> {
    batches
        .iter()
        .flat_map(|b| {
            [
                b.memory_ns.to_bits(),
                b.compute_tail_ns.to_bits(),
                b.reduces,
                b.forwards,
                b.reads,
                b.row_hits,
                b.row_conflicts,
                b.max_queue_depth,
            ]
        })
        .collect()
}

/// Medians of the traced repetitions, the trace-consistency checks, and the
/// tracing overhead against the untraced repetitions.
fn record_trace(traced: &[TracedRep], untraced_s: f64, run: &mut Run) {
    let ms = |f: fn(&Spans) -> f64| {
        median(&traced.iter().map(|t| f(&t.spans)).collect::<Vec<_>>()) * 1e3
    };
    let lookup = ms(|s| s.lookup);
    let simulate = ms(|s| s.simulate);
    let generated = ms(|s| s.query + s.arrival);
    let staged = ms(Spans::staged);
    run.set("workloads.query_ms", ms(|s| s.query));
    run.set("workloads.arrival_ms", ms(|s| s.arrival));
    run.set("serve.loop_ms", ms(Spans::serve_loop));
    run.set("serve.lookup_ms", lookup);
    run.set("serve.report_ms", ms(|s| s.report));
    run.set("core.preprocess_ms", ms(|s| s.preprocess));
    run.set("core.reduce_ms", ms(|s| s.reduce));
    run.set("mem.gather_ms", ms(|s| s.gather));
    run.set("cluster.route_ms", ms(|s| s.route));
    run.set("cluster.merge_ms", ms(|s| s.merge));
    let traced_s = ms(|s| s.simulate + s.report) / 1e3;
    run.set("trace.overhead_pct", (traced_s / untraced_s - 1.0) * 100.0);
    run.set("trace.reps", traced.len() as f64);
    if lookup + generated > simulate {
        run.problems.push(format!(
            "lookups ({lookup:.3} ms) plus traffic replay ({generated:.3} ms) exceed the \
             simulate span ({simulate:.3} ms)"
        ));
    }
    if (staged - lookup).abs() > STAGED_SHARE * lookup {
        run.problems.push(format!(
            "staged replay ({staged:.3} ms) is not within {:.0}% of serve.lookup_ms \
             ({lookup:.3} ms)",
            STAGED_SHARE * 100.0
        ));
    }
}

/// Sets up, checks and measures one serving workload. `build` runs once
/// before the checks and once more per repetition, so `setup_s` is a median
/// over the whole run rather than over one instant of it.
fn measure<Sys: System>(
    build: impl Fn() -> Bench<Sys>,
    seconds: f64,
    trace: bool,
) -> (Run, Bench<Sys>, ServeReport) {
    let mut setups = Vec::new();
    let mut timed_build = || {
        let start = Instant::now();
        let bench = build();
        setups.push(since(start));
        bench
    };
    let bench = timed_build();
    let scenario = bench.scenario;
    let config = bench.config(scenario.rate_qps, scenario.queries);
    let mut run = Run::default();

    // An untimed first repetition: it warms the value cache, fixes the
    // fingerprint every later repetition must repeat, and feeds the checks.
    let (_, outcome, reference) = bench.rep(&config);
    let main = fingerprint(&reference);
    record_model(&reference, &mut run);
    bench.system.counters(&reference, &mut run);
    let mismatched = bench.check_outputs(&outcome, &mut run);
    drop(outcome);
    bench.check_extra_seed(&main, &mut run);

    let mut host = Vec::new();
    let mut traced = Vec::new();
    let mut diverged = 0usize;
    repeat_for(seconds, || {
        drop(timed_build());
        let (seconds, _, report) = bench.rep(&config);
        host.push(seconds);
        diverged += usize::from(fingerprint(&report) != main);
        if trace {
            let rep = bench.traced_rep(&config);
            diverged += usize::from(fingerprint(&rep.report) != main);
            traced.push(rep);
        }
    });
    run.set("setup_s", median(&setups));
    if let Some(first) = traced.first() {
        let batches = batch_fingerprint(&first.batches);
        diverged += traced
            .iter()
            .filter(|t| t.counts != first.counts || batch_fingerprint(&t.batches) != batches)
            .count();
        record_batches(&first.batches, &mut run);
        run.set("workloads.queries", config.queries as f64);
        run.set("serve.lookup_calls", first.counts.lookup_calls as f64);
        run.set("core.plans", first.counts.plans as f64);
        run.set("cluster.shard_batches", first.counts.shard_batches as f64);
    }
    if diverged > 0 {
        run.problems.push(format!(
            "{diverged} repetitions of seed {} changed a modeled statistic",
            bench.seed
        ));
    }

    let reps = host.len() as u64;
    let per_rep_failed = (reference.shed + reference.failed) as u64 + mismatched;
    run.attempted = reps * scenario.queries as u64;
    run.failed = reps * per_rep_failed;
    run.set_failed_frac();
    let rep_s = median(&host);
    run.set("sim_qps", scenario.queries as f64 / rep_s);
    run.set("sim_nnz_per_s", (scenario.queries * QUERY_LEN) as f64 / rep_s);
    if trace {
        record_trace(&traced, rep_s, &mut run);
    }
    (run, bench, reference)
}

/// Whether a report meets the latency limit with nothing shed and no
/// growing backlog.
fn meets_limit(report: &ServeReport) -> bool {
    report.shed == 0
        && report.failed == 0
        && report.latency.p99_ns / 1e3 <= P99_LIMIT_US
        && report.goodput_qps >= MIN_GOODPUT_SHARE * report.offered_qps
}

/// `model_max_rate_mqps`: the highest rate of the base rate and the ladder
/// that meets the limit (0 when none does).
fn max_rate(bench: &Bench<FafnirEngine>, base: &ServeReport) -> f64 {
    let scenario = bench.scenario;
    let mut best = if meets_limit(base) { scenario.rate_qps } else { 0.0 };
    for rate in LADDER_QPS {
        if meets_limit(&bench.rep(&bench.config(rate, scenario.queries)).2) {
            best = rate;
        }
    }
    best / 1e6
}

/// `fast_model_err`: the largest relative divergence of modeled p50, p99
/// and reads/query between the fast model and the cycle reference, on a
/// fixed prefix of the workload's inputs.
fn fast_model_err(fast: &Bench<FafnirEngine>) -> f64 {
    let (engine, source) = paper_setup(MemoryModelKind::Cycle).expect("paper defaults are valid");
    let cycle = Bench { system: engine, source, traffic: fast.traffic.clone(), ..*fast };
    let config = fast.config(fast.scenario.rate_qps, FAST_ERR_PREFIX);
    let figures = |bench: &Bench<FafnirEngine>| {
        let report = bench.rep(&config).2;
        [report.latency.p50_ns, report.latency.p99_ns, report.dram_reads_per_query]
    };
    max_relative_error(&figures(fast), &figures(&cycle))
}

/// `serve-zipf-fast`: one tree, fast memory model, Sum, Zipf-1.15 traffic.
pub fn serve_zipf_fast(seed: u64, seconds: f64, trace: bool) -> Run {
    let scenario = &SERVE_ZIPF_FAST;
    let build = || {
        let (system, source) = paper_setup(scenario.model).expect("paper defaults are valid");
        Bench { system, source, traffic: scenario.traffic(seed), scenario, seed }
    };
    let (mut run, bench, base) = measure(build, seconds, trace);
    run.set("model_max_rate_mqps", max_rate(&bench, &base));
    run.set("fast_model_err", fast_model_err(&bench));
    run
}

/// `cluster-uniform-cycle`: four row-hashed shards, cycle memory model,
/// Mean, uniform traffic over a million rows.
pub fn cluster_uniform_cycle(seed: u64, seconds: f64, trace: bool) -> Run {
    let scenario = &CLUSTER_UNIFORM_CYCLE;
    let build = || {
        let config = scenario.engine_config();
        let plan = ShardPlan::new(4, ShardStrategy::RowHash);
        let (cluster, source) =
            cluster_setup(config, scenario.model, plan, RouterPolicy::RoundRobin)
                .expect("paper defaults are valid");
        let (replica, _) = worker_setup(config, scenario.model).expect("paper defaults are valid");
        let system = Sharded { cluster, replica };
        Bench { system, source, traffic: scenario.traffic(seed), scenario, seed }
    };
    measure(build, seconds, trace).0
}
