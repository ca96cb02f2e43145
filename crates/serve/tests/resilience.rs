//! System tests for the fault-injection and resilience layer: zero-fault
//! transparency, byte-determinism under faults, worker-renumbering
//! invariance, the hedging tail-latency-vs-DRAM trade-off, crash/retry
//! accounting, timeout recovery, and shed escalation under a total outage.

use fafnir_core::{FafnirEngine, StripedSource};
use fafnir_mem::MemoryConfig;
use fafnir_serve::{
    simulate, simulate_resilient, BatchPolicy, QueryOutcome, ResilienceConfig, ServeConfig,
    ServeOutcome, ServeReport,
};
use fafnir_workloads::arrival::ArrivalProcess;
use fafnir_workloads::faults::FaultPlan;
use fafnir_workloads::query::{BatchGenerator, Popularity};

fn engine() -> FafnirEngine {
    FafnirEngine::paper_default(MemoryConfig::ddr4_2400_4ch()).expect("paper defaults")
}

fn source() -> StripedSource {
    StripedSource::new(MemoryConfig::ddr4_2400_4ch().topology, 128)
}

fn zipf_traffic(seed: u64) -> BatchGenerator {
    BatchGenerator::new(Popularity::Zipf { exponent: 1.15 }, 2_000, 16, seed)
}

fn run_resilient(config: &ServeConfig, resilience: &ResilienceConfig) -> ServeOutcome {
    let engine = engine();
    let source = source();
    let mut traffic = zipf_traffic(21);
    simulate_resilient(&engine, &source, &mut traffic, config, resilience)
        .expect("resilient simulation runs")
}

/// Two-worker serving config used across the fault scenarios.
fn two_worker_config() -> ServeConfig {
    ServeConfig {
        arrivals: ArrivalProcess::Poisson { rate_qps: 2e6 },
        policy: BatchPolicy::Deadline { max_wait_ns: 20_000.0, max_batch: 32 },
        workers: 2,
        queries: 320,
        ..ServeConfig::default()
    }
}

#[test]
fn zero_fault_plan_reproduces_the_fault_free_run_byte_for_byte() {
    let config = two_worker_config();
    let engine = engine();
    let source = source();
    let mut traffic = zipf_traffic(21);
    let plain = simulate(&engine, &source, &mut traffic, &config).expect("plain run");

    // Not just `ResilienceConfig::none`: timeouts, retries, and hedging are
    // all armed but can never fire on a healthy pool with huge thresholds.
    let benign = ResilienceConfig {
        faults: FaultPlan::none(config.workers),
        timeout_ns: Some(1e12),
        retries: 3,
        backoff_ns: 1_000.0,
        hedge_ns: Some(1e12),
    };
    let resilient = run_resilient(&config, &benign);
    assert_eq!(plain.records, resilient.records);
    assert_eq!(plain.batches, resilient.batches);
    assert_eq!(plain.attempts, resilient.attempts);

    let report_plain = ServeReport::new(&config, &plain);
    let report_resilient = ServeReport::with_resilience(&config, &benign, &resilient);
    assert_eq!(report_plain.to_json(), report_resilient.to_json());
    assert_eq!(report_plain.retries + report_plain.timeouts + report_plain.crashes, 0);
    assert_eq!(report_plain.hedges, 0);
}

#[test]
fn faulty_runs_are_byte_identical_across_reruns() {
    let config = ServeConfig { workers: 3, ..two_worker_config() };
    let resilience = ResilienceConfig {
        faults: FaultPlan::crash_restart(3, 20_000.0, 10_000.0, 1e9, 11),
        timeout_ns: Some(50_000.0),
        retries: 4,
        backoff_ns: 500.0,
        hedge_ns: Some(5_000.0),
    };
    let a = run_resilient(&config, &resilience);
    let b = run_resilient(&config, &resilience);
    assert_eq!(a, b);
    let json_a = ServeReport::with_resilience(&config, &resilience, &a).to_json();
    let json_b = ServeReport::with_resilience(&config, &resilience, &b).to_json();
    assert_eq!(json_a, json_b);
}

#[test]
fn report_is_invariant_under_worker_renumbering() {
    let config = ServeConfig { workers: 4, ..two_worker_config() };
    let mut plan = FaultPlan::crash_restart(4, 20_000.0, 10_000.0, 1e9, 5);
    plan.workers[1].slowdown = 3.0; // Mix crash churn with a straggler.
    let resilience = ResilienceConfig {
        faults: plan.clone(),
        timeout_ns: Some(50_000.0),
        retries: 3,
        backoff_ns: 500.0,
        hedge_ns: Some(5_000.0),
    };
    let permutation = [2usize, 0, 3, 1];
    let permuted = ResilienceConfig { faults: plan.permuted(&permutation), ..resilience.clone() };

    let base_outcome = run_resilient(&config, &resilience);
    let perm_outcome = run_resilient(&config, &permuted);
    let base_json = ServeReport::with_resilience(&config, &resilience, &base_outcome).to_json();
    let perm_json = ServeReport::with_resilience(&config, &permuted, &perm_outcome).to_json();
    assert_eq!(base_json, perm_json, "renumbering workers must not change the report");
    // The runs did exercise the fault machinery.
    let report = ServeReport::with_resilience(&config, &resilience, &base_outcome);
    assert!(report.crashes > 0 || report.timeouts > 0, "plan should perturb the run");
}

#[test]
fn hedging_cuts_tail_latency_and_pays_in_dram_reads() {
    // One straggler replica at 8x service time. Without hedging, batches
    // that land on it drag the tail; with hedging, a duplicate dispatch to
    // the healthy worker wins and the tail collapses — paid for with
    // duplicate DRAM reads.
    let config = two_worker_config();
    let slow_plan = FaultPlan::slow_workers(2, 1, 8.0);
    let no_hedge = ResilienceConfig {
        faults: slow_plan.clone(),
        timeout_ns: None,
        retries: 0,
        backoff_ns: 1_000.0,
        hedge_ns: None,
    };
    let hedge = ResilienceConfig { hedge_ns: Some(3_000.0), ..no_hedge.clone() };

    let outcome_plain = run_resilient(&config, &no_hedge);
    let outcome_hedged = run_resilient(&config, &hedge);
    let report_plain = ServeReport::with_resilience(&config, &no_hedge, &outcome_plain);
    let report_hedged = ServeReport::with_resilience(&config, &hedge, &outcome_hedged);

    assert_eq!(report_plain.served, report_plain.offered, "no shedding at this load");
    assert_eq!(report_hedged.served, report_hedged.offered);
    assert!(report_hedged.hedges > 0, "the straggler must trigger hedges");
    assert!(report_hedged.hedge_wins > 0, "the healthy worker must win some");
    assert!(
        report_hedged.latency.p999_ns < report_plain.latency.p999_ns,
        "hedging must cut p99.9: {} vs {}",
        report_hedged.latency.p999_ns,
        report_plain.latency.p999_ns
    );
    assert!(
        report_hedged.dram_reads_per_query > report_plain.dram_reads_per_query,
        "hedging must pay in duplicate DRAM reads: {} vs {}",
        report_hedged.dram_reads_per_query,
        report_plain.dram_reads_per_query
    );
}

#[test]
fn crashes_trigger_retries_and_every_query_is_accounted() {
    let config = ServeConfig { workers: 2, queries: 400, ..two_worker_config() };
    let resilience = ResilienceConfig {
        faults: FaultPlan::crash_restart(2, 10_000.0, 5_000.0, 1e9, 3),
        timeout_ns: None,
        retries: 4,
        backoff_ns: 500.0,
        hedge_ns: None,
    };
    let outcome = run_resilient(&config, &resilience);
    let report = ServeReport::with_resilience(&config, &resilience, &outcome);
    assert!(report.crashes > 0, "the churn plan must crash attempts");
    assert!(report.retries > 0, "crashed attempts must be retried");
    assert_eq!(report.served + report.shed + report.failed, report.offered);
    assert!(outcome.records.iter().all(|r| r.outcome != QueryOutcome::Pending));
    // Worker availability over the window reflects the downtime.
    assert!(report.worker_availability.iter().any(|&a| a < 1.0));
    assert!(report.utilization > 0.0 && report.utilization <= 1.0);
}

#[test]
fn timeouts_reroute_work_to_the_healthy_worker() {
    // The straggler at 4x blows past a 3 us per-batch timeout; the healthy
    // worker finishes well inside it. With one retry every timed-out batch
    // recovers on the other replica — timeouts fire, nothing fails.
    let config = two_worker_config();
    let resilience = ResilienceConfig {
        faults: FaultPlan::slow_workers(2, 1, 4.0),
        timeout_ns: Some(3_000.0),
        retries: 2,
        backoff_ns: 100.0,
        hedge_ns: None,
    };
    let outcome = run_resilient(&config, &resilience);
    let report = ServeReport::with_resilience(&config, &resilience, &outcome);
    assert!(report.timeouts > 0, "the straggler must trip the timeout");
    assert!(report.retries > 0);
    assert_eq!(report.failed, 0, "retries onto the healthy worker must recover");
    assert_eq!(report.served + report.shed, report.offered);
}

#[test]
fn total_outage_sheds_everything_and_serializes_null_latency() {
    let config = ServeConfig { workers: 2, queries: 50, ..two_worker_config() };
    let resilience = ResilienceConfig {
        faults: FaultPlan::total_outage(2),
        timeout_ns: None,
        retries: 1,
        backoff_ns: 1_000.0,
        hedge_ns: None,
    };
    let outcome = run_resilient(&config, &resilience);
    let report = ServeReport::with_resilience(&config, &resilience, &outcome);
    assert_eq!(report.served, 0);
    assert_eq!(report.shed + report.failed, report.offered, "everything is dropped");
    assert!(report.shed > 0, "shed escalation must engage");
    // Empty latency samples are JSON null, not a fake 0 ns percentile.
    let json = report.to_json();
    assert!(json.contains("\"latency\": null"), "empty sample must be null:\n{json}");
    assert!(json.contains("\"queue_wait\": null"));
    assert!(json.contains("\"service\": null"));
    assert_eq!(report.latency.count, 0);
    // The human table renders too (no NaNs, no panic).
    assert!(report.render_table().contains("no samples"));
}

/// Wraps an engine to count how many times the serving layer actually runs
/// a reduction (one `preprocess` call per `GatherEngine::lookup`).
struct CountingEngine<'a> {
    inner: &'a FafnirEngine,
    lookups: std::cell::Cell<usize>,
}

impl fafnir_core::GatherEngine for CountingEngine<'_> {
    type Plan = <FafnirEngine as fafnir_core::GatherEngine>::Plan;

    fn name(&self) -> &'static str {
        "counting"
    }

    fn preprocess<S: fafnir_core::EmbeddingSource>(
        &self,
        batch: &fafnir_core::Batch,
        source: &S,
    ) -> Result<Vec<Self::Plan>, fafnir_core::FafnirError> {
        self.lookups.set(self.lookups.get() + 1);
        self.inner.preprocess(batch, source)
    }

    fn reduce<S: fafnir_core::EmbeddingSource>(
        &self,
        plan: &Self::Plan,
        gathered: fafnir_core::GatherOutcome,
        source: &S,
    ) -> Result<fafnir_core::LookupResult, fafnir_core::FafnirError> {
        self.inner.reduce(plan, gathered, source)
    }
}

#[test]
fn mean_finalizes_each_query_exactly_once_under_retries_and_hedges() {
    use fafnir_core::{Batch, FafnirConfig, ReduceOp};

    // A Mean-configured engine under a churn plan that forces retries and
    // hedges. The root-side divide must count each query's vectors exactly
    // once across attempts: the serving layer reduces once per formed batch
    // and replays only the timing on retry/hedge attempts.
    let mem = MemoryConfig::ddr4_2400_4ch();
    let config_core = FafnirConfig { op: ReduceOp::Mean, ..FafnirConfig::paper_default() };
    let inner = FafnirEngine::new(config_core, mem).expect("mean engine");
    let engine = CountingEngine { inner: &inner, lookups: std::cell::Cell::new(0) };
    let source = source();

    let config = ServeConfig { workers: 2, queries: 400, ..two_worker_config() };
    let resilience = ResilienceConfig {
        faults: FaultPlan::crash_restart(2, 10_000.0, 5_000.0, 1e9, 3),
        timeout_ns: Some(5e6),
        retries: 4,
        backoff_ns: 500.0,
        hedge_ns: Some(50_000.0),
    };
    let mut traffic = zipf_traffic(21);
    let outcome = simulate_resilient(&engine, &source, &mut traffic, &config, &resilience)
        .expect("resilient mean run");

    let total_attempts: u32 = outcome.batches.iter().map(|b| b.attempts).sum();
    assert!(
        total_attempts as usize > outcome.batches.len(),
        "the churn plan must force extra attempts ({total_attempts} attempts over {} batches)",
        outcome.batches.len()
    );
    assert_eq!(
        engine.lookups.get(),
        outcome.batches.len(),
        "exactly one reduction (one Mean finalize) per formed batch, \
         regardless of retries and hedges"
    );

    // Replay each formed batch's query shapes and pin the outputs the
    // serving layer used to the software Mean reference: a double finalize
    // (or a per-attempt re-count) would divide twice and miss this.
    let mut replay = zipf_traffic(21);
    let shapes: Vec<_> = (0..config.queries).map(|_| replay.query()).collect();
    let operator = ReduceOp::Mean.operator();
    for record in &outcome.batches {
        let batch = Batch::from_index_sets(record.queries.iter().map(|&id| shapes[id].clone()));
        let served = fafnir_core::GatherEngine::lookup(&inner, &batch, &source)
            .expect("replay lookup")
            .outputs;
        let reference = fafnir_core::reference_lookup_with(&batch, &source, operator.as_ref());
        assert_eq!(served.len(), reference.len());
        for ((qa, got), (qb, want)) in served.iter().zip(&reference) {
            assert_eq!(qa, qb);
            for (x, y) in got.iter().zip(want) {
                assert!((x - y).abs() <= 1e-3_f32.max(y.abs() * 1e-4), "{x} vs {y}");
            }
        }
    }
}

#[test]
fn slowdown_scales_service_times_but_not_reads() {
    use fafnir_core::{Batch, GatherEngine};

    // One healthy worker and one at 4x: every batch's timing must be the
    // fault-free engine result times its winner's slowdown — exactly, so a
    // slowdown of 1.0 is a bit-for-bit no-op — while reads stay unscaled.
    let config = two_worker_config();
    let mut plan = FaultPlan::none(config.workers);
    plan.workers[1].slowdown = 4.0;
    let resilience = ResilienceConfig { faults: plan, ..ResilienceConfig::none(config.workers) };
    let outcome = run_resilient(&config, &resilience);

    let engine = engine();
    let source = source();
    let mut replay = zipf_traffic(21);
    let shapes: Vec<_> = (0..config.queries).map(|_| replay.query()).collect();
    let mut batches_per_worker = [0usize; 2];
    for record in &outcome.batches {
        let batch = Batch::from_index_sets(record.queries.iter().map(|&id| shapes[id].clone()));
        let base = engine.lookup(&batch, &source).expect("replay lookup");
        let slowdown = resilience.faults.worker(record.worker).slowdown;
        batches_per_worker[record.worker] += 1;
        assert_eq!(record.attempts, 1, "no crash, timeout or hedge can fire");
        assert_eq!(record.service_ns.to_bits(), (base.latency.total_ns * slowdown).to_bits());
        assert_eq!(record.vectors_read, base.traffic.vectors_read, "reads are not scaled");
        for &(member, offset) in &base.per_query_ns {
            let QueryOutcome::Served { dispatched_ns, completion_ns, .. } =
                outcome.records[record.queries[member.0 as usize]].outcome
            else {
                panic!("every query of a fault-free batch is served");
            };
            assert_eq!(dispatched_ns.to_bits(), record.dispatched_ns.to_bits());
            assert_eq!(completion_ns.to_bits(), (dispatched_ns + offset * slowdown).to_bits());
        }
    }
    assert!(
        batches_per_worker.iter().all(|&n| n > 0),
        "both workers serve: {batches_per_worker:?}"
    );

    // A plan that spells out a 1.0 slowdown for every worker is the
    // fault-free run, bit for bit.
    let unit = ResilienceConfig {
        faults: FaultPlan::slow_workers(config.workers, config.workers, 1.0),
        ..ResilienceConfig::none(config.workers)
    };
    let plain = run_resilient(&config, &ResilienceConfig::none(config.workers));
    let slowed_by_one = run_resilient(&config, &unit);
    assert_eq!(format!("{plain:?}"), format!("{slowed_by_one:?}"));
}
