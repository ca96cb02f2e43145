//! Golden digests of full serving outcomes.
//!
//! The other serving tests check that reruns agree with each other and that
//! reports satisfy invariants; neither catches a change that moves every run
//! the same way — say, resolving two due attempts in a different order.
//! These tests pin a digest of the whole [`ServeOutcome`] (every query
//! record, batch record and attempt record, with each `f64` taken by
//! `to_bits`) for a fault-free run, a crash + timeout + retry run and a
//! hedged run, each at 1, 2 and 4 workers.
//!
//! Resolution order only shows when several jobs are due at the same
//! virtual instant, so both fault runs take every worker down together.
//! The outage builds a backlog that the restarted pool dispatches all at
//! once, so those jobs' hedges come due together; in the crash run a
//! second outage starts before those attempts can finish, so they all
//! crash at one instant and their retries come due together.
//!
//! A digest mismatch means the simulation's observable behaviour changed.
//! If that change is intended, print the new digests with
//! `cargo test -p fafnir-serve --test golden_outcome -- --nocapture` and
//! say in the change log why they moved.

use fafnir_mem::MemoryModelKind;
use fafnir_serve::{
    paper_setup, simulate_resilient, AttemptResult, BatchPolicy, QueryOutcome, ResilienceConfig,
    ServeConfig, ServeOutcome, ServeReport,
};
use fafnir_workloads::arrival::ArrivalProcess;
use fafnir_workloads::faults::FaultPlan;
use fafnir_workloads::query::{BatchGenerator, Popularity};

/// 64-bit FNV-1a over a stream of words.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Self(0xCBF2_9CE4_8422_2325)
    }

    fn word(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    fn float(&mut self, value: f64) {
        self.word(value.to_bits());
    }

    fn count(&mut self, value: usize) {
        self.word(value as u64);
    }

    fn flag(&mut self, value: bool) {
        self.word(u64::from(value));
    }
}

fn digest(outcome: &ServeOutcome) -> u64 {
    let mut d = Digest::new();
    d.count(outcome.records.len());
    for record in &outcome.records {
        d.float(record.arrival_ns);
        match record.outcome {
            QueryOutcome::Pending => d.word(0),
            QueryOutcome::Shed { shed_ns } => {
                d.word(1);
                d.float(shed_ns);
            }
            QueryOutcome::Failed { failed_ns } => {
                d.word(2);
                d.float(failed_ns);
            }
            QueryOutcome::Served { batch, formed_ns, dispatched_ns, completion_ns } => {
                d.word(3);
                d.count(batch);
                d.float(formed_ns);
                d.float(dispatched_ns);
                d.float(completion_ns);
            }
        }
    }
    d.count(outcome.batches.len());
    for batch in &outcome.batches {
        d.count(batch.queries.len());
        for &id in &batch.queries {
            d.count(id);
        }
        d.float(batch.formed_ns);
        d.float(batch.dispatched_ns);
        d.count(batch.worker);
        d.float(batch.service_ns);
        d.word(batch.references);
        d.word(batch.vectors_read);
        d.word(u64::from(batch.attempts));
        d.flag(batch.hedged);
        d.flag(batch.hedge_won);
        d.flag(batch.failed);
    }
    d.count(outcome.attempts.len());
    for attempt in &outcome.attempts {
        d.count(attempt.batch);
        d.count(attempt.worker);
        d.flag(attempt.hedge);
        d.float(attempt.start_ns);
        d.float(attempt.busy_until_ns);
        d.word(match attempt.result {
            AttemptResult::Won => 0,
            AttemptResult::Cancelled => 1,
            AttemptResult::Crashed => 2,
            AttemptResult::TimedOut => 3,
            AttemptResult::Abandoned => 4,
        });
    }
    d.0
}

const WORKERS: [usize; 3] = [1, 2, 4];

fn config(workers: usize) -> ServeConfig {
    ServeConfig {
        arrivals: ArrivalProcess::Poisson { rate_qps: 4e6 },
        policy: BatchPolicy::Deadline { max_wait_ns: 4_000.0, max_batch: 32 },
        workers,
        queries: 640,
        seed: 13,
        ..ServeConfig::default()
    }
}

/// Runs the golden workload at every worker count under the resilience
/// configuration `resilience(workers)`; returns the outcomes in
/// [`WORKERS`] order.
fn run_all(resilience: impl Fn(usize) -> ResilienceConfig) -> Vec<(ServeConfig, ServeOutcome)> {
    let (engine, source) = paper_setup(MemoryModelKind::Fast).expect("paper defaults");
    WORKERS
        .iter()
        .map(|&workers| {
            let config = config(workers);
            let mut traffic =
                BatchGenerator::new(Popularity::Zipf { exponent: 1.15 }, 2_000, 16, 29);
            let outcome =
                simulate_resilient(&engine, &source, &mut traffic, &config, &resilience(workers))
                    .expect("golden run simulates");
            (config, outcome)
        })
        .collect()
}

/// Every worker also goes down over each of the `[start, end)` windows,
/// which follow the plan's own downtimes.
fn with_blackouts(mut plan: FaultPlan, windows: &[(f64, f64)]) -> FaultPlan {
    for worker in &mut plan.workers {
        worker.downtimes.extend_from_slice(windows);
    }
    plan.validate().expect("the blackouts follow every earlier downtime");
    plan
}

fn check(name: &str, runs: &[(ServeConfig, ServeOutcome)], expected: [u64; 3]) {
    let actual: Vec<u64> = runs.iter().map(|(_, outcome)| digest(outcome)).collect();
    println!(
        "{name}: [{}]",
        actual.iter().map(|d| format!("{d:#018x}")).collect::<Vec<_>>().join(", ")
    );
    assert_eq!(actual, expected, "{name}: outcome digests at workers {WORKERS:?} moved");
}

#[test]
fn fault_free_outcomes_match_their_golden_digests() {
    let runs = run_all(ResilienceConfig::none);
    for (_, outcome) in &runs {
        assert_eq!(outcome.served(), outcome.records.len(), "a healthy pool serves every query");
    }
    check(
        "fault-free",
        &runs,
        [0x6412_edf0_caaf_3009, 0xbe15_bb6a_3d92_9c8d, 0x2a8b_f2d5_47fe_f5bd],
    );
}

#[test]
fn crash_timeout_retry_outcomes_match_their_golden_digests() {
    let runs = run_all(|workers| {
        let churn = FaultPlan::crash_restart(workers, 15_000.0, 5_000.0, 40_000.0, 17);
        let mut faults = with_blackouts(churn, &[(80_000.0, 90_000.0), (90_500.0, 95_000.0)]);
        faults.workers[0].slowdown = 4.0;
        ResilienceConfig {
            faults,
            timeout_ns: Some(6_000.0),
            retries: 2,
            backoff_ns: 250.0,
            hedge_ns: None,
        }
    });
    for (config, outcome) in &runs {
        let report = ServeReport::new(config, outcome);
        assert!(
            report.crashes > 0,
            "{} workers: the churn plan must crash attempts",
            config.workers
        );
        assert!(report.timeouts > 0, "{} workers: the straggler must time out", config.workers);
        assert!(report.retries > 0, "{} workers: failures must be retried", config.workers);
    }
    check(
        "crash+timeout+retry",
        &runs,
        [0x9fe7_f4a8_3973_af5b, 0x7ad9_4644_afdd_fdbd, 0xbc82_441a_e65f_122b],
    );
}

#[test]
fn hedged_outcomes_match_their_golden_digests() {
    let runs = run_all(|workers| ResilienceConfig {
        faults: with_blackouts(
            FaultPlan::slow_workers(workers, workers.div_ceil(2), 6.0),
            &[(60_000.0, 70_000.0)],
        ),
        timeout_ns: None,
        retries: 0,
        backoff_ns: 1_000.0,
        hedge_ns: Some(2_000.0),
    });
    for (config, outcome) in &runs[1..] {
        let report = ServeReport::new(config, outcome);
        assert!(
            report.hedges > 0,
            "{} workers: the stragglers must trigger hedges",
            config.workers
        );
    }
    check("hedged", &runs, [0x0a8a_9ea5_d61f_70c1, 0x9786_ed84_6132_be37, 0x7aaf_b34c_0851_2e5c]);
}
