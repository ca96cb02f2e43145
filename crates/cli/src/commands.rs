//! The CLI subcommands: each takes parsed flags and returns its report as a
//! string (so the logic is unit-testable without capturing stdout).

use fafnir_baselines::{NoNdpEngine, RecNmpEngine, TensorDimmEngine};
use fafnir_core::model::report::DeploymentSummary;
use fafnir_core::{
    FafnirConfig, FafnirEngine, GatherEngine, LookupResult, PeTiming, StripedSource,
};
use fafnir_mem::MemoryConfig;
use fafnir_sparse::{fafnir_spmv, gen, two_step, LilMatrix, SpmvTiming};
use fafnir_workloads::query::{BatchGenerator, Popularity};
use fafnir_workloads::trace::QueryTrace;

use crate::args::{ArgError, ParsedArgs};

/// A subcommand: parsed flags in, printable report out.
type Command = fn(&ParsedArgs) -> Result<String, ArgError>;

/// Every command [`run`] dispatches, in [`usage`] order.
const COMMANDS: [(&str, Command); 10] = [
    ("lookup", lookup),
    ("serve", serve),
    ("cluster", cluster),
    ("spmv", spmv),
    ("report", report),
    ("trace", trace),
    ("anatomy", anatomy),
    ("energy", energy),
    ("selftest", selftest),
    ("help", |_| Ok(usage())),
];

/// Runs the parsed command, returning the printable report.
///
/// # Errors
///
/// Returns [`ArgError`] for unknown commands or invalid flag values.
pub fn run(args: &ParsedArgs) -> Result<String, ArgError> {
    match COMMANDS.iter().find(|(name, _)| *name == args.command) {
        Some((_, command)) => command(args),
        None => Err(ArgError(format!("unknown command `{}` (try `fafnir help`)", args.command))),
    }
}

/// The usage text.
#[must_use]
pub fn usage() -> String {
    "\
fafnir — FAFNIR (HPCA 2021) reproduction CLI

USAGE: fafnir <command> [flags]

COMMANDS
  lookup   run an embedding-lookup batch through the engines
           --batch N (32) --query-len Q (16) --skew S (1.15)
           --universe U (2000) --ranks R (32) --seed X (7)
           --engine fafnir|recnmp|tensordimm|no-ndp|all (all)
           --op sum|mean|max|min|argmax|topk:K (sum)
           --memory-model cycle|fast (cycle)
           --no-dedup --interactive --refresh
  serve    simulate an online lookup service in virtual time
           --rate QPS (1e6) --process poisson|onoff (poisson)
           --policy size|deadline|adaptive (adaptive) --batch N (32)
           --max-wait-ns W (500000) --workers K (4)
           --duration-queries N (512) --queue-capacity C (1024)
           --shed drop-newest|drop-oldest (drop-newest)
           --skew S (1.15) --universe U (2000) --query-len Q (16)
           --op sum|mean|max|min|argmax|topk:K (sum)
           --memory-model cycle|fast (cycle)
           --seed X (7) --no-dedup --json
           --faults none|outage|slow:MULT:N|crash:MTTF:MTTR (none)
           --timeout-ns T (off) --retries R (0) --backoff-ns B (1000)
           --hedge-ns H (off)
           --sweep-windows W1,W2,... (run one deadline-policy scenario
           per window) --scenario-threads N (1, sweep parallelism)
  cluster  serve against a sharded multi-tree cluster
           --shards N (4) --strategy tablewise|rowhash|rowrange (rowrange)
           --rows-per-table R (250, tablewise) --replicate-hot F (0)
           --router roundrobin|leastloaded (roundrobin)
           --rate QPS (1e6) --workers K (4) --duration-queries N (512)
           --skew S (1.15) --universe U (2000) --query-len Q (16)
           --op sum|mean|max|min|argmax|topk:K (sum)
           --memory-model cycle|fast (cycle) --seed X (7) --json
  spmv     run y = A·x on FAFNIR and the Two-Step baseline
           --gen uniform|rmat|banded|spd (rmat) --rows N (4096)
           --density D (0.01, uniform) --nnz N (rows*8, rmat)
           --bandwidth B (4, banded/spd) --vector-size V (2048)
           --mtx FILE (load Matrix Market input) --seed X (7)
           --partition row|nnz|col|grid (off) --ranks R (8)
           --stream (chunk-at-a-time driver) --json
  report   print the deployment summary
           --ranks R (32) --ratio 1|2|4 (2) --cores C (4)
  trace    record or characterize query traces
           --record N (write N queries to stdout as text)
           --stats FILE (reuse statistics of a trace file)
           --skew S --universe U --query-len Q --seed X
  anatomy  trace one batch through the tree: per-PE waterfall
           --batch N (4) --query-len Q (8) --ranks R (8)
           --skew S (1.15) --universe U (2000) --seed X (7)
  energy   DRAM + tree energy of one batch, with and without dedup
           --batch N (32) --query-len Q (16) --skew S (1.15)
           --universe U (2000) --seed X (7)
  selftest check the engine against the software reference
           --ranks R (32) --ratio 1|2|4 (2) --batches N (6) --seed X (7)
  help     this text
"
    .to_string()
}

/// Parses `--op sum|mean|max|min|argmax|topk:K` (default `sum`).
fn reduce_op(args: &ParsedArgs) -> Result<fafnir_core::ReduceOp, ArgError> {
    args.get_or("op", "sum").parse().map_err(|e| ArgError(format!("flag `--op`: {e}")))
}

/// Parses `--memory-model cycle|fast` (default `cycle`).
fn memory_model(args: &ParsedArgs) -> Result<fafnir_mem::MemoryModelKind, ArgError> {
    args.get_or("memory-model", "cycle")
        .parse()
        .map_err(|e| ArgError(format!("flag `--memory-model`: {e}")))
}

fn memory_for(ranks: usize) -> Result<MemoryConfig, ArgError> {
    if ranks == 0 || !ranks.is_power_of_two() || ranks > 64 {
        return Err(ArgError(format!("--ranks must be a power of two ≤ 64, got {ranks}")));
    }
    Ok(MemoryConfig::with_total_ranks(ranks))
}

fn result_row(name: &str, result: &LookupResult) -> String {
    format!(
        "{name:<12} {:>10.2} us {:>12} {:>14} B {:>9.0} %\n",
        result.latency.total_ns / 1e3,
        result.traffic.vectors_read,
        result.traffic.bytes_to_host,
        result.ndp_fraction() * 100.0
    )
}

fn lookup(args: &ParsedArgs) -> Result<String, ArgError> {
    let batch_size: usize = args.number_or("batch", 32)?;
    let query_len: usize = args.number_or("query-len", 16)?;
    let skew: f64 = args.number_or("skew", 1.15)?;
    let universe: u64 = args.number_or("universe", 2_000)?;
    let ranks: usize = args.number_or("ranks", 32)?;
    let seed: u64 = args.number_or("seed", 7)?;
    let engine_choice = args.get_or("engine", "all");
    let op = reduce_op(args)?;
    if batch_size == 0 || query_len == 0 {
        return Err(ArgError("--batch and --query-len must be non-zero".into()));
    }

    let mut mem = memory_for(ranks)?;
    mem.refresh = args.switch("refresh");
    mem.model = memory_model(args)?;
    let source = StripedSource::new(mem.topology, 128);
    let popularity =
        if skew == 0.0 { Popularity::Uniform } else { Popularity::Zipf { exponent: skew } };
    let mut generator = BatchGenerator::new(popularity, universe, query_len, seed);
    let batch = generator.batch(batch_size);

    let mut out = format!(
        "lookup: {batch_size} queries x {query_len} indices over {ranks} ranks \
         ({:.0} % unique)\n",
        batch.unique_fraction() * 100.0
    );
    out.push_str(&format!(
        "{:<12} {:>13} {:>12} {:>16} {:>10}\n",
        "engine", "latency", "DRAM reads", "bytes to host", "NDP share"
    ));

    let config = FafnirConfig {
        ranks_per_leaf: ranks.min(2),
        dedup: !args.switch("no-dedup"),
        op,
        ..FafnirConfig::paper_default()
    };
    if !["all", "fafnir", "recnmp", "tensordimm", "no-ndp"].contains(&engine_choice) {
        return Err(ArgError(format!(
            "unknown engine `{engine_choice}` (fafnir|recnmp|tensordimm|no-ndp|all)"
        )));
    }
    let wants = |name: &str| engine_choice == "all" || engine_choice == name;
    if wants("fafnir") {
        let engine = FafnirEngine::new(config, mem)
            .map_err(|e| ArgError(format!("fafnir configuration: {e}")))?;
        if args.switch("interactive") {
            let result =
                engine.lookup_interactive(&batch, &source).map_err(|e| ArgError(e.to_string()))?;
            out.push_str(&format!(
                "{:<12} {:>10.2} us {:>12} {:>14} B {:>9} %\n",
                "fafnir*",
                result.latency.total_ns / 1e3,
                result.traffic.vectors_read,
                result.traffic.bytes_to_host,
                100
            ));
        } else {
            let result = engine.lookup(&batch, &source).map_err(|e| ArgError(e.to_string()))?;
            out.push_str(&result_row("fafnir", &result));
        }
    }
    if wants("recnmp") {
        let result = RecNmpEngine::new(
            mem,
            fafnir_baselines::CoreModel::server_cpu(),
            PeTiming::fpga_200mhz(),
            op,
        )
        .lookup(&batch, &source)
        .map_err(|e| ArgError(e.to_string()))?;
        out.push_str(&result_row("recnmp", &result));
    }
    if wants("tensordimm") {
        let result = TensorDimmEngine::new(mem, PeTiming::fpga_200mhz(), op)
            .lookup(&batch, &source)
            .map_err(|e| ArgError(e.to_string()))?;
        out.push_str(&result_row("tensordimm", &result));
    }
    if wants("no-ndp") {
        let result = NoNdpEngine::new(mem, fafnir_baselines::CoreModel::server_cpu(), op)
            .lookup(&batch, &source)
            .map_err(|e| ArgError(e.to_string()))?;
        out.push_str(&result_row("no-ndp", &result));
    }
    if args.switch("interactive") {
        out.push_str("(* interactive mode: one query per hardware batch)\n");
    }
    Ok(out)
}

fn serve(args: &ParsedArgs) -> Result<String, ArgError> {
    use fafnir_serve::{
        run_scenarios, BatchPolicy, ResilienceConfig, Scenario, ServeConfig, ServeReport,
        ShedPolicy,
    };
    use fafnir_workloads::arrival::ArrivalProcess;

    let rate: f64 = args.number_or("rate", 1e6)?;
    let batch: usize = args.number_or("batch", 32)?;
    let max_wait_ns: f64 = args.number_or("max-wait-ns", 500_000.0)?;
    let workers: usize = args.number_or("workers", 4)?;
    let queries: usize = args.number_or("duration-queries", 512)?;
    let queue_capacity: usize = args.number_or("queue-capacity", 1_024)?;
    let seed: u64 = args.number_or("seed", 7)?;
    let skew: f64 = args.number_or("skew", 1.15)?;
    let universe: u64 = args.number_or("universe", 2_000)?;
    let query_len: usize = args.number_or("query-len", 16)?;

    let arrivals = match args.get_or("process", "poisson") {
        "poisson" => ArrivalProcess::Poisson { rate_qps: rate },
        // 10 % duty-cycle bursts at 10x the nominal rate: the long-run mean
        // stays at --rate, so poisson and onoff runs are comparable.
        "onoff" => ArrivalProcess::OnOff {
            burst_qps: rate * 10.0,
            mean_on_ns: 20_000.0,
            mean_off_ns: 180_000.0,
        },
        other => return Err(ArgError(format!("unknown process `{other}` (poisson|onoff)"))),
    };
    let policy = match args.get_or("policy", "adaptive") {
        "size" => BatchPolicy::Size { batch },
        "deadline" => BatchPolicy::Deadline { max_wait_ns, max_batch: batch },
        "adaptive" => BatchPolicy::Adaptive { batch, max_wait_ns },
        other => {
            return Err(ArgError(format!("unknown policy `{other}` (size|deadline|adaptive)")))
        }
    };
    let shed = match args.get_or("shed", "drop-newest") {
        "drop-newest" => ShedPolicy::DropNewest,
        "drop-oldest" => ShedPolicy::DropOldest,
        other => {
            return Err(ArgError(format!(
                "unknown shed policy `{other}` \
                                         (drop-newest|drop-oldest)"
            )))
        }
    };
    let config = ServeConfig {
        arrivals,
        policy,
        workers,
        queue_capacity,
        shed,
        queries,
        seed,
        ..ServeConfig::default()
    };

    let faults = parse_fault_plan(args.get_or("faults", "none"), workers, queries, rate, seed)?;
    let timeout_ns = match args.get("timeout-ns") {
        None => None,
        Some(_) => Some(args.number_or("timeout-ns", 0.0f64)?),
    };
    let hedge_ns = match args.get("hedge-ns") {
        None => None,
        Some(_) => Some(args.number_or("hedge-ns", 0.0f64)?),
    };
    let resilience = ResilienceConfig {
        faults,
        timeout_ns,
        retries: args.number_or("retries", 0u32)?,
        backoff_ns: args.number_or("backoff-ns", 1_000.0f64)?,
        hedge_ns,
    };

    let engine_config = FafnirConfig {
        dedup: !args.switch("no-dedup"),
        op: reduce_op(args)?,
        ..FafnirConfig::paper_default()
    };
    let (engine, source) = fafnir_serve::worker_setup(engine_config, memory_model(args)?)
        .map_err(|e| ArgError(e.to_string()))?;
    let popularity =
        if skew == 0.0 { Popularity::Uniform } else { Popularity::Zipf { exponent: skew } };
    let traffic = || BatchGenerator::new(popularity, universe, query_len, seed);

    let scenario_threads: usize = args.number_or("scenario-threads", 1)?;
    if scenario_threads == 0 {
        return Err(ArgError("--scenario-threads must be at least 1".into()));
    }
    // A sweep fans one scenario per batching window out over the runner;
    // without one the single scenario takes the same path with one thread's
    // worth of work, so the report stays byte-identical to a direct
    // `simulate_resilient` call.
    let scenarios = match args.get("sweep-windows") {
        None => vec![Scenario::new("serve", config, traffic()).with_resilience(resilience.clone())],
        Some(spec) => spec
            .split(',')
            .map(|raw| {
                let window: f64 = raw.trim().parse().map_err(|_| {
                    ArgError(format!("--sweep-windows: `{raw}` is not a valid window in ns"))
                })?;
                let config = ServeConfig {
                    policy: BatchPolicy::Deadline { max_wait_ns: window, max_batch: batch },
                    ..config
                };
                Ok(Scenario::new(format!("window {window} ns"), config, traffic())
                    .with_resilience(resilience.clone()))
            })
            .collect::<Result<Vec<_>, ArgError>>()?,
    };
    let configs: Vec<ServeConfig> = scenarios.iter().map(|s| s.config).collect();
    let results = run_scenarios(&engine, &source, scenarios, scenario_threads);

    let mut reports = Vec::with_capacity(results.len());
    for (result, config) in results.into_iter().zip(configs) {
        let outcome = result.outcome.map_err(|e| ArgError(e.to_string()))?;
        reports.push((result.label, ServeReport::with_resilience(&config, &resilience, &outcome)));
    }
    if reports.len() == 1 {
        let (_, report) = &reports[0];
        return Ok(if args.switch("json") { report.to_json() } else { report.render_table() });
    }
    if args.switch("json") {
        let rows: Vec<String> = reports
            .iter()
            .map(|(label, report)| {
                format!("{{\"label\":\"{label}\",\"report\":{}}}", report.to_json())
            })
            .collect();
        Ok(format!("{{\"scenarios\":[{}]}}", rows.join(",")))
    } else {
        let mut out = String::new();
        for (label, report) in &reports {
            out.push_str(&format!("== {label} ==\n"));
            out.push_str(&report.render_table());
        }
        Ok(out)
    }
}

fn cluster(args: &ParsedArgs) -> Result<String, ArgError> {
    use fafnir_cluster::{cluster_setup, ClusterReport, RouterPolicy};
    use fafnir_core::{ShardPlan, ShardStrategy, VectorIndex};
    use fafnir_serve::{simulate_resilient, ResilienceConfig, ServeConfig, ServeReport};
    use fafnir_workloads::arrival::ArrivalProcess;
    use fafnir_workloads::Zipf;

    let shards: usize = args.number_or("shards", 4)?;
    if shards == 0 {
        return Err(ArgError("--shards must be at least 1 (a cluster needs a shard)".into()));
    }
    let universe: u64 = args.number_or("universe", 2_000)?;
    if universe == 0 || universe > u64::from(u32::MAX) {
        return Err(ArgError(format!("--universe must be in 1..=2^32-1, got {universe}")));
    }
    let strategy = match args.get_or("strategy", "rowrange") {
        "tablewise" => {
            let rows_per_table: u32 = args.number_or("rows-per-table", 250)?;
            if rows_per_table == 0 {
                return Err(ArgError("--rows-per-table must be non-zero".into()));
            }
            ShardStrategy::TableWise { rows_per_table }
        }
        "rowhash" => ShardStrategy::RowHash,
        "rowrange" => ShardStrategy::RowRange { universe: universe as u32 },
        other => {
            return Err(ArgError(format!(
                "unknown strategy `{other}` (tablewise|rowhash|rowrange)"
            )))
        }
    };
    let replicate_hot: f64 = args.number_or("replicate-hot", 0.0)?;
    if !(0.0..=1.0).contains(&replicate_hot) {
        return Err(ArgError(format!(
            "--replicate-hot must be a fraction in 0..=1, got {replicate_hot}"
        )));
    }
    let policy: RouterPolicy = args
        .get_or("router", "roundrobin")
        .parse()
        .map_err(|e| ArgError(format!("flag `--router`: {e}")))?;

    let rate: f64 = args.number_or("rate", 1e6)?;
    let workers: usize = args.number_or("workers", 4)?;
    let queries: usize = args.number_or("duration-queries", 512)?;
    let seed: u64 = args.number_or("seed", 7)?;
    let skew: f64 = args.number_or("skew", 1.15)?;
    let query_len: usize = args.number_or("query-len", 16)?;

    let mut plan = ShardPlan::new(shards, strategy);
    if replicate_hot > 0.0 {
        let hot = Zipf::new(universe, skew.max(0.0)).hot_set(replicate_hot);
        plan = plan.with_replicated(hot.into_iter().map(|id| VectorIndex(id as u32)));
    }
    let engine_config = FafnirConfig {
        dedup: !args.switch("no-dedup"),
        op: reduce_op(args)?,
        ..FafnirConfig::paper_default()
    };
    let (cluster, source) = cluster_setup(engine_config, memory_model(args)?, plan, policy)
        .map_err(|e| ArgError(e.to_string()))?;

    let config = ServeConfig {
        arrivals: ArrivalProcess::Poisson { rate_qps: rate },
        workers,
        queries,
        seed,
        ..ServeConfig::default()
    };
    let resilience = ResilienceConfig::none(workers);
    let popularity =
        if skew == 0.0 { Popularity::Uniform } else { Popularity::Zipf { exponent: skew } };
    let mut traffic = BatchGenerator::new(popularity, universe, query_len, seed);
    let outcome = simulate_resilient(&cluster, &source, &mut traffic, &config, &resilience)
        .map_err(|e| ArgError(e.to_string()))?;
    let serve_report = ServeReport::with_resilience(&config, &resilience, &outcome);
    let report = ClusterReport::new(&cluster, &serve_report);
    Ok(if args.switch("json") { report.to_json() } else { report.render_table() })
}

/// Parses the `--faults` grammar: `none`, `outage`, `slow:MULT:N`
/// (first N workers at MULT× service time), or `crash:MTTF:MTTR`
/// (seeded crash/restart churn in ns, horizon 10× the nominal run length).
fn parse_fault_plan(
    spec: &str,
    workers: usize,
    queries: usize,
    rate_qps: f64,
    seed: u64,
) -> Result<fafnir_workloads::faults::FaultPlan, ArgError> {
    use fafnir_workloads::faults::FaultPlan;
    let parse_field = |name: &str, raw: &str| -> Result<f64, ArgError> {
        raw.parse().map_err(|_| ArgError(format!("--faults {spec}: `{raw}` is not a valid {name}")))
    };
    let parts: Vec<&str> = spec.split(':').collect();
    match parts.as_slice() {
        ["none"] => Ok(FaultPlan::none(workers)),
        ["outage"] => Ok(FaultPlan::total_outage(workers)),
        ["slow", multiplier, slowed] => {
            let multiplier = parse_field("multiplier", multiplier)?;
            let slowed = slowed.parse::<usize>().map_err(|_| {
                ArgError(format!("--faults {spec}: `{slowed}` is not a valid worker count"))
            })?;
            if slowed > workers {
                return Err(ArgError(format!(
                    "--faults {spec}: cannot slow {slowed} of {workers} workers"
                )));
            }
            Ok(FaultPlan::slow_workers(workers, slowed, multiplier))
        }
        ["crash", mttf, mttr] => {
            let mttf_ns = parse_field("MTTF", mttf)?;
            let mttr_ns = parse_field("MTTR", mttr)?;
            if !(mttf_ns.is_finite() && mttf_ns > 0.0 && mttr_ns.is_finite() && mttr_ns > 0.0) {
                return Err(ArgError(format!(
                    "--faults {spec}: MTTF and MTTR must be positive and finite"
                )));
            }
            let horizon_ns = (queries as f64 / rate_qps.max(1.0)) * 1e9 * 10.0;
            Ok(FaultPlan::crash_restart(workers, mttf_ns, mttr_ns, horizon_ns.max(1.0), seed))
        }
        _ => Err(ArgError(format!(
            "unknown --faults spec `{spec}` (none|outage|slow:MULT:N|crash:MTTF:MTTR)"
        ))),
    }
}

fn spmv(args: &ParsedArgs) -> Result<String, ArgError> {
    let rows: usize = args.number_or("rows", 4_096)?;
    let seed: u64 = args.number_or("seed", 7)?;
    let vector_size: usize = args.number_or("vector-size", 2_048)?;
    if rows == 0 {
        return Err(ArgError("--rows must be non-zero".into()));
    }
    if vector_size < 2 {
        return Err(ArgError(
            "--vector-size must be at least 2: a 1-stream merge round never \
             shrinks the stream count"
                .into(),
        ));
    }
    let generator = args.get_or("gen", "rmat");
    let (matrix, label) = if let Some(path) = args.get("mtx") {
        let matrix = fafnir_sparse::mtx::read_file(std::path::Path::new(path))
            .map_err(|e| ArgError(e.to_string()))?;
        (matrix, "mtx file")
    } else {
        let matrix = match generator {
            "uniform" => {
                let density: f64 = args.number_or("density", 0.01)?;
                gen::uniform(rows, rows, density, seed)
            }
            "rmat" => {
                let scale = rows.next_power_of_two().trailing_zeros();
                let nnz: usize = args.number_or("nnz", rows * 8)?;
                gen::rmat(scale.max(1), nnz, seed)
            }
            "banded" => gen::banded(rows, args.number_or("bandwidth", 4)?, seed),
            "spd" => gen::spd_banded(rows, args.number_or("bandwidth", 4)?, seed),
            other => return Err(ArgError(format!("unknown generator `{other}`"))),
        };
        (matrix, generator)
    };
    if let Some(spec) = args.get("partition") {
        return run_spmv_partitioned(&matrix, label, spec, vector_size, args);
    }
    run_spmv_report(&matrix, label, vector_size)
}

fn run_spmv_partitioned(
    matrix: &fafnir_sparse::CooMatrix,
    label: &str,
    spec: &str,
    vector_size: usize,
    args: &ParsedArgs,
) -> Result<String, ArgError> {
    use fafnir_sparse::{
        execute_partitioned, stream_partitioned, PartitionReport, PartitionStrategy, SpmvPartition,
    };
    let ranks: usize = args.number_or("ranks", 8)?;
    if ranks == 0 {
        return Err(ArgError("--ranks must be non-zero".into()));
    }
    let strategy = match spec {
        "row" => PartitionStrategy::RowBlock,
        "nnz" => PartitionStrategy::NnzBalancedRows,
        "col" => PartitionStrategy::ColumnBlock,
        "grid" => PartitionStrategy::grid(ranks),
        other => {
            return Err(ArgError(format!("unknown --partition `{other}` (row|nnz|col|grid)")));
        }
    };
    // Surface oversubscription as a flag error, not a panic downstream.
    let fits = match strategy {
        PartitionStrategy::RowBlock | PartitionStrategy::NnzBalancedRows => ranks <= matrix.rows(),
        PartitionStrategy::ColumnBlock => ranks <= matrix.cols(),
        PartitionStrategy::Grid { row_ranks, col_ranks } => {
            row_ranks <= matrix.rows() && col_ranks <= matrix.cols()
        }
    };
    if !fits {
        return Err(ArgError(format!(
            "--ranks {ranks} oversubscribes a {} x {} matrix under --partition {spec}",
            matrix.rows(),
            matrix.cols()
        )));
    }
    let partition = SpmvPartition::new(matrix, strategy, ranks);
    let x = vec![1.0; matrix.cols()];
    let run = if args.switch("stream") {
        stream_partitioned(matrix, &x, &partition, vector_size)
    } else {
        execute_partitioned(matrix, &x, &partition, vector_size)
    };
    let serial = fafnir_spmv::execute(&LilMatrix::from(matrix), &x, vector_size);
    let timing = SpmvTiming::paper();
    let report = PartitionReport::new(&run, &serial, &timing, &matrix.multiply_dense(&x));
    if args.switch("json") {
        return Ok(format!("{}\n", report.to_json()));
    }
    Ok(format!(
        "spmv: `{label}` matrix partitioned {} ways ({}{})\n{}",
        ranks,
        spec,
        if args.switch("stream") { ", streaming driver" } else { "" },
        report.render_table()
    ))
}

fn run_spmv_report(
    matrix: &fafnir_sparse::CooMatrix,
    generator: &str,
    vector_size: usize,
) -> Result<String, ArgError> {
    let profile = fafnir_sparse::MatrixProfile::of(matrix);
    let lil = LilMatrix::from(matrix);
    let x = vec![1.0; matrix.cols()];
    let timing = SpmvTiming::paper();
    let fafnir = fafnir_spmv::execute(&lil, &x, vector_size);
    let baseline = two_step::execute(&lil, &x, vector_size);
    Ok(format!(
        "spmv: `{generator}` matrix — {}\n\
         spmv: {} x {} matrix, {} nnz (density {:.4} %)\n\
         plan        : {:?} rounds per iteration ({} merge iterations)\n\
         fafnir      : {:>10.2} us ({} multiplies, {} adds)\n\
         two-step    : {:>10.2} us\n\
         speedup     : {:.2}x\n",
        profile.summary(),
        matrix.rows(),
        matrix.cols(),
        matrix.nnz(),
        matrix.density() * 100.0,
        fafnir.plan.rounds_per_iteration,
        fafnir.plan.merge_iterations(),
        timing.fafnir_ns(&fafnir) / 1e3,
        fafnir.ops.multiplies,
        fafnir.ops.adds,
        timing.two_step_ns(&baseline) / 1e3,
        two_step::speedup(&timing, &fafnir, &baseline),
    ))
}

fn report(args: &ParsedArgs) -> Result<String, ArgError> {
    let ranks: usize = args.number_or("ranks", 32)?;
    let ratio: usize = args.number_or("ratio", 2)?;
    let cores: usize = args.number_or("cores", 4)?;
    let _ = memory_for(ranks)?;
    let config = FafnirConfig { ranks_per_leaf: ratio, ..FafnirConfig::paper_default() };
    config.validate().map_err(|e| ArgError(e.to_string()))?;
    if !ranks.is_multiple_of(ratio) || !(ranks / ratio).is_power_of_two() {
        return Err(ArgError(format!("ranks {ranks} incompatible with ratio 1PE:{ratio}R")));
    }
    Ok(DeploymentSummary::new(&config, ranks, cores).render())
}

fn anatomy(args: &ParsedArgs) -> Result<String, ArgError> {
    use fafnir_core::inject::{build_rank_inputs_with, GatheredVector};
    use fafnir_core::{PeTiming, ReductionTree};
    let batch_size: usize = args.number_or("batch", 4)?;
    let query_len: usize = args.number_or("query-len", 8)?;
    let ranks: usize = args.number_or("ranks", 8)?;
    let skew: f64 = args.number_or("skew", 1.15)?;
    let universe: u64 = args.number_or("universe", 2_000)?;
    let seed: u64 = args.number_or("seed", 7)?;
    let _ = memory_for(ranks)?;
    let config = FafnirConfig {
        vector_dim: 8,
        ranks_per_leaf: ranks.min(2),
        ..FafnirConfig::paper_default()
    };
    let tree = ReductionTree::new(config, ranks).map_err(|e| ArgError(e.to_string()))?;
    let mut generator = BatchGenerator::new(
        if skew == 0.0 { Popularity::Uniform } else { Popularity::Zipf { exponent: skew } },
        universe,
        query_len,
        seed,
    );
    let batch = generator.batch(batch_size);
    let gathered: Vec<GatheredVector> = batch
        .unique_indices()
        .iter()
        .map(|index| GatheredVector {
            index,
            rank: index.value() as usize % ranks,
            value: vec![1.0; 8].into(),
            ready_ns: 60.0 + f64::from(index.value() % 64),
        })
        .collect();
    let operator = config.op.operator();
    let inputs = build_rank_inputs_with(
        &batch,
        &gathered,
        ranks,
        config.ranks_per_leaf,
        &*operator,
        &PeTiming::default(),
    );
    let (run, trace) = tree.run_traced(&*operator, inputs);
    let mut out = format!(
        "anatomy: {batch_size} queries x {query_len} indices over {ranks} ranks \
         ({} PEs, {} levels)\n\n",
        tree.pe_count(),
        tree.levels()
    );
    out.push_str(&trace.render_waterfall(56));
    out.push_str("\nper-level roll-up (level, reduces, forwards, outputs):\n");
    for (level, reduces, forwards, outputs) in trace.level_summary() {
        out.push_str(&format!("  L{level}: r{reduces} f{forwards} out {outputs}\n"));
    }
    out.push_str(&format!(
        "completion {:.0} ns, {} incomplete outputs\n",
        run.stats.completion_ns, run.stats.incomplete_outputs
    ));
    Ok(out)
}

fn selftest(args: &ParsedArgs) -> Result<String, ArgError> {
    use fafnir_core::{verify_engine, FafnirEngine};
    let ranks: usize = args.number_or("ranks", 32)?;
    let ratio: usize = args.number_or("ratio", 2)?;
    let batch_count: usize = args.number_or("batches", 6)?;
    let seed: u64 = args.number_or("seed", 7)?;
    let mem = memory_for(ranks)?;
    let config = FafnirConfig { ranks_per_leaf: ratio, ..FafnirConfig::paper_default() };
    let engine = FafnirEngine::new(config, mem).map_err(|e| ArgError(e.to_string()))?;
    let source = StripedSource::new(mem.topology, 128);
    let mut generator = BatchGenerator::new(Popularity::Zipf { exponent: 1.15 }, 2_000, 16, seed);
    let batches: Vec<_> = (0..batch_count.max(1)).map(|_| generator.batch(16)).collect();
    let report = verify_engine(&engine, &source, &batches);
    Ok(format!("{}\n", report.summary()))
}

fn energy(args: &ParsedArgs) -> Result<String, ArgError> {
    use fafnir_core::model::energy::TreeEnergyModel;
    use fafnir_core::FafnirEngine;
    use fafnir_mem::EnergyModel;
    let batch_size: usize = args.number_or("batch", 32)?;
    let query_len: usize = args.number_or("query-len", 16)?;
    let skew: f64 = args.number_or("skew", 1.15)?;
    let universe: u64 = args.number_or("universe", 2_000)?;
    let seed: u64 = args.number_or("seed", 7)?;
    let mem = MemoryConfig::ddr4_2400_4ch();
    let source = StripedSource::new(mem.topology, 128);
    let mut generator = BatchGenerator::new(
        if skew == 0.0 { Popularity::Uniform } else { Popularity::Zipf { exponent: skew } },
        universe,
        query_len,
        seed,
    );
    let batch = generator.batch(batch_size);
    let dram_model = EnergyModel::ddr4();
    let tree_model = TreeEnergyModel::asap7();
    let mut out = format!(
        "energy: {batch_size} queries x {query_len} indices ({:.0} % unique)\n",
        batch.unique_fraction() * 100.0
    );
    for (name, dedup) in [("with dedup", true), ("without dedup", false)] {
        let config = FafnirConfig { dedup, ..FafnirConfig::paper_default() };
        let engine = FafnirEngine::new(config, mem).map_err(|e| ArgError(e.to_string()))?;
        let result = engine.lookup(&batch, &source).map_err(|e| ArgError(e.to_string()))?;
        let dram_nj = dram_model.dynamic_nj(&result.memory);
        let tree_nj = tree_model.tree_energy_nj(&result.tree.ops);
        out.push_str(&format!(
            "  {name:<14} DRAM {dram_nj:>8.0} nJ + tree {tree_nj:>6.1} nJ = {:>8.0} nJ \
             ({} vector reads)\n",
            dram_nj + tree_nj,
            result.traffic.vectors_read
        ));
    }
    Ok(out)
}

fn trace(args: &ParsedArgs) -> Result<String, ArgError> {
    if let Some(count) = args.get("record") {
        let count: usize =
            count.parse().map_err(|_| ArgError(format!("--record: `{count}` is not a number")))?;
        let skew: f64 = args.number_or("skew", 1.15)?;
        let universe: u64 = args.number_or("universe", 2_000)?;
        let query_len: usize = args.number_or("query-len", 16)?;
        let seed: u64 = args.number_or("seed", 7)?;
        let mut generator = BatchGenerator::new(
            if skew == 0.0 { Popularity::Uniform } else { Popularity::Zipf { exponent: skew } },
            universe,
            query_len,
            seed,
        );
        return Ok(QueryTrace::record(&mut generator, count).to_text());
    }
    if let Some(path) = args.get("distances") {
        let text = std::fs::read_to_string(path)
            .map_err(|e| ArgError(format!("cannot read `{path}`: {e}")))?;
        let trace = QueryTrace::from_text(&text).map_err(|e| ArgError(e.to_string()))?;
        let distances = trace.reuse_distances();
        let mut out = format!(
            "reuse distances over {} references ({} cold):\n",
            distances.references, distances.cold
        );
        for (bucket, &count) in distances.buckets.iter().enumerate() {
            let low = if bucket == 0 { 0 } else { 1u64 << bucket };
            let high = (1u64 << (bucket + 1)) - 1;
            out.push_str(&format!("  [{low:>6}..{high:>6}] {count}\n"));
        }
        out.push_str("idealized LRU hit rate by cache size (vectors):\n");
        for capacity in [64usize, 256, 1_024, 4_096] {
            out.push_str(&format!(
                "  {capacity:>5} entries ({:>4} KB at 512 B): {:.1} %\n",
                capacity * 512 / 1024,
                distances.lru_hit_rate(capacity) * 100.0
            ));
        }
        return Ok(out);
    }
    if let Some(path) = args.get("stats") {
        let text = std::fs::read_to_string(path)
            .map_err(|e| ArgError(format!("cannot read `{path}`: {e}")))?;
        let trace = QueryTrace::from_text(&text).map_err(|e| ArgError(e.to_string()))?;
        let reuse = trace.reuse_stats(5);
        let mut out = format!(
            "trace: {} queries, {} references, {} distinct indices \
             ({:.1} % unique)\nhottest indices:\n",
            trace.len(),
            reuse.references,
            reuse.distinct,
            reuse.unique_fraction() * 100.0
        );
        for (index, count) in &reuse.hottest {
            out.push_str(&format!("  v{index:<8} {count} references\n"));
        }
        return Ok(out);
    }
    Err(ArgError("trace needs --record N, --stats FILE, or --distances FILE".into()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_line(line: &str) -> Result<String, ArgError> {
        run(&ParsedArgs::parse(line.split_whitespace().map(String::from)).unwrap())
    }

    #[test]
    fn lookup_reports_all_engines() {
        let out = run_line("lookup --batch 4 --query-len 4 --seed 1").unwrap();
        for name in ["fafnir", "recnmp", "tensordimm", "no-ndp"] {
            assert!(out.contains(name), "missing {name} in:\n{out}");
        }
    }

    #[test]
    fn lookup_single_engine_and_no_dedup() {
        let out = run_line("lookup --batch 4 --query-len 4 --engine fafnir --no-dedup").unwrap();
        assert!(out.contains("fafnir"));
        assert!(!out.contains("recnmp"));
    }

    #[test]
    fn lookup_accepts_every_reduce_op() {
        for op in ["sum", "mean", "max", "min", "argmax", "topk:4"] {
            let out = run_line(&format!("lookup --batch 4 --query-len 4 --op {op}")).unwrap();
            assert!(out.contains("fafnir"), "--op {op}:\n{out}");
        }
    }

    #[test]
    fn serve_accepts_reduce_ops() {
        let out = run_line(
            "serve --rate 2e6 --policy deadline --max-wait-ns 20000 \
             --workers 2 --duration-queries 48 --seed 7 --op mean",
        )
        .unwrap();
        assert!(out.contains("p50"), "{out}");
    }

    #[test]
    fn op_flag_rejects_garbage_and_duplicates() {
        for bad in ["bogus", "topk:0", "topk:x", "topk:"] {
            let error = run_line(&format!("lookup --op {bad}")).unwrap_err();
            assert!(error.0.contains("--op"), "`{bad}` must fail on --op: {error}");
        }
        assert!(run_line("serve --op bogus --duration-queries 8").unwrap_err().0.contains("--op"));
        let duplicate = crate::args::ParsedArgs::parse(
            "lookup --op sum --op mean".split_whitespace().map(String::from),
        )
        .unwrap_err();
        assert!(duplicate.0.contains("twice"), "{duplicate}");
    }

    #[test]
    fn memory_model_flag_selects_fast_mode_on_lookup_and_serve() {
        let fast =
            run_line("lookup --batch 4 --query-len 4 --engine fafnir --memory-model fast").unwrap();
        assert!(fast.contains("fafnir"), "{fast}");
        let serve = run_line(
            "serve --rate 2e6 --policy deadline --max-wait-ns 20000 \
             --workers 2 --duration-queries 48 --seed 7 --memory-model fast",
        )
        .unwrap();
        assert!(serve.contains("p50"), "{serve}");
    }

    #[test]
    fn memory_model_flag_rejects_garbage_and_duplicates() {
        for bad in ["bogus", "FAST", "cycle-accurate"] {
            let error = run_line(&format!("lookup --memory-model {bad}")).unwrap_err();
            assert!(error.0.contains("--memory-model"), "`{bad}` must fail on flag: {error}");
        }
        assert!(run_line("serve --memory-model bogus --duration-queries 8")
            .unwrap_err()
            .0
            .contains("--memory-model"));
        let duplicate = crate::args::ParsedArgs::parse(
            "lookup --memory-model fast --memory-model cycle".split_whitespace().map(String::from),
        )
        .unwrap_err();
        assert!(duplicate.0.contains("twice"), "{duplicate}");
    }

    #[test]
    fn cluster_reports_sharding_and_latency_metrics() {
        let out = run_line(
            "cluster --shards 4 --strategy rowrange --rate 2e6 --workers 2 \
             --duration-queries 48 --seed 7 --memory-model fast",
        )
        .unwrap();
        for needle in ["shards", "rowrange", "shard imbalance", "cross-shard traffic", "p50"] {
            assert!(out.contains(needle), "missing `{needle}` in:\n{out}");
        }
    }

    #[test]
    fn cluster_runs_under_both_memory_models_and_json_is_deterministic() {
        for model in ["cycle", "fast"] {
            let line = format!(
                "cluster --shards 2 --strategy rowhash --replicate-hot 0.02 --rate 2e6 \
                 --workers 2 --duration-queries 32 --seed 7 --memory-model {model} --json"
            );
            let first = run_line(&line).unwrap();
            let second = run_line(&line).unwrap();
            assert_eq!(first, second, "--memory-model {model}");
            assert!(first.contains("\"strategy\": \"rowhash\""), "{first}");
        }
    }

    #[test]
    fn shards_flag_rejects_zero_garbage_and_duplicates() {
        let zero = run_line("cluster --shards 0 --duration-queries 8").unwrap_err();
        assert!(zero.0.contains("--shards"), "{zero}");
        assert!(zero.0.contains("at least 1"), "{zero}");
        for bad in ["bogus", "-1", "1.5"] {
            let error = run_line(&format!("cluster --shards {bad}")).unwrap_err();
            assert!(error.0.contains("shards"), "`{bad}` must fail on --shards: {error}");
        }
        let duplicate = crate::args::ParsedArgs::parse(
            "cluster --shards 2 --shards 4".split_whitespace().map(String::from),
        )
        .unwrap_err();
        assert!(duplicate.0.contains("twice"), "{duplicate}");
    }

    #[test]
    fn strategy_flag_rejects_garbage_and_duplicates() {
        for bad in ["bogus", "ROWHASH", "range"] {
            let error = run_line(&format!("cluster --strategy {bad}")).unwrap_err();
            assert!(error.0.contains("strategy"), "`{bad}` must fail on --strategy: {error}");
        }
        let duplicate = crate::args::ParsedArgs::parse(
            "cluster --strategy rowhash --strategy rowrange".split_whitespace().map(String::from),
        )
        .unwrap_err();
        assert!(duplicate.0.contains("twice"), "{duplicate}");
    }

    #[test]
    fn replicate_hot_flag_rejects_garbage_and_duplicates() {
        for bad in ["bogus", "-0.5", "1.5", "2"] {
            let error = run_line(&format!("cluster --replicate-hot {bad}")).unwrap_err();
            assert!(
                error.0.contains("replicate-hot"),
                "`{bad}` must fail on --replicate-hot: {error}"
            );
        }
        let duplicate = crate::args::ParsedArgs::parse(
            "cluster --replicate-hot 0.1 --replicate-hot 0.2".split_whitespace().map(String::from),
        )
        .unwrap_err();
        assert!(duplicate.0.contains("twice"), "{duplicate}");
    }

    #[test]
    fn router_flag_rejects_garbage() {
        let error = run_line("cluster --router bogus").unwrap_err();
        assert!(error.0.contains("--router"), "{error}");
        let ok = run_line(
            "cluster --shards 2 --router leastloaded --duration-queries 16 \
             --workers 2 --memory-model fast",
        )
        .unwrap();
        assert!(ok.contains("leastloaded"), "{ok}");
    }

    #[test]
    fn lookup_interactive_mode_annotates() {
        let out = run_line("lookup --batch 2 --query-len 4 --engine fafnir --interactive").unwrap();
        assert!(out.contains("fafnir*"));
        assert!(out.contains("interactive mode"));
    }

    #[test]
    fn lookup_rejects_bad_ranks() {
        let error = run_line("lookup --ranks 3").unwrap_err();
        assert!(error.0.contains("power of two"));
    }

    #[test]
    fn serve_reports_load_latency_and_dram_metrics() {
        let out = run_line(
            "serve --rate 2e6 --policy deadline --max-wait-ns 20000 \
             --workers 2 --duration-queries 48 --seed 7",
        )
        .unwrap();
        for needle in ["deadline policy", "p50", "p99", "reads per query", "shed"] {
            assert!(out.contains(needle), "missing `{needle}` in:\n{out}");
        }
    }

    #[test]
    fn serve_json_is_deterministic_across_runs() {
        let line = "serve --rate 2e6 --policy adaptive --batch 16 --max-wait-ns 10000 \
                    --duration-queries 48 --seed 7 --json";
        let first = run_line(line).unwrap();
        let second = run_line(line).unwrap();
        assert_eq!(first, second, "serve --json must be byte-identical across runs");
        for key in ["\"policy\": \"adaptive\"", "\"p99_ns\"", "\"dram_reads_per_query\""] {
            assert!(first.contains(key), "missing {key} in:\n{first}");
        }
        // A different seed must actually change the run.
        let other = run_line(&line.replace("--seed 7", "--seed 8")).unwrap();
        assert_ne!(first, other);
    }

    #[test]
    fn serve_rejects_unknown_enums_and_degenerate_configs() {
        assert!(run_line("serve --policy bogus").unwrap_err().0.contains("policy"));
        assert!(run_line("serve --process bogus").unwrap_err().0.contains("process"));
        assert!(run_line("serve --shed bogus").unwrap_err().0.contains("shed"));
        assert!(run_line("serve --workers 0 --duration-queries 8").is_err());
        assert!(run_line("serve --rate -5 --duration-queries 8").is_err());
        assert!(run_line("serve --faults bogus").unwrap_err().0.contains("--faults"));
        assert!(run_line("serve --faults slow:4").unwrap_err().0.contains("--faults"));
        assert!(run_line("serve --faults slow:4:9 --workers 2").is_err());
        assert!(run_line("serve --faults crash:0:100 --duration-queries 8").is_err());
        assert!(run_line("serve --timeout-ns -1 --duration-queries 8").is_err());
    }

    #[test]
    fn serve_fault_flags_surface_resilience_metrics() {
        let line = "serve --rate 2e6 --policy deadline --max-wait-ns 20000 --workers 2 \
                    --duration-queries 64 --seed 7 --faults slow:8:1 --hedge-ns 3000 --json";
        let out = run_line(line).unwrap();
        for key in ["\"hedges\"", "\"hedge_wins\"", "\"worker_availability\"", "\"p999_ns\""] {
            assert!(out.contains(key), "missing {key} in:\n{out}");
        }
        assert_eq!(out, run_line(line).unwrap(), "faulty serve runs must be deterministic");

        let table = run_line(
            "serve --rate 2e6 --workers 2 --duration-queries 64 \
             --faults crash:20000:10000 --retries 3 --timeout-ns 50000",
        )
        .unwrap();
        assert!(table.contains("resilience"), "table must show the resilience row:\n{table}");
    }

    #[test]
    fn serve_total_outage_sheds_everything_with_null_latency() {
        let out =
            run_line("serve --rate 2e6 --workers 2 --duration-queries 32 --faults outage --json")
                .unwrap();
        assert!(out.contains("\"served\": 0"), "outage must serve nothing:\n{out}");
        assert!(out.contains("\"latency\": null"), "empty sample must be null:\n{out}");
    }

    #[test]
    fn spmv_runs_each_generator() {
        for generator in ["uniform", "rmat", "banded", "spd"] {
            let out = run_line(&format!("spmv --gen {generator} --rows 128 --seed 2")).unwrap();
            assert!(out.contains("speedup"), "{generator}:\n{out}");
        }
        assert!(run_line("spmv --gen bogus").is_err());
    }

    #[test]
    fn spmv_loads_matrix_market_files() {
        let text = "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n2 2 2.0\n";
        let path = std::env::temp_dir().join("fafnir-cli-test.mtx");
        std::fs::write(&path, text).unwrap();
        let out = run_line(&format!("spmv --mtx {}", path.display())).unwrap();
        assert!(out.contains("2 x 2"), "{out}");
        assert!(out.contains("speedup"));
        std::fs::remove_file(&path).ok();
        assert!(run_line("spmv --mtx /does/not/exist.mtx").is_err());
    }

    #[test]
    fn spmv_runs_each_partition_strategy() {
        for strategy in ["row", "nnz", "col", "grid"] {
            let line =
                format!("spmv --gen rmat --rows 128 --partition {strategy} --ranks 4 --seed 3");
            let out = run_line(&line).unwrap();
            assert!(out.contains("nnz imbalance"), "{strategy}:\n{out}");
            assert!(out.contains("ideal 4x"), "{strategy}:\n{out}");
        }
    }

    #[test]
    fn spmv_partition_streams_and_serializes() {
        let out =
            run_line("spmv --gen banded --rows 256 --partition nnz --ranks 4 --stream --seed 3")
                .unwrap();
        assert!(out.contains("streaming driver"), "{out}");
        let json =
            run_line("spmv --gen banded --rows 256 --partition col --ranks 4 --json --seed 3")
                .unwrap();
        assert!(json.contains("\"strategy\": \"col\""), "{json}");
        assert!(json.contains("\"sync_entries\""), "{json}");
    }

    #[test]
    fn spmv_partition_flags_reject_garbage() {
        assert!(run_line("spmv --partition diagonal").unwrap_err().0.contains("diagonal"));
        assert!(run_line("spmv --partition row --ranks x").is_err());
        assert!(run_line("spmv --partition row --ranks 0").is_err());
        // Oversubscription is a flag error, not a panic.
        let err = run_line("spmv --gen banded --rows 4 --partition row --ranks 64").unwrap_err();
        assert!(err.0.contains("oversubscribes"), "{err}");
        // Duplicate flags are rejected by the parser.
        let parse = ParsedArgs::parse(
            "spmv --partition row --partition col".split_whitespace().map(String::from),
        );
        assert!(parse.unwrap_err().0.contains("twice"));
        let parse =
            ParsedArgs::parse("spmv --stream --stream".split_whitespace().map(String::from));
        assert!(parse.unwrap_err().0.contains("twice"));
    }

    #[test]
    fn spmv_rejects_vector_size_one() {
        let err = run_line("spmv --gen banded --rows 64 --vector-size 1").unwrap_err();
        assert!(err.0.contains("at least 2"), "{err}");
    }

    #[test]
    fn report_matches_paper_floorplan() {
        let out = run_line("report --ranks 32 --ratio 2").unwrap();
        assert!(out.contains("31"));
        assert!(out.contains("1.25 mm2"));
        assert!(run_line("report --ranks 32 --ratio 3").is_err());
    }

    #[test]
    fn trace_record_round_trips_through_stats() {
        let text = run_line("trace --record 10 --query-len 4 --seed 3").unwrap();
        let dir = std::env::temp_dir().join("fafnir-cli-test-trace.txt");
        std::fs::write(&dir, &text).unwrap();
        let out = run_line(&format!("trace --stats {}", dir.display())).unwrap();
        assert!(out.contains("10 queries"));
        assert!(out.contains("hottest"));
        std::fs::remove_file(&dir).ok();
    }

    #[test]
    fn trace_distances_prints_lru_curve() {
        let text = run_line("trace --record 30 --query-len 8 --seed 5").unwrap();
        let path = std::env::temp_dir().join("fafnir-cli-test-dist.txt");
        std::fs::write(&path, &text).unwrap();
        let out = run_line(&format!("trace --distances {}", path.display())).unwrap();
        assert!(out.contains("LRU hit rate"), "{out}");
        assert!(out.contains("256 entries"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn selftest_passes_on_valid_configs_and_fails_cleanly_on_bad_ones() {
        let out = run_line("selftest --ranks 16 --ratio 2 --batches 2").unwrap();
        assert!(out.starts_with("PASS"), "{out}");
        assert!(run_line("selftest --ranks 16 --ratio 3").is_err());
    }

    #[test]
    fn energy_reports_dedup_savings() {
        let out = run_line("energy --batch 8 --query-len 8 --seed 4").unwrap();
        assert!(out.contains("with dedup"), "{out}");
        assert!(out.contains("without dedup"));
        assert!(out.contains("nJ"));
    }

    #[test]
    fn anatomy_renders_a_waterfall() {
        let out = run_line("anatomy --batch 3 --query-len 4 --ranks 8 --seed 9").unwrap();
        assert!(out.contains("L0 PE0"), "{out}");
        assert!(out.contains("per-level roll-up"));
        assert!(out.contains("0 incomplete"));
    }

    #[test]
    fn usage_lists_every_dispatched_command() {
        let usage = usage();
        for (name, _) in COMMANDS {
            assert!(
                usage.lines().any(|line| line.trim_start().starts_with(&format!("{name} "))),
                "`{name}` is dispatched but missing from usage:\n{usage}"
            );
        }
    }

    #[test]
    fn anatomy_header_is_one_clean_line() {
        use fafnir_core::ReductionTree;
        for ranks in [8usize, 32] {
            let out =
                run_line(&format!("anatomy --batch 3 --query-len 4 --ranks {ranks}")).unwrap();
            let config = FafnirConfig { vector_dim: 8, ..FafnirConfig::paper_default() };
            let tree = ReductionTree::new(config, ranks).unwrap();
            let header = format!(
                "anatomy: 3 queries x 4 indices over {ranks} ranks ({} PEs, {} levels)",
                tree.pe_count(),
                tree.levels()
            );
            assert_eq!(out.lines().next(), Some(header.as_str()));
        }
    }

    #[test]
    fn unknown_command_suggests_help() {
        assert!(run_line("frobnicate").unwrap_err().0.contains("help"));
        assert!(run_line("help").unwrap().contains("USAGE"));
    }
}
