//! The repository benchmark.
//!
//! One process runs one workload on one thread:
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve-zipf-fast --seed 1 --seconds 10 --trace 0
//! ```
//!
//! A run sets the workload up several times (`setup_s` is the median), runs
//! it once untimed to check its outputs against the software reference and
//! to fix the modeled statistics every later repetition must repeat, checks
//! a second seed the same way, then repeats the workload for `--seconds`.
//! Host-clock figures are medians over the repetitions.
//!
//! With `--trace 0` the last line of standard output is a JSON object with
//! the end-to-end metrics ([`metrics::END_TO_END`]); with `--trace 1` a
//! traced repetition follows every untraced one and the JSON holds the
//! per-layer metrics ([`metrics::PER_LAYER`]). Spans are timed around calls
//! into each layer's public functions, from this crate only. The lines
//! before it name the host and print every metric measured, with its unit.
//!
//! Exit status: 0 when every check passed, 1 when a correctness,
//! determinism or trace-consistency check failed, 2 for bad arguments.

mod metrics;
mod serving;
mod spmv;

use std::path::Path;
use std::process::{Command, ExitCode};

use metrics::{Run, END_TO_END, PER_LAYER};

/// A workload: its name, the memory model it runs, and its entry point.
type Workload = (&'static str, &'static str, fn(u64, f64, bool) -> Run);

const WORKLOADS: &[Workload] = &[
    ("serve-zipf-fast", "fast", serving::serve_zipf_fast),
    ("cluster-uniform-cycle", "cycle", serving::cluster_uniform_cycle),
    ("spmv-rmat-partitioned", "none", spmv::spmv_rmat_partitioned),
];

const USAGE: &str =
    "usage: fafnir-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let slot = match flag.as_str() {
            "--workload" => &mut workload,
            "--seed" => &mut seed,
            "--seconds" => &mut seconds,
            "--trace" => &mut trace,
            _ => return Err(format!("unknown argument {flag}")),
        };
        if slot.replace(value).is_some() {
            return Err(format!("{flag} given twice"));
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let workload = WORKLOADS
        .iter()
        .find(|(name, _, _)| *name == workload)
        .ok_or_else(|| format!("unknown workload {workload}"))?;
    let seed = seed.ok_or("--seed is required")?;
    let seed = seed.parse().map_err(|_| format!("--seed {seed} is not a whole number"))?;
    let seconds = seconds.ok_or("--seconds is required")?;
    let seconds: f64 =
        seconds.parse().map_err(|_| format!("--seconds {seconds} is not a number"))?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err(format!("--seconds must be positive, got {seconds}"));
    }
    let trace = match trace.ok_or("--trace is required")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other}")),
    };
    Ok(Args { workload, seed, seconds, trace })
}

/// Host peak resident memory of this process.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kib = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .unwrap_or(0.0);
    kib / 1024.0
}

/// First line of a command's standard output, or `unknown`.
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .and_then(|text| text.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".into())
}

/// The host metadata every result carries, so that host-clock figures from
/// different hosts are not compared unawares.
fn host_line(memory_model: &str) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let rustc = command_line("rustc", &["--version"]);
    // Only ask git inside a checkout's own repository, never a parent's.
    let git_rev = if Path::new(".git").exists() {
        command_line("git", &["rev-parse", "HEAD"])
    } else {
        "unknown".into()
    };
    format!("host nproc={nproc} rustc=\"{rustc}\" git_rev={git_rev} memory_model={memory_model}")
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("error: {message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let &(name, memory_model, workload) = args.workload;
    println!(
        "workload {name} seed {} seconds {} trace {}",
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("{}", host_line(memory_model));

    let mut run = workload(args.seed, args.seconds, args.trace);
    run.set("peak_rss_mib", peak_rss_mib());
    for &(metric, unit) in END_TO_END.iter().chain(PER_LAYER) {
        if let Some(value) = run.values.get(metric) {
            println!("metric {metric} {value} {unit}");
            if !value.is_finite() {
                run.problems.push(format!("{metric} is not a finite number"));
            }
        }
    }
    for problem in &run.problems {
        println!("check failed: {problem}");
    }

    let correct = run.problems.is_empty();
    let declared = if args.trace { PER_LAYER } else { END_TO_END };
    let metrics: Vec<String> = declared
        .iter()
        .map(|&(metric, unit)| {
            let value = run.values.get(metric).copied().filter(|v| v.is_finite()).unwrap_or(0.0);
            format!("\"{metric}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        run.attempted,
        run.failed,
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
