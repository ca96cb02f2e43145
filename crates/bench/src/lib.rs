//! # fafnir-bench — shared harness for the table/figure benchmarks
//!
//! Each `benches/*.rs` target regenerates one table or figure of the paper
//! (see DESIGN.md's per-experiment index). This library holds the shared
//! pieces: aligned table printing, the calibrated paper-traffic generator,
//! engine constructors, and the regression guard that records a bench's
//! `BENCH_*.json`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use fafnir_baselines::{NoNdpEngine, RecNmpEngine, TensorDimmEngine};
use fafnir_core::{FafnirConfig, FafnirEngine};
use fafnir_mem::MemoryConfig;
use fafnir_workloads::query::{BatchGenerator, Popularity};

/// Prints a title banner for one experiment.
pub fn banner(experiment: &str, claim: &str) {
    println!("\n=== {experiment} ===");
    println!("paper: {claim}");
    println!();
}

/// Prints an aligned text table. Set `FAFNIR_CSV=1` to emit CSV instead
/// (for plotting pipelines).
///
/// # Panics
///
/// Panics if any row's width differs from the header's.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    if std::env::var_os("FAFNIR_CSV").is_some_and(|v| v == "1") {
        let escape = |cell: &str| {
            if cell.contains(',') || cell.contains('"') {
                format!("\"{}\"", cell.replace('"', "\"\""))
            } else {
                cell.to_string()
            }
        };
        println!("{}", headers.iter().map(|h| escape(h)).collect::<Vec<_>>().join(","));
        for row in rows {
            assert_eq!(row.len(), headers.len(), "row width mismatch");
            println!("{}", row.iter().map(|c| escape(c)).collect::<Vec<_>>().join(","));
        }
        return;
    }
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        assert_eq!(row.len(), headers.len(), "row width mismatch");
        for (width, cell) in widths.iter_mut().zip(row) {
            *width = (*width).max(cell.len());
        }
    }
    let line = |cells: Vec<String>| {
        let mut out = String::new();
        for (cell, width) in cells.iter().zip(&widths) {
            out.push_str(&format!("{cell:>width$}  "));
        }
        println!("{}", out.trim_end());
    };
    line(headers.iter().map(|h| (*h).to_string()).collect());
    line(widths.iter().map(|w| "-".repeat(*w)).collect());
    for row in rows {
        line(row.clone());
    }
}

/// The calibrated "production-like" traffic used across figures: Zipf(1.15)
/// over a 2 000-index hot working set, 16 indices per query — lands the
/// batch-dedup savings in the paper's 34 %/43 %/58 % band
/// (measured ≈35/46/56 % at batch 8/16/32).
#[must_use]
pub fn paper_traffic(seed: u64) -> BatchGenerator {
    BatchGenerator::new(Popularity::Zipf { exponent: 1.15 }, 2_000, 16, seed)
}

/// Uniform traffic over a large universe (the no-sharing contrast).
#[must_use]
pub fn uniform_traffic(seed: u64) -> BatchGenerator {
    BatchGenerator::new(Popularity::Uniform, 10_000_000, 16, seed)
}

/// The paper's 32-rank memory system.
#[must_use]
pub fn paper_memory() -> MemoryConfig {
    MemoryConfig::ddr4_2400_4ch()
}

/// All four lookup engines over one memory system.
///
/// # Panics
///
/// Panics if the FAFNIR configuration is rejected (cannot happen for the
/// defaults).
#[must_use]
pub fn engines(mem: MemoryConfig) -> (FafnirEngine, RecNmpEngine, TensorDimmEngine, NoNdpEngine) {
    (
        FafnirEngine::paper_default(mem).expect("valid default config"),
        RecNmpEngine::paper_default(mem),
        TensorDimmEngine::paper_default(mem),
        NoNdpEngine::paper_default(mem),
    )
}

/// FAFNIR with dedup disabled (the non-striped bars of Fig. 13).
///
/// # Panics
///
/// Panics if the configuration is rejected (cannot happen for the defaults).
#[must_use]
pub fn fafnir_without_dedup(mem: MemoryConfig) -> FafnirEngine {
    let config = FafnirConfig { dedup: false, ..FafnirConfig::paper_default() };
    FafnirEngine::new(config, mem).expect("valid config")
}

/// Formats a ratio as `x.xx×`.
#[must_use]
pub fn times(ratio: f64) -> String {
    format!("{ratio:.2}x")
}

/// Formats nanoseconds with a thousands-friendly unit.
#[must_use]
pub fn ns(value: f64) -> String {
    if value >= 1e6 {
        format!("{:.2} ms", value / 1e6)
    } else if value >= 1e3 {
        format!("{:.2} us", value / 1e3)
    } else {
        format!("{value:.0} ns")
    }
}

/// Pulls the number following `"key": ` out of a recorded JSON report.
fn extract_number(json: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\": ");
    let start = json.find(&needle)? + needle.len();
    let rest = &json[start..];
    let end = rest.find([',', '\n', '}']).unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

/// The guard decision: every `(key, new, recorded)` of `guarded` whose new
/// value fell below `tolerance` × the value `previous` records. A key the
/// recorded report lacks never counts as a regression.
fn regressions(previous: &str, guarded: &[(&str, f64)], tolerance: f64) -> Vec<(String, f64, f64)> {
    guarded
        .iter()
        .filter_map(|&(key, new)| {
            let old = extract_number(previous, key)?;
            (new < old * tolerance).then(|| (key.to_string(), new, old))
        })
        .collect()
}

/// Writes a bench's `json` report to `path`, unless a report already there
/// records a materially better value for one of the `guarded`
/// `(key, new value)` pairs — any new value below `tolerance` × the
/// recorded one. Then it names the regressed keys and exits with status 1;
/// passing `--force` to the bench accepts the regression and writes anyway.
///
/// # Panics
///
/// Panics if the report cannot be written.
pub fn record_guarded(path: &str, json: &str, guarded: &[(&str, f64)], tolerance: f64) {
    let force = std::env::args().any(|arg| arg == "--force");
    if let Ok(previous) = std::fs::read_to_string(path) {
        let regressed = regressions(&previous, guarded, tolerance);
        if !regressed.is_empty() && !force {
            let detail: Vec<String> = regressed
                .iter()
                .map(|(key, new, old)| format!("{key} {new:.3} vs recorded {old:.3}"))
                .collect();
            eprintln!(
                "refusing to overwrite {path}: result regressed vs the recorded run ({}); \
                 rerun with --force to accept",
                detail.join(", ")
            );
            std::process::exit(1);
        }
    }
    std::fs::write(path, json).unwrap_or_else(|error| panic!("write {path}: {error}"));
    println!("recorded {path}");
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The shape every guarded bench records: nested objects first, the
    /// guarded scalars last.
    const RECORDED: &str = "{\n  \"bench\": \"serving\",\n  \"windows\": [\n    \
        {\"window_ns\": 1000, \"dedup_savings\": 0.100000}\n  ],\n  \
        \"dedup_savings_widest\": 0.400000,\n  \"sim_queries_per_sec\": 50000\n}\n";

    #[test]
    fn guard_flags_a_regression_below_tolerance() {
        let regressed = regressions(RECORDED, &[("sim_queries_per_sec", 39_999.0)], 0.8);
        assert_eq!(regressed, vec![("sim_queries_per_sec".to_string(), 39_999.0, 50_000.0)]);
        // Within tolerance is not a regression.
        assert!(regressions(RECORDED, &[("sim_queries_per_sec", 40_000.0)], 0.8).is_empty());
    }

    #[test]
    fn guard_accepts_equal_and_improved_values() {
        let guarded = [("dedup_savings_widest", 0.4), ("sim_queries_per_sec", 50_000.0)];
        assert!(regressions(RECORDED, &guarded, 0.9).is_empty());
        let improved = [("dedup_savings_widest", 0.5), ("sim_queries_per_sec", 90_000.0)];
        assert!(regressions(RECORDED, &improved, 0.9).is_empty());
    }

    #[test]
    fn guard_ignores_keys_the_recorded_report_lacks() {
        assert!(regressions(RECORDED, &[("mean_recall", 0.0)], 0.9).is_empty());
        assert!(regressions("", &[("sim_queries_per_sec", 0.0)], 0.9).is_empty());
        // Only the recorded key of a mixed list is compared.
        let mixed = [("mean_recall", 0.0), ("dedup_savings_widest", 0.1)];
        assert_eq!(regressions(RECORDED, &mixed, 0.9).len(), 1);
    }

    #[test]
    fn extract_number_matches_whole_keys() {
        assert_eq!(extract_number(RECORDED, "sim_queries_per_sec"), Some(50_000.0));
        assert_eq!(extract_number(RECORDED, "dedup_savings"), Some(0.1));
        assert_eq!(extract_number(RECORDED, "bench"), None);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(times(2.5), "2.50x");
        assert_eq!(ns(120.0), "120 ns");
        assert_eq!(ns(4_500.0), "4.50 us");
        assert_eq!(ns(2_000_000.0), "2.00 ms");
    }

    #[test]
    fn engine_constructors_work() {
        let (fafnir, recnmp, tensordimm, no_ndp) = engines(paper_memory());
        use fafnir_core::GatherEngine;
        assert_eq!(fafnir.name(), "fafnir");
        assert_eq!(recnmp.name(), "recnmp");
        assert_eq!(tensordimm.name(), "tensordimm");
        assert_eq!(no_ndp.name(), "no-ndp");
    }

    #[test]
    fn csv_escaping_quotes_commas() {
        // print_table's CSV branch is driven by env; test the escape logic
        // indirectly through a tiny harness.
        let escape = |cell: &str| {
            if cell.contains(',') || cell.contains('"') {
                format!("\"{}\"", cell.replace('"', "\"\""))
            } else {
                cell.to_string()
            }
        };
        assert_eq!(escape("plain"), "plain");
        assert_eq!(escape("a,b"), "\"a,b\"");
        assert_eq!(escape("say \"hi\""), "\"say \"\"hi\"\"\"");
    }

    #[test]
    fn paper_traffic_is_skewed() {
        let mut generator = paper_traffic(1);
        let batch = generator.batch(32);
        assert!(batch.unique_fraction() < 0.9);
    }
}
