//! The SpMV workload (`spmv-rmat-partitioned`): a power-law R-MAT matrix
//! multiplied under a nnz-balanced 1D partition and a 2D grid partition,
//! both through `execute_partitioned`.

use std::time::Instant;

use fafnir_sparse::{
    execute_partitioned, gen, CooMatrix, PartitionStrategy, PartitionedRun, SpmvPartition,
    SpmvTiming,
};

use crate::metrics::{max_abs_diff, median, repeat_for, since, timed_setup, Run};

/// The matrix is `2^SCALE` square.
const SCALE: u32 = 16;
/// R-MAT edges drawn; duplicates merge, leaving about 0.96M nonzeros.
const EDGES: usize = 1 << 20;
const RANKS: usize = 16;
const VECTOR_SIZE: usize = 256;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Largest difference from `CooMatrix::multiply_dense` that still counts as
/// a match (the tree sums in another order).
const TOLERANCE: f64 = 1e-6;
/// Mixed into `--seed` for the extra-seed determinism check.
const EXTRA_SEED: u64 = 0x5EED;

/// The operands of one run.
struct Problem {
    matrix: CooMatrix,
    x: Vec<f64>,
}

impl Problem {
    fn new(seed: u64) -> Self {
        let matrix = gen::rmat(SCALE, EDGES, seed);
        let x = (0..matrix.cols()).map(|i| operand(seed, i)).collect();
        Self { matrix, x }
    }
}

/// A deterministic operand entry in [0.5, 1.5), mixed from seed and index
/// with the SplitMix64 finalizer.
fn operand(seed: u64, i: usize) -> f64 {
    let mut z = seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    0.5 + (z >> 11) as f64 / (1u64 << 53) as f64
}

/// The two partitioned multiplies of one repetition.
struct Pass {
    nnz: PartitionedRun,
    grid: PartitionedRun,
    partition_s: f64,
    execute_s: f64,
}

/// One repetition. Untraced, one clock spans the four calls; traced, each
/// call is timed on its own.
fn pass(problem: &Problem, traced: bool) -> (f64, Pass) {
    let Problem { matrix, x } = problem;
    let start = Instant::now();
    if !traced {
        let nnz = SpmvPartition::new(matrix, PartitionStrategy::NnzBalancedRows, RANKS);
        let grid = SpmvPartition::new(matrix, PartitionStrategy::grid(RANKS), RANKS);
        let nnz = execute_partitioned(matrix, x, &nnz, VECTOR_SIZE);
        let grid = execute_partitioned(matrix, x, &grid, VECTOR_SIZE);
        let total = since(start);
        return (total, Pass { nnz, grid, partition_s: 0.0, execute_s: 0.0 });
    }
    let mut partition_s = 0.0;
    let mut execute_s = 0.0;
    let mut multiply = |strategy| {
        let start = Instant::now();
        let partition = SpmvPartition::new(matrix, strategy, RANKS);
        partition_s += since(start);
        let start = Instant::now();
        let run = execute_partitioned(matrix, x, &partition, VECTOR_SIZE);
        execute_s += since(start);
        run
    };
    let nnz = multiply(PartitionStrategy::NnzBalancedRows);
    let grid = multiply(PartitionStrategy::grid(RANKS));
    let total = since(start);
    (total, Pass { nnz, grid, partition_s, execute_s })
}

/// The modeled statistics and output bits every repetition of one seed
/// must repeat exactly.
fn fingerprint(pass: &Pass, timing: &SpmvTiming) -> Vec<u64> {
    let mut print = Vec::new();
    for run in [&pass.nnz, &pass.grid] {
        print.extend(run.rank_ns(timing).into_iter().map(f64::to_bits));
        print.extend([run.sync_entries, run.sync_rounds as u64, run.total_ns(timing).to_bits()]);
        print.extend(run.y.iter().map(|v| v.to_bits()));
    }
    print
}

/// Compares both products with the dense reference; returns the products
/// that mismatched.
fn check_outputs(problem: &Problem, pass: &Pass, run: &mut Run) -> u64 {
    let reference = problem.matrix.multiply_dense(&problem.x);
    let mut mismatched = 0u64;
    let mut max_err = 0.0f64;
    for product in [&pass.nnz, &pass.grid] {
        let err = if product.y.len() == reference.len() {
            max_abs_diff(product.y.iter().copied().zip(reference.iter().copied()))
        } else {
            f64::INFINITY
        };
        max_err = max_err.max(err);
        mismatched += u64::from(err > TOLERANCE);
    }
    if mismatched > 0 {
        run.problems.push(format!(
            "{mismatched} partitioned products differ from multiply_dense (max abs error {max_err})"
        ));
    }
    run.set("max_abs_err", max_err);
    mismatched
}

/// The modeled figures and sparse-layer counters of one repetition.
fn record_model(pass: &Pass, timing: &SpmvTiming, run: &mut Run) {
    run.set("model_spmv_nnz_us", pass.nnz.total_ns(timing) / 1e3);
    run.set("model_spmv_grid_us", pass.grid.total_ns(timing) / 1e3);
    let layouts = [
        (
            &pass.nnz,
            [
                "sparse.nnz.nnz_imbalance",
                "sparse.nnz.time_imbalance",
                "sparse.nnz.sync_entries",
                "sparse.nnz.sync_us",
                "sparse.nnz.critical_path_us",
            ],
        ),
        (
            &pass.grid,
            [
                "sparse.grid.nnz_imbalance",
                "sparse.grid.time_imbalance",
                "sparse.grid.sync_entries",
                "sparse.grid.sync_us",
                "sparse.grid.critical_path_us",
            ],
        ),
    ];
    for (product, [nnz_imbalance, time_imbalance, sync_entries, sync_us, critical_path_us]) in
        layouts
    {
        run.set(nnz_imbalance, product.partition.nnz_imbalance());
        run.set(time_imbalance, product.time_imbalance(timing));
        run.set(sync_entries, product.sync_entries as f64);
        run.set(sync_us, product.sync_ns(timing) / 1e3);
        run.set(critical_path_us, product.critical_path_ns(timing) / 1e3);
    }
}

/// `spmv-rmat-partitioned`.
pub fn spmv_rmat_partitioned(seed: u64, seconds: f64, trace: bool) -> Run {
    let timing = SpmvTiming::paper();
    let (problem, setup_s) = timed_setup(SETUP_REPS, || Problem::new(seed));
    let mut run = Run::default();
    run.set("setup_s", setup_s);

    // Untimed first repetition: fixes the fingerprint and feeds the checks.
    let (_, first) = pass(&problem, false);
    let main = fingerprint(&first, &timing);
    record_model(&first, &timing, &mut run);
    let mismatched = check_outputs(&problem, &first, &mut run);
    drop(first);

    // A second seed must repeat exactly and differ from the main seed.
    let extra = seed ^ EXTRA_SEED;
    let other = Problem::new(extra);
    let once = fingerprint(&pass(&other, false).1, &timing);
    if once != fingerprint(&pass(&other, false).1, &timing) {
        run.problems.push(format!("modeled statistics differ between two runs of seed {extra}"));
    }
    if once == main {
        run.problems.push(format!("seeds {seed} and {extra} give identical modeled statistics"));
    }
    drop(other);

    let mut host = Vec::new();
    let mut traced = Vec::new();
    let mut diverged = 0usize;
    repeat_for(seconds, || {
        let (seconds, product) = pass(&problem, false);
        host.push(seconds);
        diverged += usize::from(fingerprint(&product, &timing) != main);
        drop(product);
        if trace {
            let (seconds, product) = pass(&problem, true);
            diverged += usize::from(fingerprint(&product, &timing) != main);
            traced.push((seconds, product.partition_s, product.execute_s));
        }
    });
    if diverged > 0 {
        run.problems
            .push(format!("{diverged} repetitions of seed {seed} changed a modeled statistic"));
    }

    let multiplies = 2u64;
    let reps = host.len() as u64;
    run.attempted = reps * multiplies;
    run.failed = reps * mismatched;
    run.set_failed_frac();
    let rep_s = median(&host);
    let nnz = problem.matrix.nnz() as f64;
    run.set("sim_qps", multiplies as f64 * problem.matrix.rows() as f64 / rep_s);
    run.set("sim_nnz_per_s", multiplies as f64 * nnz / rep_s);
    if trace {
        let column =
            |f: fn(&(f64, f64, f64)) -> f64| median(&traced.iter().map(f).collect::<Vec<_>>());
        run.set("sparse.partition_ms", column(|t| t.1) * 1e3);
        run.set("sparse.execute_ms", column(|t| t.2) * 1e3);
        run.set("sparse.multiplies", multiplies as f64);
        run.set("trace.overhead_pct", (column(|t| t.0) / rep_s - 1.0) * 100.0);
        run.set("trace.reps", traced.len() as f64);
    }
    run
}
