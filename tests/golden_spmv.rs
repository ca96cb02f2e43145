//! Golden digests of the SpMV engines.
//!
//! Small seeded matrices (R-MAT, banded, uniform, 1×n and n×1 shapes, and a
//! COO built from unsorted pushes with duplicate coordinates) run through:
//!
//! * `fafnir_spmv::execute` at vector sizes 2, 16 and 256 (`y`, volumes,
//!   plan and `StreamOps`);
//! * `execute_partitioned` and `stream_partitioned` under all four
//!   strategies (the same fields per rank, plus `partial_entries`,
//!   `sync_entries`, `sync_rounds` and `sync_ops`);
//! * `two_step::execute` and `spmm::execute`;
//! * the unsorted COO itself, before and after `sum_duplicates`, and the
//!   LIL columns built from it.
//!
//! Every `f64` folds in by `to_bits`, so the digests pin outputs and
//! operation counts bit for bit. Re-record them only for a change that
//! means to alter SpMV output, and say so.

use fafnir_sparse::{
    execute_partitioned, fafnir_spmv, gen, spmm, stream_partitioned, two_step, CooMatrix,
    LilMatrix, PartitionStrategy, PartitionedRun, SpmvPartition, SpmvPlan, SpmvTiming, StreamOps,
};

/// FNV-1a, 64-bit.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn word(&mut self, word: u64) {
        self.bytes(&word.to_le_bytes());
    }

    fn f64s(&mut self, values: &[f64]) {
        self.word(values.len() as u64);
        for value in values {
            self.word(value.to_bits());
        }
    }

    fn words(&mut self, words: &[u64]) {
        self.word(words.len() as u64);
        for &word in words {
            self.word(word);
        }
    }

    fn plan(&mut self, plan: &SpmvPlan) {
        self.word(plan.vector_size as u64);
        self.word(plan.columns as u64);
        self.words(&plan.rounds_per_iteration.iter().map(|&r| r as u64).collect::<Vec<_>>());
    }

    fn ops(&mut self, ops: &StreamOps) {
        self.words(&[ops.compares, ops.adds, ops.forwards, ops.multiplies]);
    }

    fn partitioned(&mut self, run: &PartitionedRun) {
        self.f64s(&run.y);
        self.word(run.rank_runs.len() as u64);
        for rank in &run.rank_runs {
            self.words(&[rank.rank as u64, rank.nnz, rank.partial_entries]);
            self.plan(&rank.plan);
            self.words(&rank.volumes);
            self.ops(&rank.ops);
        }
        self.words(&[run.sync_entries, run.sync_rounds as u64]);
        self.ops(&run.sync_ops);
    }
}

/// SplitMix64: a fixed, dependency-free stream for operands and pushes.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound
    }

    /// A value in [-1, 1) with all 53 mantissa bits in play, so any change
    /// of summation order shows in the low bits.
    fn value(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 52) as f64 - 1.0
    }
}

const VECTOR_SIZES: [usize; 3] = [2, 16, 256];

/// 96×80 entries pushed in random order with many repeated coordinates
/// and some empty rows and columns (rows and columns above 70 stay empty
/// except for row 95 and column 79).
fn unsorted_duplicates() -> CooMatrix {
    let mut rng = Rng(0x00d0_0d1e);
    let mut coo = CooMatrix::new(96, 80);
    for _ in 0..1_500 {
        coo.push(rng.below(70) as usize, rng.below(70) as usize, rng.value());
    }
    coo.push(95, 3, rng.value());
    coo.push(5, 79, rng.value());
    coo.push(95, 79, rng.value());
    coo.push(95, 79, rng.value());
    coo
}

/// The matrices every engine runs on.
fn suite() -> Vec<(&'static str, CooMatrix)> {
    let mut rng = Rng(0x10f1);
    let row = CooMatrix::from_triplets(1, 300, (0..300).step_by(3).map(|c| (0, c, rng.value())));
    let column = CooMatrix::from_triplets(300, 1, (0..300).step_by(2).map(|r| (r, 0, rng.value())));
    vec![
        ("rmat", gen::rmat(10, 8_000, 3)),
        ("banded", gen::banded(300, 4, 5)),
        ("uniform", gen::uniform(200, 150, 0.05, 7)),
        ("row", row),
        ("column", column),
        ("unsorted", unsorted_duplicates()),
    ]
}

fn operand(cols: usize, seed: u64) -> Vec<f64> {
    let mut rng = Rng(seed);
    (0..cols).map(|_| rng.value()).collect()
}

/// Per matrix: (execute, partitioned, two_step + spmm) digests.
fn digests(coo: &CooMatrix) -> (u64, u64, u64) {
    let lil = LilMatrix::from(coo);
    let x = operand(coo.cols(), coo.nnz() as u64);
    let (mut serial, mut partitioned, mut baselines) = (Fnv::new(), Fnv::new(), Fnv::new());
    let timing = SpmvTiming::paper();
    for vector_size in VECTOR_SIZES {
        let run = fafnir_spmv::execute(&lil, &x, vector_size);
        serial.f64s(&run.y);
        serial.words(&run.volumes);
        serial.plan(&run.plan);
        serial.ops(&run.ops);

        for ranks in [1usize, 3, 4] {
            for strategy in [
                PartitionStrategy::RowBlock,
                PartitionStrategy::NnzBalancedRows,
                PartitionStrategy::ColumnBlock,
                PartitionStrategy::grid(ranks),
            ] {
                let fits = match strategy {
                    PartitionStrategy::RowBlock | PartitionStrategy::NnzBalancedRows => {
                        ranks <= coo.rows()
                    }
                    PartitionStrategy::ColumnBlock => ranks <= coo.cols(),
                    PartitionStrategy::Grid { row_ranks, col_ranks } => {
                        row_ranks <= coo.rows() && col_ranks <= coo.cols()
                    }
                };
                if !fits {
                    continue;
                }
                let partition = SpmvPartition::new(coo, strategy, ranks);
                partitioned.partitioned(&execute_partitioned(coo, &x, &partition, vector_size));
                partitioned.partitioned(&stream_partitioned(coo, &x, &partition, vector_size));
            }
        }

        let run = two_step::execute(&lil, &x, vector_size);
        baselines.f64s(&run.y);
        baselines.words(&run.volumes);
        baselines.plan(&run.plan);
        baselines.ops(&run.ops);
        let rhs = [x.clone(), operand(coo.cols(), 99), vec![1.0; coo.cols()]];
        let run = spmm::execute(&lil, &rhs, vector_size, &timing);
        for column in &run.columns {
            baselines.f64s(column);
        }
        baselines.ops(&run.ops);
        baselines.f64s(&[run.fafnir_ns, run.two_step_ns]);
    }
    (serial.0, partitioned.0, baselines.0)
}

/// The unsorted COO's entries as pushed and after `sum_duplicates`, and the
/// LIL columns built from the pushed order.
fn coo_digest() -> u64 {
    let mut digest = Fnv::new();
    let mut coo = unsorted_duplicates();
    let lil = LilMatrix::from(&coo);
    for pass in 0..2 {
        digest.word(coo.nnz() as u64);
        for &(row, col, value) in coo.entries() {
            digest.words(&[row as u64, col as u64, value.to_bits()]);
        }
        if pass == 0 {
            coo.sum_duplicates();
        }
    }
    digest.words(&[lil.rows() as u64, lil.cols() as u64, lil.nnz() as u64]);
    for col in 0..lil.cols() {
        digest.word(lil.column(col).len() as u64);
        for &(row, value) in lil.column(col) {
            digest.words(&[row as u64, value.to_bits()]);
        }
    }
    digest.0
}

/// Digests recorded before the flat LIL and level-buffer merge tree
/// replaced the per-column `Vec` layout, per matrix: (execute,
/// partitioned, two_step + spmm).
const GOLDEN: &[(&str, u64, u64, u64)] = &[
    ("rmat", 0x34a152121e268700, 0x723c6d0a7c74286a, 0x2a7573900e808799),
    ("banded", 0xd0954b1f00b2bf13, 0xab229c7b631e88f3, 0x9c519ec32b53b752),
    ("uniform", 0x6723a071bb9255e0, 0x1f73e3116886e333, 0x3c03aae7f97e6689),
    ("row", 0x32e70acedc44cba8, 0x27d5e83410fc3be0, 0x2b9a6ac7fac41658),
    ("column", 0xb1a50d74a781f822, 0xdcd9490ea4115f0d, 0x9665a043b78aba2f),
    ("unsorted", 0x1ac4362e91592e8c, 0x5806fe8589e027f2, 0xfba8bea661d3fdfc),
];

/// The same for the unsorted COO and its LIL.
const GOLDEN_COO: u64 = 0xb692b039750c076d;

#[test]
fn every_spmv_engine_reproduces_its_golden_digests() {
    let actual: Vec<(String, u64, u64, u64)> = suite()
        .iter()
        .map(|(name, coo)| {
            let (serial, partitioned, baselines) = digests(coo);
            ((*name).to_string(), serial, partitioned, baselines)
        })
        .collect();
    let table: String = actual
        .iter()
        .map(|(name, a, b, c)| format!("    (\"{name}\", {a:#018x}, {b:#018x}, {c:#018x}),\n"))
        .collect();
    let golden: Vec<(String, u64, u64, u64)> =
        GOLDEN.iter().map(|&(name, a, b, c)| (name.to_string(), a, b, c)).collect();
    assert_eq!(actual, golden, "digests moved; this run's table:\n{table}");
}

#[test]
fn unsorted_duplicate_pushes_reproduce_their_golden_digest() {
    let actual = coo_digest();
    assert_eq!(actual, GOLDEN_COO, "digest moved; this run's: {actual:#018x}");
}
