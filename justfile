# Developer workflow; `just ci` mirrors .github/workflows/ci.yml.

# List available recipes.
default:
    @just --list

# Formatting gate.
fmt:
    cargo fmt --all -- --check
    cargo fmt --manifest-path perfbench/Cargo.toml -- --check

# Lint gate (matches CI: warnings are errors).
clippy:
    cargo clippy --workspace --all-targets -- -D warnings
    cargo clippy --offline --manifest-path perfbench/Cargo.toml --all-targets -- -D warnings

# Tier-1: the check the repo is graded on.
tier1:
    cargo build --release
    cargo test -q

# Full test suite including every crate.
test:
    cargo test --workspace -q

# Docs gate (matches CI: rustdoc warnings are errors).
docs:
    RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

# Everything CI runs.
ci: fmt clippy tier1 docs

# List every `pub` fn/struct/enum/trait/type/const/mod in crates/*/src whose
# name appears in no other .rs file under crates/, tests/, examples/ or
# perfbench/src: public items nothing outside their own file uses. Each
# hit should be deleted, made private, or kept for a recorded reason.
census:
    #!/usr/bin/env sh
    grep -rnE --include='*.rs' '^\s*pub (const |unsafe |async )?(fn|struct|enum|trait|type|const|mod) [A-Za-z_][A-Za-z0-9_]*' crates/*/src \
        | sed -E 's/^([^:]*):([0-9]+):\s*pub (const |unsafe |async )?(fn|struct|enum|trait|type|const|mod) ([A-Za-z_][A-Za-z0-9_]*).*/\1 \2 \4 \5/' \
        | while read -r file line kind name; do
            if ! grep -rlw --include='*.rs' "$name" crates tests examples perfbench/src | grep -qvx "$file"; then
                echo "$file:$line $kind $name"
            fi
        done

# Regenerate the parallel-driver measurement (BENCH_parallel_driver.json).
bench-driver:
    cargo bench -p fafnir-bench --bench parallel_driver

# Regenerate the fast-forward measurement (BENCH_cycle_fastforward.json).
# The bench refuses to overwrite a recorded result with a regressed speedup;
# pass --force to accept one anyway: `just bench-fastforward --force`.
bench-fastforward *ARGS:
    cargo bench -p fafnir-bench --bench cycle_fastforward -- {{ARGS}}

# Regenerate the serving measurement (BENCH_serving.json). Same guard as
# bench-fastforward: `just bench-serving --force` accepts a regression.
bench-serving *ARGS:
    cargo bench -p fafnir-bench --bench serving -- {{ARGS}}

# Regenerate the fault-resilience measurement (BENCH_fault_resilience.json):
# hedged dispatch vs DRAM reads under a straggler plan, plus crash/retry
# churn. Same guard: `just bench-resilience --force` accepts a regression.
bench-resilience *ARGS:
    cargo bench -p fafnir-bench --bench fault_resilience -- {{ARGS}}

# Regenerate the Top-K similarity measurement (BENCH_topk.json): recall@k and
# batch latency vs k for near-memory re-ranking over a proxy shortlist. Same
# guard: `just bench-topk --force` accepts a regression.
bench-topk *ARGS:
    cargo bench -p fafnir-bench --bench topk -- {{ARGS}}

# Regenerate the fast-functional memory measurement (BENCH_fast_memory.json):
# simulator throughput under the cycle-accurate vs fast memory model, plus
# the smoke calibration matrix gated against the recorded tolerance
# envelope. Same guard: `just bench-fastmem --force` accepts a regression.
bench-fastmem *ARGS:
    cargo bench -p fafnir-bench --bench fast_memory -- {{ARGS}}

# Regenerate the sharded-cluster measurement (BENCH_cluster.json): throughput,
# per-shard imbalance, and cross-shard traffic vs shard count at two Zipf
# skews, plus hot-row replication relief. Same guard: `just bench-cluster
# --force` accepts a regression.
bench-cluster *ARGS:
    cargo bench -p fafnir-bench --bench cluster -- {{ARGS}}

# Regenerate the partitioned-SpMV measurement (BENCH_spmv.json): nnz/time
# imbalance, sync volume, and modeled speedup for 1D row / nnz-balanced /
# column and 2D grid partitions over R-MAT and banded matrices at four rank
# counts. Same guard: `just bench-spmv --force` accepts a regression.
bench-spmv *ARGS:
    cargo bench -p fafnir-bench --bench spmv_partition -- {{ARGS}}

# Write the stdout of every deterministic figure and table bench, and of
# `fafnir lookup --engine all` (sum, mean, interactive), to DIR, one file
# each. Run it on two checkouts and `diff -r` the directories to check that
# a change leaves every printed figure byte-identical.
figures dir:
    mkdir -p {{dir}}
    cargo build --release -p fafnir-cli
    for bench in fig03_unique_indices fig09_spmv_iterations fig11_single_query \
        fig12_end_to_end fig13_batch_scalability fig14_spmv_speedup \
        fig15_memory_accesses fig16_power_area table01_buffers table04_latency \
        ablations extensions; do \
        cargo bench -q -p fafnir-bench --bench $bench > {{dir}}/$bench.txt || exit 1; \
    done
    target/release/fafnir lookup --engine all --op sum > {{dir}}/lookup_sum.txt
    target/release/fafnir lookup --engine all --op mean > {{dir}}/lookup_mean.txt
    target/release/fafnir lookup --engine all --interactive > {{dir}}/lookup_interactive.txt

# Run the full (24-scenario) cross-mode calibration matrix and check it
# against the recorded envelope; exits non-zero on a violation.
calibrate:
    cargo run --release -p fafnir-serve --example calibrate

# Criterion micro-bench of the reduction kernels (combine_into per
# operator x accumulator width). No JSON artifact: criterion keeps its own
# baselines under target/criterion.
bench-kernels *ARGS:
    cargo bench -p fafnir-bench --bench reduce_kernels -- {{ARGS}}

# The repository benchmark (BENCHMARK.json): run every workload briefly and
# fail unless each reports `"correct": true`. For a full measurement run one
# workload at the declared length, e.g.
# `cargo run --release --offline --manifest-path perfbench/Cargo.toml --
# --workload serve-zipf-fast --seed 1 --seconds 30 --trace 1`.
# The `perfbench-smoke` job in .github/workflows/ci.yml runs the same
# workload list; keep the two in step.
bench seconds="2":
    cargo build --release --offline --manifest-path perfbench/Cargo.toml
    for workload in serve-zipf-fast cluster-uniform-cycle spmv-rmat-partitioned; do \
        perfbench/target/release/fafnir-perfbench --workload $workload --seed 1 \
            --seconds {{seconds}} --trace 0 | tail -n 1 | tee /dev/stderr \
            | grep -q '^{"correct": true' || exit 1; \
    done

# Print the per-layer wall split of one benchmark workload: build perfbench,
# run it traced (`--trace 1 --seed 1`) and keep the `metric` lines. Speed
# work records this split before and after the change.
split workload="spmv-rmat-partitioned" seconds="5":
    cargo build --release --offline --manifest-path perfbench/Cargo.toml
    perfbench/target/release/fafnir-perfbench --workload {{workload}} --seed 1 \
        --seconds {{seconds}} --trace 1 | grep '^metric '

# Profile one benchmark workload with gprofng (binutils) and print the
# hottest functions. Samples the untraced perfbench run at the high
# sampling rate: the default rate catches too few samples on short runs.
# Requires `gprofng` on PATH.
profile workload="serve-zipf-fast" seconds="8":
    cargo build --release --offline --manifest-path perfbench/Cargo.toml
    rm -rf target/fafnir-profile.er
    gprofng collect app -p high -o target/fafnir-profile.er \
        perfbench/target/release/fafnir-perfbench --workload {{workload}} --seed 1 \
        --seconds {{seconds}} --trace 0
    gprofng display text -functions target/fafnir-profile.er | head -40

# A quick look at the resilience layer: a straggler replica with hedging.
serve-faults-demo:
    cargo run --release -p fafnir-cli -- serve --rate 2e6 --policy deadline \
        --max-wait-ns 20000 --workers 2 --faults slow:8:1 --hedge-ns 3000 --seed 7

# A quick look at the serving simulator: deadline batching at 2 Mqps.
serve-demo:
    cargo run --release -p fafnir-cli -- serve --rate 2e6 --policy deadline \
        --max-wait-ns 500000 --workers 4 --seed 7
