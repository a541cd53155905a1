#!/usr/bin/env bash
# Tier-1 verify — fully hermetic: no network, no crates.io registry.
# The workspace has zero external dependencies (see crates/testkit), so
# everything below runs with --offline on a cold machine.
set -euo pipefail
cd "$(dirname "$0")/.."

build_log=$(mktemp)
trap 'rm -f "$build_log"' EXIT

cargo build --release --offline 2>&1 | tee "$build_log"
# Every workspace crate must stay warning-clean: the lower layers
# (testkit, obs, sim) are part of every verify path and the Table-2 TCB
# breakdown, and the rest sit inside the trust boundary.
for crate in $(sed -n 's/^name = "\(hix-[a-z-]*\)"$/\1/p' crates/*/Cargo.toml); do
    if grep -E "$crate.*generated [0-9]+ warning" "$build_log"; then
        echo "error: cargo build emitted warnings in $crate" >&2
        exit 1
    fi
done

cargo test -q --offline

# Observability smoke test: trace_report exports a Perfetto trace from
# both stacks and exits non-zero on an empty trace, accounting drift, or
# a non-deterministic same-seed run.
cargo run -q --release --offline -p hix-bench --bin trace_report target/trace-report

# Fault-matrix smoke: 3 seeds x {none, light, heavy} fault profiles on
# the secure matrix workload. Exits non-zero if faulted GPU results are
# not byte-identical to the fault-free run, if a clean wire records any
# recovery work, or if a same-seed faulted rerun is not deterministic.
cargo run -q --release --offline -p hix-bench --bin fault_report

# Watchdog smoke: 3 seeds x {none, gpu-light, gpu-heavy} device-fault
# profiles plus the 4-user peer-interference matrix. Exits non-zero if
# faulted GPU results diverge from the fault-free run, a peer stalls
# past the quarantine bound, eviction fails to cap a repeat offender,
# or a same-seed rerun is not deterministic.
cargo run -q --release --offline -p hix-bench --bin tdr_report

# Ledger smokes: scale (scheduler sweep), perf (serving-path
# attribution, sync vs batched rings) and fabric (multi-GPU shards).
# Each bin self-checks its cells and checks every ledger it writes
# against its declaration in hix_bench::ledgers. Two smokes must emit
# byte-identical JSON, and the fresh file must pass --check. `cargo
# test` above checks the committed BENCH_*.json files.
for bench in scale perf fabric; do
    for run in a b; do
        cargo run -q --release --offline -p hix-bench --bin "${bench}_report" -- --smoke "target/$bench-$run.json"
    done
    cmp "target/$bench-a.json" "target/$bench-b.json"
    cargo run -q --release --offline -p hix-bench --bin "${bench}_report" -- --check "target/$bench-a.json"
done

# Crypto-plane smoke: run the wall-clock crypto bench once, emitting to
# target/ (never over the committed ledger: wall-clock numbers are
# host-specific), and --check the fresh file. (cargo bench runs the
# binary with CWD at the package root, so paths must be absolute.)
cargo bench --offline --bench crypto -- "$PWD/target/crypto-smoke.json"
cargo bench --offline --bench crypto -- --check "$PWD/target/crypto-smoke.json"

# Table 2 re-runs the attack-scenario suite and the per-crate TCB LoC
# accounting; it fails if a crate is missing from its role table.
cargo run -q --release --offline -p hix-bench --bin table2_tcb

echo "tier-1 verify: OK"
