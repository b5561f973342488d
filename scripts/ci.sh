#!/usr/bin/env bash
# The repo's CI gate, runnable locally. Everything is offline: the
# workspace has zero external dependencies by design (see DESIGN.md §2),
# so a fresh checkout needs no network and no vendored registry.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== format =="
cargo fmt --check

echo "== build (release, offline) =="
cargo build --release --offline --workspace

echo "== tests =="
cargo test --offline --workspace -q

echo "== clippy (warnings are errors) =="
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "== rfly-lint (workspace invariants; see DESIGN.md §8 + §13) =="
# Hard gate: any violation not covered by the committed baseline — and
# any stale baseline entry — fails the build. The baseline only shrinks.
# The JSON findings file is uploaded as a CI artifact (see ci.yml).
mkdir -p results/lint
cargo run --release --offline -p rfly-lint -- --workspace \
  --baseline lint-baseline.tsv --json results/lint/findings.json

echo "== rfly-lint semantic fixtures (planted trees; see DESIGN.md §13) =="
# The planted mini-workspace must FAIL (exit 1) with all four semantic
# rules firing, and its conforming twin must pass clean (exit 0) — this
# guards the analyzer itself against silently going blind.
if cargo run --release --offline -p rfly-lint -- --workspace --no-cache \
    --root crates/lint/tests/fixtures/semantic/violating >/dev/null; then
  echo "ERROR: planted violations were not detected" >&2
  exit 1
fi
cargo run --release --offline -p rfly-lint -- --workspace --no-cache \
  --root crates/lint/tests/fixtures/semantic/conforming >/dev/null

echo "== rfly-lint wall-time budget (cold + warm cache) =="
# Times the full v2 pipeline over the workspace; blows up if the cold
# pass or the warm-cache pass regresses past its BENCH_report budget.
cargo run --release --offline -p rfly-bench --bin lint_time | tail -2

echo "== fault matrix (3 seeds) =="
# The fault_storm example is self-asserting: it exits non-zero on any
# panic, on supervised read-rate retention < 80%, on an inconsistent
# resilience log, or if the unsupervised baseline fails to lose the
# dead relay's cell.
cargo build --release --offline --example fault_storm
for seed in 42 7 1234; do
  echo "-- fault_storm seed $seed"
  target/release/examples/fault_storm "$seed" >/dev/null
done

echo "== obs metric reports (fault_storm, DESIGN.md §10) =="
# The fault matrix runs with an rfly-obs recorder installed; each
# mission must have written its structured metric report.
for seed in 42 7 1234; do
  test -s "results/obs/fault_storm_seed${seed}.txt"
  test -s "results/obs/fault_storm_seed${seed}.json"
done
head -n 4 results/obs/fault_storm_seed42.txt

echo "== scenario corpus (golden metrics; see DESIGN.md §11) =="
# Compiles and flies every file in scenarios/ and compares the outcome
# metrics against the committed golden file. Any drift exits 2 with a
# per-metric diff; bless intended changes with --update locally.
cargo run --release --offline -p rfly-bench --bin scenario_corpus

echo "== fault injector overhead (<5% on the clean hot path) =="
cargo run --release --offline -p rfly-bench --bin ext_fault_overhead | tail -2

echo "== ops model check (exhaustive rotation-supervisor proof) =="
# BFS-enumerates the abstracted dock-rotation state space over a
# ladder of fleet shapes; any stranded cell, dock overflow, retry
# divergence, or deadlock exits non-zero with a counterexample trace.
cargo run --release --offline -p rfly-bench --bin ops_check | tail -3

echo "== ops soak smoke (2 simulated hours, rotation + coverage gates) =="
# The full 24 h soak runs locally via the same binary with no flags;
# CI flies a 2 h slice with the identical coverage-floor, rotation,
# and tags/hour gates.
cargo run --release --offline -p rfly-bench --bin ext_ops_soak -- --hours 2 | tail -2

echo "== soak-and-shrink smoke (3 seeds, bounded steps) =="
# Three seeded random storms through the journaled supervised mission:
# every journal must round-trip byte-for-byte and replay with zero
# divergence; any invariant violation is auto-shrunk to a minimal repro
# under results/repros/. Exits non-zero on any determinism failure.
cargo run --release --offline -p rfly-bench --bin soak -- \
  --seeds 3 --steps 10 --events 12 --out results/repros

echo "== fleet scaling sweep (work-pool determinism + speedup gate; DESIGN.md §15) =="
# Flies the 32/64/128-relay multi-warehouse campaigns (10240 tags/row)
# twice — 1 worker, then full width — and asserts the rows bit-identical.
# On machines with >=4 cores, parallel_speedup >= 2.0 is a hard gate
# (exit 2); on smaller runners the sweep still enforces bit-identity
# and records the metrics in results/bench/BENCH_report.json.
cargo run --release --offline -p rfly-bench --bin ext_fleet_scaling | tail -3

echo "== benchmark self-check (perfbench fleet-inventory, traced; perfbench/README.md) =="
# Flies the BENCHMARK.json fleet-inventory workload for 5 s with the
# per-layer trace on. Every operation's outcome is checked and the
# traced loop must reproduce run_mission's outcome exactly; a failed
# check, a traced/untraced mismatch, or a panic exits non-zero.
cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
  --workload fleet-inventory --seed 1 --seconds 5 --trace 1 | tail -1

echo "== benchmark self-check (perfbench sar-localize, traced; DESIGN.md §15.4) =="
# Flies the sar-localize workload for 5 s with the trace on, with the
# heatmap rows fanned over the pool at width 2. An estimate outside
# the search region, a traced fix that differs from
# SarLocalizer::localize's, or a panic exits non-zero.
cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
  --workload sar-localize --seed 1 --seconds 5 --trace 1 | tail -1

echo "== crash matrix (every storage op x every fault mode; DESIGN.md §14) =="
# Crashes every storage operation of the journaled mission and the
# stored campaign in every fault mode (torn / lost-acked / duplicated /
# clean) over bounded seeds, and requires every crash point to recover
# bit-identical. Exits 2 on any unrecoverable point, 1 if the planted
# truncation bug slips past the matrix. The per-workload point counts
# land in results/bench/crash_matrix.json (uploaded as a CI artifact).
cargo run --release --offline -p rfly-bench --bin crash_matrix -- --seeds 2

echo "CI green."
