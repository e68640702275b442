#!/usr/bin/env bash
# The canonical repo check (see DESIGN.md): tier-1 gate + lint + format.
#
#   ./ci.sh            build (release) + full test suite + clippy -D warnings + fmt --check
#                      + rustdoc -D warnings + bench smokes and gate
#   ./ci.sh quick      skip the release build
set -euo pipefail
cd "$(dirname "$0")"

if [[ "${1:-}" != "quick" ]]; then
    echo "==> cargo build --release"
    cargo build --release
fi

# The benchmark (perfbench/, see BENCHMARK.json) is a workspace of its own,
# so `--workspace` never compiles it; build it here so a public-API change
# that breaks the benchmark fails CI.
echo "==> cargo build --release --offline --manifest-path perfbench/Cargo.toml"
cargo build --release --offline --manifest-path perfbench/Cargo.toml

# Tier-1 (root package) includes the chaos smoke (tests/chaos_smoke.rs:
# one injected worker death plus a kill-and-resume cycle); --workspace
# adds every crate's suite, including the full supervision matrix in
# crates/pipeline/tests/supervision.rs.
echo "==> cargo test -q --workspace"
cargo test -q --workspace

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo fmt --all -- --check"
cargo fmt --all -- --check

# Broken or private intra-doc links fail the docs build, not just warn.
echo "==> cargo doc --workspace --no-deps (rustdoc warnings denied)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

# Streaming-dataset smoke: every scale phase (equivalence certification,
# resident, streaming) at toy sizes — seconds, not the full 5M-site run.
echo "==> bench-snapshot scale --smoke"
cargo run --release -q -p webdep-bench --bin bench-snapshot -- scale --smoke

# Query-service smoke: start the server on an ephemeral port, sweep the
# full query catalog, spot-check served JSON against a directly-built
# AnalysisCtx, and publish two epochs under load. Fails on any non-2xx,
# any served/one-shot mismatch, or any mixed-epoch response.
echo "==> bench-snapshot serve --smoke"
cargo run --release -q -p webdep-bench --bin bench-snapshot -- serve --smoke

# Incremental-epoch smoke: evolve a small world two epochs, measure each
# both ways, and certify the delta store byte-identical to from-scratch,
# the delta-applied cube identical to a full refold, and the delta-built
# snapshot's taxonomy identical to a rebuild.
echo "==> bench-snapshot evolve --smoke"
cargo run --release -q -p webdep-bench --bin bench-snapshot -- evolve --smoke

# Self-healing smoke: the seeded chaos harness at toy sizes — slow-loris
# flood with fast queries flowing, a burst storm with no wedged workers,
# mid-serve chunk corruption healed byte-identically by fsck --repair,
# and poisoned publishes rejected with the prior epoch still serving.
echo "==> bench-snapshot overload --smoke"
cargo run --release -q -p webdep-bench --bin bench-snapshot -- overload --smoke

# Perf-regression gate: deterministic smoke workloads (seeded 1-worker
# pipeline measurement, sequential serve sweep, always-on overload
# machinery with exact shed/abort/reject counts) compared against
# BENCH_baselines.json — exact integer counts, so it cannot flake on a
# loaded box. Exits nonzero (and appends to BENCH_alerts.log) on breach;
# after an accepted behavior change, re-record with
# `bench-snapshot gate --smoke --update`.
echo "==> bench-snapshot gate --smoke"
cargo run --release -q -p webdep-bench --bin bench-snapshot -- gate --smoke

echo "ci: all gates green"
