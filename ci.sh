#!/usr/bin/env sh
# Full local CI gate: formatting, clippy, simlint, tests.
# Run from the repository root. Fails fast on the first broken stage.
set -eu

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "==> simlint (token-level source analysis, ratcheted baseline)"
# Fails on any NEW finding, any dead pragma, and any stale baseline entry
# (the ratchet may only shrink). See DESIGN.md "Source lint".
cargo run -p xtask --offline --quiet -- simlint --baseline results/simlint_baseline.json

echo "==> cargo test"
cargo test --workspace --offline -q

echo "==> engine differential tests (timing wheel vs reference heap)"
cargo test --offline -q -p overlap-core --features ref-heap --test engine_diff

echo "==> sweep-runner smoke test (release, serial vs pooled must match)"
cargo build --release --offline -q -p bench --features ref-heap
OVERLAP_WORKERS=1 ./target/release/table1_results 3 2 2>/dev/null >/tmp/sweep_serial.txt
OVERLAP_WORKERS=4 ./target/release/table1_results 3 2 2>/dev/null >/tmp/sweep_pooled.txt
cmp /tmp/sweep_serial.txt /tmp/sweep_pooled.txt || {
    echo "sweep runner output differs between 1 and 4 workers" >&2
    exit 1
}
rm -f /tmp/sweep_serial.txt /tmp/sweep_pooled.txt

echo "==> warm run-store smoke (second pass must be 100% hits, zero simulations)"
# Content-addressed run store (DESIGN.md par 13): the same table generated
# twice against one OVERLAP_STORE directory. The cold pass simulates and
# persists; the warm pass must answer every cell from disk (stderr reports
# simulations=0) and produce byte-identical stdout.
STORE_DIR=$(mktemp -d /tmp/overlap-store-ci.XXXXXX)
OVERLAP_STORE="$STORE_DIR" ./target/release/table1_results 3 2 \
    >/tmp/store_cold.txt 2>/tmp/store_cold.log
OVERLAP_STORE="$STORE_DIR" ./target/release/table1_results 3 2 \
    >/tmp/store_warm.txt 2>/tmp/store_warm.log
grep 'store: hits=45 simulations=0 ' /tmp/store_warm.log >/dev/null || {
    echo "warm store pass still simulated; stderr was:" >&2
    cat /tmp/store_warm.log >&2
    exit 1
}
cmp /tmp/store_cold.txt /tmp/store_warm.txt || {
    echo "warm store pass produced different output than the cold pass" >&2
    exit 1
}
rm -rf "$STORE_DIR" /tmp/store_cold.txt /tmp/store_warm.txt /tmp/store_cold.log /tmp/store_warm.log

echo "==> perf snapshot (events/sec, packets/sec, lint lines/sec, peak RSS)"
./target/release/perf_snapshot > BENCH_simlint.json
cat BENCH_simlint.json

echo "==> parallel-vs-serial hash identity (conservative region engine)"
# Unconditional: region-count independence is a determinism contract, not
# a performance claim — it must hold even on a single-core host.
cargo test --offline -q -p overlap-core --test parallel_regions

echo "==> simulator scenario-suite benchmark (wheel vs reference heap + region scaling, gated)"
# Fails if any scenario's heap and wheel trace hashes differ, if the
# wheel is slower than the heap (events/sec) on any scenario, or if any
# region count's trace hash differs from serial. The "partitioned run
# reaches serial throughput" gate inside bench_sim only arms itself when
# the host reports >= 2 cores (conservative sync on one core is pure
# overhead; see the README perf table caveat).
./target/release/bench_sim --gate > BENCH_sim.json
cat BENCH_sim.json

echo "==> horizon-independence gate (paper net, LIA, 30 s then 120 s: VmHWM growth <= 2 MB)"
# The measurement path streams (DESIGN.md par 14): a run holds O(bins) of
# capture state, so a 4x longer run must not need more memory. A buffered
# capture would add ~40 MB here.
./target/release/horizon_gate

echo "==> fluid-model smoke (paper topology, all laws)"
./target/release/fluid_table --smoke

echo "==> fluid_table.txt byte-diff regeneration check"
./target/release/fluid_table 2>/dev/null >/tmp/fluid_table_regen.txt
cmp /tmp/fluid_table_regen.txt results/fluid_table.txt || {
    echo "results/fluid_table.txt is stale: regenerate with" >&2
    echo "  cargo run -p bench --bin fluid_table --release > results/fluid_table.txt" >&2
    exit 1
}
rm -f /tmp/fluid_table_regen.txt

echo "==> worldgen smoke (fat-tree ECMP, traffic, mobility, fluid band, region hashes)"
./target/release/worldgen_table --smoke

echo "==> worldgen_table.txt byte-diff regeneration check"
./target/release/worldgen_table 2>/dev/null >/tmp/worldgen_table_regen.txt
cmp /tmp/worldgen_table_regen.txt results/worldgen_table.txt || {
    echo "results/worldgen_table.txt is stale: regenerate with" >&2
    echo "  cargo run -p bench --bin worldgen_table --release > results/worldgen_table.txt" >&2
    exit 1
}
rm -f /tmp/worldgen_table_regen.txt

echo "==> failover smoke (fault injection, recovery gates, 1-vs-4-worker hashes)"
./target/release/failover_table --smoke

echo "==> failover_table.txt byte-diff regeneration check"
./target/release/failover_table 2>/dev/null >/tmp/failover_table_regen.txt
cmp /tmp/failover_table_regen.txt results/failover_table.txt || {
    echo "results/failover_table.txt is stale: regenerate with" >&2
    echo "  cargo run -p bench --bin failover_table --release > results/failover_table.txt" >&2
    exit 1
}
rm -f /tmp/failover_table_regen.txt

echo "CI OK"
