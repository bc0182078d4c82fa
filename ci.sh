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

echo "==> one world builder (only crates/core/src/world.rs may construct a simulator or an MPTCP sender)"
# (`if`, not `!`: sh's -e ignores a negated pipeline.)
if grep -rn "Simulator::new\|MptcpSenderAgent::new" crates/core/src examples/*.rs |
    grep -v "^crates/core/src/world.rs:"; then
    echo "build it through overlap_core::World instead" >&2
    exit 1
fi

echo "==> nothing deleted comes back (event log, coupling mutex, check feature, uncoupled-CC wrapper)"
if grep -rn 'EventLog\|Arc<Mutex\|feature = "check"\|Mirrored<' crates/; then
    echo "deleted in PR 20 (DESIGN.md par 9.2, par 6): count into SimStats or an agent counter, share through Rc<RefCell>, keep checks unconditional" >&2
    exit 1
fi

echo "==> one range container, routes by destination (no B-tree range map in tcpsim/mptcpsim, no per-node exact-route table)"
if grep -rn 'BTreeMap<u64, u64>' crates/tcpsim/src crates/mptcpsim/src ||
    grep -rn 'ExactRoutes' crates/netsim/src; then
    echo "replaced in PR 23 (DESIGN.md par 4, par 6, par 15): keep byte ranges in tcpsim::RangeSet and tagged routes in netsim::RoutingTables' route sets" >&2
    exit 1
fi

echo "==> sweep-runner smoke test (release, serial vs pooled must match)"
cargo build --release --offline -q -p bench
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

echo "==> horizon-independence gate (paper net, LIA, 30 s then 120 s: VmHWM growth <= 256 KB)"
# The measurement path streams (DESIGN.md par 14): a run holds O(bins) of
# capture state, so a 4x longer run must not need more memory. A buffered
# capture would add ~40 MB here.
./target/release/horizon_gate

echo "==> fluid-model smoke (paper topology, all laws)"
./target/release/fluid_table --smoke

echo "==> worldgen smoke (fat-tree ECMP, traffic, mobility, fluid band)"
./target/release/worldgen_table --smoke

echo "==> failover smoke (fault injection, recovery gates, 1-vs-4-worker hashes)"
./target/release/failover_table --smoke

echo "==> results/*.txt byte-diff regeneration check (five tables, the paper's Figures 1c and 2a-c)"
# worldgen_table's S5 pins two absolute trace hashes; fig2a is the paper's
# headline CUBIC run. table1_results (5 seeds x 30 s, its defaults) prints
# table1.txt and table2_sweep prints table2.txt: the paper's Results-section
# table and the ablations, ~25 s each on two cores.
for bin in fluid_table worldgen_table failover_table fig1c fig2a fig2b fig2c table1_results table2_sweep; do
    case $bin in
    table1_results) out=table1 ;;
    table2_sweep) out=table2 ;;
    *) out=$bin ;;
    esac
    ./target/release/$bin 2>/dev/null >/tmp/results_regen.txt
    cmp /tmp/results_regen.txt results/$out.txt || {
        echo "results/$out.txt is stale: regenerate with" >&2
        echo "  cargo run -p bench --bin $bin --release > results/$out.txt" >&2
        exit 1
    }
done
rm -f /tmp/results_regen.txt

echo "==> example smoke (the two examples that drive a World by hand must run to exit 0)"
cargo run --release --offline --quiet --example failover >/dev/null
cargo run --release --offline --quiet --example cwnd_dynamics >/dev/null

echo "==> perfbench smoke (the benchmark still builds against the crates and its checks pass)"
# examples/perfbench is a package of its own (BENCHMARK.json runs it), so
# nothing above compiles it. One short rep of one workload; the last stdout
# line is the result document.
cargo run --release --offline --quiet --manifest-path examples/perfbench/Cargo.toml -- \
    --workload paper-bulk --seed 1 --seconds 1 --trace 0 | tail -n 1 >/tmp/perfbench_smoke.json
grep -Eq '"correct": ?true' /tmp/perfbench_smoke.json || {
    echo "perfbench smoke did not report correct:true; last line was:" >&2
    cat /tmp/perfbench_smoke.json >&2
    exit 1
}
# fabric-ecmp as well, with a memory ceiling: peak RSS repeats to ±0.1 MB on
# one host (it is 7.9 MB here; it was 14.0 MB while every wheel bucket kept
# its own high-water allocation), so unlike wall-clock it can be gated.
cargo run --release --offline --quiet --manifest-path examples/perfbench/Cargo.toml -- \
    --workload fabric-ecmp --seed 1 --seconds 1 --trace 0 | tail -n 1 >/tmp/perfbench_smoke.json
grep -Eq '"correct": ?true' /tmp/perfbench_smoke.json || {
    echo "perfbench fabric-ecmp smoke did not report correct:true; last line was:" >&2
    cat /tmp/perfbench_smoke.json >&2
    exit 1
}
RSS_MB=$(sed -E 's/.*"peak_rss_mb": ?\{"value": ?([0-9.]+).*/\1/' /tmp/perfbench_smoke.json)
awk -v rss="$RSS_MB" 'BEGIN { exit !(rss > 0 && rss <= 10) }' || {
    echo "perfbench fabric-ecmp smoke: peak_rss_mb = $RSS_MB (limit 10)" >&2
    exit 1
}
# churn-4k and overload-4k too: their peak RSS is the world at rest (4 000
# pairs assembled; on churn-4k most of them finished, on overload-4k most of
# them mid-recovery) and repeats to 0.1 MB, so each has a ceiling (churn-4k
# reads 21.0-21.2 MB; 22.9-23.0 MB while every node owned a route table;
# overload-4k reads 25.8-26.0 MB; 29.1 MB while SACK scoreboards and
# reassembly sets were B-trees). And their simulated columns must be the ones
# results/perf_trajectory.json records for the workload and seed in its last
# row: a change that moves sim.events or the trace digest either adds a row
# saying so or is a bug.
for smoke in churn-4k:22 overload-4k:27; do
    workload=${smoke%:*}
    limit=${smoke#*:}
    cargo run --release --offline --quiet --manifest-path examples/perfbench/Cargo.toml -- \
        --workload "$workload" --seed 1 --seconds 1 --trace 0 >/tmp/perfbench_smoke.txt
    tail -n 1 /tmp/perfbench_smoke.txt >/tmp/perfbench_smoke.json
    grep -Eq '"correct": ?true' /tmp/perfbench_smoke.json || {
        echo "perfbench $workload smoke did not report correct:true; last line was:" >&2
        cat /tmp/perfbench_smoke.json >&2
        exit 1
    }
    RSS_MB=$(sed -E 's/.*"peak_rss_mb": ?\{"value": ?([0-9.]+).*/\1/' /tmp/perfbench_smoke.json)
    awk -v rss="$RSS_MB" -v limit="$limit" 'BEGIN { exit !(rss > 0 && rss <= limit) }' || {
        echo "perfbench $workload smoke: peak_rss_mb = $RSS_MB (limit $limit)" >&2
        exit 1
    }
    ROW=$(grep "\"workload\": \"$workload\", \"seed\": 1," results/perf_trajectory.json | tail -n 1)
    for column in sim.events sim.trace_digest; do
        want=$(printf '%s\n' "$ROW" | sed -E "s/.*\"$column\": \"?([0-9a-f]+)\"?.*/\1/")
        got=$(awk -v c="$column" '$1 == c { print $2 }' /tmp/perfbench_smoke.txt)
        [ -n "$want" ] && [ "$want" = "$got" ] || {
            echo "perfbench $workload smoke: $column = $got, results/perf_trajectory.json's last row says $want" >&2
            exit 1
        }
    done
done
rm -f /tmp/perfbench_smoke.json /tmp/perfbench_smoke.txt

echo "CI OK"
