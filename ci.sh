#!/usr/bin/env sh
# Full local CI gate: formatting, the lint chain, tests, output gates.
# Run from the repository root. Fails fast on the first broken stage.
set -eu

# Every stage's temporary files live in one private directory, removed on exit,
# so two runs at once never share a file.
TMP=$(mktemp -d "${TMPDIR:-/tmp}/overlap-ci.XXXXXX")
trap 'rm -rf "$TMP"' EXIT
trap 'exit 130' INT TERM

echo "==> cargo fmt --check"
cargo fmt --all -- --check

# The lint chain (DESIGN.md par 9.1). clippy.toml says what the disallowed-*
# lints match; the root Cargo.toml's [workspace.lints] sets every level, at
# the strictness production code gets. Pass 1 lints every target with
# warnings denied but relaxes the production-only lints below, so tests,
# examples, benches and the tooling crates may unwrap, index, assert and
# spawn. Pass 2 lints the simulation crates' libraries and binaries at the
# table's levels: a denied lint fails, and the ratchet holds the warned
# lints' findings to a per-(lint, file) count in results/simlint_baseline.json.
PRODUCTION_ONLY="-A clippy::unwrap_used -A clippy::expect_used -A clippy::disallowed_methods
    -A clippy::disallowed_macros -A clippy::cast_possible_truncation -A clippy::indexing_slicing
    -A clippy::integer_division_remainder_used -A clippy::panic -A clippy::unreachable"

echo "==> clippy pass 1 (every target, warnings denied)"
cargo clippy --workspace --all-targets --offline -- -D warnings $PRODUCTION_ONLY

echo "==> clippy pass 2 + ratchet (simulation crates' lib and bins; the baseline may only shrink)"
# cargo's own exit status is not read here: the ratchet fails on every error
# in the stream, and on a stream that does not end in build-finished.
cargo clippy --workspace --exclude bench --exclude xtask --lib --bins --offline --quiet \
    --message-format=json >"$TMP/pass2.json" || :
cargo run -p xtask --offline --quiet -- ratchet --baseline results/simlint_baseline.json <"$TMP/pass2.json"

echo "==> simlint (the token rules clippy cannot say: float-eq, unit-mixing, float-accum, dead pragmas)"
cargo run -p xtask --offline --quiet -- simlint

echo "==> the lint chain bites (crates/xtask/fixtures/chain: one marked violation per rule)"
# The fixture is a package outside the workspace, so it gets the workspace's
# lint levels as flags read from the root Cargo.toml; clippy finds the root
# clippy.toml itself. Exactly the marked set of (line, level, lint) must fire.
FIXTURE=crates/xtask/fixtures/chain
LEVELS=$(awk '/^\[workspace\.lints\.rust\]/ { p = ""; on = 1; next }
    /^\[workspace\.lints\.clippy\]/ { p = "clippy::"; on = 1; next }
    /^\[/ { on = 0 }
    on && $2 == "=" { gsub(/"/, "", $3); printf " --%s %s%s", $3, p, $1 }' Cargo.toml)
cargo clippy --manifest-path "$FIXTURE/Cargo.toml" --offline --quiet --message-format=json \
    --target-dir target/lint-fixture -- $LEVELS >"$TMP/fixture.json" 2>/dev/null || :
{
    cargo run -p xtask --offline --quiet -- ratchet <"$TMP/fixture.json" || :
    cargo run -p xtask --offline --quiet -- simlint "$FIXTURE/src/lib.rs" || :
} | sed -nE 's/^[^ ]*lib\.rs:([0-9]+):[0-9]+: ((error|warning)?\[[^]]*\]).*/\1 \2/p' | sort >"$TMP/fired"
awk '{ i = index($0, "//~"); if (i) { n = split(substr($0, i + 3), w, " "); for (k = 1; k <= n; k++) print NR, w[k] } }' \
    "$FIXTURE/src/lib.rs" | sort >"$TMP/marked"
diff "$TMP/marked" "$TMP/fired" || {
    echo "the lint chain no longer fires exactly as $FIXTURE/src/lib.rs marks (< marked, > fired)" >&2
    exit 1
}

echo "==> every crate root forbids unsafe code"
if grep -L '^#!\[forbid(unsafe_code)\]' crates/*/src/lib.rs crates/*/src/main.rs src/lib.rs | grep .; then
    echo "add #![forbid(unsafe_code)] to the crate roots above" >&2
    exit 1
fi

echo "==> perfbench stays deterministic (its own package, so neither clippy pass reaches it)"
if grep -rnw -e HashMap -e HashSet examples/perfbench/src ||
    grep -rnw -e Instant -e SystemTime examples/perfbench/src | grep -v '^examples/perfbench/src/clock.rs:'; then
    echo "perfbench: no hash collections, and wall-clock time only in clock.rs" >&2
    exit 1
fi

echo "==> cargo test"
cargo test --workspace --offline -q

echo "==> one world builder (only crates/core/src/world.rs may construct a simulator or an MPTCP sender)"
# (`if`, not `!`: sh's -e ignores a negated pipeline.) Repo-root tests build
# simulators through World too; they may still drive a bare agent via Ctx::new.
if {
    grep -rn "Simulator::new\|MptcpSenderAgent::new" crates/core/src examples/*.rs
    grep -rn "Simulator::new" tests/*.rs
} |
    grep -v "^crates/core/src/world.rs:"; then
    echo "build it through overlap_core::World instead" >&2
    exit 1
fi

echo "==> perfbench's compatibility shim is the root crate's (no other code names src/perfbench_compat.rs)"
# It keeps two signatures examples/perfbench compiles against (its module doc
# lists them); nothing under crates/, tests/ or the other examples may use it.
if grep -rn "perfbench_compat" crates/ tests/ examples/*.rs; then
    echo "the shim serves examples/perfbench only: use the sim crates' own API" >&2
    exit 1
fi

echo "==> nothing deleted comes back (each line below: paths | extended regex | where its replacement is documented)"
# One hit anywhere fails the stage, after every line has been searched. The
# paths are word-split and globbed on purpose.
DELETED=0
while IFS= read -r line; do
    paths=${line%% | *}
    rest=${line#* | }
    pattern=${rest%% | *}
    message=${rest#* | }
    # shellcheck disable=SC2086
    if grep -rnE -e "$pattern" $paths; then
        echo "$message" >&2
        DELETED=1
    fi
done <<'EOF'
crates/ | EventLog|Arc<Mutex|feature = "check"|Mirrored< | deleted (DESIGN.md par 9.2, par 6): count into SimStats or an agent counter, keep state in the one agent that owns it and lend it per call, keep checks unconditional
crates/tcpsim/src crates/mptcpsim/src crates/simtrace/src | BTreeMap<u64, u64> | replaced (DESIGN.md par 4): keep byte ranges in tcpsim::RangeSet and delivered ids in simtrace::Invariants' sorted vector
crates/netsim/src | ExactRoutes | replaced (DESIGN.md par 6, par 15): no per-node exact-route table; tagged routes live in netsim::RoutingTables' route sets
crates/netsim/src/routing.rs | BTreeMap<NodeId | replaced (DESIGN.md par 15): no per-node B-tree of untagged routes; they live in netsim::RoutingTables' destination-sorted rows
crates/ | PayloadWriter | replaced (DESIGN.md par 4 tcpsim, Wire realism): encode into one [u8; INLINE_CAP] with to_be_bytes and Payload::from_array
crates/tcpsim/src/wire.rs | put_u8|get_u32|bytes::Buf | replaced (DESIGN.md par 4 tcpsim, Wire realism): decode through first_chunk / split_first_chunk; the byte-at-a-time codec lives on only as the test oracle in crates/tcpsim/src/wire/tests/reference.rs
crates/ | dyn (Queue|Scheduler|Invariant)\b|fn clone_box\b | replaced in PR 25 (DESIGN.md par 4): netsim::Queue and mptcpsim::SchedulerKind are enums, simtrace::Invariants is one struct; add a variant, not a trait object
crates/ tests/ examples/*.rs | TcpSenderAgent|TcpReceiverAgent|AppSource::Paced|delayed_ack|cwnd_trace|fn close\b|fin_received|without_hystart|without_fast_convergence|with_min_rtt_window|peer_isn|join_jitter|schedule_link_down | deleted (DESIGN.md par 3, par 8): a single-path flow is a one-subflow MPTCP connection; sample a sender's state from outside with World::run_until; a subflow never closes, its ISN, MSS, RTO clamps, join timing and CUBIC's switches are constants, and faults go in through install_faults
crates/ tests/ examples/*.rs | MobileNetConfig|MobilityProfile|FluidConfig|FluidParams|WorldgenConfig|fn fluid_config|--smoke | deleted (DESIGN.md par 4, par 9.4, par 12): a setting no run varies is a named constant next to the code that reads it, fluidsim::solve takes only a horizon, and the table bins assert their gates while they print
crates/ tests/ examples/*.rs | all_simple_paths|k_shortest_paths|pairwise_bottlenecks|SetLoss|SetQueue|set_link_queue|loss_burst|capacity_dip|DropTailBytes|RedConfig|CoDelConfig|Sense::|LpOutcome::Infeasible | deleted (DESIGN.md par 4): every path is hand-built or placed, faults are outages and capacity/delay changes, drop-tail counts packets, RED and CoDel run at fixed constants (RED's one setting is ecn_marking), and every LP row is a <= capacity row solved in one phase
crates/ tests/ examples/*.rs | set_ecmp_group|set_ecmp_seed|ecmp_groups|ByteSize | deleted in PR 39 (DESIGN.md par 4, par 6, par 12.2): no packet is hashed; the fat tree places a subflow by arithmetic (worldgen::fattree's ecmp_select) and pins it by tag, netsim's FIB keeps tag and default routes only, and simbase's one unit type is Bandwidth
crates/ tests/ examples/*.rs src/ | ConvergenceReport|analyze_sustained|converged_at|mean_convergence_s|converged_fraction|relax_constraint | deleted (DESIGN.md par 6, "Steady window"): a run's steady state is its second half, whether it reached the optimum is read off each LP-tight bottleneck's utilisation (MaxThroughput::utilisation), and shadow prices are the duals of one solve (LpOutcome::Optimal's duals)
crates/ tests/ examples/*.rs src/ | NodeInfo|VecDeque<(Queued|PacketHandle)> | deleted (DESIGN.md par 4 netsim, par 15): a topology keeps no allocation per node (names in one arena, read with Topology::node_name; adjacency threaded through the link table), and a drop-tail FIFO is a list linked through the packet slab, not a buffer
crates/ tests/ examples/*.rs src/ | impl (AgentClone|SinkClone|CcClone) for ([^T]|T[^ ])|as_any_mut|downcast_mut|fn rebind|fn rebase|deep_clone|SNAPSHOT_VERSION|WorldCheckpoint|WVegasCc | deleted (DESIGN.md par 13.3): a checkpoint is Clone; netsim::AgentClone and netsim::SinkClone each have one blanket impl for every Clone type and no per-type one, a snapshot is a frozen Simulator with no version, World clones deep, and MptcpSenderAgent derives Clone, its controllers (wVegas's too) one mptcpsim::cc::Control field it lends per call
crates/netsim/src crates/tcpsim/src crates/mptcpsim/src tests/ | \bflow_hash\b|Repr::Heap|send_ecn|AckResult|is_retransmission|max_queue_bytes|drop_bytes|len_bytes | deleted (DESIGN.md par 4): a packet carries what the network reads (no flow hash: a subflow is pinned by its tag; the payload is one inline array; one Ctx::send takes the ECN codepoint), a link direction counts packets, not queue or drop bytes, and TcpSender::on_ack returns nothing
crates/tcpsim/src crates/mptcpsim/src | Rc<RefCell|RefCell<CoupleState|OwnWindow|CcClone|clone_boxed|fn cc_mut|fn controller\( | deleted (DESIGN.md par 13.3): a connection owns its controllers in one mptcpsim::cc::Control and lends a subflow sender one per call, a coupled one as a CoupledCc view over the CoupleState, so no state is shared, no window mirrored and no controller rebuilt at a checkpoint
crates/ tests/ examples/*.rs | release_min_filter|\bmin_filter\b | deleted in PR 46 (DESIGN.md par 15): the RTT estimator is RFC 6298 only; the windowed minimum is tcpsim::rtt::MinRttFilter, held by a live sender only for a controller whose reads_min_rtt() is true
crates/ tests/ examples/*.rs src/ | RenoUncoupled|\bReno::new\b|cc::Reno\b|reno\.rs | deleted (DESIGN.md par 4): a connection's controllers are uncoupled CUBIC values or one CoupleState; fluidsim's FluidLaw::Reno is the fluid AIMD reference only
crates/ tests/ examples/*.rs src/ | \bReceiverStats\b|bytes_in_order|bytes_scheduled|assumed_peer_window|LossContext|OPT_MSS|MSS_LEN|\b(syn|fin|rst): |flags\.(syn|fin|rst)\b | deleted (DESIGN.md par 3, par 4): the subflow stack keeps what a run reads; no segment carries SYN, FIN, RST or an MSS option, every receiver advertises and every sender assumes tcpsim::RECEIVE_WINDOW, and a controller's loss callbacks take the flight size
crates/netsim/src | fn step\b | deleted (DESIGN.md par 9.2): run_until is the one run loop; to pop what was just scheduled at now, run_until(now)
EOF
[ "$DELETED" -eq 0 ] || exit 1

echo "==> sweep-runner smoke test (release, serial vs pooled must match)"
cargo build --release --offline -q -p bench
OVERLAP_WORKERS=1 ./target/release/table1_results 3 2 2>/dev/null >"$TMP/sweep_serial.txt"
OVERLAP_WORKERS=4 ./target/release/table1_results 3 2 2>/dev/null >"$TMP/sweep_pooled.txt"
cmp "$TMP/sweep_serial.txt" "$TMP/sweep_pooled.txt" || {
    echo "sweep runner output differs between 1 and 4 workers" >&2
    exit 1
}

echo "==> warm run-store smoke (second pass must be 100% hits, zero simulations; damaged records are misses)"
# Content-addressed run store (DESIGN.md par 13): the same table generated
# twice against one OVERLAP_STORE directory. The cold pass simulates and
# persists; the warm pass must answer every cell from disk (stderr reports
# simulations=0) and produce byte-identical stdout.
STORE_DIR="$TMP/store"
mkdir "$STORE_DIR"
OVERLAP_STORE="$STORE_DIR" ./target/release/table1_results 3 2 \
    >"$TMP/store_cold.txt" 2>"$TMP/store_cold.log"
OVERLAP_STORE="$STORE_DIR" ./target/release/table1_results 3 2 \
    >"$TMP/store_warm.txt" 2>"$TMP/store_warm.log"
grep 'store: hits=45 simulations=0 ' "$TMP/store_warm.log" >/dev/null || {
    echo "warm store pass still simulated; stderr was:" >&2
    cat "$TMP/store_warm.log" >&2
    exit 1
}
cmp "$TMP/store_cold.txt" "$TMP/store_warm.txt" || {
    echo "warm store pass produced different output than the cold pass" >&2
    exit 1
}
# A damaged record is a miss with a warning, never data: overwrite the first
# payload byte of one record (the high byte of its path count, always 0) and
# cut the last byte off another. The third pass re-simulates exactly those two.
set -- "$STORE_DIR"/*.run
printf '\377' | dd of="$1" bs=1 seek=16 conv=notrunc 2>/dev/null
truncate -s -1 "$2"
OVERLAP_STORE="$STORE_DIR" ./target/release/table1_results 3 2 \
    >"$TMP/store_bad.txt" 2>"$TMP/store_bad.log"
grep 'store: hits=43 simulations=2 ' "$TMP/store_bad.log" >/dev/null &&
    [ "$(grep -c 'unreadable' "$TMP/store_bad.log")" -eq 2 ] || {
    echo "damaged records were not two warned misses; stderr was:" >&2
    cat "$TMP/store_bad.log" >&2
    exit 1
}
cmp "$TMP/store_cold.txt" "$TMP/store_bad.txt" || {
    echo "store pass over damaged records produced different output than the cold pass" >&2
    exit 1
}

echo "==> horizon-independence gate (paper net, LIA, 30 s then 120 s: VmHWM growth <= 256 KB)"
# The measurement path streams (DESIGN.md par 14): a run holds O(bins) of
# capture state, so a 4x longer run must not need more memory. A buffered
# capture would add ~40 MB here.
./target/release/horizon_gate

echo "==> results/*.txt byte-diff regeneration check (five tables, the paper's Figures 1c and 2a-c)"
# worldgen_table's S5 pins two absolute trace hashes; fig2a is the paper's
# headline CUBIC run. table1_results (5 seeds x 30 s, its defaults) prints
# table1.txt, the paper's Results-section table read over each run's second
# half: per-path means, each LP-tight bottleneck's utilisation, the share of
# seeds at x* (every such bottleneck >= 95 % busy) and nearer x* than the
# default path's greedy corner. table2_sweep prints table2.txt, the
# ablations. ~25 s each on two cores.
for bin in fluid_table worldgen_table failover_table fig1c fig2a fig2b fig2c table1_results table2_sweep; do
    case $bin in
    table1_results) out=table1 ;;
    table2_sweep) out=table2 ;;
    *) out=$bin ;;
    esac
    ./target/release/$bin 2>/dev/null >"$TMP/results_regen.txt"
    cmp "$TMP/results_regen.txt" results/$out.txt || {
        echo "results/$out.txt is stale: regenerate with" >&2
        echo "  cargo run -p bench --bin $bin --release > results/$out.txt" >&2
        exit 1
    }
done

echo "==> queue traffic gate (sim_counters 1: queue pushes, pops and elided TxDones equal the trajectory's last row)"
# The work counters are deterministic, so the event queue's traffic is gated
# exactly, not timed: a change that moves it adds a perf_trajectory.json row
# per workload saying so.
./target/release/sim_counters 1 >"$TMP/sim_counters.txt"
for workload in fabric-ecmp churn-4k overload-4k; do
    ROW=$(grep "\"workload\": \"$workload\", \"seed\": 1," results/perf_trajectory.json | tail -n 1)
    for counter in queue.pushes queue.pops netsim.tx_done_elided; do
        want=$(printf '%s\n' "$ROW" | sed -nE "s/.*\"$counter\": ([0-9]+).*/\1/p")
        got=$(awk -v w="== $workload" -v c="$counter" '$0 == w { on = 1; next } /^==/ { on = 0 } on && $1 == c { print $2 }' "$TMP/sim_counters.txt")
        [ -n "$want" ] && [ "$want" = "$got" ] || {
            echo "sim_counters $workload: $counter = $got, results/perf_trajectory.json's last row says $want" >&2
            exit 1
        }
    done
done

echo "==> example smoke (every example in README's table must run to exit 0)"
for example in failover cwnd_dynamics quickstart paper_figure2 scheduler_comparison datacenter_ecmp wifi_cellular; do
    cargo run --release --offline --quiet --example "$example" >/dev/null
done

echo "==> perfbench smoke (the benchmark still builds against the crates and its checks pass)"
# examples/perfbench is a package of its own (BENCHMARK.json runs it), so
# nothing above compiles it. One short rep of each of five workloads; the last
# stdout line is the result document. Every smoke's simulated columns must be
# the ones results/perf_trajectory.json records for the workload and seed in
# its last row: a change that moves sim.events or the trace digest either adds
# a row saying so or is a bug.
# fabric-ecmp, churn-4k and overload-4k also have a memory ceiling: peak RSS
# repeats to 0.1-0.2 MB on one host, so unlike wall-clock it can be gated.
# They read 4.4, 12.7 and 17.4 MB (seed 1; churn-4k and overload-4k are the
# world at rest, 4 000 pairs assembled, most finished on churn-4k and most
# mid-recovery on overload-4k). Each ceiling keeps the margin it had over
# the reading before (about 2.1, 1.7 and 3.7 MB): when a reading falls, its
# ceiling falls by as much, and no ceiling rises. The per-PR readings are in
# DESIGN.md par 15 and CHANGES.md. regen-service (~35 s on two cores) is
# table regeneration end to end: runner, store, faults, checkpoint/branch
# and a fluid solve. 0 means no ceiling.
for smoke in paper-bulk:0 fabric-ecmp:6.5 churn-4k:14.5 overload-4k:21.1 regen-service:0; do
    workload=${smoke%:*}
    limit=${smoke#*:}
    cargo run --release --offline --quiet --manifest-path examples/perfbench/Cargo.toml -- \
        --workload "$workload" --seed 1 --seconds 1 --trace 0 >"$TMP/perfbench_smoke.txt"
    tail -n 1 "$TMP/perfbench_smoke.txt" >"$TMP/perfbench_smoke.json"
    grep -Eq '"correct": ?true' "$TMP/perfbench_smoke.json" || {
        echo "perfbench $workload smoke did not report correct:true; last line was:" >&2
        cat "$TMP/perfbench_smoke.json" >&2
        exit 1
    }
    RSS_MB=$(sed -E 's/.*"peak_rss_mb": ?\{"value": ?([0-9.]+).*/\1/' "$TMP/perfbench_smoke.json")
    awk -v rss="$RSS_MB" -v limit="$limit" 'BEGIN { exit !(rss > 0 && (limit == 0 || rss <= limit)) }' || {
        echo "perfbench $workload smoke: peak_rss_mb = $RSS_MB (limit $limit)" >&2
        exit 1
    }
    ROW=$(grep "\"workload\": \"$workload\", \"seed\": 1," results/perf_trajectory.json | tail -n 1)
    for column in sim.events sim.trace_digest; do
        want=$(printf '%s\n' "$ROW" | sed -E "s/.*\"$column\": \"?([0-9a-f]+)\"?.*/\1/")
        got=$(awk -v c="$column" '$1 == c { print $2 }' "$TMP/perfbench_smoke.txt")
        [ -n "$want" ] && [ "$want" = "$got" ] || {
            echo "perfbench $workload smoke: $column = $got, results/perf_trajectory.json's last row says $want" >&2
            exit 1
        }
    done
done

echo "CI OK"
