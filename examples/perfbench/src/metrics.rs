//! The benchmark's metric tables: the one place a metric's name, unit,
//! direction and bound are written down. `BENCHMARK.json` is printed from
//! these tables (`perfbench manifest`) and `selfcheck` fails if the checked-in
//! file has drifted from them.

use crate::stats::Better::{self, Higher, Lower};
use crate::workloads::Workload;
use std::fmt::Write as _;

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

/// How long one run measures, seconds (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 12;

// The time metrics and peak RSS all carry the contract's widest bound. The
// sizing host (a 2-vCPU microVM on a shared machine) drifts: across three
// ten-seed passes within two hours, medians moved by up to 16 % (`wall_s`,
// fabric-ecmp) and the interquartile spread across seeds reached 9 %
// (README, "Known noise sources"). A tighter bound there rejects innocent
// changes. Gains are shown by alternating pairs, not by this gate.
#[rustfmt::skip] // one row per metric
pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd { name: "wall_s", unit: "s", better: Lower, bound: 0.25 },
    EndToEnd { name: "events_per_s", unit: "1/s", better: Higher, bound: 0.25 },
    EndToEnd { name: "goodput_mb_per_s", unit: "MB/s", better: Higher, bound: 0.25 },
    EndToEnd { name: "peak_rss_mb", unit: "MB", better: Lower, bound: 0.25 },
    EndToEnd { name: "setup_s", unit: "s", better: Lower, bound: 0.25 },
    // 1 - fail_share: a metric the driver compares must never read 0.
    // One failed op in the largest run (780 ops) moves it by 0.0013.
    EndToEnd { name: "ok_share", unit: "ratio", better: Higher, bound: 0.001 },
];

pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// The end-to-end metric and workload the layer metric should move.
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> Layer {
    Layer {
        name,
        unit,
        better,
        moves,
    }
}

#[rustfmt::skip] // one row per metric
pub const PER_LAYER: [Layer; 56] = [
    layer("netsim.run_until_s", "s", Lower, "wall_s, events_per_s on all"),
    layer("netsim.run_share", "ratio", Higher, "wall_s on all; rises as post-passes shrink"),
    layer("simtrace.hash_s", "s", Lower, "wall_s on paper-bulk"),
    layer("simtrace.invariants_s", "s", Lower, "wall_s on paper-bulk"),
    layer("simtrace.sampler_s", "s", Lower, "wall_s on paper-bulk"),
    layer("simtrace.ns_per_record", "ns", Lower, "wall_s on paper-bulk"),
    layer("netsim.capture_records", "count", Lower, "peak_rss_mb on paper-bulk"),
    layer("netsim.routing_build_s", "s", Lower, "wall_s on churn-4k, overload-4k, fabric-ecmp"),
    layer("netsim.sim_build_s", "s", Lower, "wall_s on churn-4k, overload-4k, fabric-ecmp"),
    layer("netsim.teardown_s", "s", Lower, "wall_s on churn-4k, overload-4k, fabric-ecmp"),
    layer("worldgen.fattree_build_s", "s", Lower, "wall_s on fabric-ecmp"),
    layer("worldgen.path_place_s", "s", Lower, "wall_s on fabric-ecmp"),
    layer("worldgen.traffic_program_s", "s", Lower, "wall_s on churn-4k, overload-4k"),
    layer("worldgen.traffic_net_s", "s", Lower, "wall_s on churn-4k, overload-4k"),
    layer("netsim.hops", "count", Lower, "explains events_per_s gaps between workloads"),
    layer("netsim.drops", "count", Lower, "explains events_per_s gaps between workloads"),
    layer("netsim.max_queue_pkts", "count", Lower, "explains events_per_s gaps between workloads"),
    layer("netsim.timers_fired", "count", Lower, "explains events_per_s gaps between workloads"),
    layer("netsim.timers_cancelled", "count", Lower, "explains events_per_s gaps between workloads"),
    layer("netsim.hop_ns.paper", "ns", Lower, "events_per_s on paper-bulk (least)"),
    layer("netsim.hop_ns.fattree", "ns", Lower, "events_per_s on fabric-ecmp (most)"),
    layer("simbase.queue.hold_ns.n64", "ns", Lower, "events_per_s on paper-bulk"),
    layer("simbase.queue.hold_ns.n4096", "ns", Lower, "events_per_s on overload-4k"),
    layer("simbase.queue.dead_fraction", "ratio", Lower, "events_per_s on overload-4k"),
    layer("tcpsim.segment_ns.clean", "ns", Lower, "events_per_s on paper-bulk, churn-4k"),
    layer("tcpsim.segment_ns.lossy", "ns", Lower, "events_per_s on overload-4k"),
    layer("tcpsim.cc_ack_ns.cubic", "ns", Lower, "events_per_s on paper-bulk"),
    layer("mptcpsim.cc_ack_ns.lia", "ns", Lower, "events_per_s on paper-bulk"),
    layer("mptcpsim.cc_ack_ns.olia", "ns", Lower, "events_per_s on paper-bulk"),
    layer("tcpsim.wire_roundtrip_ns", "ns", Lower, "events_per_s on paper-bulk"),
    layer("tcpsim.segments_sent", "count", Lower, "explains goodput_mb_per_s vs events_per_s"),
    layer("tcpsim.retransmits", "count", Lower, "goodput_mb_per_s on overload-4k"),
    layer("tcpsim.rtos", "count", Lower, "goodput_mb_per_s on overload-4k"),
    layer("tcpsim.retx_share", "ratio", Lower, "goodput_mb_per_s on overload-4k (high), churn-4k (low)"),
    layer("mptcpsim.conns_started", "count", Higher, "context for churn-4k, overload-4k"),
    layer("mptcpsim.conns_finished", "count", Higher, "context for churn-4k, overload-4k"),
    layer("mptcpsim.dup_bytes", "bytes", Lower, "context for churn-4k, overload-4k"),
    layer("lpsolve.solve_us", "us", Lower, "wall_s on regen-service only"),
    layer("lpsolve.cache_hits", "count", Higher, "wall_s on regen-service only"),
    layer("lpsolve.cache_misses", "count", Lower, "wall_s on regen-service only"),
    layer("core.digest_us", "us", Lower, "wall_s on regen-service"),
    layer("core.store.put_us", "us", Lower, "wall_s on regen-service"),
    layer("core.store.get_us", "us", Lower, "wall_s on regen-service"),
    layer("core.store.bytes_per_record", "bytes", Lower, "wall_s on regen-service"),
    layer("core.store.warm_pass_s", "s", Lower, "wall_s on regen-service"),
    layer("core.sweep_cold_s", "s", Lower, "wall_s, events_per_s on regen-service"),
    layer("core.runner.pool_efficiency", "ratio", Higher, "wall_s, events_per_s on regen-service"),
    layer("core.branch_sweep_s", "s", Lower, "wall_s on regen-service"),
    layer("core.branch_speedup", "ratio", Higher, "wall_s on regen-service"),
    layer("netsim.checkpoint_s", "s", Lower, "wall_s, peak_rss_mb on regen-service"),
    layer("netsim.restore_s", "s", Lower, "wall_s, peak_rss_mb on regen-service"),
    layer("netsim.fault_events", "count", Lower, "context for regen-service"),
    layer("core.scenario_overhead_s", "s", Lower, "wall_s on paper-bulk"),
    layer("fluidsim.solve_s", "s", Lower, "none of the five wall_s (fluid_table regen cost)"),
    layer("host.alloc_fault_share", "ratio", Lower, "wall_s, peak_rss_mb on churn-4k, overload-4k"),
    layer("trace.overhead_pct", "%", Lower, "none (cost of the traced run itself)"),
];

/// One line on why each workload exists (`why` in `BENCHMARK.json`).
pub fn why(w: Workload) -> &'static str {
    match w {
        Workload::PaperBulk => "The paper's experiment: tiny world, long flows, so tcpsim/mptcpsim segment and CC logic and a shallow event queue dominate.",
        Workload::FabricEcmp => "Six-hop forwarding over hundreds of link queues with per-switch ECMP: netsim forwarding and worldgen placement do the work.",
        Workload::Churn4k => "Sustainable load where every connection opens, transfers and finishes: per-connection set-up, teardown and allocation on a mostly loss-free path.",
        Workload::Overload4k => "Same layers as churn-4k at 2.8x capacity: thousands of loss-bound connections, RTOs, retransmits and a deep event queue.",
        Workload::RegenService => "What table regeneration does: the runner's worker pool, LP cache, scenario digest, store codec, faults and checkpoint/branch.",
    }
}

fn name_ok(name: &str) -> bool {
    let first = name
        .chars()
        .next()
        .is_some_and(|c| c.is_ascii_alphanumeric());
    first
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn unit_ok(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// Assert the tables fit the benchmark contract's limits (`selfcheck`).
pub fn selfcheck() {
    let workloads: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert!((2..=8).contains(&workloads.len()));
    assert!((1..=16).contains(&END_TO_END.len()));
    assert!((1..=128).contains(&PER_LAYER.len()));
    let mut names: Vec<&str> = workloads.clone();
    names.extend(END_TO_END.iter().map(|m| m.name));
    names.extend(PER_LAYER.iter().map(|m| m.name));
    for n in &names {
        assert!(name_ok(n), "bad name {n:?}");
    }
    let total = names.len();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), total, "a name is used twice");
    for (unit, bound) in END_TO_END.iter().map(|m| (m.unit, m.bound)) {
        assert!(unit_ok(unit), "bad unit {unit:?}");
        assert!(
            bound > 0.0 && bound <= 0.25,
            "bound {bound} outside (0, 0.25]"
        );
    }
    assert!(PER_LAYER.iter().all(|m| unit_ok(m.unit)));
    let setup = END_TO_END
        .iter()
        .find(|m| m.name == "setup_s")
        .expect("setup_s");
    assert!(setup.unit == "s" && setup.better == Lower);
    assert!(
        END_TO_END.iter().all(|m| m.bound <= setup.bound),
        "setup_s has the largest bound"
    );
    for w in Workload::ALL {
        assert!(why(w).len() <= 200 && !why(w).contains('\n'));
    }
}

/// The text of `BENCHMARK.json`.
pub fn manifest() -> String {
    let mut out = String::from("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \"--manifest-path\", \"examples/perfbench/Cargo.toml\", \"--\"],\n",
    );
    out.push_str("  \"paths\": [\"examples/perfbench\"],\n");
    let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
    let rows = |out: &mut String, key: &str, rows: Vec<String>| {
        let _ = writeln!(out, "  \"{key}\": [");
        let _ = writeln!(out, "    {}", rows.join(",\n    "));
        out.push_str("  ]");
    };
    rows(
        &mut out,
        "workloads",
        Workload::ALL
            .iter()
            .map(|&w| format!("{{\"name\": \"{}\", \"why\": \"{}\"}}", w.name(), why(w)))
            .collect(),
    );
    out.push_str(",\n");
    rows(
        &mut out,
        "end_to_end",
        END_TO_END
            .iter()
            .map(|m| {
                format!(
                    "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                    m.name,
                    m.unit,
                    m.better.as_str(),
                    m.bound
                )
            })
            .collect(),
    );
    out.push_str(",\n");
    rows(
        &mut out,
        "per_layer",
        PER_LAYER
            .iter()
            .map(|m| {
                format!(
                    "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                    m.name,
                    m.unit,
                    m.better.as_str()
                )
            })
            .collect(),
    );
    out.push_str("\n}\n");
    out
}
