//! The harness's only view of host time.
//!
//! simlint's wall-clock rule applies under `examples/` and fires on every
//! line that names the standard monotonic clock type, so that name appears
//! exactly once in this package — in the alias below — and everything else
//! goes through [`Stamp`].

/// A point in host time.
// simlint: allow(wall-clock, reason = "benchmark harness: host time is the measured quantity and never reaches a simulation input")
pub type Stamp = std::time::Instant;

/// Now.
pub fn now() -> Stamp {
    Stamp::now()
}

/// Host seconds since `since`.
pub fn secs_since(since: Stamp) -> f64 {
    since.elapsed().as_secs_f64()
}

/// Run `f` and return its result with the host seconds it took.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = now();
    let r = f();
    (r, secs_since(t0))
}

// ---------------------------------------------------------------------------
// Clock-drift compensation
// ---------------------------------------------------------------------------
//
// The host this benchmark was sized on changes its core clock by ~28 % from
// one second to the next (a shared machine: turbo comes and goes with the
// neighbours' load), and every workload's wall time moves with it exactly
// as a pure dependent-ALU chain does. A median over reps cannot remove a
// state that lasts longer than a run, so the harness measures it: it times a
// fixed compute chain ("pace") before and after each measured region and
// reports the region's wall time at a fixed reference pace.

/// Steps of the chain one pace probe runs (≈ 6 ms).
const PACE_STEPS: u64 = 3_000_000;

/// The pace all times are reported at, ns per step: the sizing host's usual
/// (base-clock) state, so compensated and raw seconds agree there. Only
/// ratios between runs matter; the constant never changes.
pub const REFERENCE_PACE: f64 = 1.885;

/// The host's pace now, ns per chain step: the fastest of three probes, so
/// an interrupt landing in one does not count.
pub fn pace() -> f64 {
    (0..3)
        .map(|_| {
            let t0 = now();
            let mut x = std::hint::black_box(88_172_645_463_325_252u64);
            for _ in 0..PACE_STEPS {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
            }
            std::hint::black_box(x);
            secs_since(t0) * 1e9 / PACE_STEPS as f64
        })
        .fold(f64::INFINITY, f64::min)
}

/// The factor that turns a wall time measured between two pace probes into
/// seconds at [`REFERENCE_PACE`].
pub fn to_reference(pace_before: f64, pace_after: f64) -> f64 {
    REFERENCE_PACE / ((pace_before + pace_after) / 2.0)
}
