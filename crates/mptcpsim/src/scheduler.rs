//! Packet schedulers: which subflow carries the next chunk of data.
//!
//! The paper uses the default Linux MPTCP scheduler — lowest smoothed RTT
//! among subflows with window space ([`SchedulerKind::MinRtt`]).
//! [`SchedulerKind::RoundRobin`] and [`SchedulerKind::Redundant`] are
//! provided for the scheduler ablation experiment.

use simbase::SimDuration;

/// What the scheduler may know about each *active* subflow.
#[derive(Debug, Clone, Copy)]
pub struct SubflowSnapshot {
    /// Subflow index.
    pub idx: usize,
    /// Smoothed RTT (None before the first sample).
    pub srtt: Option<SimDuration>,
    /// True if the subflow can take a chunk right now (window space and an
    /// empty backlog). Work-conserving schedulers pick among eligible
    /// subflows; the redundant scheduler replicates to every active one.
    pub eligible: bool,
}

/// A scheduling decision: which subflows receive the next chunk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Assignment {
    /// No eligible subflow; stop allocating for now.
    None,
    /// One subflow gets the chunk.
    One(usize),
    /// Every listed subflow gets a copy of the chunk (same DSN range).
    Replicate(Vec<usize>),
}

/// The packet scheduler. [`assign`](Self::assign) is a function of the
/// active subflows' snapshots plus round-robin's rotation, which the
/// connection owns, so a checkpoint copies a scheduler by copying the
/// connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchedulerKind {
    /// Lowest smoothed RTT first (the Linux default). Subflows without an
    /// RTT sample sort after sampled ones, tie-broken by index — so subflow
    /// 0 is the "default path" at connection start, matching the paper's
    /// setup where the first subflow runs on the default route.
    MinRtt,
    /// Strict rotation over eligible subflows.
    RoundRobin,
    /// Send every chunk on every active subflow (latency-oriented; wastes
    /// capacity — the "Low Latency via Redundancy" idea cited in the
    /// paper's introduction).
    Redundant,
}

impl SchedulerKind {
    /// Decide who gets the next chunk. `subs` lists all *active* subflows;
    /// `rotation` is round-robin's last pick, which the other schedulers
    /// leave alone. Callers avoid calling this with no eligible subflow,
    /// but a fault can fail every subflow between snapshot and assignment,
    /// so an empty eligible set yields [`Assignment::None`], not a panic.
    pub fn assign(self, subs: &[SubflowSnapshot], rotation: &mut Option<usize>) -> Assignment {
        match self {
            SchedulerKind::MinRtt => match subs
                .iter()
                .filter(|s| s.eligible)
                .min_by_key(|s| (s.srtt.unwrap_or(SimDuration::MAX), s.idx))
            {
                Some(best) => Assignment::One(best.idx),
                None => Assignment::None,
            },
            SchedulerKind::RoundRobin => {
                // The first eligible subflow with index greater than the
                // last pick, wrapping around. Regression: this used to index
                // `eligible[0]` unconditionally and panicked when a fault
                // failed every subflow between snapshot and assignment.
                let eligible: Vec<usize> =
                    subs.iter().filter(|s| s.eligible).map(|s| s.idx).collect();
                let Some(&first) = eligible.first() else {
                    return Assignment::None;
                };
                let next = match *rotation {
                    None => first,
                    Some(last) => eligible
                        .iter()
                        .copied()
                        .find(|&i| i > last)
                        .unwrap_or(first),
                };
                *rotation = Some(next);
                Assignment::One(next)
            }
            SchedulerKind::Redundant => {
                // Every active subflow gets a copy, eligible or not: the fast
                // path drives progress and slower paths queue their copies
                // as backlog.
                if subs.is_empty() {
                    return Assignment::None;
                }
                Assignment::Replicate(subs.iter().map(|s| s.idx).collect())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(idx: usize, srtt_ms: Option<u64>) -> SubflowSnapshot {
        SubflowSnapshot {
            idx,
            srtt: srtt_ms.map(SimDuration::from_millis),
            eligible: true,
        }
    }

    #[test]
    fn minrtt_picks_lowest_rtt() {
        let s = SchedulerKind::MinRtt;
        let elig = [snap(0, Some(20)), snap(1, Some(5)), snap(2, Some(10))];
        assert_eq!(s.assign(&elig, &mut None), Assignment::One(1));
    }

    #[test]
    fn minrtt_skips_ineligible() {
        let s = SchedulerKind::MinRtt;
        let mut subs = [snap(0, Some(5)), snap(1, Some(20))];
        subs[0].eligible = false;
        assert_eq!(s.assign(&subs, &mut None), Assignment::One(1));
    }

    #[test]
    fn redundant_includes_ineligible_active_subflows() {
        let s = SchedulerKind::Redundant;
        let mut subs = [snap(0, None), snap(1, None)];
        subs[1].eligible = false;
        assert_eq!(
            s.assign(&subs, &mut None),
            Assignment::Replicate(vec![0, 1])
        );
    }

    #[test]
    fn minrtt_prefers_sampled_over_unsampled() {
        let s = SchedulerKind::MinRtt;
        let elig = [snap(0, None), snap(1, Some(50))];
        assert_eq!(s.assign(&elig, &mut None), Assignment::One(1));
    }

    #[test]
    fn minrtt_breaks_ties_by_index() {
        let s = SchedulerKind::MinRtt;
        let elig = [snap(2, None), snap(0, None)];
        assert_eq!(s.assign(&elig, &mut None), Assignment::One(0));
        let elig = [snap(1, Some(10)), snap(0, Some(10))];
        assert_eq!(s.assign(&elig, &mut None), Assignment::One(0));
    }

    #[test]
    fn round_robin_rotates_and_wraps() {
        let (s, mut last) = (SchedulerKind::RoundRobin, None);
        let elig = [snap(0, None), snap(1, None), snap(2, None)];
        assert_eq!(s.assign(&elig, &mut last), Assignment::One(0));
        assert_eq!(s.assign(&elig, &mut last), Assignment::One(1));
        assert_eq!(s.assign(&elig, &mut last), Assignment::One(2));
        assert_eq!(s.assign(&elig, &mut last), Assignment::One(0));
    }

    #[test]
    fn round_robin_skips_ineligible() {
        let (s, mut last) = (SchedulerKind::RoundRobin, None);
        let all = [snap(0, None), snap(1, None), snap(2, None)];
        assert_eq!(s.assign(&all, &mut last), Assignment::One(0));
        // Subflow 1 is now window-limited.
        let partial = [snap(0, None), snap(2, None)];
        assert_eq!(s.assign(&partial, &mut last), Assignment::One(2));
        assert_eq!(s.assign(&all, &mut last), Assignment::One(0));
    }

    #[test]
    fn redundant_replicates_everywhere() {
        let s = SchedulerKind::Redundant;
        let elig = [snap(0, None), snap(2, None)];
        assert_eq!(
            s.assign(&elig, &mut None),
            Assignment::Replicate(vec![0, 2])
        );
    }

    #[test]
    fn schedulers_return_none_when_nothing_is_eligible() {
        // Regression: a fault can fail every subflow between the snapshot
        // and the assignment; RoundRobin used to index eligible[0] and
        // panic. All schedulers must degrade to Assignment::None.
        let mut ineligible = [snap(0, Some(10)), snap(1, Some(20))];
        for s in &mut ineligible {
            s.eligible = false;
        }
        let none = &mut None;
        assert_eq!(
            SchedulerKind::RoundRobin.assign(&ineligible, none),
            Assignment::None
        );
        assert_eq!(
            SchedulerKind::MinRtt.assign(&ineligible, none),
            Assignment::None
        );
        assert_eq!(
            SchedulerKind::RoundRobin.assign(&[], none),
            Assignment::None
        );
        assert_eq!(SchedulerKind::MinRtt.assign(&[], none), Assignment::None);
        assert_eq!(SchedulerKind::Redundant.assign(&[], none), Assignment::None);
    }

    #[test]
    fn round_robin_recovers_after_total_outage() {
        // After a None the rotation state is untouched and the next call
        // with restored subflows proceeds normally.
        let (s, mut last) = (SchedulerKind::RoundRobin, None);
        let all = [snap(0, None), snap(1, None)];
        assert_eq!(s.assign(&all, &mut last), Assignment::One(0));
        assert_eq!(s.assign(&[], &mut last), Assignment::None);
        assert_eq!(s.assign(&all, &mut last), Assignment::One(1));
    }
}
