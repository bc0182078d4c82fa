//! Packet schedulers: which subflow carries the next chunk of data.
//!
//! The paper uses the default Linux MPTCP scheduler — lowest smoothed RTT
//! among subflows with window space ([`MinRtt`]). [`RoundRobin`] and
//! [`Redundant`] are provided for the scheduler ablation experiment.

use simbase::SimDuration;

/// What the scheduler may know about each *active* subflow.
#[derive(Debug, Clone, Copy)]
pub struct SubflowSnapshot {
    /// Subflow index.
    pub idx: usize,
    /// Smoothed RTT (None before the first sample).
    pub srtt: Option<SimDuration>,
    /// Congestion window, bytes.
    pub cwnd: u64,
    /// Bytes currently in flight.
    pub flight: u64,
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

/// A packet scheduler. `subs` lists all *active* subflows. Callers avoid
/// calling `assign` with no eligible subflow, but a fault can fail every
/// subflow between snapshot and assignment, so implementations must return
/// [`Assignment::None`] (not panic) for an empty eligible set.
pub trait Scheduler: std::fmt::Debug {
    /// Decide who gets the next chunk.
    fn assign(&mut self, subs: &[SubflowSnapshot]) -> Assignment;

    /// Scheduler name for reports.
    fn name(&self) -> &'static str;

    /// Deep-copy this scheduler's state (rotation position etc.) for
    /// simulator checkpointing.
    fn clone_boxed(&self) -> Box<dyn Scheduler>;
}

impl Clone for Box<dyn Scheduler> {
    fn clone(&self) -> Self {
        self.clone_boxed()
    }
}

/// Lowest-RTT-first (the Linux default). Subflows without an RTT sample
/// sort after sampled ones, tie-broken by index — so subflow 0 is the
/// "default path" at connection start, matching the paper's setup where
/// the first subflow runs on the default route.
#[derive(Debug, Default, Clone)]
pub struct MinRtt;

impl Scheduler for MinRtt {
    fn assign(&mut self, subs: &[SubflowSnapshot]) -> Assignment {
        match subs
            .iter()
            .filter(|s| s.eligible)
            .min_by_key(|s| (s.srtt.unwrap_or(SimDuration::MAX), s.idx))
        {
            Some(best) => Assignment::One(best.idx),
            None => Assignment::None,
        }
    }

    fn name(&self) -> &'static str {
        "minrtt"
    }

    fn clone_boxed(&self) -> Box<dyn Scheduler> {
        Box::new(self.clone())
    }
}

/// Strict rotation over eligible subflows.
#[derive(Debug, Default, Clone)]
pub struct RoundRobin {
    last: Option<usize>,
}

impl Scheduler for RoundRobin {
    fn assign(&mut self, subs: &[SubflowSnapshot]) -> Assignment {
        // The first eligible subflow with index greater than `last`,
        // wrapping around. Regression: this used to index `eligible[0]`
        // unconditionally and panicked when a fault failed every subflow
        // between snapshot and assignment.
        let eligible: Vec<usize> = subs.iter().filter(|s| s.eligible).map(|s| s.idx).collect();
        let Some(&first) = eligible.first() else {
            return Assignment::None;
        };
        let next = match self.last {
            None => first,
            Some(last) => eligible
                .iter()
                .copied()
                .find(|&i| i > last)
                .unwrap_or(first),
        };
        self.last = Some(next);
        Assignment::One(next)
    }

    fn name(&self) -> &'static str {
        "roundrobin"
    }

    fn clone_boxed(&self) -> Box<dyn Scheduler> {
        Box::new(self.clone())
    }
}

/// Send every chunk on every eligible subflow (latency-oriented; wastes
/// capacity — the "Low Latency via Redundancy" idea cited in the paper's
/// introduction).
#[derive(Debug, Default, Clone)]
pub struct Redundant;

impl Scheduler for Redundant {
    fn assign(&mut self, subs: &[SubflowSnapshot]) -> Assignment {
        // Every active subflow gets a copy, eligible or not: the fast path
        // drives progress and slower paths queue their copies as backlog.
        if subs.is_empty() {
            return Assignment::None;
        }
        Assignment::Replicate(subs.iter().map(|s| s.idx).collect())
    }

    fn name(&self) -> &'static str {
        "redundant"
    }

    fn clone_boxed(&self) -> Box<dyn Scheduler> {
        Box::new(self.clone())
    }
}

/// Scheduler selection for configuration surfaces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchedulerKind {
    /// Lowest smoothed RTT first (Linux default).
    MinRtt,
    /// Rotate across subflows.
    RoundRobin,
    /// Duplicate every chunk on all subflows.
    Redundant,
}

impl SchedulerKind {
    /// Instantiate the scheduler.
    pub fn build(&self) -> Box<dyn Scheduler> {
        match self {
            SchedulerKind::MinRtt => Box::<MinRtt>::default(),
            SchedulerKind::RoundRobin => Box::<RoundRobin>::default(),
            SchedulerKind::Redundant => Box::<Redundant>::default(),
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
            cwnd: 14600,
            flight: 0,
            eligible: true,
        }
    }

    #[test]
    fn minrtt_picks_lowest_rtt() {
        let mut s = MinRtt;
        let elig = [snap(0, Some(20)), snap(1, Some(5)), snap(2, Some(10))];
        assert_eq!(s.assign(&elig), Assignment::One(1));
    }

    #[test]
    fn minrtt_skips_ineligible() {
        let mut s = MinRtt;
        let mut subs = [snap(0, Some(5)), snap(1, Some(20))];
        subs[0].eligible = false;
        assert_eq!(s.assign(&subs), Assignment::One(1));
    }

    #[test]
    fn redundant_includes_ineligible_active_subflows() {
        let mut s = Redundant;
        let mut subs = [snap(0, None), snap(1, None)];
        subs[1].eligible = false;
        assert_eq!(s.assign(&subs), Assignment::Replicate(vec![0, 1]));
    }

    #[test]
    fn minrtt_prefers_sampled_over_unsampled() {
        let mut s = MinRtt;
        let elig = [snap(0, None), snap(1, Some(50))];
        assert_eq!(s.assign(&elig), Assignment::One(1));
    }

    #[test]
    fn minrtt_breaks_ties_by_index() {
        let mut s = MinRtt;
        let elig = [snap(2, None), snap(0, None)];
        assert_eq!(s.assign(&elig), Assignment::One(0));
        let elig = [snap(1, Some(10)), snap(0, Some(10))];
        assert_eq!(s.assign(&elig), Assignment::One(0));
    }

    #[test]
    fn round_robin_rotates_and_wraps() {
        let mut s = RoundRobin::default();
        let elig = [snap(0, None), snap(1, None), snap(2, None)];
        assert_eq!(s.assign(&elig), Assignment::One(0));
        assert_eq!(s.assign(&elig), Assignment::One(1));
        assert_eq!(s.assign(&elig), Assignment::One(2));
        assert_eq!(s.assign(&elig), Assignment::One(0));
    }

    #[test]
    fn round_robin_skips_ineligible() {
        let mut s = RoundRobin::default();
        let all = [snap(0, None), snap(1, None), snap(2, None)];
        assert_eq!(s.assign(&all), Assignment::One(0));
        // Subflow 1 is now window-limited.
        let partial = [snap(0, None), snap(2, None)];
        assert_eq!(s.assign(&partial), Assignment::One(2));
        assert_eq!(s.assign(&all), Assignment::One(0));
    }

    #[test]
    fn redundant_replicates_everywhere() {
        let mut s = Redundant;
        let elig = [snap(0, None), snap(2, None)];
        assert_eq!(s.assign(&elig), Assignment::Replicate(vec![0, 2]));
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
        assert_eq!(RoundRobin::default().assign(&ineligible), Assignment::None);
        assert_eq!(MinRtt.assign(&ineligible), Assignment::None);
        assert_eq!(RoundRobin::default().assign(&[]), Assignment::None);
        assert_eq!(MinRtt.assign(&[]), Assignment::None);
        assert_eq!(Redundant.assign(&[]), Assignment::None);
    }

    #[test]
    fn round_robin_recovers_after_total_outage() {
        // After a None the rotation state is untouched and the next call
        // with restored subflows proceeds normally.
        let mut s = RoundRobin::default();
        let all = [snap(0, None), snap(1, None)];
        assert_eq!(s.assign(&all), Assignment::One(0));
        assert_eq!(s.assign(&[]), Assignment::None);
        assert_eq!(s.assign(&all), Assignment::One(1));
    }

    #[test]
    fn kind_builds_right_scheduler() {
        assert_eq!(SchedulerKind::MinRtt.build().name(), "minrtt");
        assert_eq!(SchedulerKind::RoundRobin.build().name(), "roundrobin");
        assert_eq!(SchedulerKind::Redundant.build().name(), "redundant");
    }
}
