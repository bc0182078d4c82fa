//! Deterministic fault injection: timed mutations of a running network.
//!
//! The paper's coupled controllers exist to *re-balance* traffic when
//! conditions change; a static topology never exercises that machinery.
//! This module declares those changes as data: a [`FaultSchedule`] is a
//! list of `(time, action)` entries — link failures and recoveries,
//! capacity and delay renegotiations — that [`crate::sim::Simulator::install_faults`] turns into ordinary
//! simulator events. Faults therefore flow through the same deterministic
//! `(time, seq)` event queue as every packet: no wall clock, no threads,
//! and a faulted run is exactly as reproducible as an unfaulted one (the
//! trace-hash determinism harness covers both).
//!
//! Semantics of each action are documented on [`FaultAction`]; the short
//! version is that faults mutate the *live* network the way an operator
//! (or a mobility event) would:
//!
//! * **LinkDown** drops everything queued or mid-serialization on the link
//!   (accounted as drops, so packet conservation holds) and blackholes
//!   packets offered while it is down. Packets already propagating still
//!   deliver — they have left the interface.
//! * **LinkUp** restores forwarding; endpoints recover on their own (RTO
//!   probes, subflow revival) exactly as real stacks do.
//! * **SetCapacity / SetDelay** change the link parameters for
//!   *subsequent* transmissions; a packet already being serialized keeps
//!   the timing it started with.
//!
//! These are the four kinds a run schedules: failover's [`FaultSchedule::outage`]
//! and the mobility walk's hand-offs. A link's static corruption loss is
//! topology ([`crate::Topology::set_link_loss`]), not a fault.

use crate::packet::LinkId;
use simbase::{Bandwidth, SimDuration, SimTime};

/// One timed mutation of the running network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Administratively take a link down (both directions).
    LinkDown(LinkId),
    /// Bring a link back up.
    LinkUp(LinkId),
    /// Change a link's capacity (both directions; applies to transmissions
    /// started after the fault).
    SetCapacity(LinkId, Bandwidth),
    /// Change a link's one-way propagation delay.
    SetDelay(LinkId, SimDuration),
}

impl FaultAction {
    /// The link this action mutates.
    pub fn link(&self) -> LinkId {
        match *self {
            FaultAction::LinkDown(l)
            | FaultAction::LinkUp(l)
            | FaultAction::SetCapacity(l, _)
            | FaultAction::SetDelay(l, _) => l,
        }
    }
}

/// A declarative, deterministic schedule of timed [`FaultAction`]s.
///
/// The schedule is plain data (`Clone + PartialEq`), so it can live inside
/// experiment configuration and two identically configured runs install
/// identical event sequences. Entries may be declared in any order; the
/// simulator's event queue orders them by `(time, insertion)` exactly like
/// every other event.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultSchedule {
    entries: Vec<(SimTime, FaultAction)>,
}

impl FaultSchedule {
    /// An empty schedule (no faults — the static-topology behavior).
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of scheduled actions.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no faults are scheduled.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The scheduled `(time, action)` entries, in declaration order.
    pub fn entries(&self) -> &[(SimTime, FaultAction)] {
        &self.entries
    }

    /// Append one action.
    pub fn push(&mut self, at: SimTime, action: FaultAction) {
        self.entries.push((at, action));
    }

    /// Builder-style [`push`](Self::push).
    pub fn at(mut self, at: SimTime, action: FaultAction) -> Self {
        self.push(at, action);
        self
    }

    /// A full outage: the link goes down at `from` and comes back at `to`.
    pub fn outage(self, link: LinkId, from: SimTime, to: SimTime) -> Self {
        assert!(from < to, "outage must end after it starts");
        self.at(from, FaultAction::LinkDown(link))
            .at(to, FaultAction::LinkUp(link))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_accumulates_entries_in_order() {
        let s = FaultSchedule::new()
            .at(SimTime::from_secs(1), FaultAction::LinkDown(LinkId(3)))
            .at(
                SimTime::from_secs(2),
                FaultAction::SetDelay(LinkId(0), SimDuration::from_millis(25)),
            );
        assert_eq!(s.len(), 2);
        assert!(!s.is_empty());
        assert_eq!(
            s.entries()[0],
            (SimTime::from_secs(1), FaultAction::LinkDown(LinkId(3)))
        );
        assert_eq!(s.entries()[1].1.link(), LinkId(0));
    }

    #[test]
    fn outage_expands_to_down_then_up() {
        let s =
            FaultSchedule::new().outage(LinkId(5), SimTime::from_secs(4), SimTime::from_secs(8));
        assert_eq!(
            s.entries(),
            &[
                (SimTime::from_secs(4), FaultAction::LinkDown(LinkId(5))),
                (SimTime::from_secs(8), FaultAction::LinkUp(LinkId(5))),
            ]
        );
    }

    #[test]
    #[should_panic(expected = "outage must end after it starts")]
    fn empty_outage_rejected() {
        let _ =
            FaultSchedule::new().outage(LinkId(0), SimTime::from_secs(2), SimTime::from_secs(2));
    }

    #[test]
    fn schedules_compare_by_value() {
        let a = FaultSchedule::new().at(SimTime::ZERO, FaultAction::LinkUp(LinkId(0)));
        let b = FaultSchedule::new().at(SimTime::ZERO, FaultAction::LinkUp(LinkId(0)));
        assert_eq!(a, b);
        assert_ne!(a, FaultSchedule::new());
    }
}
