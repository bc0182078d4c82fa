//! The host-endpoint interface.
//!
//! Protocol stacks (plain TCP, MPTCP) attach to topology nodes as
//! [`Agent`]s. The simulator calls them with packets and timer expirations;
//! they respond by queueing *effects* (send packet, arm timer) on the
//! [`Ctx`]. Effects are applied by the simulator after the callback returns,
//! which keeps the borrow structure simple and makes agent behaviour
//! testable in isolation (hand an agent a `Ctx` backed by plain vectors and
//! inspect what it asked for). Agents are single-threaded by construction:
//! the trait carries no `Send` bound (see [`Agent`]).

use crate::packet::{Ecn, NodeId, Packet, Protocol, Tag};
use crate::payload::Payload;
use crate::stats::SimCounters;
use simbase::{SimDuration, SimTime, Xoshiro256StarStar};
use std::any::Any;
use std::fmt;

/// Index of a registered agent.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AgentId(pub u32);

impl fmt::Debug for AgentId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "agent{}", self.0)
    }
}

/// An endpoint protocol stack attached to a node.
///
/// Not `Send`: a [`crate::Simulator`] and every checkpoint of it live and
/// die on the thread that built them (sweep workers build their jobs
/// themselves), so an agent may hold thread-local shared state such as an
/// `Rc<RefCell<_>>`, and the compiler rejects moving one across threads.
///
/// A checkpoint copies an agent with its `Clone` ([`AgentClone`] comes with
/// it), so that `Clone` must be a deep copy: nothing the copy changes may
/// reach the original.
pub trait Agent: AgentClone {
    /// Called once at the agent's configured start time.
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        let _ = ctx;
    }

    /// A packet addressed to this agent's node arrived.
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, pkt: Packet);

    /// A timer armed via [`Ctx::set_timer_after`] fired. Timers are
    /// one-shot, keyed by `(agent, token)`: at most one deadline is pending
    /// per token. Re-arming a token *replaces* the pending deadline, which
    /// never fires (a re-arm to an earlier time cancels the old queue
    /// entry; a later one keeps it, and it is pushed again at the new
    /// deadline when it pops early), and
    /// [`Ctx::cancel_timer`] revokes it outright — so a stale deadline can
    /// never fire. Engines should still poll against their current
    /// deadline on any timer; that keeps them testable standalone.
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64);

    /// Add this agent's share to the run's work counters: sums for counts,
    /// the maximum for high-water marks. Called when the counters are read
    /// ([`crate::Simulator::counters`]), never per event.
    fn count(&self, counters: &mut SimCounters) {
        let _ = counters;
    }
}

/// What every `Clone` agent has: a boxed copy for a checkpoint, and itself
/// as `Any` for reading it back by concrete type after a run.
pub trait AgentClone {
    /// A boxed copy of this agent (its `Clone`).
    fn clone_boxed(&self) -> Box<dyn Agent>;

    /// This agent as `Any`. Always `Some` (the `Option` keeps the signature
    /// callers already read it through).
    fn as_any(&self) -> Option<&dyn Any>;
}

impl<T: Agent + Clone + 'static> AgentClone for T {
    fn clone_boxed(&self) -> Box<dyn Agent> {
        Box::new(self.clone())
    }

    fn as_any(&self) -> Option<&dyn Any> {
        Some(self)
    }
}

impl Clone for Box<dyn Agent> {
    fn clone(&self) -> Self {
        self.clone_boxed()
    }
}

/// A send/timer effect requested by an agent.
#[derive(Debug, Clone)]
pub enum Effect {
    /// Inject a packet into the network at the agent's node.
    Send(Packet),
    /// Arm a one-shot timer. Replaces any pending timer with the same
    /// token for this agent (the replaced deadline never fires).
    SetTimer {
        /// Absolute expiry time.
        at: SimTime,
        /// Token returned to the agent on expiry.
        token: u64,
    },
    /// Cancel the pending timer with this token, if any.
    CancelTimer {
        /// The token the timer was armed with.
        token: u64,
    },
}

/// The capability handle passed to agent callbacks.
pub struct Ctx<'a> {
    now: SimTime,
    node: NodeId,
    agent: AgentId,
    /// Deterministic RNG stream. The simulator hands each agent its own
    /// stream (derived from the run seed and the agent id), so an agent's
    /// draws depend only on its own call sequence — never on how agent
    /// callbacks interleave across the network.
    pub rng: &'a mut Xoshiro256StarStar,
    effects: &'a mut Vec<Effect>,
    next_packet_id: &'a mut u64,
}

impl<'a> Ctx<'a> {
    /// Construct a context. Public so tests and alternative drivers can
    /// exercise agents without a full simulator.
    pub fn new(
        now: SimTime,
        node: NodeId,
        agent: AgentId,
        rng: &'a mut Xoshiro256StarStar,
        effects: &'a mut Vec<Effect>,
        next_packet_id: &'a mut u64,
    ) -> Self {
        Ctx {
            now,
            node,
            agent,
            rng,
            effects,
            next_packet_id,
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The node this agent is attached to.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// This agent's id.
    pub fn agent_id(&self) -> AgentId {
        self.agent
    }

    /// Send a packet from this node with ECN codepoint `ecn` (ECN-capable
    /// senders mark data packets ECT so queues can mark instead of drop).
    /// Returns the assigned packet id.
    pub fn send(
        &mut self,
        dst: NodeId,
        tag: Tag,
        protocol: Protocol,
        payload: Payload,
        data_len: u32,
        ecn: Ecn,
    ) -> u64 {
        let id = *self.next_packet_id;
        *self.next_packet_id += 1;
        self.effects.push(Effect::Send(Packet {
            id,
            src: self.node,
            dst,
            tag,
            protocol,
            payload,
            data_len,
            ecn,
        }));
        id
    }

    /// Arm a one-shot timer `delay` from now, carrying `token`.
    pub fn set_timer_after(&mut self, delay: SimDuration, token: u64) {
        self.effects.push(Effect::SetTimer {
            at: self.now + delay,
            token,
        });
    }

    /// Arm a one-shot timer at an absolute time (must not be in the past).
    pub fn set_timer_at(&mut self, at: SimTime, token: u64) {
        assert!(at >= self.now, "timer in the past: {at} < {}", self.now);
        self.effects.push(Effect::SetTimer { at, token });
    }

    /// Cancel this agent's pending timer with `token`, if one is armed.
    /// A no-op when nothing is pending for the token.
    pub fn cancel_timer(&mut self, token: u64) {
        self.effects.push(Effect::CancelTimer { token });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn with_ctx<R>(f: impl FnOnce(&mut Ctx<'_>) -> R) -> (R, Vec<Effect>, u64) {
        let mut rng = Xoshiro256StarStar::new(1);
        let mut effects = Vec::new();
        let mut next_id = 7;
        let r = {
            let mut ctx = Ctx::new(
                SimTime::from_millis(5),
                NodeId(2),
                AgentId(0),
                &mut rng,
                &mut effects,
                &mut next_id,
            );
            f(&mut ctx)
        };
        (r, effects, next_id)
    }

    #[test]
    fn send_assigns_sequential_ids() {
        let ((id1, id2), effects, next) = with_ctx(|ctx| {
            let a = ctx.send(
                NodeId(9),
                Tag(1),
                Protocol::Raw,
                Payload::empty(),
                100,
                Ecn::NotEct,
            );
            let b = ctx.send(
                NodeId(9),
                Tag(1),
                Protocol::Raw,
                Payload::empty(),
                100,
                Ecn::NotEct,
            );
            (a, b)
        });
        assert_eq!(id1, 7);
        assert_eq!(id2, 8);
        assert_eq!(next, 9);
        assert_eq!(effects.len(), 2);
        match &effects[0] {
            Effect::Send(p) => {
                assert_eq!(p.src, NodeId(2));
                assert_eq!(p.dst, NodeId(9));
                assert_eq!(p.id, 7);
            }
            other => panic!("unexpected effect {other:?}"),
        }
    }

    #[test]
    fn timers_resolve_to_absolute_times() {
        let (_, effects, _) = with_ctx(|ctx| {
            ctx.set_timer_after(SimDuration::from_millis(3), 42);
            ctx.set_timer_at(SimTime::from_millis(10), 43);
        });
        match &effects[0] {
            Effect::SetTimer { at, token } => {
                assert_eq!(*at, SimTime::from_millis(8));
                assert_eq!(*token, 42);
            }
            other => panic!("unexpected {other:?}"),
        }
        match &effects[1] {
            Effect::SetTimer { at, token } => {
                assert_eq!(*at, SimTime::from_millis(10));
                assert_eq!(*token, 43);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "timer in the past")]
    fn past_timer_panics() {
        let _ = with_ctx(|ctx| ctx.set_timer_at(SimTime::from_millis(1), 0));
    }

    #[test]
    fn accessors() {
        let _ = with_ctx(|ctx| {
            assert_eq!(ctx.now(), SimTime::from_millis(5));
            assert_eq!(ctx.node(), NodeId(2));
            assert_eq!(ctx.agent_id(), AgentId(0));
        });
    }
}
