//! Wifi + cellular mobility: access networks whose quality follows the
//! user's motion, compiled into deterministic fault schedules.
//!
//! A walking user's wifi link does not fail like a datacenter cable. Its
//! capacity degrades in RSSI-like steps as distance grows, its delay rises
//! as the rate control drops to sturdier modulations, and finally the
//! association breaks — a hard handover outage — until the client
//! re-attaches (to the same AP on the return leg of the walk, in this
//! model). The cellular leg stays up throughout but is thinner and
//! farther. That asymmetric churn is exactly the regime where MPTCP's
//! wifi-offload story is tested, and the paper's overlap question gets a
//! twist: during the outage *every* byte shares the cellular path.
//!
//! [`MobileNet::schedule`] turns the walk into a
//! [`netsim::FaultSchedule`] — plain data, applied by the simulator's
//! fault pump at exact nanosecond times, so a mobility run is as
//! reproducible as a static one.

use netsim::{FaultAction, FaultSchedule, NodeId, Path, QueueConfig, Topology};
use simbase::{Bandwidth, SimDuration, SimTime};

/// Wifi access capacity at the association point (peak RSSI).
pub const WIFI_BW: Bandwidth = Bandwidth::from_mbps(40);
/// Cellular access capacity (constant; the thin, reliable leg).
pub const CELL_BW: Bandwidth = Bandwidth::from_mbps(10);
/// Wifi one-way delay at peak.
const WIFI_DELAY: SimDuration = SimDuration::from_millis(5);
/// Cellular one-way delay (several times wifi).
const CELL_DELAY: SimDuration = SimDuration::from_millis(25);
/// Shared wired backhaul capacity from both gateways to the server.
const BACKHAUL_BW: Bandwidth = Bandwidth::from_mbps(100);
/// Backhaul one-way delay.
const BACKHAUL_DELAY: SimDuration = SimDuration::from_millis(10);
/// Output queue of every link.
const QUEUE: QueueConfig = QueueConfig::DropTailPackets(32);

/// Length of one walk cycle.
pub const WALK_PERIOD: SimDuration = SimDuration::from_secs(4);
/// Number of walk cycles the schedule emits.
pub const WALK_CYCLES: usize = 2;
/// Total simulated time the walk spans.
pub const WALK_SPAN: SimDuration =
    SimDuration::from_nanos(WALK_PERIOD.as_nanos() * WALK_CYCLES as u64);
/// RSSI steps per ramp.
const RAMP_STEPS: usize = 4;
/// Wifi capacity at the farthest attached point, as a fraction of peak.
const WIFI_FLOOR_FRACTION: f64 = 0.25;
/// Wifi one-way delay at the farthest attached point.
const FAR_DELAY: SimDuration = SimDuration::from_millis(20);
/// Length of the hard handover outage.
const HANDOVER_OUTAGE: SimDuration = SimDuration::from_millis(400);

/// The built client—(AP | BS)—server network.
#[derive(Debug, Clone)]
pub struct MobileNet {
    /// The network.
    pub topology: Topology,
    /// The mobile client (MPTCP sender in the upload orientation).
    pub client: NodeId,
    /// The wifi access point.
    pub ap: NodeId,
    /// The cellular base station.
    pub bs: NodeId,
    /// The fixed server.
    pub server: NodeId,
    /// The client↔AP radio link — the one mobility mutates.
    pub wifi_access: netsim::LinkId,
    /// The client↔BS radio link.
    pub cell_access: netsim::LinkId,
}

impl MobileNet {
    /// Build the network: `client — ap — server` and `client — bs — server`.
    pub fn build() -> MobileNet {
        let mut topo = Topology::new();
        let client = topo.add_node("client");
        let ap = topo.add_node("ap");
        let bs = topo.add_node("bs");
        let server = topo.add_node("server");
        let wifi_access = topo.add_link(client, ap, WIFI_BW, WIFI_DELAY, QUEUE);
        let cell_access = topo.add_link(client, bs, CELL_BW, CELL_DELAY, QUEUE);
        topo.add_link(ap, server, BACKHAUL_BW, BACKHAUL_DELAY, QUEUE);
        topo.add_link(bs, server, BACKHAUL_BW, BACKHAUL_DELAY, QUEUE);
        MobileNet {
            topology: topo,
            client,
            ap,
            bs,
            server,
            wifi_access,
            cell_access,
        }
    }

    /// The two subflow paths, wifi first.
    pub fn paths(&self) -> Vec<Path> {
        [self.ap, self.bs]
            .iter()
            .map(|&mid| {
                #[expect(
                    clippy::expect_used,
                    reason = "the builder created exactly these links"
                )]
                Path::from_nodes(&self.topology, &[self.client, mid, self.server])
                    .expect("access path")
            })
            .collect()
    }

    /// The walk-away-and-back pattern of the wifi leg, as a fault
    /// schedule. Pure function of `wifi_access`: two calls yield equal
    /// schedules, entry for entry.
    ///
    /// Each of the [`WALK_CYCLES`] periods: the client walks away from the
    /// AP (capacity ramps down, delay ramps up, in `RAMP_STEPS` RSSI-like
    /// steps over the first 40% of the period), the association breaks (a
    /// hard outage of `HANDOVER_OUTAGE` starting at 45%), and the client
    /// walks back (mirror-image ramp up over the final 40%). The cellular
    /// leg is untouched.
    pub fn schedule(&self) -> FaultSchedule {
        let link = self.wifi_access;
        let peak_bw = WIFI_BW.as_bps() as f64;
        let floor_bw = peak_bw * WIFI_FLOOR_FRACTION;
        let peak_delay = WIFI_DELAY.as_nanos() as f64;
        let far_delay = FAR_DELAY.as_nanos() as f64;
        let mut sched = FaultSchedule::new();
        for cycle in 0..WALK_CYCLES {
            let base = SimTime::ZERO + WALK_PERIOD.saturating_mul(cycle as u64);
            let step_len = WALK_PERIOD.mul_f64(0.4 / RAMP_STEPS as f64);
            // Walk away: step 1..=RAMP_STEPS lerps peak -> floor.
            for s in 1..=RAMP_STEPS {
                let frac = s as f64 / RAMP_STEPS as f64;
                let t = base + step_len.saturating_mul(s as u64);
                sched.push(
                    t,
                    FaultAction::SetCapacity(link, lerp_bw(peak_bw, floor_bw, frac)),
                );
                sched.push(
                    t,
                    FaultAction::SetDelay(link, lerp_delay(peak_delay, far_delay, frac)),
                );
            }
            // Hard handover: association breaks, then re-attaches.
            let down = base + WALK_PERIOD.mul_f64(0.45);
            sched.push(down, FaultAction::LinkDown(link));
            sched.push(down + HANDOVER_OUTAGE, FaultAction::LinkUp(link));
            // Walk back: mirror ramp, ending at peak just before the cycle
            // boundary.
            for s in 1..=RAMP_STEPS {
                let frac = 1.0 - s as f64 / RAMP_STEPS as f64;
                let t = base + WALK_PERIOD.mul_f64(0.6) + step_len.saturating_mul(s as u64);
                sched.push(
                    t,
                    FaultAction::SetCapacity(link, lerp_bw(peak_bw, floor_bw, frac)),
                );
                sched.push(
                    t,
                    FaultAction::SetDelay(link, lerp_delay(peak_delay, far_delay, frac)),
                );
            }
        }
        sched
    }
}

fn lerp_bw(peak: f64, floor: f64, frac: f64) -> Bandwidth {
    let bps = peak + (floor - peak) * frac;
    Bandwidth::from_bps(bps.round() as u64)
}

fn lerp_delay(peak_ns: f64, far_ns: f64, frac: f64) -> SimDuration {
    let ns = peak_ns + (far_ns - peak_ns) * frac;
    SimDuration::from_nanos(ns.round() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn network_has_two_disjoint_access_paths() {
        let net = MobileNet::build();
        assert_eq!(net.topology.node_count(), 4);
        assert_eq!(net.topology.link_count(), 4);
        let paths = net.paths();
        assert_eq!(paths.len(), 2);
        assert!(paths[0].shared_links(&paths[1]).is_empty());
    }

    #[test]
    fn compiled_schedule_is_periodic_and_touches_only_wifi() {
        let net = MobileNet::build();
        let sched = net.schedule();
        // Per cycle: 2 ramps x RAMP_STEPS x 2 actions + down + up.
        let per_cycle = 2 * RAMP_STEPS * 2 + 2;
        assert_eq!(sched.len(), per_cycle * WALK_CYCLES);
        for (t, action) in sched.entries() {
            assert_eq!(action.link(), net.wifi_access);
            assert!(*t <= SimTime::ZERO + WALK_SPAN);
        }
        // Entries are time-ordered as emitted.
        for w in sched.entries().windows(2) {
            assert!(w[0].0 <= w[1].0);
        }
        // Exactly one down and one up per cycle.
        let downs = sched
            .entries()
            .iter()
            .filter(|(_, a)| matches!(a, FaultAction::LinkDown(_)))
            .count();
        assert_eq!(downs, WALK_CYCLES);
    }

    #[test]
    fn ramp_floor_matches_the_configured_fraction() {
        let sched = MobileNet::build().schedule();
        let min_bw = sched
            .entries()
            .iter()
            .filter_map(|(_, a)| match a {
                FaultAction::SetCapacity(_, bw) => Some(bw.as_bps()),
                _ => None,
            })
            .min()
            .expect("schedule has capacity actions");
        // A quarter of the 40 Mbps peak.
        assert_eq!(min_bw, 10_000_000);
        assert_eq!(min_bw, WIFI_BW.as_bps() / 4);
        // The walk-back ramp ends at peak capacity.
        let last_bw = sched
            .entries()
            .iter()
            .rev()
            .find_map(|(_, a)| match a {
                FaultAction::SetCapacity(_, bw) => Some(bw.as_bps()),
                _ => None,
            })
            .expect("schedule has capacity actions");
        assert_eq!(last_bw, WIFI_BW.as_bps());
    }

    #[test]
    fn schedule_is_a_pure_function() {
        let net = MobileNet::build();
        assert_eq!(net.schedule().entries(), net.schedule().entries());
    }
}
