//! The transport layer: how a pending update physically reaches the
//! profile hosts that were offline at post time.
//!
//! The state machine asks [`InstantTransport`] *when* each copy lands
//! and schedules the delivery events; the transport encapsulates the
//! propagation physics — a transfer completes the moment two nodes are
//! co-online, the batch simulator's semantics.

use dosn_core::replay::simulate_update_from_sources;
use dosn_interval::Timestamp;
use dosn_onlinetime::OnlineSchedules;
use dosn_socialgraph::UserId;

/// In-memory instantaneous delivery: a transfer completes the moment
/// two nodes are co-online — the epidemic oracle the batch simulator
/// used, computed by Dijkstra over the co-online window graph.
#[derive(Debug, Clone, Copy, Default)]
pub struct InstantTransport;

impl InstantTransport {
    /// When does each host of a replica set first hold an update?
    ///
    /// `hosts` is the full replica set (owner first), `sources` the
    /// indices already holding the update at `at`. The result is indexed
    /// like `hosts`: sources report `Some(at)`, reachable hosts their
    /// first arrival instant, unreachable hosts `None`. Deterministic:
    /// the same arguments yield the same arrivals (the scheduler replays
    /// runs byte-identically).
    pub fn disseminate(
        &self,
        hosts: &[UserId],
        schedules: &OnlineSchedules,
        sources: &[usize],
        at: Timestamp,
    ) -> Vec<Option<Timestamp>> {
        simulate_update_from_sources(hosts, schedules, sources, at)
            .arrivals()
            .iter()
            .map(|a| a.arrival)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dosn_interval::DaySchedule;

    #[test]
    fn instant_transport_matches_the_replay_oracle() {
        let s = OnlineSchedules::new(vec![
            DaySchedule::window_wrapping(0, 7_200).expect("valid window"),
            DaySchedule::window_wrapping(3_600, 7_200).expect("valid window"),
        ]);
        let hosts = [UserId::new(0), UserId::new(1)];
        let arrivals = InstantTransport.disseminate(&hosts, &s, &[0], Timestamp::new(0));
        assert_eq!(arrivals[0], Some(Timestamp::new(0)));
        // Host 1 comes online at 3600, meeting host 0's window.
        assert_eq!(arrivals[1], Some(Timestamp::new(3_600)));
    }
}
