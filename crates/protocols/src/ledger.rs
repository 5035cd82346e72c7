//! Per-node accounting in Local-Broadcast units.
//!
//! Theorem 4.1 measures time as the number of Local-Broadcast calls and
//! energy as the number of calls a node participates in (sender or
//! receiver); Lemma 2.4 converts those units into physical slots. The
//! ledger records the Local-Broadcast-unit side of that equation.

use serde::{Deserialize, Serialize};

/// Counts Local-Broadcast participations per node and calls overall.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct LbLedger {
    participations: Vec<u64>,
    sent: Vec<u64>,
    calls: u64,
}

impl LbLedger {
    /// A ledger for `n` nodes.
    pub fn new(n: usize) -> Self {
        LbLedger {
            participations: vec![0; n],
            sent: vec![0; n],
            calls: 0,
        }
    }

    /// Number of nodes tracked.
    pub fn num_nodes(&self) -> usize {
        self.participations.len()
    }

    /// Records one Local-Broadcast call with the given participants.
    /// Senders are also counted in `senders_sent`.
    pub fn record_call<I, J>(&mut self, senders: I, receivers: J)
    where
        I: IntoIterator<Item = usize>,
        J: IntoIterator<Item = usize>,
    {
        self.calls += 1;
        for s in senders {
            self.participations[s] += 1;
            self.sent[s] += 1;
        }
        for r in receivers {
            self.participations[r] += 1;
        }
    }

    /// Number of calls a node has participated in (its energy in LB units).
    pub fn participations(&self, v: usize) -> u64 {
        self.participations[v]
    }

    /// Number of calls in which the node was a sender.
    pub fn sends(&self, v: usize) -> u64 {
        self.sent[v]
    }

    /// Total calls recorded (time in LB units).
    pub fn calls(&self) -> u64 {
        self.calls
    }

    /// Maximum per-node participation count — the algorithm's energy in LB
    /// units.
    pub fn max_participations(&self) -> u64 {
        self.participations.iter().copied().max().unwrap_or(0)
    }

    /// Sum of participations across nodes.
    pub fn total_participations(&self) -> u64 {
        self.participations.iter().sum()
    }

    /// Mean participations per node.
    pub fn mean_participations(&self) -> f64 {
        if self.participations.is_empty() {
            0.0
        } else {
            self.total_participations() as f64 / self.participations.len() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_participants_and_calls() {
        let mut l = LbLedger::new(4);
        l.record_call([0usize, 1], [2usize, 3]);
        l.record_call([2usize], [0usize]);
        assert_eq!(l.calls(), 2);
        assert_eq!(l.participations(0), 2);
        assert_eq!(l.participations(1), 1);
        assert_eq!(l.participations(2), 2);
        assert_eq!(l.sends(0), 1);
        assert_eq!(l.sends(2), 1);
        assert_eq!(l.sends(3), 0);
        assert_eq!(l.max_participations(), 2);
        assert_eq!(l.total_participations(), 6);
        assert!((l.mean_participations() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn a_node_listed_as_sender_and_receiver_is_charged_twice() {
        let mut l = LbLedger::new(3);
        l.record_call([1usize], [1usize, 2]);
        assert_eq!(l.calls(), 1);
        assert_eq!(l.participations(1), 2);
        assert_eq!(l.sends(1), 1);
        assert_eq!(l.participations(2), 1);
        assert_eq!(l.total_participations(), 3);
    }

    #[test]
    fn records_node_set_participants_at_the_top_of_a_big_universe() {
        let n = 1 << 13;
        let mut senders = radio_sim::NodeSet::new(n);
        senders.extend([n - 64, n - 1]);
        let mut receivers = radio_sim::NodeSet::new(n);
        receivers.extend([n - 65, n - 2, n - 1]);
        let mut l = LbLedger::new(n);
        l.record_call(senders.iter(), receivers.iter());
        assert_eq!(l.participations(n - 1), 2);
        assert_eq!(l.sends(n - 1), 1);
        assert_eq!(l.participations(n - 64), 1);
        assert_eq!(l.participations(n - 65), 1);
        assert_eq!(l.sends(n - 65), 0);
        assert_eq!(l.total_participations(), 5);
        assert_eq!(l.participations(0), 0);
    }

    #[test]
    fn empty_ledger() {
        let l = LbLedger::new(0);
        assert_eq!(l.max_participations(), 0);
        assert_eq!(l.mean_participations(), 0.0);
        assert_eq!(l.calls(), 0);
    }
}
