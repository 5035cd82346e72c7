//! Per-node accounting in Local-Broadcast units.
//!
//! Theorem 4.1 measures time as the number of Local-Broadcast calls and
//! energy as the number of calls a node participates in (sender or
//! receiver); Lemma 2.4 converts those units into physical slots. The
//! ledger records the Local-Broadcast-unit side of that equation.

use radio_sim::NodeSet;
use serde::{Deserialize, Serialize};

/// Counts Local-Broadcast participations per node and calls overall.
///
/// **Whole-word charges.** Participants arrive as [`NodeSet`]s, and the
/// ledger charges them one `u64` word (64 nodes) at a time. A word whose
/// 64 bits are all set costs one increment of a per-word counter; any
/// other word charges its members one by one. A node's count is its own
/// counter plus its word's, so a wide call over a million receivers costs
/// about 16k increments instead of a million. The last word of a universe
/// that is not a multiple of 64 can never have all its bits set, so it is
/// always charged per node.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct LbLedger {
    participations: Vec<u64>,
    sent: Vec<u64>,
    /// Entry `w`: calls in which all of nodes `64w..64w + 64` took part.
    word_participations: Vec<u64>,
    /// Entry `w`: calls in which all of nodes `64w..64w + 64` sent.
    word_sent: Vec<u64>,
    calls: u64,
}

impl LbLedger {
    /// A ledger for `n` nodes.
    pub fn new(n: usize) -> Self {
        LbLedger {
            participations: vec![0; n],
            sent: vec![0; n],
            word_participations: vec![0; n.div_ceil(64)],
            word_sent: vec![0; n.div_ceil(64)],
            calls: 0,
        }
    }

    /// Number of nodes tracked.
    pub fn num_nodes(&self) -> usize {
        self.participations.len()
    }

    /// Records one Local-Broadcast call with the given participants.
    /// Senders are also counted in [`LbLedger::sends`]. A node in both
    /// sets is charged twice and sends once.
    pub fn record_call(&mut self, senders: &NodeSet, receivers: &NodeSet) {
        debug_assert!(senders.universe() <= self.num_nodes());
        debug_assert!(receivers.universe() <= self.num_nodes());
        self.calls += 1;
        charge(
            senders,
            |w| {
                self.word_participations[w] += 1;
                self.word_sent[w] += 1;
            },
            |v| {
                self.participations[v] += 1;
                self.sent[v] += 1;
            },
        );
        charge(
            receivers,
            |w| self.word_participations[w] += 1,
            |v| self.participations[v] += 1,
        );
    }

    /// Number of calls a node has participated in (its energy in LB units).
    pub fn participations(&self, v: usize) -> u64 {
        self.participations[v] + self.word_participations[v / 64]
    }

    /// Number of calls in which the node was a sender.
    pub fn sends(&self, v: usize) -> u64 {
        self.sent[v] + self.word_sent[v / 64]
    }

    /// Every node's [`LbLedger::participations`], in node order: a bulk
    /// copy of the per-node counters plus one add per charged word.
    pub fn participation_counts(&self) -> Vec<u64> {
        spread(&self.participations, &self.word_participations)
    }

    /// Every node's [`LbLedger::sends`], in node order.
    pub fn send_counts(&self) -> Vec<u64> {
        spread(&self.sent, &self.word_sent)
    }

    /// Total calls recorded (time in LB units).
    pub fn calls(&self) -> u64 {
        self.calls
    }

    /// Maximum per-node participation count — the algorithm's energy in LB
    /// units.
    pub fn max_participations(&self) -> u64 {
        self.participations
            .chunks(64)
            .zip(&self.word_participations)
            .map(|(nodes, &word)| nodes.iter().max().map_or(0, |&m| m + word))
            .max()
            .unwrap_or(0)
    }

    /// Sum of participations across nodes.
    pub fn total_participations(&self) -> u64 {
        let per_node: u64 = self.participations.iter().sum();
        let per_word: u64 = self
            .participations
            .chunks(64)
            .zip(&self.word_participations)
            .map(|(nodes, &word)| word * nodes.len() as u64)
            .sum();
        per_node + per_word
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

/// Charges every member of `set`, word by word: a word whose 64 bits are
/// all set is one `word(w)` call, any other word one `node(v)` call per
/// member. Walks only the set's occupied-word range.
#[inline]
fn charge(set: &NodeSet, mut word: impl FnMut(usize), mut node: impl FnMut(usize)) {
    let words = set.words();
    for w in set.word_range() {
        let mut bits = words[w];
        if bits == u64::MAX {
            word(w);
            continue;
        }
        while bits != 0 {
            node(w * 64 + bits.trailing_zeros() as usize);
            bits &= bits - 1;
        }
    }
}

/// Per-node counters with each word's whole-word counter added to its 64
/// nodes.
fn spread(per_node: &[u64], per_word: &[u64]) -> Vec<u64> {
    let mut out = Vec::with_capacity(per_node.len());
    for (nodes, &word) in per_node.chunks(64).zip(per_word) {
        out.extend(nodes.iter().map(|&c| c + word));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(n: usize, members: impl IntoIterator<Item = usize>) -> NodeSet {
        let mut s = NodeSet::new(n);
        s.extend(members);
        s
    }

    /// Records one call on `l` from member lists.
    fn call(l: &mut LbLedger, senders: &[usize], receivers: impl IntoIterator<Item = usize>) {
        let n = l.num_nodes();
        l.record_call(&set(n, senders.iter().copied()), &set(n, receivers));
    }

    #[test]
    fn records_participants_and_calls() {
        let mut l = LbLedger::new(4);
        call(&mut l, &[0, 1], [2, 3]);
        call(&mut l, &[2], [0]);
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
        call(&mut l, &[1], [1, 2]);
        assert_eq!(l.calls(), 1);
        assert_eq!(l.participations(1), 2);
        assert_eq!(l.sends(1), 1);
        assert_eq!(l.participations(2), 1);
        assert_eq!(l.total_participations(), 3);
    }

    #[test]
    fn records_node_set_participants_at_the_top_of_a_big_universe() {
        let n = 1 << 13;
        let mut l = LbLedger::new(n);
        call(&mut l, &[n - 64, n - 1], [n - 65, n - 2, n - 1]);
        assert_eq!(l.participations(n - 1), 2);
        assert_eq!(l.sends(n - 1), 1);
        assert_eq!(l.participations(n - 64), 1);
        assert_eq!(l.participations(n - 65), 1);
        assert_eq!(l.sends(n - 65), 0);
        assert_eq!(l.total_participations(), 5);
        assert_eq!(l.participations(0), 0);
    }

    #[test]
    fn one_call_mixes_whole_word_and_per_node_charges() {
        // Receivers: all of word 1 (64..128), and a partial word 2
        // (128..191, one short). Sender 3 sits in word 0.
        let mut l = LbLedger::new(256);
        call(&mut l, &[3], 64..191);
        assert_eq!(l.word_participations, [0, 1, 0, 0]);
        assert_eq!(l.participations[64..128], [0; 64]);
        for v in 64..191 {
            assert_eq!(l.participations(v), 1, "node {v}");
            assert_eq!(l.sends(v), 0, "node {v}");
        }
        for v in (0..64).chain(191..256) {
            let want = u64::from(v == 3);
            assert_eq!(l.participations(v), want, "node {v}");
            assert_eq!(l.sends(v), want, "node {v}");
        }
        assert_eq!(l.total_participations(), 128);
        assert_eq!(
            l.participation_counts(),
            (0..256).map(|v| l.participations(v)).collect::<Vec<_>>()
        );
        assert_eq!(
            l.send_counts(),
            (0..256).map(|v| l.sends(v)).collect::<Vec<_>>()
        );
    }

    #[test]
    fn the_last_word_of_a_ragged_universe_is_charged_per_node() {
        // 100 nodes: word 0 is full width, word 1 holds only 36 nodes, so
        // "every node" fills word 0 and never fills word 1.
        let mut l = LbLedger::new(100);
        call(&mut l, &[], 0..100);
        call(&mut l, &[], 64..100);
        assert_eq!(l.word_participations, [1, 0]);
        assert_eq!(l.participations[64..100], [2; 36]);
        assert_eq!(l.participations(0), 1);
        assert_eq!(l.participations(63), 1);
        assert_eq!(l.participations(64), 2);
        assert_eq!(l.participations(99), 2);
        assert_eq!(l.max_participations(), 2);
        assert_eq!(l.total_participations(), 64 + 2 * 36);
        assert_eq!(l.participation_counts().len(), 100);
    }

    #[test]
    fn a_full_word_as_sender_and_receiver_is_charged_twice_and_sends_once() {
        let mut l = LbLedger::new(128);
        call(&mut l, &(64..128).collect::<Vec<_>>(), 64..128);
        assert_eq!(l.word_participations, [0, 2]);
        assert_eq!(l.word_sent, [0, 1]);
        for v in 64..128 {
            assert_eq!(l.participations(v), 2, "node {v}");
            assert_eq!(l.sends(v), 1, "node {v}");
        }
        assert_eq!(l.participations(0), 0);
        assert_eq!(l.sends(0), 0);
        assert_eq!(l.total_participations(), 128);
        assert_eq!(l.send_counts()[64..], [1; 64]);
    }

    #[test]
    fn aggregates_add_whole_word_charges() {
        // Two calls over all 192 nodes (three whole words), then node 5
        // once more on its own and node 130 twice.
        let mut l = LbLedger::new(192);
        call(&mut l, &[], 0..192);
        call(&mut l, &[], 0..192);
        call(&mut l, &[5], [130]);
        call(&mut l, &[], [130]);
        assert_eq!(l.word_participations, [2, 2, 2]);
        assert_eq!(l.participations(5), 3);
        assert_eq!(l.participations(130), 4);
        assert_eq!(l.max_participations(), 4);
        assert_eq!(l.total_participations(), 2 * 192 + 3);
        assert!((l.mean_participations() - (2.0 * 192.0 + 3.0) / 192.0).abs() < 1e-12);
    }

    #[test]
    fn empty_ledger() {
        let l = LbLedger::new(0);
        assert_eq!(l.max_participations(), 0);
        assert_eq!(l.mean_participations(), 0.0);
        assert_eq!(l.calls(), 0);
        assert!(l.participation_counts().is_empty());
    }
}
