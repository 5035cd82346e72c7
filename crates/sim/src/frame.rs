//! Dense, reusable round-frame data structures.
//!
//! Every protocol in this repository is a sequence of rounds in which a
//! *sparse subset* of a *fixed universe* of nodes acts. Representing those
//! subsets as `HashMap`/`HashSet` (as the seed did) costs an allocation and
//! a hash per participant per round, and — because hash iteration order is
//! randomized per process — forces every consumer that draws from a seeded
//! RNG to sort the keys first to stay deterministic.
//!
//! The types here make determinism a *structural* property instead:
//!
//! * [`NodeSet`] — a dense bitset over `0..n` whose iterator is ascending
//!   by construction. No sort is ever needed.
//! * [`NodeSlots<T>`] — a slot-indexed arena `node → T` backed by a
//!   `Vec<Option<T>>` plus a [`NodeSet`] occupancy index, so membership is
//!   one bit-test and iteration is ascending.
//! * [`RoundFrame<M>`] — one Local-Broadcast-shaped round: senders (with
//!   their messages), receivers, and the delivered output, all reusable
//!   across calls via [`RoundFrame::clear`] (clearing touches only the
//!   previously occupied entries, so a sparse round on a large universe
//!   stays cheap).
//! * [`SlotFrame<M>`] — one physical channel slot: transmitters, listeners,
//!   and per-listener feedback, used by the columnar
//!   [`RadioNetwork::step_frame`](crate::network::RadioNetwork::step_frame).

use std::ops::Range;

use crate::model::{Feedback, LbFeedback};

/// A dense set of node identifiers over a fixed universe `0..n`.
///
/// Insert, remove and membership are `O(1)`; iteration is ascending by
/// construction. An *occupied-word range* `[lo, hi)` bounds the `u64`
/// blocks that may hold a set bit, so [`NodeSet::clear`], iteration and the
/// word loops only touch the blocks a set actually spans: a sparse round
/// over a large universe costs what its members cost, wherever in the
/// universe they sit.
///
/// The bulk kernels ([`NodeSet::union_with`], [`NodeSet::intersect_with`],
/// [`NodeSet::difference_with`], [`NodeSet::copy_from`],
/// [`NodeSet::is_disjoint`], [`NodeSet::count_intersection`]) are written
/// as straight-line loops over `u64` blocks — 64 membership decisions per
/// iteration, autovectorizer-friendly — restricted to the occupied ranges
/// involved, with `len` kept exact by `count_ones` accumulation. Raw word
/// access for external kernels is available through [`NodeSet::words`] /
/// [`NodeSet::words_mut`] + [`NodeSet::recount`], with
/// [`NodeSet::word_range`] naming the blocks worth visiting.
///
/// # Out-of-universe ids
///
/// The mutating and querying entry points deliberately differ on ids
/// `v >= universe`: [`NodeSet::insert`] **panics** (an out-of-universe
/// insert is always a logic error — the bit has nowhere to live), while
/// [`NodeSet::remove`] and [`NodeSet::contains`] tolerate them (removing a
/// non-member is a no-op and an out-of-universe id is never a member, so
/// both have a sensible total answer). Frame-reuse call sites that probe
/// speculatively can use [`NodeSet::try_insert`] instead of pre-checking.
#[derive(Clone, Debug, Default)]
pub struct NodeSet {
    words: Vec<u64>,
    universe: usize,
    len: usize,
    /// The lowest word index that may hold a set bit. An empty set stores
    /// `lo = words.len()` and `hi = 0`, the identity of the min/max that
    /// merges two ranges, so a raw `lo` may exceed `hi`; read the range
    /// through [`NodeSet::word_range`].
    lo: usize,
    /// One past the highest word index that may hold a set bit. Words
    /// outside `[lo, hi)` are all zero. The range grows on insert and
    /// union, shrinks on intersect and resets whenever the set empties, but
    /// is *not* shrunk by other removals — it is a conservative bound, not
    /// an exact one.
    hi: usize,
}

/// Equality is semantic — same universe, same members. The occupied-word
/// range is bookkeeping (two equal sets may carry different ranges after
/// different insert/remove histories), so `PartialEq` is implemented by
/// hand over `universe` and the words rather than derived.
impl PartialEq for NodeSet {
    fn eq(&self, other: &Self) -> bool {
        self.universe == other.universe && self.len == other.len && self.words == other.words
    }
}

impl Eq for NodeSet {}

impl NodeSet {
    /// An empty set over the universe `0..n`.
    pub fn new(n: usize) -> Self {
        let words = n.div_ceil(64);
        NodeSet {
            words: vec![0; words],
            universe: n,
            len: 0,
            lo: words,
            hi: 0,
        }
    }

    /// Size of the universe this set ranges over.
    pub fn universe(&self) -> usize {
        self.universe
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if the set has no members.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Marks the occupied-word range empty (every word must already be
    /// zero).
    fn reset_range(&mut self) {
        self.lo = self.words.len();
        self.hi = 0;
    }

    /// Removes every member. `O(range)`: only the words that may hold bits
    /// are zeroed, so clearing a sparse set over a big universe costs
    /// proportional to what was actually occupied.
    pub fn clear(&mut self) {
        let range = self.word_range();
        self.words[range].fill(0);
        self.reset_range();
        self.len = 0;
    }

    /// Inserts `v`; returns `true` if it was not already present.
    ///
    /// Panics if `v` is outside the universe (see the type-level note on
    /// out-of-universe ids; use [`NodeSet::try_insert`] to probe instead).
    pub fn insert(&mut self, v: usize) -> bool {
        assert!(
            v < self.universe,
            "node {v} outside universe {}",
            self.universe
        );
        let (w, b) = (v / 64, 1u64 << (v % 64));
        let fresh = self.words[w] & b == 0;
        self.words[w] |= b;
        self.len += usize::from(fresh);
        self.lo = self.lo.min(w);
        self.hi = self.hi.max(w + 1);
        fresh
    }

    /// Non-panicking [`NodeSet::insert`]: returns `true` iff `v` is inside
    /// the universe *and* was not already present. Out-of-universe ids are
    /// ignored (mirroring how [`NodeSet::remove`] / [`NodeSet::contains`]
    /// treat them), which is the shape speculative frame-reuse call sites
    /// want.
    pub fn try_insert(&mut self, v: usize) -> bool {
        if v >= self.universe {
            return false;
        }
        self.insert(v)
    }

    /// Removes `v`; returns `true` if it was present. Out-of-universe ids
    /// are tolerated (never members, so removal is a no-op). Removing the
    /// last member resets the occupied-word range.
    pub fn remove(&mut self, v: usize) -> bool {
        if v >= self.universe {
            return false;
        }
        let (w, b) = (v / 64, 1u64 << (v % 64));
        let present = self.words[w] & b != 0;
        self.words[w] &= !b;
        self.len -= usize::from(present);
        if self.len == 0 {
            self.reset_range();
        }
        present
    }

    /// Membership test. `O(1)`; out-of-universe ids are never members.
    pub fn contains(&self, v: usize) -> bool {
        v < self.universe && self.words[v / 64] & (1u64 << (v % 64)) != 0
    }

    /// Iterates the members in ascending order. `O(range + |set|)`.
    pub fn iter(&self) -> NodeSetIter<'_> {
        let words = &self.words[..self.hi];
        let lo = self.lo.min(self.hi);
        NodeSetIter {
            words,
            word_idx: lo,
            current: words.get(lo).copied().unwrap_or(0),
        }
    }

    /// Inserts every id produced by `iter`.
    pub fn extend(&mut self, iter: impl IntoIterator<Item = usize>) {
        for v in iter {
            self.insert(v);
        }
    }

    /// The occupied-word range `lo..hi`: every word of [`NodeSet::words`]
    /// outside it is zero, so word loops over `words()[word_range()]` see
    /// every member. Empty (`0..0`) for a set that was never filled or was
    /// cleared; otherwise it spans at least the words holding members, and
    /// possibly more after removals.
    pub fn word_range(&self) -> Range<usize> {
        self.lo.min(self.hi)..self.hi
    }

    /// One past the highest word index that may hold a set bit — the end of
    /// [`NodeSet::word_range`]. Words at `watermark()..` of
    /// [`NodeSet::words`] are zero.
    pub fn watermark(&self) -> usize {
        self.hi
    }

    /// The raw backing words, least-significant bit of word `w` = node
    /// `64 * w`. The slice always has `universe.div_ceil(64)` words; those
    /// outside [`NodeSet::word_range`] are zero.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Mutable raw word access for external word-at-a-time kernels.
    ///
    /// After writing through this slice the cached `len` and occupied-word
    /// range are stale — call [`NodeSet::recount`] before using any other
    /// method. Callers must not set bits at `universe` or beyond.
    pub fn words_mut(&mut self) -> &mut [u64] {
        &mut self.words
    }

    /// Recomputes `len` and the occupied-word range from the raw words
    /// after a [`NodeSet::words_mut`] edit. `O(n/64)`.
    pub fn recount(&mut self) {
        debug_assert!(
            self.universe.is_multiple_of(64)
                || self
                    .words
                    .last()
                    .is_none_or(|&w| w >> (self.universe % 64) == 0),
            "bit set beyond universe {}",
            self.universe
        );
        self.reset_range();
        let mut len = 0usize;
        for (i, &w) in self.words.iter().enumerate() {
            if w != 0 {
                len += w.count_ones() as usize;
                self.lo = self.lo.min(i);
                self.hi = i + 1;
            }
        }
        self.len = len;
    }

    /// Makes this set a copy of `other` (same universe required) without
    /// reallocating. `O(both ranges)`.
    pub fn copy_from(&mut self, other: &NodeSet) {
        assert_eq!(self.universe, other.universe, "universe mismatch");
        let theirs = other.word_range();
        self.zero_outside(theirs.clone());
        self.words[theirs.clone()].copy_from_slice(&other.words[theirs]);
        self.len = other.len;
        self.lo = other.lo;
        self.hi = other.hi;
    }

    /// `self |= other` (same universe required), word-parallel over
    /// `other`'s range; `len` grows by the `count_ones` of the new bits.
    pub fn union_with(&mut self, other: &NodeSet) {
        assert_eq!(self.universe, other.universe, "universe mismatch");
        let theirs = other.word_range();
        let (dst, src) = (&mut self.words[theirs.clone()], &other.words[theirs]);
        let mut added = 0usize;
        for (a, &b) in dst.iter_mut().zip(src) {
            added += (b & !*a).count_ones() as usize;
            *a |= b;
        }
        self.len += added;
        self.lo = self.lo.min(other.lo);
        self.hi = self.hi.max(other.hi);
    }

    /// The words both sets' ranges cover; empty when they do not overlap.
    fn overlap(&self, other: &NodeSet) -> Range<usize> {
        let hi = self.hi.min(other.hi);
        self.lo.max(other.lo).min(hi)..hi
    }

    /// Zeroes the words of this set's range that lie outside `keep`,
    /// leaving `len` and the range for the caller to fix.
    fn zero_outside(&mut self, keep: Range<usize>) {
        let own = self.word_range();
        let (start, end) = (
            keep.start.clamp(own.start, own.end),
            keep.end.clamp(own.start, own.end),
        );
        self.words[own.start..start].fill(0);
        self.words[end..own.end].fill(0);
    }

    /// `self &= other` (same universe required), word-parallel over
    /// `self`'s range.
    pub fn intersect_with(&mut self, other: &NodeSet) {
        assert_eq!(self.universe, other.universe, "universe mismatch");
        // Outside the overlap of the two ranges one side is zero, so the
        // intersection is too: zero those words of `self`, AND the rest and
        // shrink the range to the overlap.
        let both = self.overlap(other);
        self.zero_outside(both.clone());
        let (dst, src) = (&mut self.words[both.clone()], &other.words[both.clone()]);
        let mut len = 0usize;
        for (a, &b) in dst.iter_mut().zip(src) {
            let w = *a & b;
            *a = w;
            len += w.count_ones() as usize;
        }
        self.len = len;
        if len == 0 {
            self.reset_range();
        } else {
            self.lo = both.start;
            self.hi = both.end;
        }
    }

    /// `self -= other` (same universe required), word-parallel over the
    /// overlap of both ranges — the only words where `other` can clear a
    /// bit of `self`.
    pub fn difference_with(&mut self, other: &NodeSet) {
        assert_eq!(self.universe, other.universe, "universe mismatch");
        let both = self.overlap(other);
        let (dst, src) = (&mut self.words[both.clone()], &other.words[both]);
        let mut removed = 0usize;
        for (a, &b) in dst.iter_mut().zip(src) {
            removed += (*a & b).count_ones() as usize;
            *a &= !b;
        }
        self.len -= removed;
        if self.len == 0 {
            self.reset_range();
        }
    }

    /// `true` iff the sets share no member (same universe required).
    /// Word-parallel over the overlap of both ranges, with early exit on
    /// the first shared word.
    pub fn is_disjoint(&self, other: &NodeSet) -> bool {
        assert_eq!(self.universe, other.universe, "universe mismatch");
        let both = self.overlap(other);
        self.words[both.clone()]
            .iter()
            .zip(&other.words[both])
            .all(|(&a, &b)| a & b == 0)
    }

    /// `|self & other|` without materialising the intersection (same
    /// universe required), word-parallel `count_ones` accumulation over the
    /// overlap of both ranges.
    pub fn count_intersection(&self, other: &NodeSet) -> usize {
        assert_eq!(self.universe, other.universe, "universe mismatch");
        let both = self.overlap(other);
        self.words[both.clone()]
            .iter()
            .zip(&other.words[both])
            .map(|(&a, &b)| (a & b).count_ones() as usize)
            .sum()
    }
}

impl<'a> IntoIterator for &'a NodeSet {
    type Item = usize;
    type IntoIter = NodeSetIter<'a>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// Ascending iterator over a [`NodeSet`].
pub struct NodeSetIter<'a> {
    words: &'a [u64],
    word_idx: usize,
    current: u64,
}

impl Iterator for NodeSetIter<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        while self.current == 0 {
            self.word_idx += 1;
            if self.word_idx >= self.words.len() {
                return None;
            }
            self.current = self.words[self.word_idx];
        }
        let bit = self.current.trailing_zeros() as usize;
        self.current &= self.current - 1;
        Some(self.word_idx * 64 + bit)
    }
}

/// A slot-indexed arena mapping node ids to values, with a [`NodeSet`]
/// occupancy index.
///
/// This is the dense replacement for `HashMap<usize, T>` in per-round
/// message plumbing: `O(1)` unhashed insert/lookup, ascending iteration by
/// construction, and `clear` touches only the occupied slots (so reuse
/// across sparse rounds is cheap even over a large universe).
#[derive(Clone, Debug)]
pub struct NodeSlots<T> {
    slots: Vec<Option<T>>,
    occupied: NodeSet,
}

impl<T> NodeSlots<T> {
    /// An empty arena over the universe `0..n`.
    pub fn new(n: usize) -> Self {
        NodeSlots {
            slots: (0..n).map(|_| None).collect(),
            occupied: NodeSet::new(n),
        }
    }

    /// Size of the universe.
    pub fn universe(&self) -> usize {
        self.occupied.universe()
    }

    /// Number of occupied slots.
    pub fn len(&self) -> usize {
        self.occupied.len()
    }

    /// `true` if no slot is occupied.
    pub fn is_empty(&self) -> bool {
        self.occupied.is_empty()
    }

    /// Removes every entry, touching only the occupied slots.
    pub fn clear(&mut self) {
        // A backend clearing the outputs of a frame its caller has just
        // cleared finds them empty: nothing to do.
        if self.occupied.is_empty() {
            return;
        }
        // Drop values via the occupancy index rather than scanning all n
        // slots: sparse rounds over big universes stay O(|occupied|).
        let slots = &mut self.slots;
        for v in self.occupied.iter() {
            slots[v] = None;
        }
        self.occupied.clear();
    }

    /// Inserts `value` at node `v`, replacing any previous value.
    pub fn insert(&mut self, v: usize, value: T) {
        self.slots[v] = Some(value);
        self.occupied.insert(v);
    }

    /// Inserts only if `v` is unoccupied (first-write-wins semantics, the
    /// shape every delivery loop in this repository wants).
    pub fn insert_if_absent(&mut self, v: usize, value: T) {
        if !self.occupied.contains(v) {
            self.insert(v, value);
        }
    }

    /// The value at node `v`, if any.
    pub fn get(&self, v: usize) -> Option<&T> {
        self.slots.get(v).and_then(|s| s.as_ref())
    }

    /// Membership test: `O(1)` against the occupancy bitset.
    pub fn contains(&self, v: usize) -> bool {
        self.occupied.contains(v)
    }

    /// The occupancy index (e.g. to iterate keys only).
    pub fn keys(&self) -> &NodeSet {
        &self.occupied
    }

    /// Iterates `(node, &value)` in ascending node order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &T)> + '_ {
        self.occupied
            .iter()
            .map(|v| (v, self.slots[v].as_ref().expect("occupied slot")))
    }
}

/// One Local-Broadcast-shaped round over a fixed universe of nodes:
/// senders (each with a message), receivers, and the delivered output.
///
/// The frame is the unit of reuse: allocate it once per network (e.g. via
/// `RadioStack::new_frame` in `radio-protocols`), then `clear`/fill/call for
/// every round. Backends write deliveries through [`RoundFrame::parts_mut`],
/// which splits the frame into disjoint input/output borrows.
#[derive(Clone, Debug)]
pub struct RoundFrame<M> {
    senders: NodeSlots<M>,
    receivers: NodeSet,
    delivered: NodeSlots<M>,
    feedback: NodeSlots<LbFeedback>,
}

impl<M> RoundFrame<M> {
    /// An empty frame over the universe `0..n`.
    pub fn new(n: usize) -> Self {
        RoundFrame {
            senders: NodeSlots::new(n),
            receivers: NodeSet::new(n),
            delivered: NodeSlots::new(n),
            feedback: NodeSlots::new(n),
        }
    }

    /// Size of the node universe this frame ranges over.
    pub fn num_nodes(&self) -> usize {
        self.receivers.universe()
    }

    /// Clears senders, receivers, deliveries and feedback for reuse.
    pub fn clear(&mut self) {
        self.senders.clear();
        self.receivers.clear();
        self.delivered.clear();
        self.feedback.clear();
    }

    /// Registers `v` as a sender holding `m`.
    pub fn add_sender(&mut self, v: usize, m: M) {
        self.senders.insert(v, m);
    }

    /// Registers `v` as a receiver.
    pub fn add_receiver(&mut self, v: usize) {
        self.receivers.insert(v);
    }

    /// Replaces the receiver set with a copy of `set` (same universe
    /// required) — the word-parallel bulk form of [`RoundFrame::add_receiver`]
    /// for drivers that already track their listening frontier as a
    /// [`NodeSet`].
    pub fn set_receivers(&mut self, set: &NodeSet) {
        self.receivers.copy_from(set);
    }

    /// The sender arena.
    pub fn senders(&self) -> &NodeSlots<M> {
        &self.senders
    }

    /// The receiver set.
    pub fn receivers(&self) -> &NodeSet {
        &self.receivers
    }

    /// The messages delivered by the last call executed on this frame.
    pub fn delivered(&self) -> &NodeSlots<M> {
        &self.delivered
    }

    /// Per-receiver channel verdicts of the last call, populated only by
    /// collision-detection-capable backends (empty otherwise). A receiver
    /// holding [`LbFeedback::Silence`] learned that it has no sending
    /// neighbour — the signal CD-aware protocols branch on.
    pub fn feedback(&self) -> &NodeSlots<LbFeedback> {
        &self.feedback
    }

    /// Splits the frame into `(senders, receivers, delivered)` with the
    /// output mutably borrowed — the shape every backend needs to read the
    /// inputs while recording deliveries.
    pub fn parts_mut(&mut self) -> (&NodeSlots<M>, &NodeSet, &mut NodeSlots<M>) {
        (&self.senders, &self.receivers, &mut self.delivered)
    }

    /// Like [`RoundFrame::parts_mut`], additionally borrowing the feedback
    /// lane mutably — the shape collision-detection-capable backends need to
    /// record per-receiver verdicts alongside deliveries.
    pub fn parts_with_feedback_mut(
        &mut self,
    ) -> (
        &NodeSlots<M>,
        &NodeSet,
        &mut NodeSlots<M>,
        &mut NodeSlots<LbFeedback>,
    ) {
        (
            &self.senders,
            &self.receivers,
            &mut self.delivered,
            &mut self.feedback,
        )
    }

    /// Clears only the per-call outputs — deliveries and feedback (backends
    /// call this on entry so a reused frame never leaks the previous round's
    /// results).
    pub fn clear_delivered(&mut self) {
        self.delivered.clear();
        self.feedback.clear();
    }

    /// Swaps the delivery arena with `other` (same universe required), e.g.
    /// to hold on to one round's output while the frame is reused for the
    /// next round without cloning messages.
    pub fn swap_delivered(&mut self, other: &mut NodeSlots<M>) {
        assert_eq!(other.universe(), self.delivered.universe());
        std::mem::swap(&mut self.delivered, other);
    }

    /// Replaces the delivery arena wholesale (same universe required).
    pub fn replace_delivered(&mut self, delivered: NodeSlots<M>) {
        assert_eq!(delivered.universe(), self.receivers.universe());
        self.delivered = delivered;
    }
}

/// One physical channel slot in columnar form: who transmits (with the
/// payload), who listens, and — after
/// [`RadioNetwork::step_frame`](crate::network::RadioNetwork::step_frame) —
/// what each listener heard.
#[derive(Clone, Debug)]
pub struct SlotFrame<M> {
    /// Transmitters and their payloads.
    pub transmit: NodeSlots<M>,
    /// Listeners.
    pub listen: NodeSet,
    /// Per-listener feedback (filled by the network).
    pub feedback: NodeSlots<Feedback<M>>,
    /// The listeners whose feedback is [`Feedback::Received`] (filled by the
    /// network alongside `feedback`), so harvest loops walk only the
    /// deliveries instead of re-classifying every listener.
    pub received: NodeSet,
}

impl<M> SlotFrame<M> {
    /// An empty slot frame over the universe `0..n`.
    pub fn new(n: usize) -> Self {
        SlotFrame {
            transmit: NodeSlots::new(n),
            listen: NodeSet::new(n),
            feedback: NodeSlots::new(n),
            received: NodeSet::new(n),
        }
    }

    /// Clears transmitters, listeners, feedback and the received index for
    /// the next slot.
    pub fn clear(&mut self) {
        self.transmit.clear();
        self.listen.clear();
        self.feedback.clear();
        self.received.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_and_scratch_are_send_sound() {
        // Per-worker frame/scratch sets cross thread boundaries in the
        // parallel scenario runner; pin the auto-traits here so any future
        // shared-interior-mutability addition fails at the source.
        fn assert_send<T: Send>() {}
        assert_send::<NodeSet>();
        assert_send::<NodeSlots<u64>>();
        assert_send::<RoundFrame<u64>>();
        assert_send::<SlotFrame<u64>>();
        assert_send::<crate::DecayScratch<u64>>();
        assert_send::<crate::RadioNetwork<u64>>();
        assert_send::<crate::EnergyMeter>();
    }

    #[test]
    fn node_set_insert_remove_contains() {
        let mut s = NodeSet::new(130);
        assert!(s.is_empty());
        assert!(s.insert(0));
        assert!(s.insert(129));
        assert!(s.insert(64));
        assert!(!s.insert(64), "double insert reports not-fresh");
        assert_eq!(s.len(), 3);
        assert!(s.contains(0) && s.contains(64) && s.contains(129));
        assert!(!s.contains(1) && !s.contains(130));
        assert!(s.remove(64));
        assert!(!s.remove(64));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn node_set_iterates_ascending_by_construction() {
        let mut s = NodeSet::new(200);
        for v in [199, 0, 63, 64, 65, 127, 128, 3] {
            s.insert(v);
        }
        let order: Vec<usize> = s.iter().collect();
        assert_eq!(order, vec![0, 3, 63, 64, 65, 127, 128, 199]);
    }

    #[test]
    fn node_set_clear_resets() {
        let mut s = NodeSet::new(70);
        s.extend([1, 2, 69]);
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.iter().count(), 0);
        assert!(!s.contains(1));
    }

    #[test]
    #[should_panic]
    fn node_set_rejects_out_of_universe_insert() {
        NodeSet::new(4).insert(4);
    }

    #[test]
    fn node_set_try_insert_tolerates_out_of_universe() {
        let mut s = NodeSet::new(4);
        assert!(s.try_insert(3));
        assert!(!s.try_insert(3), "duplicate reports not-fresh");
        assert!(!s.try_insert(4), "out-of-universe is ignored");
        assert!(!s.try_insert(1000));
        assert_eq!(s.len(), 1);
        assert!(!s.contains(4));
    }

    #[test]
    fn node_set_equality_ignores_watermark_history() {
        let mut a = NodeSet::new(300);
        let mut b = NodeSet::new(300);
        a.insert(5);
        a.insert(299); // watermark high...
        a.remove(299); // ...and left high by remove
        b.insert(5);
        assert_eq!(a, b, "same members, different watermarks");
        assert_ne!(a, NodeSet::new(300));
        assert_ne!(NodeSet::new(64), NodeSet::new(65), "universe is semantic");
    }

    #[test]
    fn node_set_watermark_clear_then_reuse() {
        let mut s = NodeSet::new(640);
        s.insert(639);
        assert_eq!(s.watermark(), 10);
        s.clear();
        assert_eq!(s.watermark(), 0);
        s.insert(2);
        assert_eq!(s.watermark(), 1);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![2]);
        assert!(!s.contains(639));
    }

    #[test]
    fn node_set_word_range_tracks_both_ends() {
        let mut s = NodeSet::new(640);
        assert_eq!(s.word_range(), 0..0);
        s.insert(400);
        assert_eq!(s.word_range(), 6..7);
        s.insert(130);
        s.insert(639);
        assert_eq!(s.word_range(), 2..10);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![130, 400, 639]);
        s.remove(130);
        assert_eq!(s.word_range(), 2..10, "remove does not shrink the range");
        s.remove(400);
        s.remove(639);
        assert_eq!(s.word_range(), 0..0, "removing the last member resets it");

        // Kernels keep the range: a union spans both inputs, an intersection
        // shrinks to their overlap.
        let mut a = NodeSet::new(640);
        a.extend([70, 300]);
        let mut b = NodeSet::new(640);
        b.extend([300, 600]);
        let mut u = a.clone();
        u.union_with(&b);
        assert_eq!(u.word_range(), 1..10);
        a.intersect_with(&b);
        assert_eq!(a.word_range(), 4..5);
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![300]);
        b.difference_with(&a);
        assert_eq!(b.iter().collect::<Vec<_>>(), vec![600]);
        b.difference_with(&b.clone());
        assert_eq!(b.word_range(), 0..0);
    }

    #[test]
    fn node_set_bulk_kernels_match_per_bit_semantics() {
        let n = 200;
        let xs = [0usize, 3, 63, 64, 65, 127, 128, 199];
        let ys = [3usize, 64, 66, 128, 190, 199];
        let mut a = NodeSet::new(n);
        a.extend(xs);
        let mut b = NodeSet::new(n);
        b.extend(ys);

        let mut u = a.clone();
        u.union_with(&b);
        let want: Vec<usize> = (0..n)
            .filter(|v| xs.contains(v) || ys.contains(v))
            .collect();
        assert_eq!(u.iter().collect::<Vec<_>>(), want);
        assert_eq!(u.len(), want.len());

        let mut i = a.clone();
        i.intersect_with(&b);
        let want: Vec<usize> = (0..n)
            .filter(|v| xs.contains(v) && ys.contains(v))
            .collect();
        assert_eq!(i.iter().collect::<Vec<_>>(), want);
        assert_eq!(i.len(), want.len());
        assert_eq!(a.count_intersection(&b), want.len());
        assert!(!a.is_disjoint(&b));

        let mut d = a.clone();
        d.difference_with(&b);
        let want: Vec<usize> = (0..n)
            .filter(|v| xs.contains(v) && !ys.contains(v))
            .collect();
        assert_eq!(d.iter().collect::<Vec<_>>(), want);
        assert_eq!(d.len(), want.len());
        assert!(
            d.is_disjoint(&i),
            "difference and intersection are disjoint"
        );
        assert_eq!(d.count_intersection(&i), 0);
    }

    #[test]
    fn node_set_copy_from_overwrites_stale_high_words() {
        let n = 300;
        let mut a = NodeSet::new(n);
        a.insert(299); // high watermark in the destination
        let mut b = NodeSet::new(n);
        b.insert(1);
        a.copy_from(&b);
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![1]);
        assert_eq!(a.len(), 1);
        assert!(!a.contains(299), "stale high word must be zeroed");
        a.insert(299);
        assert!(a.contains(299), "watermark grows back on insert");
    }

    #[test]
    fn node_set_words_mut_recount_round_trip() {
        let mut s = NodeSet::new(130);
        s.insert(129);
        s.words_mut()[0] = 0b1011;
        s.recount();
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 1, 3, 129]);
        assert_eq!(s.len(), 4);
        assert_eq!(s.watermark(), 3);
        s.words_mut().fill(0);
        s.recount();
        assert!(s.is_empty());
        assert_eq!(s.watermark(), 0);
    }

    #[test]
    fn node_slots_round_trip_and_first_write_wins() {
        let mut m: NodeSlots<u64> = NodeSlots::new(100);
        m.insert(7, 70);
        m.insert(3, 30);
        m.insert_if_absent(7, 71);
        assert_eq!(m.get(7), Some(&70), "first write wins");
        m.insert(7, 72);
        assert_eq!(m.get(7), Some(&72), "plain insert overwrites");
        assert_eq!(m.len(), 2);
        let pairs: Vec<(usize, u64)> = m.iter().map(|(v, &x)| (v, x)).collect();
        assert_eq!(pairs, vec![(3, 30), (7, 72)]);
        m.clear();
        assert!(m.is_empty());
        assert_eq!(m.get(7), None);
    }

    #[test]
    fn round_frame_fill_clear_reuse() {
        let mut f: RoundFrame<u64> = RoundFrame::new(10);
        f.add_sender(2, 22);
        f.add_receiver(5);
        let (s, r, d) = f.parts_mut();
        assert_eq!(s.get(2), Some(&22));
        assert!(r.contains(5));
        d.insert(5, 22);
        assert_eq!(f.delivered().get(5), Some(&22));
        f.clear();
        assert!(f.senders().is_empty());
        assert!(f.receivers().is_empty());
        assert!(f.delivered().is_empty());
    }

    #[test]
    fn round_frame_swap_delivered_moves_without_clone() {
        let mut f: RoundFrame<u64> = RoundFrame::new(6);
        f.parts_mut().2.insert(1, 11);
        let mut held: NodeSlots<u64> = NodeSlots::new(6);
        f.swap_delivered(&mut held);
        assert_eq!(held.get(1), Some(&11));
        assert!(f.delivered().is_empty());
    }

    /// Every word outside `word_range()` is zero, and every member's word
    /// lies inside it.
    fn assert_range_invariant(s: &NodeSet) {
        let range = s.word_range();
        for (w, &word) in s.words().iter().enumerate() {
            if !range.contains(&w) {
                assert_eq!(word, 0, "word {w} outside {range:?} holds bits");
            }
        }
        for v in s.iter() {
            assert!(range.contains(&(v / 64)), "member {v} outside {range:?}");
        }
        assert!(range.end <= s.watermark());
    }

    fn set_of(n: usize, members: &[usize]) -> NodeSet {
        let mut s = NodeSet::new(n);
        s.extend(members.iter().copied());
        s
    }

    #[test]
    fn node_set_new_has_an_empty_range_for_any_universe() {
        for n in [0usize, 1, 63, 64, 65, 1 << 13] {
            let s = NodeSet::new(n);
            assert_eq!(s.word_range(), 0..0, "universe {n}");
            assert_eq!(s.watermark(), 0, "universe {n}");
            assert_eq!(s.words().len(), n.div_ceil(64));
            assert_eq!(s.iter().next(), None);
        }
    }

    #[test]
    fn node_set_insert_extends_the_range_at_either_end() {
        let mut s = NodeSet::new(1024);
        s.insert(500);
        assert_eq!(s.word_range(), 7..8);
        s.insert(900);
        assert_eq!(s.word_range(), 7..15, "insert above grows hi only");
        s.insert(64);
        assert_eq!(s.word_range(), 1..15, "insert below grows lo only");
        s.insert(700);
        assert_eq!(s.word_range(), 1..15, "insert inside moves nothing");
        assert_range_invariant(&s);
    }

    #[test]
    fn node_set_reinsert_keeps_len_and_range() {
        let mut s = set_of(256, &[130, 131]);
        let before = s.word_range();
        assert!(!s.insert(131));
        assert_eq!(s.len(), 2);
        assert_eq!(s.word_range(), before);
    }

    #[test]
    fn node_set_remove_of_a_non_member_keeps_the_range() {
        let mut s = set_of(640, &[200, 400]);
        assert!(!s.remove(10), "below the range");
        assert!(!s.remove(639), "above the range");
        assert!(!s.remove(300), "inside the range");
        assert!(!s.remove(5000), "outside the universe");
        assert_eq!(s.word_range(), 3..7);
        assert_eq!(s.len(), 2);
        assert_range_invariant(&s);
    }

    #[test]
    fn node_set_remove_on_an_empty_set_keeps_it_empty() {
        let mut s = NodeSet::new(128);
        assert!(!s.remove(70));
        assert_eq!(s.word_range(), 0..0);
        assert!(s.is_empty());
    }

    #[test]
    fn node_set_clear_zeroes_every_word_of_a_wide_range() {
        let mut s = set_of(1 << 13, &[65, 3000, 8191]);
        s.clear();
        assert!(s.words().iter().all(|&w| w == 0));
        assert_eq!(s.word_range(), 0..0);
        assert_eq!(s.len(), 0);
        s.insert(4000);
        assert_eq!(s.word_range(), 62..63, "a cleared set refills from scratch");
    }

    #[test]
    fn node_set_iter_finds_members_packed_at_the_top_of_a_big_universe() {
        let n = 1 << 20;
        let members: Vec<usize> = (n - 6..n).collect();
        let s = set_of(n, &members);
        assert_eq!(s.word_range(), (n / 64 - 1)..(n / 64));
        assert_eq!(s.iter().collect::<Vec<_>>(), members);
    }

    #[test]
    fn node_set_iter_covers_a_partial_last_word() {
        let s = set_of(65, &[64]);
        assert_eq!(s.word_range(), 1..2);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![64]);
        let s = set_of(1, &[0]);
        assert_eq!(s.word_range(), 0..1);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0]);
    }

    #[test]
    fn node_set_iter_skips_empty_words_inside_the_range() {
        let mut s = set_of(1024, &[70, 500, 1000]);
        s.remove(500);
        assert_eq!(s.word_range(), 1..16, "the range stays conservative");
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![70, 1000]);
        assert_eq!((&s).into_iter().count(), 2);
    }

    #[test]
    fn node_set_copy_from_adopts_the_source_range() {
        let mut dst = set_of(640, &[5]);
        let src = set_of(640, &[300, 450]);
        dst.copy_from(&src);
        assert_eq!(dst.word_range(), src.word_range());
        assert_eq!(dst, src);
        assert_range_invariant(&dst);
    }

    #[test]
    fn node_set_copy_from_an_empty_set_empties_the_target() {
        let mut dst = set_of(640, &[0, 320, 639]);
        dst.copy_from(&NodeSet::new(640));
        assert!(dst.is_empty());
        assert_eq!(dst.word_range(), 0..0);
        assert!(dst.words().iter().all(|&w| w == 0));
    }

    #[test]
    fn node_set_copy_from_zeroes_stale_low_words() {
        let mut dst = set_of(640, &[1, 70]);
        let src = set_of(640, &[600]);
        dst.copy_from(&src);
        assert_eq!(dst.iter().collect::<Vec<_>>(), vec![600]);
        assert_eq!(dst.words()[0], 0);
        assert_eq!(dst.words()[1], 0);
        assert_range_invariant(&dst);
    }

    #[test]
    #[should_panic(expected = "universe mismatch")]
    fn node_set_copy_from_rejects_a_foreign_universe() {
        NodeSet::new(64).copy_from(&NodeSet::new(65));
    }

    #[test]
    fn node_set_union_with_an_empty_set_changes_nothing() {
        let mut s = set_of(640, &[200, 300]);
        s.union_with(&NodeSet::new(640));
        assert_eq!(s.word_range(), 3..5);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn node_set_union_into_an_empty_set_adopts_the_other_range() {
        let mut s = NodeSet::new(640);
        let other = set_of(640, &[130, 600]);
        s.union_with(&other);
        assert_eq!(s.word_range(), 2..10);
        assert_eq!(s, other);
    }

    #[test]
    fn node_set_union_counts_only_new_bits() {
        let mut s = set_of(300, &[1, 2, 200]);
        s.union_with(&set_of(300, &[2, 200, 299]));
        assert_eq!(s.len(), 4);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![1, 2, 200, 299]);
        assert_eq!(s.word_range(), 0..5);
    }

    #[test]
    fn node_set_intersect_of_disjoint_ranges_is_empty() {
        let mut s = set_of(1024, &[10, 70]);
        s.intersect_with(&set_of(1024, &[900, 1000]));
        assert!(s.is_empty());
        assert_eq!(s.word_range(), 0..0);
        assert!(s.words().iter().all(|&w| w == 0));
    }

    #[test]
    fn node_set_intersect_with_an_empty_set_is_empty() {
        let mut s = set_of(1024, &[10, 500, 1000]);
        s.intersect_with(&NodeSet::new(1024));
        assert!(s.is_empty());
        assert_eq!(s.word_range(), 0..0);
        assert!(s.words().iter().all(|&w| w == 0));
    }

    #[test]
    fn node_set_intersect_zeroes_words_outside_the_overlap() {
        let mut s = set_of(1024, &[5, 300, 301, 1000]);
        s.intersect_with(&set_of(1024, &[301, 600]));
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![301]);
        assert_eq!(s.len(), 1);
        assert_eq!(s.word_range(), 4..10, "shrunk to the overlap");
        assert_range_invariant(&s);
    }

    #[test]
    fn node_set_difference_outside_the_overlap_changes_nothing() {
        let mut s = set_of(1024, &[5, 70]);
        s.difference_with(&set_of(1024, &[800, 1000]));
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![5, 70]);
        assert_eq!(s.word_range(), 0..2);
    }

    #[test]
    fn node_set_difference_removing_every_member_resets_the_range() {
        let mut s = set_of(1024, &[300, 800]);
        s.difference_with(&set_of(1024, &[0, 300, 800, 1023]));
        assert!(s.is_empty());
        assert_eq!(s.word_range(), 0..0);
        assert!(s.words().iter().all(|&w| w == 0));
    }

    #[test]
    fn node_set_overlap_queries_see_only_shared_words() {
        let a = set_of(1 << 13, &[0, 4000, 8191]);
        let b = set_of(1 << 13, &[4000, 4001]);
        let far = set_of(1 << 13, &[8000]);
        assert_eq!(a.count_intersection(&b), 1);
        assert!(!a.is_disjoint(&b));
        assert_eq!(b.count_intersection(&far), 0);
        assert!(b.is_disjoint(&far), "non-overlapping ranges");
        let empty = NodeSet::new(1 << 13);
        assert!(a.is_disjoint(&empty) && empty.is_disjoint(&a));
        assert_eq!(empty.count_intersection(&a), 0);
    }

    #[test]
    fn node_set_recount_finds_bits_written_below_the_range() {
        let mut s = set_of(640, &[600]);
        s.words_mut()[1] = 1 << 3;
        s.recount();
        assert_eq!(s.word_range(), 1..10);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![67, 600]);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn node_set_recount_shrinks_the_range_to_the_occupied_words() {
        let mut s = set_of(1 << 13, &[10, 4000, 8000]);
        s.words_mut()[0] = 0;
        s.words_mut()[8000 / 64] = 0;
        s.recount();
        assert_eq!(s.word_range(), 62..63);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![4000]);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn node_set_watermark_is_the_end_of_the_range() {
        let mut s = set_of(640, &[130, 400]);
        assert_eq!(s.watermark(), s.word_range().end);
        s.remove(400);
        assert_eq!(s.watermark(), 7, "remove does not lower the watermark");
        s.remove(130);
        assert_eq!(s.watermark(), 0);
    }

    #[test]
    fn node_set_equality_ignores_the_range_left_by_an_intersection() {
        let mut a = set_of(640, &[70, 300, 600]);
        a.intersect_with(&set_of(640, &[300, 600]));
        let mut b = set_of(640, &[0, 300, 600]);
        b.remove(0);
        assert_ne!(a.word_range(), b.word_range());
        assert_eq!(a, b);
    }

    #[test]
    fn node_slots_clear_on_an_empty_arena_is_a_no_op() {
        let mut m: NodeSlots<u64> = NodeSlots::new(1 << 13);
        m.clear();
        assert!(m.is_empty());
        assert_eq!(m.keys().word_range(), 0..0);
        m.insert(8000, 1);
        assert_eq!(m.get(8000), Some(&1));
    }

    #[test]
    fn node_slots_clear_drops_values_near_the_top() {
        let n = 1 << 13;
        let mut m: NodeSlots<u64> = NodeSlots::new(n);
        for v in n - 5..n {
            m.insert(v, v as u64);
        }
        m.clear();
        assert!(m.is_empty());
        assert!((n - 5..n).all(|v| m.get(v).is_none()));
        assert_eq!(m.keys().word_range(), 0..0);
    }

    #[test]
    fn node_slots_iterate_ascending_near_the_top() {
        let n = 1 << 13;
        let mut m: NodeSlots<u64> = NodeSlots::new(n);
        for v in [n - 1, n - 200, n - 64] {
            m.insert(v, 10 * v as u64);
        }
        let pairs: Vec<(usize, u64)> = m.iter().map(|(v, &x)| (v, x)).collect();
        let want: Vec<(usize, u64)> = [n - 200, n - 64, n - 1]
            .into_iter()
            .map(|v| (v, 10 * v as u64))
            .collect();
        assert_eq!(pairs, want);
    }

    #[test]
    fn round_frame_clear_resets_every_lane_range() {
        let n = 1 << 13;
        let mut f: RoundFrame<u64> = RoundFrame::new(n);
        f.add_sender(n - 10, 1);
        f.add_receiver(n - 9);
        f.add_receiver(3);
        f.parts_with_feedback_mut().2.insert(n - 9, 1);
        f.parts_with_feedback_mut().3.insert(3, LbFeedback::Silence);
        f.clear();
        assert_eq!(f.senders().keys().word_range(), 0..0);
        assert_eq!(f.receivers().word_range(), 0..0);
        assert_eq!(f.delivered().keys().word_range(), 0..0);
        assert_eq!(f.feedback().keys().word_range(), 0..0);
        assert!(f.receivers().words().iter().all(|&w| w == 0));
    }

    #[test]
    fn round_frame_set_receivers_replaces_earlier_receivers() {
        let n = 1 << 13;
        let mut f: RoundFrame<u64> = RoundFrame::new(n);
        f.add_receiver(1);
        f.add_receiver(n - 1);
        f.set_receivers(&set_of(n, &[4000, 4001]));
        assert_eq!(f.receivers().iter().collect::<Vec<_>>(), vec![4000, 4001]);
        assert_eq!(f.receivers().word_range(), 62..63);
        assert_range_invariant(f.receivers());
    }

    #[test]
    fn round_frame_clear_delivered_keeps_the_inputs() {
        let mut f: RoundFrame<u64> = RoundFrame::new(200);
        f.add_sender(150, 7);
        f.add_receiver(199);
        f.parts_mut().2.insert(199, 7);
        f.clear_delivered();
        assert!(f.delivered().is_empty());
        assert_eq!(f.senders().get(150), Some(&7));
        assert!(f.receivers().contains(199));
        f.clear_delivered();
        assert!(f.delivered().is_empty(), "clearing twice is harmless");
    }

    #[test]
    fn slot_frame_clear_resets_every_lane() {
        let n = 1 << 13;
        let mut f: SlotFrame<u64> = SlotFrame::new(n);
        f.transmit.insert(n - 2, 5);
        f.listen.insert(n - 1);
        f.feedback.insert(n - 1, Feedback::Received(5));
        f.received.insert(n - 1);
        f.clear();
        assert!(f.transmit.is_empty() && f.listen.is_empty());
        assert!(f.feedback.is_empty() && f.received.is_empty());
        assert_eq!(f.listen.word_range(), 0..0);
        assert_eq!(f.received.word_range(), 0..0);
        assert!(f.listen.words().iter().all(|&w| w == 0));
    }
}
