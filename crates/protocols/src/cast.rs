//! Up-cast and Down-cast within clusters (paper, Lemma 3.1).
//!
//! * **Down-cast**: each participating cluster center holds a message that
//!   must reach every member of its cluster.
//! * **Up-cast**: some members hold messages; each participating cluster
//!   center must receive a message from at least one of its holders.
//!
//! Both run in `D` stages (one per layer) of `ℓ` steps. In step `j` of a
//! stage only the vertices whose cluster's index set `S_Cl` contains `j`
//! participate; property (2) of Section 3 (some `j ∈ S_Cl(v)` is not in any
//! neighbouring cluster's set) guarantees that in at least one step a vertex
//! hears from its *own* cluster rather than from a neighbouring one.
//! Messages are additionally tagged with the cluster index, so a vertex can
//! discard same-step deliveries from foreign clusters — something a real
//! device can do because cluster identifiers are part of every message.
//!
//! Per-vertex energy is `O(|S_Cl|) = O(log n)` Local-Broadcast
//! participations per cast, as in Lemma 3.1.
//!
//! Both casts drive all of their `D · ℓ` Local-Broadcast calls through one
//! caller-provided [`LbFrame`] scratch (sized for the parent network), so a
//! cast allocates nothing per call; the step → clusters schedule is a dense
//! table over `[ℓ]`, iterated in ascending step order by construction.

use radio_sim::{NodeSet, NodeSlots};

use crate::clustering::ClusterState;
use crate::lb::LbFrame;
use crate::message::Msg;
use crate::stack::RadioStack;

/// Wraps a payload with the cluster index it belongs to.
fn wrap(cluster: usize, payload: &Msg) -> Msg {
    payload.prepended(cluster as u64)
}

/// Splits a wrapped message into (cluster index, payload). The hot harvest
/// loops inline the tag check instead (cheaper on rejects); this named form
/// documents the framing and pins it in tests.
#[cfg(test)]
fn unwrap(m: &Msg) -> (usize, Msg) {
    let (cluster, payload) = m.split_first();
    (cluster as usize, payload)
}

/// Reusable buffers for the casts: the per-parent-node holder arena and the
/// step → clusters schedule table.
///
/// Callers that issue many casts (one virtual Local-Broadcast is two) hold
/// one of these next to their [`LbFrame`] so a cast allocates nothing; the
/// one-shot entry points [`down_cast`] / [`up_cast`] build a fresh scratch
/// per call instead.
#[derive(Clone, Debug, Default)]
pub struct CastScratch {
    /// `holding[v]`: the payload parent node `v` currently holds (during an
    /// up-cast, already tagged with `v`'s cluster).
    holding: Vec<Option<Msg>>,
    /// The occupied entries of `holding`, so reset is `O(|touched|)` rather
    /// than `O(n)` per cast.
    touched: Vec<usize>,
    /// `clusters_at[j]`: participating clusters whose `S_Cl` contains `j`.
    /// Dense over `[ℓ]`, so iteration is ascending without sorting.
    clusters_at: Vec<Vec<usize>>,
    /// The steps `j` with `clusters_at[j]` non-empty, ascending.
    steps: Vec<usize>,
    /// Down-cast only: `wrapped[c]` is `wrap(c, messages[c])`, computed once
    /// per cast — every holder of cluster `c` sends exactly this message, so
    /// the per-sender tag-prepend becomes a straight clone.
    wrapped: Vec<Option<Msg>>,
}

impl CastScratch {
    /// Scratch buffers for a parent network of `n` nodes.
    pub fn new(n: usize) -> Self {
        CastScratch {
            holding: vec![None; n],
            touched: Vec::new(),
            clusters_at: Vec::new(),
            steps: Vec::new(),
            wrapped: Vec::new(),
        }
    }

    /// Clears the holder arena (touching only occupied entries) and ensures
    /// it covers `n` parent nodes.
    fn reset_holding(&mut self, n: usize) {
        if self.holding.len() < n {
            self.holding.resize(n, None);
        }
        for &v in &self.touched {
            self.holding[v] = None;
        }
        self.touched.clear();
    }

    /// Rebuilds the step schedule for `clusters` in the buffers.
    fn build_schedule(&mut self, state: &ClusterState, clusters: impl Iterator<Item = usize>) {
        if self.clusters_at.len() < state.ell {
            self.clusters_at.resize_with(state.ell, Vec::new);
        }
        for bucket in &mut self.clusters_at[..state.ell] {
            bucket.clear();
        }
        for c in clusters {
            for &j in &state.s_sets[c] {
                self.clusters_at[j].push(c);
            }
        }
        self.steps.clear();
        let clusters_at = &self.clusters_at;
        self.steps
            .extend((0..state.ell).filter(|&j| !clusters_at[j].is_empty()));
    }
}

/// Down-cast: disseminates `messages[c]` from the center of each cluster `c`
/// (over the cluster universe, i.e. `messages` is keyed by cluster index) to
/// all of its members. `frame` is the Local-Broadcast scratch, sized for the
/// parent network.
///
/// Returns, for every node of the parent network, the payload it ended up
/// holding (`None` for nodes of non-participating clusters, and for members
/// the cast failed to reach, which happens only through Local-Broadcast
/// delivery failures). The slice borrows `scratch`'s holder arena.
pub fn down_cast_with<'s>(
    parent: &mut dyn RadioStack,
    state: &ClusterState,
    messages: &NodeSlots<Msg>,
    frame: &mut LbFrame,
    scratch: &'s mut CastScratch,
) -> &'s [Option<Msg>] {
    let n = state.num_nodes();
    debug_assert_eq!(frame.num_nodes(), n, "cast frame must cover the parent");
    scratch.reset_holding(n);
    if messages.is_empty() {
        return &scratch.holding[..n];
    }
    scratch.build_schedule(state, messages.keys().iter());
    let CastScratch {
        holding,
        touched,
        clusters_at,
        steps,
        wrapped,
    } = scratch;
    // Centers start out holding their message; by induction every holder of
    // cluster `c` holds exactly `messages[c]`, so the tagged message each
    // sender transmits is the same per cluster — wrap it once up front.
    wrapped.clear();
    wrapped.resize(state.num_clusters(), None);
    for (c, m) in messages.iter() {
        holding[state.centers[c]] = Some(m.clone());
        touched.push(state.centers[c]);
        wrapped[c] = Some(wrap(c, m));
    }

    let max_stage = messages
        .keys()
        .iter()
        .map(|c| state.radius(c))
        .max()
        .unwrap_or(0);
    for stage in 1..=max_stage {
        for &j in &*steps {
            frame.clear();
            for &c in &clusters_at[j] {
                let tagged = wrapped[c]
                    .as_ref()
                    .expect("scheduled cluster has a message");
                for &v in state.members_at_layer(c, stage - 1) {
                    if holding[v].is_some() {
                        frame.add_sender(v, tagged.clone());
                    }
                }
                for &v in state.members_at_layer(c, stage) {
                    frame.add_receiver(v);
                }
            }
            if frame.senders().is_empty() && frame.receivers().is_empty() {
                continue;
            }
            parent.local_broadcast(frame);
            for (v, m) in frame.delivered().iter() {
                // Check the cluster tag before paying for the payload split.
                if m.word(0) as usize == state.cluster_of[v] && holding[v].is_none() {
                    holding[v] = Some(m.split_first().1);
                    touched.push(v);
                }
            }
        }
    }
    &scratch.holding[..n]
}

/// One-shot [`down_cast_with`] with a freshly allocated scratch, returning
/// the holder arena by value. Hot paths should hold a [`CastScratch`] and
/// call [`down_cast_with`] instead.
pub fn down_cast(
    parent: &mut dyn RadioStack,
    state: &ClusterState,
    messages: &NodeSlots<Msg>,
    frame: &mut LbFrame,
) -> Vec<Option<Msg>> {
    let mut scratch = CastScratch::new(state.num_nodes());
    down_cast_with(parent, state, messages, frame, &mut scratch);
    scratch.holding
}

/// Up-cast: every cluster in `participating` whose members include at least
/// one holder of a message (given in `messages`, keyed by parent node)
/// delivers one such message to its center. `frame` is the Local-Broadcast
/// scratch, sized for the parent network; `out` (over the cluster universe,
/// cleared on entry) receives the message each participating cluster's
/// center heard. Clusters with no holders are absent from the result.
pub fn up_cast_into(
    parent: &mut dyn RadioStack,
    state: &ClusterState,
    participating: &NodeSet,
    messages: &NodeSlots<Msg>,
    frame: &mut LbFrame,
    scratch: &mut CastScratch,
    out: &mut NodeSlots<Msg>,
) {
    let n = state.num_nodes();
    debug_assert_eq!(frame.num_nodes(), n, "cast frame must cover the parent");
    debug_assert_eq!(
        out.universe(),
        state.num_clusters(),
        "up-cast output must cover the clusters"
    );
    out.clear();
    scratch.reset_holding(n);
    if participating.is_empty() {
        return;
    }
    scratch.build_schedule(state, participating.iter());
    let CastScratch {
        holding,
        touched,
        clusters_at,
        steps,
        ..
    } = scratch;
    // Holders keep their payload already tagged with their own cluster —
    // the exact message they transmit — so a node is wrapped once when it
    // starts holding rather than once per step it sends in, and a delivery
    // with the right tag is stored as is.
    for (v, m) in messages.iter() {
        let c = state.cluster_of[v];
        if participating.contains(c) {
            holding[v] = Some(wrap(c, m));
            touched.push(v);
        }
    }

    let max_stage = participating
        .iter()
        .map(|c| state.radius(c))
        .max()
        .unwrap_or(0);
    // Stages walk from the deepest layer towards the center.
    for stage in (1..=max_stage).rev() {
        for &j in &*steps {
            frame.clear();
            for &c in &clusters_at[j] {
                for &v in state.members_at_layer(c, stage) {
                    if let Some(tagged) = &holding[v] {
                        frame.add_sender(v, tagged.clone());
                    }
                }
                for &v in state.members_at_layer(c, stage - 1) {
                    frame.add_receiver(v);
                }
            }
            if frame.senders().is_empty() && frame.receivers().is_empty() {
                continue;
            }
            parent.local_broadcast(frame);
            for (v, m) in frame.delivered().iter() {
                if m.word(0) as usize == state.cluster_of[v] && holding[v].is_none() {
                    holding[v] = Some(m.clone());
                    touched.push(v);
                }
            }
        }
    }

    for c in participating.iter() {
        if let Some(tagged) = &holding[state.centers[c]] {
            out.insert(c, tagged.split_first().1);
        }
    }
}

/// One-shot [`up_cast_into`] with freshly allocated scratch and output. Hot
/// paths should hold a [`CastScratch`] and an output arena and call
/// [`up_cast_into`] instead.
pub fn up_cast(
    parent: &mut dyn RadioStack,
    state: &ClusterState,
    participating: &NodeSet,
    messages: &NodeSlots<Msg>,
    frame: &mut LbFrame,
) -> NodeSlots<Msg> {
    let mut scratch = CastScratch::new(state.num_nodes());
    let mut out = NodeSlots::new(state.num_clusters());
    up_cast_into(
        parent,
        state,
        participating,
        messages,
        frame,
        &mut scratch,
        &mut out,
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clustering::{cluster_distributed, ClusteringConfig};
    use crate::stack::{Stack, StackBuilder};
    use radio_graph::generators;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn setup(g: radio_graph::Graph, inv_beta: u64, seed: u64) -> (Stack, ClusterState) {
        let mut net = StackBuilder::new(g).build();
        let cfg = ClusteringConfig::new(inv_beta);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let state = cluster_distributed(&mut net, &cfg, &mut rng);
        (net, state)
    }

    fn per_cluster_messages(state: &ClusterState, offset: u64) -> NodeSlots<Msg> {
        let mut m = NodeSlots::new(state.num_clusters());
        for c in 0..state.num_clusters() {
            m.insert(c, Msg::words(&[offset + c as u64]));
        }
        m
    }

    fn all_clusters(state: &ClusterState) -> NodeSet {
        let mut s = NodeSet::new(state.num_clusters());
        s.extend(0..state.num_clusters());
        s
    }

    #[test]
    fn down_cast_reaches_every_member() {
        let g = generators::grid(10, 10);
        let (mut net, state) = setup(g, 4, 1);
        let messages = per_cluster_messages(&state, 1000);
        let mut frame = net.new_frame();
        let holding = down_cast(&mut net, &state, &messages, &mut frame);
        for (v, held) in holding.iter().enumerate() {
            let c = state.cluster_of[v];
            assert_eq!(
                held.as_ref().map(|m| m.word(0)),
                Some(1000 + c as u64),
                "vertex {v} (cluster {c}, layer {}) missed the down-cast",
                state.layer[v]
            );
        }
    }

    #[test]
    fn down_cast_only_touches_participating_clusters() {
        let g = generators::grid(8, 8);
        let (mut net, state) = setup(g, 3, 2);
        if state.num_clusters() < 2 {
            return; // degenerate sample; other seeds cover the logic
        }
        let mut messages = NodeSlots::new(state.num_clusters());
        messages.insert(0, Msg::words(&[7]));
        let mut frame = net.new_frame();
        let holding = down_cast(&mut net, &state, &messages, &mut frame);
        for (v, held) in holding.iter().enumerate() {
            if state.cluster_of[v] != 0 {
                assert!(held.is_none());
            }
        }
        // Members of cluster 0 all hold the message.
        for &v in &state.members(0) {
            assert_eq!(holding[v].as_ref().map(|m| m.word(0)), Some(7));
        }
    }

    #[test]
    fn up_cast_delivers_some_holder_message_to_center() {
        let g = generators::grid(10, 10);
        let (mut net, state) = setup(g, 4, 3);
        // Every vertex of every cluster holds a message encoding its id.
        let mut messages = NodeSlots::new(state.num_nodes());
        for v in 0..state.num_nodes() {
            messages.insert(v, Msg::words(&[v as u64]));
        }
        let participating = all_clusters(&state);
        let mut frame = net.new_frame();
        let received = up_cast(&mut net, &state, &participating, &messages, &mut frame);
        assert_eq!(received.len(), state.num_clusters());
        for (c, m) in received.iter() {
            let holder = m.word(0) as usize;
            assert_eq!(
                state.cluster_of[holder], c,
                "cluster {c} got a foreign message"
            );
        }
    }

    #[test]
    fn up_cast_with_single_holder_reaches_center() {
        let g = generators::grid(9, 9);
        let (mut net, state) = setup(g, 4, 4);
        // Pick the deepest vertex of the largest cluster as the only holder.
        let (c, _) = state
            .cluster_sizes()
            .into_iter()
            .enumerate()
            .max_by_key(|&(_, s)| s)
            .unwrap();
        let deepest = *state
            .members(c)
            .iter()
            .max_by_key(|&&v| state.layer[v])
            .unwrap();
        let mut messages = NodeSlots::new(state.num_nodes());
        messages.insert(deepest, Msg::words(&[4242]));
        let mut participating = NodeSet::new(state.num_clusters());
        participating.insert(c);
        let mut frame = net.new_frame();
        let received = up_cast(&mut net, &state, &participating, &messages, &mut frame);
        assert_eq!(received.get(c).map(|m| m.word(0)), Some(4242));
    }

    #[test]
    fn up_cast_ignores_holders_outside_participating_clusters() {
        let g = generators::grid(8, 8);
        let (mut net, state) = setup(g, 3, 5);
        if state.num_clusters() < 2 {
            return;
        }
        let outsider = state.centers[1];
        let mut messages = NodeSlots::new(state.num_nodes());
        messages.insert(outsider, Msg::words(&[5]));
        let mut participating = NodeSet::new(state.num_clusters());
        participating.insert(0);
        let mut frame = net.new_frame();
        let received = up_cast(&mut net, &state, &participating, &messages, &mut frame);
        assert!(received.is_empty());
    }

    #[test]
    fn up_cast_delivers_holder_payloads_without_the_cluster_tag() {
        let g = generators::grid(10, 10);
        let (mut net, state) = setup(g, 4, 7);
        let mut messages = NodeSlots::new(state.num_nodes());
        for v in 0..state.num_nodes() {
            messages.insert(v, Msg::words(&[v as u64, 77, 88]));
        }
        let participating = all_clusters(&state);
        let mut frame = net.new_frame();
        let received = up_cast(&mut net, &state, &participating, &messages, &mut frame);
        assert_eq!(received.len(), state.num_clusters());
        for (c, m) in received.iter() {
            let holder = m.word(0) as usize;
            assert_eq!(state.cluster_of[holder], c);
            assert_eq!(
                *m,
                Msg::words(&[holder as u64, 77, 88]),
                "cluster {c} got a re-tagged or truncated payload"
            );
        }
    }

    #[test]
    fn up_cast_from_the_centers_returns_their_own_payloads() {
        let g = generators::grid(8, 8);
        let (mut net, state) = setup(g, 3, 8);
        let mut messages = NodeSlots::new(state.num_nodes());
        for c in 0..state.num_clusters() {
            messages.insert(state.centers[c], Msg::words(&[1000 + c as u64, 5]));
        }
        let participating = all_clusters(&state);
        let mut frame = net.new_frame();
        let received = up_cast(&mut net, &state, &participating, &messages, &mut frame);
        for c in 0..state.num_clusters() {
            assert_eq!(received.get(c), Some(&Msg::words(&[1000 + c as u64, 5])));
        }
    }

    #[test]
    fn up_cast_into_with_reused_scratch_matches_a_fresh_up_cast() {
        // Two stacks built alike make the same LB draws call for call, so
        // only the scratch reuse differs between them.
        let (mut net, state) = setup(generators::grid(9, 9), 4, 9);
        let (mut fresh_net, _) = setup(generators::grid(9, 9), 4, 9);
        let participating = all_clusters(&state);
        let mut frame = net.new_frame();
        let mut fresh_frame = fresh_net.new_frame();
        let mut scratch = CastScratch::new(state.num_nodes());
        let mut out = NodeSlots::new(state.num_clusters());
        for round in 0..3u64 {
            let mut messages = NodeSlots::new(state.num_nodes());
            for v in (round as usize..state.num_nodes()).step_by(3) {
                messages.insert(v, Msg::words(&[v as u64, round]));
            }
            up_cast_into(
                &mut net,
                &state,
                &participating,
                &messages,
                &mut frame,
                &mut scratch,
                &mut out,
            );
            let fresh = up_cast(
                &mut fresh_net,
                &state,
                &participating,
                &messages,
                &mut fresh_frame,
            );
            let reused: Vec<(usize, Msg)> = out.iter().map(|(c, m)| (c, m.clone())).collect();
            let want: Vec<(usize, Msg)> = fresh.iter().map(|(c, m)| (c, m.clone())).collect();
            assert_eq!(reused, want, "round {round}");
        }
    }

    #[test]
    fn cast_energy_per_vertex_is_logarithmic() {
        // Lemma 3.1: each vertex participates in O(log n) Local-Broadcasts
        // per cast. Compare against a generous constant times |S_Cl| bound.
        let g = generators::grid(14, 14);
        let (mut net, state) = setup(g, 4, 6);
        let before: Vec<u64> = (0..state.num_nodes()).map(|v| net.lb_energy(v)).collect();
        let messages = per_cluster_messages(&state, 0);
        let mut frame = net.new_frame();
        let _ = down_cast(&mut net, &state, &messages, &mut frame);
        for (v, &already_used) in before.iter().enumerate() {
            let used = net.lb_energy(v) - already_used;
            let s_len = state.s_sets[state.cluster_of[v]].len() as u64;
            assert!(
                used <= 2 * s_len + 2,
                "vertex {v} used {used} participations for one down-cast (|S_Cl| = {s_len})"
            );
        }
    }

    #[test]
    fn wrap_unwrap_roundtrip() {
        let payload = Msg::words(&[9, 8, 7]);
        let wrapped = wrap(3, &payload);
        let (c, p) = unwrap(&wrapped);
        assert_eq!(c, 3);
        assert_eq!(p, payload);
    }
}
