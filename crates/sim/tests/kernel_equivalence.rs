//! Property tests pinning the word-parallel frame kernels to their scalar
//! definitions.
//!
//! Two families:
//!
//! * every bulk [`NodeSet`] kernel must agree with a naive per-bit reference
//!   (`Vec<bool>`), across universes chosen to straddle the 64-bit word
//!   boundaries — including the empty universe — and arbitrary fill
//!   patterns;
//! * a model-based test runs random operation sequences on [`NodeSet`]
//!   against a `BTreeSet` reference over universes up to 2^20 with the
//!   members packed near the top, checking members, `len`, order and that
//!   no bit lies outside the occupied-word range after every operation;
//! * the two delivery-resolution paths of the simulator,
//!   `step_frame_scan` and `step_frame_columnar`, must produce identical
//!   frames (feedback lane, received index) and identical energy meters on
//!   random graphs and random transmit/listen splits, with and without
//!   receiver-side collision detection — the invariant that makes the
//!   adaptive dispatch in `step_frame` unobservable.

use proptest::prelude::*;

use std::collections::BTreeSet;

use radio_graph::Graph;
use radio_sim::{CollisionDetection, NodeSet, RadioNetwork, RoundFrame, SlotFrame};

/// Universes straddling the word boundaries: empty, single word, exactly
/// one word, one past it, exactly two words, one past them.
const UNIVERSES: [usize; 7] = [0, 1, 63, 64, 65, 127, 128];

/// Splitmix-style deterministic bit stream, so the tests need no RNG crate.
fn next_bits(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    let z = *state;
    let z = (z ^ (z >> 33)).wrapping_mul(0xff51afd7ed558ccd);
    z ^ (z >> 33)
}

/// A pseudo-random set over `0..n` with roughly `density`/64 fill, plus its
/// per-bit reference.
fn random_set(n: usize, density: u64, seed: &mut u64) -> (NodeSet, Vec<bool>) {
    let mut set = NodeSet::new(n);
    let mut bits = vec![false; n];
    for (v, b) in bits.iter_mut().enumerate() {
        if next_bits(seed) % 64 < density {
            set.insert(v);
            *b = true;
        }
    }
    (set, bits)
}

fn to_indices(bits: &[bool]) -> Vec<usize> {
    bits.iter()
        .enumerate()
        .filter_map(|(v, &b)| b.then_some(v))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn bulk_kernels_match_the_per_bit_reference(
        (upick, da, db) in (0usize..7, 0u64..65, 0u64..65),
        seed in 0u64..1_000_000,
    ) {
        let n = UNIVERSES[upick];
        let mut s = seed.wrapping_mul(2).wrapping_add(1);
        let (a, ra) = random_set(n, da, &mut s);
        let (b, rb) = random_set(n, db, &mut s);

        // Construction invariants: len is exact, iter ascends over exactly
        // the reference members.
        prop_assert_eq!(a.len(), ra.iter().filter(|&&x| x).count());
        prop_assert_eq!(a.iter().collect::<Vec<_>>(), to_indices(&ra));

        // union_with ≡ per-bit OR.
        let mut u = a.clone();
        u.union_with(&b);
        let ru: Vec<bool> = ra.iter().zip(&rb).map(|(&x, &y)| x || y).collect();
        prop_assert_eq!(u.iter().collect::<Vec<_>>(), to_indices(&ru));
        prop_assert_eq!(u.len(), to_indices(&ru).len());

        // intersect_with ≡ per-bit AND.
        let mut i = a.clone();
        i.intersect_with(&b);
        let ri: Vec<bool> = ra.iter().zip(&rb).map(|(&x, &y)| x && y).collect();
        prop_assert_eq!(i.iter().collect::<Vec<_>>(), to_indices(&ri));

        // difference_with ≡ per-bit AND-NOT.
        let mut d = a.clone();
        d.difference_with(&b);
        let rd: Vec<bool> = ra.iter().zip(&rb).map(|(&x, &y)| x && !y).collect();
        prop_assert_eq!(d.iter().collect::<Vec<_>>(), to_indices(&rd));

        // count_intersection / is_disjoint ≡ the reference counts.
        let ric = ra.iter().zip(&rb).filter(|(&x, &y)| x && y).count();
        prop_assert_eq!(a.count_intersection(&b), ric);
        prop_assert_eq!(a.is_disjoint(&b), ric == 0);
        prop_assert_eq!(a.count_intersection(&b), b.count_intersection(&a));

        // copy_from adopts the source exactly, even from a dirty target.
        let mut c = u.clone();
        c.copy_from(&a);
        prop_assert_eq!(&c, &a);

        // Kernels on a cleared set behave as on a fresh one (watermark
        // reset is invisible).
        let mut cleared = u;
        cleared.clear();
        prop_assert_eq!(cleared.len(), 0);
        cleared.union_with(&a);
        prop_assert_eq!(&cleared, &a);
    }
}

/// Universes of the model-based test: tiny ones around the first word
/// boundary, and the large ones where a sparse set near the top leaves
/// thousands of empty words below its occupied range.
const MODEL_UNIVERSES: [usize; 6] = [1, 63, 64, 65, 1 << 13, 1 << 20];

/// A node id for the model-based test: three draws in four come from the
/// top 192 ids of the universe, the rest from anywhere.
fn model_node(n: usize, seed: &mut u64) -> usize {
    let r = next_bits(seed);
    if r.is_multiple_of(4) {
        (r / 4) as usize % n
    } else {
        n - 1 - (r / 4) as usize % n.min(192)
    }
}

/// Asserts that `set` holds exactly `model`, in ascending order, with an
/// exact `len`, and that every word outside its occupied range is zero.
fn assert_matches_model(set: &NodeSet, model: &BTreeSet<usize>, step: usize, op: &str) {
    let members: Vec<usize> = set.iter().collect();
    assert!(
        members.windows(2).all(|w| w[0] < w[1]),
        "step {step} ({op}): iteration not ascending"
    );
    assert_eq!(
        members,
        model.iter().copied().collect::<Vec<_>>(),
        "step {step} ({op}): members"
    );
    assert_eq!(set.len(), model.len(), "step {step} ({op}): len");
    let range = set.word_range();
    for (i, &w) in set.words().iter().enumerate() {
        assert!(
            w == 0 || range.contains(&i),
            "step {step} ({op}): word {i} is set outside the range {range:?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn node_set_matches_a_btree_set_model(
        (upick, steps) in (0usize..6, 1usize..160),
        seed in 0u64..1_000_000,
    ) {
        let n = MODEL_UNIVERSES[upick];
        let mut s = seed.wrapping_mul(2).wrapping_add(1);
        // `a` is the set under test, `b` the second operand of the binary
        // kernels; an op may swap them so both see every kind of history.
        let (mut a, mut b) = (NodeSet::new(n), NodeSet::new(n));
        let (mut ma, mut mb) = (BTreeSet::new(), BTreeSet::new());
        let mut frame: RoundFrame<()> = RoundFrame::new(n);
        for step in 0..steps {
            let op = match next_bits(&mut s) % 12 {
                0..=2 => {
                    let v = model_node(n, &mut s);
                    prop_assert_eq!(a.insert(v), ma.insert(v));
                    "insert"
                }
                3 => {
                    let v = model_node(n, &mut s);
                    prop_assert_eq!(a.remove(v), ma.remove(&v));
                    "remove"
                }
                4 => {
                    a.clear();
                    ma.clear();
                    "clear"
                }
                5 => {
                    a.copy_from(&b);
                    ma = mb.clone();
                    "copy_from"
                }
                6 => {
                    a.union_with(&b);
                    ma.extend(mb.iter().copied());
                    "union_with"
                }
                7 => {
                    a.intersect_with(&b);
                    ma.retain(|v| mb.contains(v));
                    "intersect_with"
                }
                8 => {
                    a.difference_with(&b);
                    ma.retain(|v| !mb.contains(v));
                    "difference_with"
                }
                9 => {
                    // Flip random bits of one word through the raw view.
                    let w = model_node(n, &mut s) / 64;
                    let valid = if (w + 1) * 64 <= n { u64::MAX } else { (1u64 << (n % 64)) - 1 };
                    let flip = next_bits(&mut s) & valid;
                    a.words_mut()[w] ^= flip;
                    a.recount();
                    for bit in 0..64 {
                        if flip >> bit & 1 == 1 {
                            let v = w * 64 + bit;
                            if !ma.remove(&v) {
                                ma.insert(v);
                            }
                        }
                    }
                    "words_mut + recount"
                }
                10 => {
                    frame.set_receivers(&a);
                    assert_matches_model(frame.receivers(), &ma, step, "set_receivers");
                    "set_receivers"
                }
                _ => {
                    std::mem::swap(&mut a, &mut b);
                    std::mem::swap(&mut ma, &mut mb);
                    "swap operands"
                }
            };
            assert_matches_model(&a, &ma, step, op);
            let shared = ma.intersection(&mb).count();
            prop_assert_eq!(a.count_intersection(&b), shared, "step {} ({})", step, op);
            prop_assert_eq!(a.is_disjoint(&b), shared == 0, "step {} ({})", step, op);
        }
    }
}

/// A pseudo-random graph over `n` nodes with edge probability `p`/8.
fn random_graph(n: usize, p: u64, seed: &mut u64) -> Graph {
    let mut edges = Vec::new();
    for u in 0..n {
        for v in (u + 1)..n {
            if next_bits(seed) % 8 < p {
                edges.push((u, v));
            }
        }
    }
    Graph::from_edges(n, &edges)
}

/// Runs one slot through the given resolution path and serializes
/// everything observable: per-listener feedback, the received index, and
/// the full energy report.
fn run_path(
    g: &Graph,
    cd: CollisionDetection,
    transmitters: &[(usize, u64)],
    listeners: &[usize],
    columnar: bool,
) -> String {
    let n = g.num_nodes();
    let mut net: RadioNetwork<u64> = RadioNetwork::new(g.clone()).with_collision_detection(cd);
    let mut frame: SlotFrame<u64> = SlotFrame::new(n);
    for &(v, m) in transmitters {
        frame.transmit.insert(v, m);
    }
    for &v in listeners {
        frame.listen.insert(v);
    }
    if columnar {
        net.step_frame_columnar(&mut frame);
    } else {
        net.step_frame_scan(&mut frame);
    }
    let feedback: Vec<(usize, String)> = frame
        .feedback
        .iter()
        .map(|(v, fb)| (v, format!("{fb:?}")))
        .collect();
    format!(
        "feedback {:?}\nreceived {:?}\nreport {:?}",
        feedback,
        frame.received.iter().collect::<Vec<_>>(),
        net.report()
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn columnar_and_scan_resolution_are_byte_identical(
        (n, p, split) in (2usize..160, 0u64..9, 0u64..8),
        (idle_below, seed) in (0usize..160, 0u64..1_000_000),
    ) {
        let mut s = seed.wrapping_mul(2).wrapping_add(1);
        let g = random_graph(n, p, &mut s);
        // Random role split: each node transmits with probability split/8,
        // otherwise listens (idle nodes appear when split == 0 via the
        // empty transmitter branch below drawing nothing). Nodes below
        // `idle_below` stay idle, so the listen set's occupied-word range
        // often starts past word 0.
        let mut transmitters = Vec::new();
        let mut listeners = Vec::new();
        for v in idle_below.min(n)..n {
            if next_bits(&mut s) % 8 < split {
                transmitters.push((v, v as u64 + 100));
            } else if !next_bits(&mut s).is_multiple_of(8) {
                listeners.push(v);
            }
        }
        for cd in [CollisionDetection::None, CollisionDetection::Receiver] {
            let scan = run_path(&g, cd, &transmitters, &listeners, false);
            let columnar = run_path(&g, cd, &transmitters, &listeners, true);
            prop_assert_eq!(
                &scan, &columnar,
                "paths diverged on n={} p={} split={} cd={:?}", n, p, split, cd
            );
        }
    }
}
