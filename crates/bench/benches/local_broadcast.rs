//! E3 bench: wall-clock cost of the Decay Local-Broadcast (Lemma 2.4) on the
//! physical simulator as contention grows, and of one abstract
//! Local-Broadcast call in the three shapes the protocols make.
//!
//! The frame and the decay scratch are allocated once per size and reused
//! across iterations, as every hot caller does.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use radio_bench::rng;
use radio_graph::{generators, Graph};
use radio_protocols::{LbFrame, Msg, RadioStack, Stack, StackBuilder};
use radio_sim::{
    decay_local_broadcast, decay_local_broadcast_cd, CollisionDetection, DecayParams, DecayScratch,
    RadioNetwork, RoundFrame,
};

fn bench_decay(c: &mut Criterion) {
    let mut group = c.benchmark_group("decay_local_broadcast");
    group.sample_size(20);
    for &n in &[16usize, 64, 256, 4096] {
        group.bench_with_input(BenchmarkId::new("star_all_senders", n), &n, |b, &n| {
            let g = generators::star(n);
            let params = DecayParams::for_network(n, n - 1);
            let mut frame: RoundFrame<u64> = RoundFrame::new(n);
            let mut scratch: DecayScratch<u64> = DecayScratch::new(n);
            let mut r = rng(300 + n as u64);
            b.iter(|| {
                let mut net: RadioNetwork<u64> = RadioNetwork::new(g.clone());
                frame.clear();
                for v in 1..n {
                    frame.add_sender(v, v as u64);
                }
                frame.add_receiver(0);
                decay_local_broadcast(&mut net, &mut frame, &mut scratch, params, &mut r)
            });
        });
    }
    group.finish();
}

/// CD-aware decay vs plain decay on a sparse instance (one sender on a
/// path, every other node listening): the CD variant resolves hopeless
/// receivers after one iteration and retires the sender via the echo slot,
/// so it simulates far fewer slots — the wall-clock counterpart of the
/// energy saving recorded by the `path-lbsweep-*` scenarios.
fn bench_decay_cd(c: &mut Criterion) {
    let mut group = c.benchmark_group("decay_cd");
    group.sample_size(20);
    for &n in &[64usize, 256, 4096] {
        let g = generators::path(n);
        let params = DecayParams::for_network(n, 2);
        group.bench_with_input(BenchmarkId::new("path_no_cd", n), &n, |b, &n| {
            let mut frame: RoundFrame<u64> = RoundFrame::new(n);
            let mut scratch: DecayScratch<u64> = DecayScratch::new(n);
            let mut r = rng(400 + n as u64);
            b.iter(|| {
                let mut net: RadioNetwork<u64> = RadioNetwork::new(g.clone());
                frame.clear();
                frame.add_sender(0, 7u64);
                for v in 1..n {
                    frame.add_receiver(v);
                }
                decay_local_broadcast(&mut net, &mut frame, &mut scratch, params, &mut r)
            });
        });
        group.bench_with_input(BenchmarkId::new("path_cd", n), &n, |b, &n| {
            let mut frame: RoundFrame<u64> = RoundFrame::new(n);
            let mut scratch: DecayScratch<u64> = DecayScratch::new(n);
            let mut r = rng(400 + n as u64);
            b.iter(|| {
                let mut net: RadioNetwork<u64> = RadioNetwork::new(g.clone())
                    .with_collision_detection(CollisionDetection::Receiver);
                frame.clear();
                frame.add_sender(0, 7u64);
                for v in 1..n {
                    frame.add_receiver(v);
                }
                decay_local_broadcast_cd(&mut net, &mut frame, &mut scratch, params, &mut r)
            });
        });
    }
    group.finish();
}

/// One abstract Local-Broadcast call on a default stack (ledger on), with
/// the frame filled once and reused: each iteration clears the deliveries,
/// charges the ledger and resolves the deliveries.
fn abstract_call(
    g: Graph,
    senders: &[usize],
    receivers: impl Iterator<Item = usize>,
) -> (Stack, LbFrame) {
    let net = StackBuilder::new(g).with_seed(500).build();
    let mut frame = net.new_frame();
    for &v in senders {
        frame.add_sender(v, Msg::words(&[v as u64]));
    }
    for v in receivers {
        frame.add_receiver(v);
    }
    (net, frame)
}

/// The abstract backend on its three call shapes, and the readout of its
/// counters:
///
/// * `wide` — one sender on a path, every other node listening (a trivial
///   BFS round with a one-vertex frontier): almost no receiver has a
///   sending neighbour.
/// * `wavefront` — the 64-vertex anti-diagonal `r + c = 63` of a 256×256
///   grid sending, every vertex beyond it listening (a wavefront hop with
///   the unsettled vertices as receivers).
/// * `hyperball` — one sender at the grid's centre, its four neighbours
///   listening: every receiver has a sending neighbour, the worst case for
///   resolving deliveries from the senders' side.
/// * `readout` — one `energy_view` plus a `diff` against an earlier view
///   on a 2^20-node path, after a `wide` call: what every protocol run
///   pays on top of its calls.
fn bench_abstract_lb(c: &mut Criterion) {
    let mut group = c.benchmark_group("abstract_lb");
    group.sample_size(20);
    for &n in &[1usize << 16, 1 << 20] {
        group.bench_with_input(BenchmarkId::new("wide/path", n), &n, |b, &n| {
            let mid = n / 2;
            let (mut net, mut frame) =
                abstract_call(generators::path(n), &[mid], (0..n).filter(|&v| v != mid));
            b.iter(|| net.local_broadcast(&mut frame));
        });
    }
    let side = 256usize;
    let n = side * side;
    group.bench_with_input(BenchmarkId::new("wavefront/grid", n), &n, |b, _| {
        let senders: Vec<usize> = (0..64).map(|r| r * side + (63 - r)).collect();
        let beyond = (0..n).filter(|v| v / side + v % side > 63);
        let (mut net, mut frame) = abstract_call(generators::grid(side, side), &senders, beyond);
        b.iter(|| net.local_broadcast(&mut frame));
    });
    group.bench_with_input(BenchmarkId::new("hyperball/grid", n), &n, |b, _| {
        let g = generators::grid(side, side);
        let centre = (side / 2) * side + side / 2;
        let neighbours = g.neighbors(centre).to_vec();
        let (mut net, mut frame) = abstract_call(g, &[centre], neighbours.into_iter());
        b.iter(|| net.local_broadcast(&mut frame));
    });
    // The wide call leaves whole-word ledger charges on most words.
    let n = 1usize << 20;
    let id = BenchmarkId::new("readout/energy_view_diff", n);
    group.bench_with_input(id, &n, |b, &n| {
        let mid = n / 2;
        let (mut net, mut frame) =
            abstract_call(generators::path(n), &[mid], (0..n).filter(|&v| v != mid));
        let before = net.energy_view();
        net.local_broadcast(&mut frame);
        b.iter(|| net.energy_view().diff(&before));
    });
    group.finish();
}

criterion_group!(benches, bench_decay, bench_decay_cd, bench_abstract_lb);
criterion_main!(benches);
