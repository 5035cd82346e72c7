//! E6 bench: the word-parallel frame kernels in isolation.
//!
//! Three groups:
//!
//! * `nodeset_kernels` — bulk [`NodeSet`] operations (`union_with`,
//!   `difference_with`, `count_intersection`) against a per-bit scalar
//!   reference, across universe sizes and fill densities. The kernels are
//!   what every hot loop in the simulator now calls, so their throughput
//!   bounds the per-slot cost of delivery resolution and decay bookkeeping.
//! * `narrow_round` — the fixed cost of one narrow Local-Broadcast round on
//!   a big universe: a [`RoundFrame`] cleared, filled with one sender and
//!   five receivers near the top of the universe, then walked the way a
//!   backend walks it (senders, receivers, deliveries). Its time should not
//!   grow with the universe or with how high the node ids sit.
//! * `delivery_resolution` — `step_frame_scan` vs `step_frame_columnar` on
//!   the same physical slot, at the two extremes the adaptive dispatch in
//!   `step_frame` arbitrates between: a handful of transmitters with the
//!   whole graph listening (columnar territory) and a dense transmitter set
//!   (scan territory).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use radio_graph::generators;
use radio_sim::{NodeSet, RadioNetwork, RoundFrame, SlotFrame};

/// A deterministic set over `0..n` holding every `stride`-th element,
/// phase-shifted so two sets with different offsets overlap partially.
fn strided_set(n: usize, stride: usize, offset: usize) -> NodeSet {
    let mut s = NodeSet::new(n);
    let mut v = offset % stride.max(1);
    while v < n {
        s.insert(v);
        v += stride;
    }
    s
}

fn bench_nodeset_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("nodeset_kernels");
    group.sample_size(200);
    for &n in &[1024usize, 4096, 16384] {
        // stride 64 ≈ 1.6% full (sparse), stride 2 = 50% full (dense).
        for &(label, stride) in &[("sparse", 64usize), ("dense", 2)] {
            let a = strided_set(n, stride, 0);
            let b_set = strided_set(n, stride, stride / 2 + 1);
            let id = format!("{label}/{n}");

            group.bench_with_input(BenchmarkId::new("union_with", &id), &n, |b, _| {
                let mut dst = NodeSet::new(n);
                b.iter(|| {
                    dst.copy_from(&a);
                    dst.union_with(&b_set);
                    black_box(dst.len())
                });
            });
            group.bench_with_input(BenchmarkId::new("union_scalar_ref", &id), &n, |b, _| {
                let mut dst = NodeSet::new(n);
                b.iter(|| {
                    dst.copy_from(&a);
                    for v in b_set.iter() {
                        dst.insert(v);
                    }
                    black_box(dst.len())
                });
            });
            group.bench_with_input(BenchmarkId::new("difference_with", &id), &n, |b, _| {
                let mut dst = NodeSet::new(n);
                b.iter(|| {
                    dst.copy_from(&a);
                    dst.difference_with(&b_set);
                    black_box(dst.len())
                });
            });
            group.bench_with_input(BenchmarkId::new("count_intersection", &id), &n, |b, _| {
                b.iter(|| black_box(a.count_intersection(&b_set)))
            });
        }
    }
    group.finish();
}

/// One narrow round per iteration, as casts issue them on a long path: clear
/// the frame, add one sender and five receivers among the top ids of the
/// universe, deliver to one receiver, then iterate every lane.
fn bench_narrow_round(c: &mut Criterion) {
    let mut group = c.benchmark_group("narrow_round");
    group.sample_size(200);
    for &n in &[1usize << 13, 1 << 20] {
        let mut frame: RoundFrame<u64> = RoundFrame::new(n);
        let top = n - 8;
        group.bench_with_input(BenchmarkId::new("clear_fill_iter", n), &n, |b, _| {
            b.iter(|| {
                frame.clear();
                frame.add_sender(top + 3, 7);
                for v in [top, top + 2, top + 4, top + 5, top + 7] {
                    frame.add_receiver(v);
                }
                frame.parts_mut().2.insert(top + 2, 7);
                let mut acc = 0usize;
                acc += frame.senders().iter().map(|(v, _)| v).sum::<usize>();
                acc += frame.receivers().iter().sum::<usize>();
                acc += frame.delivered().iter().map(|(v, _)| v).sum::<usize>();
                black_box(acc)
            });
        });
    }
    group.finish();
}

/// One physical slot on a grid: `k` spread-out transmitters, everyone else
/// listening. Benchmarks both resolution paths on the identical frame so
/// the crossover the adaptive dispatch encodes is visible in wall-clock.
fn bench_delivery_resolution(c: &mut Criterion) {
    let mut group = c.benchmark_group("delivery_resolution");
    group.sample_size(50);
    let side = 64usize;
    let n = side * side;
    let g = generators::grid(side, side);
    for &k in &[4usize, 64, 1024] {
        let mut frame: SlotFrame<u64> = SlotFrame::new(n);
        for i in 0..k {
            frame.transmit.insert(i * (n / k), i as u64);
        }
        for v in 0..n {
            if frame.transmit.get(v).is_none() {
                frame.listen.insert(v);
            }
        }
        group.bench_with_input(BenchmarkId::new("scan", k), &k, |b, _| {
            let mut net: RadioNetwork<u64> = RadioNetwork::new(g.clone());
            b.iter(|| {
                net.step_frame_scan(&mut frame);
                black_box(frame.received.len())
            });
        });
        group.bench_with_input(BenchmarkId::new("columnar", k), &k, |b, _| {
            let mut net: RadioNetwork<u64> = RadioNetwork::new(g.clone());
            b.iter(|| {
                net.step_frame_columnar(&mut frame);
                black_box(frame.received.len())
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_nodeset_kernels,
    bench_narrow_round,
    bench_delivery_resolution
);
criterion_main!(benches);
