//! `crossover`: the E6 cell at the paper's headline scale.
//!
//! A path of `n = 2^13` nodes (D = 8191), one recursion level with `1/β`
//! from `scaling_config`, and the trivial wavefront as baseline, all on
//! the abstract stack and single-threaded. Setup is the dataset load, the
//! stack builds and `build_hierarchy` (the paper's clustering phase); the
//! timed run is one recursive query plus the baseline. Almost every base
//! Local-Broadcast call of the query is *narrow* (about one sender and a
//! handful of receivers), issued by casts and `VirtualClusterNet`.
//!
//! The workload seed picks the clustering seeds of the run's instances;
//! the source is node 0. Stacks are built as the scenario runner builds
//! them (`StackSpec::Abstract` with the instance seed).
//!
//! The research loop's re-run is the first instance's two cells as runner
//! scenarios (`recursive`, whose default `1/β` is `scaling_config`'s, and
//! `trivial_bfs`): computed once into a result store, then answered from
//! it after every instance (`warm_s`). The runner's cold records must
//! agree with the first instance's phase-by-phase counts.

use std::sync::Arc;
use std::time::Instant;

use energy_bfs::baseline::trivial_bfs;
use energy_bfs::{build_hierarchy, recursive_bfs_with_hierarchy};
use radio_bench::scaling_config;
use radio_bench::scenarios::{Family, Protocol, Scenario, StackSpec};
use radio_graph::bfs::bfs_distances;
use radio_graph::dataset::DatasetCache;
use radio_protocols::RadioStack;

use crate::report::Outcome;
use crate::stack::{LbCounters, Probe, TracedStack};
use crate::{lb_layer, secs, Rerun, Run};

/// Node count of the headline cell.
pub const N: usize = 1 << 13;
/// Clustering seeds per untraced run.
pub const INSTANCES: u64 = 8;
/// Instances a traced run measures (each twice: plain, then decorated).
pub const TRACED_INSTANCES: u64 = 3;

/// What one setup + query + baseline repetition measured and produced.
struct Rep {
    load_s: f64,
    stack_s: f64,
    cluster_s: f64,
    query_s: f64,
    baseline_s: f64,
    outputs: Outputs,
    /// Decorator counters of the query phase (zero when untraced).
    query_lb: LbCounters,
}

/// Everything a repetition computed, without timings: a traced
/// repetition must reproduce it exactly.
#[derive(Clone, Debug, PartialEq)]
struct Outputs {
    clusters: u64,
    setup_calls: u64,
    setup_energy: u64,
    query_energy: u64,
    query_time: u64,
    baseline_energy: u64,
    baseline_time: u64,
    /// Recursive calls, stages, max wavefront and Special-Update
    /// memberships (the Claim 1/2 counts).
    recursion: [u64; 4],
    dist: Vec<Option<u64>>,
    baseline_dist: Vec<Option<u64>>,
}

impl Rep {
    fn setup_s(&self) -> f64 {
        self.load_s + self.stack_s + self.cluster_s
    }

    fn run_s(&self) -> f64 {
        self.query_s + self.baseline_s
    }
}

fn rep(n: usize, seed: u64, cache: &DatasetCache, traced: bool) -> Rep {
    let t = Instant::now();
    let g = cache.load_or_build(&Family::Path.dataset_key(n), || Family::Path.build(n));
    let load_s = secs(t);
    let t = Instant::now();
    let rec = StackSpec::Abstract.build(Arc::clone(&g), seed);
    let base = StackSpec::Abstract.build(g, seed);
    let stack_s = secs(t);
    let mut out = if traced {
        phases(
            &mut TracedStack::new(rec),
            &mut TracedStack::new(base),
            seed,
        )
    } else {
        phases(&mut { rec }, &mut { base }, seed)
    };
    out.load_s = load_s;
    out.stack_s = stack_s;
    out
}

/// Setup alone, for extra `setup_s` samples: the dataset load, the stack
/// builds and the clustering.
fn setup_only(n: usize, seed: u64, cache: &DatasetCache) -> f64 {
    let t = Instant::now();
    let g = cache.load_or_build(&Family::Path.dataset_key(n), || Family::Path.build(n));
    let mut rec = StackSpec::Abstract.build(Arc::clone(&g), seed);
    let _base = StackSpec::Abstract.build(g, seed);
    let _ = build_hierarchy(&mut rec, &scaling_config((n - 1) as u64, seed));
    secs(t)
}

/// Clustering, query and baseline on the given stacks, plain or
/// decorated: the same code path either way.
fn phases<S: RadioStack + Probe>(rec: &mut S, base: &mut S, seed: u64) -> Rep {
    let n = rec.num_nodes();
    let depth = (n - 1) as u64;
    let config = scaling_config(depth, seed);
    let t = Instant::now();
    let hierarchy = build_hierarchy(rec, &config);
    let cluster_s = secs(t);
    let setup_view = rec.energy_view();
    let lb_before = rec.lb();
    let t = Instant::now();
    let outcome = recursive_bfs_with_hierarchy(rec, &hierarchy, &[0], depth, &config, &[]);
    let query_s = secs(t);
    let query_lb = rec.lb().since(&lb_before);
    let query_view = rec.energy_view().diff(&setup_view);
    let active = vec![true; n];
    let t = Instant::now();
    let wave = trivial_bfs(base, &[0], &active, depth);
    let baseline_s = secs(t);
    let baseline_view = base.energy_view();
    let stats = &outcome.stats;
    Rep {
        load_s: 0.0,
        stack_s: 0.0,
        cluster_s,
        query_s,
        baseline_s,
        outputs: Outputs {
            clusters: hierarchy.first().map_or(0, |s| s.num_clusters() as u64),
            setup_calls: setup_view.lb_time(),
            setup_energy: setup_view.max_lb_energy(),
            query_energy: query_view.max_lb_energy(),
            query_time: query_view.lb_time(),
            baseline_energy: baseline_view.max_lb_energy(),
            baseline_time: baseline_view.lb_time(),
            recursion: [
                stats.total_recursive_calls(),
                stats.stages,
                stats.max_wavefront_memberships(),
                stats.max_special_memberships(),
            ],
            dist: outcome.dist,
            baseline_dist: wave.dist,
        },
        query_lb,
    }
}

/// The first instance's cells as the runner sees them.
fn runner_cells(n: usize, seed: u64) -> Vec<Scenario> {
    [
        ("crossover-recursive", Protocol::RecursiveBfs),
        ("crossover-trivial", Protocol::TrivialBfs),
    ]
    .into_iter()
    .map(|(name, protocol)| Scenario {
        name: name.into(),
        family: Family::Path,
        sizes: vec![n],
        seeds: vec![seed],
        protocol,
        stack: StackSpec::Abstract,
    })
    .collect()
}

/// Runs the workload: `instances` clustering seeds on a path of `n`
/// nodes. Instance `j` of run seed `s` uses clustering seed
/// `s · instances + j`, so runs with different seeds share no instance.
///
/// Untraced, every instance runs once (after [`EXTRA_SETUPS`] extra
/// setups); `run_s` is the total over instances and the energy metrics are
/// per-instance means, which keeps the cross-seed spread of a run's
/// figures small. Traced, the first [`TRACED_INSTANCES`] instances each run
/// undecorated and then decorated, and the two must agree exactly.
///
/// [`EXTRA_SETUPS`]: crate::EXTRA_SETUPS
pub fn run(run: &Run, n: usize, instances: u64) -> Outcome {
    let mut out = Outcome::default();
    let cache = DatasetCache::new(run.work.join("datasets"));
    let key = Family::Path.dataset_key(n);
    let t = Instant::now();
    let g = cache.load_or_build(&key, || Family::Path.build(n));
    out.sample("graph.generate_s", secs(t));
    let truth: Vec<Option<u64>> = bfs_distances(&g, 0)
        .into_iter()
        .map(|d| Some(d as u64))
        .collect();
    drop(g);

    let count = if run.trace {
        TRACED_INSTANCES.min(instances)
    } else {
        instances
    };
    let first = run.seed.wrapping_mul(instances);
    let rerun = Rerun::cold(runner_cells(n, first), &cache, &run.work.join("results"));
    let (mut run_s, mut energy, mut time) = (0.0, 0.0, 0.0);
    let mut overhead = Vec::new();
    for j in 0..count {
        let seed = first.wrapping_add(j);
        if !run.trace {
            for _ in 0..crate::EXTRA_SETUPS {
                out.sample("setup_s", setup_only(n, seed, &cache));
            }
        }
        let r = rep(n, seed, &cache, false);
        let o = &r.outputs;
        out.check(
            o.dist == truth,
            "crossover: recursive distances differ from BFS",
        );
        out.check(
            o.baseline_dist == truth,
            "crossover: baseline distances differ from BFS",
        );
        out.sample("setup_s", r.setup_s());
        out.sample("dataset.load_s", r.load_s);
        out.sample("stack.build_s", r.stack_s);
        run_s += r.run_s();
        energy += o.query_energy as f64 / count as f64;
        time += o.query_time as f64 / count as f64;
        if run.trace {
            let traced = rep(n, seed, &cache, true);
            out.check(
                traced.outputs == r.outputs,
                "crossover: traced outputs differ from untraced",
            );
            overhead.push(traced.run_s() - r.run_s());
            sample_layers(&mut out, &traced);
        }
        if j == 0 {
            let (query, base) = (&rerun.cold[0], &rerun.cold[1]);
            out.check(
                query.lb_calls == o.setup_calls + o.query_time
                    && query.outcome == n as u64
                    && base.lb_calls == o.baseline_time
                    && base.max_lb_energy == o.baseline_energy,
                "crossover: the runner's cells differ from the phase-by-phase run",
            );
        }
        rerun.warm(&mut out);
    }
    out.sample("run_s", run_s);
    out.sample("max_lb_energy", energy);
    out.sample("lb_time", time);
    if run.trace {
        out.samples("trace.overhead_s", overhead);
    }
    out.sample("dataset.hits", cache.hits() as f64);
    out.sample("dataset.misses", cache.misses() as f64);
    out.sample("dataset.bytes", crate::file_bytes(&cache.path_for(&key)));
    rerun.finish(&mut out);
    out
}

/// Per-layer samples of one decorated repetition.
fn sample_layers(out: &mut Outcome, r: &Rep) {
    let o = &r.outputs;
    lb_layer(out, &r.query_lb);
    out.sample("bfs.query_s", r.query_s);
    out.sample("bfs.self_s", r.query_s - r.query_lb.busy_s());
    out.sample(
        "bfs.query_baseline_ratio",
        o.query_energy as f64 / o.baseline_energy as f64,
    );
    for (name, v) in [
        "recursion.calls",
        "recursion.stages",
        "recursion.max_wavefront_memberships",
        "recursion.max_special_memberships",
    ]
    .into_iter()
    .zip(o.recursion)
    {
        out.sample(name, v as f64);
    }
    out.sample("cluster.setup_s", r.cluster_s);
    out.sample("cluster.lb_calls", o.setup_calls as f64);
    out.sample("cluster.clusters", o.clusters as f64);
    out.sample("cluster.setup_max_lb_energy", o.setup_energy as f64);
    out.sample("baseline.run_s", r.baseline_s);
    out.sample("baseline.max_lb_energy", o.baseline_energy as f64);
}
