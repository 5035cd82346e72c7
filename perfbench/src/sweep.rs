//! `sweep`: the default scenario sweep through the runner, the research
//! loop's real traffic.
//!
//! Each repetition loads the sweep's graphs from a warm dataset cache
//! (setup), runs every cell cold at two threads with a fresh result store
//! that it writes (`run_s`), then re-runs the sweep answered entirely from
//! that store (`warm_s`). The sweep keeps its pinned seeds: its records are
//! the behaviour oracle, compared with the reference JSON committed beside
//! the benchmark, so `--seed` does not apply here.
//!
//! The traced run adds four passes: per-scenario runner calls at two
//! threads (group times), the whole sweep serially (the speed-up base),
//! and two serial passes of the benchmark's own that run every cell
//! through `Protocol::run_with_frame`, first on plain stacks and then on
//! decorated ones, each checked field by field against the runner's
//! records. Their time difference is the tracing overhead.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use energy_bfs::protocol::registry;
use radio_bench::results::ResultStore;
use radio_bench::scenarios::{
    records_to_json, run_scenario_with_stores, run_scenarios_with_stores, Family, Protocol,
    RunnerConfig, Scenario, ScenarioRecord, StackSpec,
};
use radio_graph::dataset::DatasetCache;
use radio_protocols::protocol::ProtocolInput;
use radio_protocols::LbFrame;

use crate::report::Outcome;
use crate::stack::{LbCounters, Probe, TracedStack};
use crate::{lb_layer, secs, Run, THREADS};

/// The committed default-sweep records, relative to the checkout root.
pub const REFERENCE: &str = "perfbench/reference/default_sweep.json";

/// The runner group a scenario's time is charged to.
fn group(s: &Scenario) -> &'static str {
    if s.protocol.label().starts_with("diameter") {
        "diameter"
    } else if matches!(
        s.stack,
        StackSpec::Physical { .. } | StackSpec::PhysicalTuned { .. }
    ) {
        "physical"
    } else if matches!(
        s.family,
        Family::Complete | Family::CompleteMinusEdge | Family::Disjointness { .. }
    ) {
        "hardness"
    } else if s.protocol == Protocol::RecursiveBfs {
        "recursive"
    } else if matches!(s.protocol, Protocol::Clustering { .. }) {
        "clustering"
    } else {
        "wavefront"
    }
}

/// Runs the workload on `scenarios`; with a `reference` JSON, every record
/// must match its line there.
pub fn run(run: &Run, scenarios: &[Scenario], reference: Option<&str>) -> Outcome {
    let mut out = Outcome::default();
    let datasets = DatasetCache::new(run.work.join("datasets"));
    let t = Instant::now();
    load_graphs(&datasets, scenarios);
    out.sample("graph.generate_s", secs(t));
    let parallel = RunnerConfig::with_threads(THREADS);

    let mut cold_json: Option<String> = None;
    let mut changed = 0;
    run.repeat(3, |i| {
        for _ in 0..crate::EXTRA_SETUPS {
            let t = Instant::now();
            load_graphs(&datasets, scenarios);
            out.sample("setup_s", secs(t));
        }
        let dir = run.work.join(format!("results-{i}"));
        let store = ResultStore::new(&dir);
        let t = Instant::now();
        let cold = run_scenarios_with_stores(scenarios, &parallel, Some(&datasets), Some(&store));
        let run_s = secs(t);
        let misses = store.misses();
        let t = Instant::now();
        let warm = run_scenarios_with_stores(scenarios, &parallel, Some(&datasets), Some(&store));
        let warm_s = secs(t);

        let json = records_to_json(&cold);
        let pass_changed = records_changed(&json, reference);
        changed = changed.max(pass_changed);
        out.check(
            pass_changed == 0,
            "sweep: records differ from the reference",
        );
        out.check(
            cold.iter()
                .all(|r| r.estimate.is_none() || r.agrees == Some(true)),
            "sweep: a diameter estimate disagrees with the exact diameter",
        );
        out.check(
            records_to_json(&warm) == json,
            "sweep: warm JSON differs from cold JSON",
        );
        if let Some(first) = &cold_json {
            out.check(*first == json, "sweep: records differ between repetitions");
        }
        out.sample("run_s", run_s);
        out.sample("warm_s", warm_s);
        out.sample(
            "max_lb_energy",
            cold.iter().map(|r| r.max_lb_energy).max().unwrap_or(0) as f64,
        );
        out.sample(
            "lb_time",
            cold.iter().map(|r| r.lb_calls).sum::<u64>() as f64,
        );
        if run.trace && i == 0 {
            out.sample("store.misses", misses as f64);
            out.sample("store.hits", store.hits() as f64);
            out.sample("store.bytes", store.size().bytes as f64);
            trace_passes(&mut out, scenarios, &datasets, &cold);
            store_calls(&mut out, &store, scenarios, &cold, &run.work.join("puts"));
        }
        cold_json.get_or_insert(json);
        let _ = std::fs::remove_dir_all(&dir);
    });
    out.note("records_changed", changed);
    out.sample(
        "dataset.load_s",
        crate::report::median(&out.samples["setup_s"]),
    );
    out.sample("dataset.hits", datasets.hits() as f64);
    out.sample("dataset.misses", datasets.misses() as f64);
    let bytes: f64 = distinct_keys(scenarios)
        .iter()
        .map(|(f, size)| crate::file_bytes(&datasets.path_for(&f.dataset_key(*size))))
        .sum();
    out.sample("dataset.bytes", bytes);
    out
}

/// Every distinct (family, size) graph of the sweep.
fn distinct_keys(scenarios: &[Scenario]) -> Vec<(Family, usize)> {
    let mut seen = BTreeSet::new();
    let mut keys = Vec::new();
    for s in scenarios {
        for &size in &s.sizes {
            if seen.insert(s.family.dataset_key(size).file_name()) {
                keys.push((s.family.clone(), size));
            }
        }
    }
    keys
}

/// Loads (or, cold, builds) every graph of the sweep through `datasets`.
fn load_graphs(datasets: &DatasetCache, scenarios: &[Scenario]) {
    for (family, size) in distinct_keys(scenarios) {
        let _ = datasets.load_or_build(&family.dataset_key(size), || family.build(size));
    }
}

/// How many records of the sweep's `json` differ from their line in the
/// `reference` JSON (all of them if the record counts differ; none
/// without a reference).
fn records_changed(json: &str, reference: Option<&str>) -> u64 {
    let Some(reference) = reference else {
        return 0;
    };
    let got: Vec<&str> = json.lines().skip(1).collect();
    let want: Vec<&str> = reference.lines().skip(1).collect();
    if got.len() != want.len() {
        return got.len().max(want.len()) as u64;
    }
    got.iter().zip(&want).filter(|(g, w)| g != w).count() as u64
}

/// The traced passes: group times, the serial pass and the plain and
/// decorated cell passes.
fn trace_passes(
    out: &mut Outcome,
    scenarios: &[Scenario],
    datasets: &DatasetCache,
    records: &[ScenarioRecord],
) {
    let mut groups: BTreeMap<&str, f64> = BTreeMap::new();
    let parallel = RunnerConfig::with_threads(THREADS);
    let t = Instant::now();
    for s in scenarios {
        let ts = Instant::now();
        let _ = run_scenario_with_stores(s, &parallel, Some(datasets), None, None);
        *groups.entry(group(s)).or_default() += secs(ts);
    }
    let parallel_s = secs(t);
    for (g, s) in &groups {
        out.sample(&format!("runner.group_s.{g}"), *s);
    }
    let t = Instant::now();
    let _ = run_scenarios_with_stores(scenarios, &RunnerConfig::serial(), Some(datasets), None);
    let serial_s = secs(t);
    out.sample("runner.serial_s", serial_s);
    out.sample("runner.speedup", serial_s / parallel_s);
    out.sample("runner.cells", records.len() as f64);

    let t = Instant::now();
    cell_pass(out, scenarios, datasets, records, false);
    let plain_s = secs(t);
    let t = Instant::now();
    let decorated = cell_pass(out, scenarios, datasets, records, true);
    out.sample("trace.overhead_s", secs(t) - plain_s);
    lb_layer(out, &decorated.all);
    out.sample("lb.physical_slots", decorated.slots as f64);
    out.sample(
        "lb.ns_per_slot",
        decorated.physical.busy_ns as f64 / decorated.slots.max(1) as f64,
    );
    out.sample("stack.build_s", decorated.build_s);
    out.sample("sketch.run_s", decorated.sketch_s);
    out.sample(
        "sketch.self_s",
        decorated.sketch_s - decorated.sketch.busy_s(),
    );
}

/// What a cell pass counted (its LB counters stay zero on plain stacks).
#[derive(Default)]
struct Decorated {
    all: LbCounters,
    /// Calls on physical stacks, and their elapsed slots.
    physical: LbCounters,
    slots: u64,
    /// Time in HyperBall cells and their calls.
    sketch_s: f64,
    sketch: LbCounters,
    /// Time spent building the cells' stacks.
    build_s: f64,
}

/// Runs every cell serially through `Protocol::run_with_frame`, on a plain
/// or (`traced`) a decorated stack, and checks it reproduces the runner's
/// record.
fn cell_pass(
    out: &mut Outcome,
    scenarios: &[Scenario],
    datasets: &DatasetCache,
    records: &[ScenarioRecord],
    traced: bool,
) -> Decorated {
    let mut d = Decorated::default();
    let mut mismatched = 0u64;
    let mut k = 0;
    for s in scenarios {
        let protocol = registry()
            .get(&s.protocol.spec())
            .expect("sweep spec resolves");
        for &size in &s.sizes {
            let g = datasets.load_or_build(&s.family.dataset_key(size), || s.family.build(size));
            let mut frame = LbFrame::new(g.num_nodes());
            for &seed in &s.seeds {
                let input = ProtocolInput::from_seed(seed);
                let t = Instant::now();
                let stack = s.stack.build(Arc::clone(&g), seed);
                d.build_s += secs(t);
                let t = Instant::now();
                let (report, lb) = if traced {
                    let mut stack = TracedStack::new(stack);
                    let report = protocol.run_with_frame(&mut stack, &input, &mut frame);
                    (report, stack.lb())
                } else {
                    let mut stack = stack;
                    let report = protocol.run_with_frame(&mut stack, &input, &mut frame);
                    (report, LbCounters::default())
                };
                let report = report.expect("sweep cell runs");
                let cell_s = secs(t);
                d.all.add(&lb);
                if let Some(slots) = report.energy.physical_slots() {
                    d.physical.add(&lb);
                    d.slots += slots;
                }
                if s.protocol.label().contains("hyperball") {
                    d.sketch_s += cell_s;
                    d.sketch.add(&lb);
                }
                let r = &records[k];
                let same = r.lb_calls == report.energy.lb_time()
                    && r.max_lb_energy == report.energy.max_lb_energy()
                    && r.mean_lb_energy == report.energy.mean_lb_energy()
                    && r.physical_slots == report.energy.physical_slots()
                    && r.max_physical_energy == report.energy.max_physical_energy()
                    && r.outcome == report.outcome()
                    && r.estimate == report.output.diameter_estimate();
                mismatched += u64::from(!same);
                k += 1;
            }
        }
    }
    out.check(
        mismatched == 0 && k == records.len(),
        if traced {
            "sweep: decorated cells differ from the runner's records"
        } else {
            "sweep: plain cells differ from the runner's records"
        },
    );
    d
}

/// Times direct store calls: a `get` of every record from the cold pass's
/// store, and a `put` of every record into a fresh store under `dir`.
fn store_calls(
    out: &mut Outcome,
    store: &ResultStore,
    scenarios: &[Scenario],
    records: &[ScenarioRecord],
    dir: &Path,
) {
    let fresh = ResultStore::new(dir);
    let mut k = 0;
    let mut mismatched = 0u64;
    for s in scenarios {
        for &size in &s.sizes {
            for &seed in &s.seeds {
                let key = s.result_key(size, seed, None);
                let t = Instant::now();
                let got = store.get(&key);
                out.sample("store.get_s", secs(t));
                mismatched += u64::from(got.as_ref() != Some(&records[k]));
                let t = Instant::now();
                fresh.put(&key, &records[k]).expect("result store put");
                out.sample("store.put_s", secs(t));
                k += 1;
            }
        }
    }
    out.check(
        mismatched == 0,
        "sweep: a stored record differs from the computed one",
    );
    out.sample("store.gets", k as f64);
    out.sample("store.puts", k as f64);
}
