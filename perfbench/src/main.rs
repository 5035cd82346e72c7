//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <crossover|sweep|xl> [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Runs one workload for about `--seconds` seconds, checks the program's
//! outputs, and prints two JSON lines: a report line (run metadata and
//! the sample summary of every metric), then the result line. With
//! `--trace 0` the result line carries the end-to-end metrics, measured
//! on undecorated code; with `--trace 1` it carries the per-layer metrics
//! from decorated repetitions. See `perfbench/README.md`.

mod crossover;
mod report;
mod stack;
mod sweep;
mod sys;
mod xl;

use std::path::{Path, PathBuf};
use std::time::Instant;

use radio_bench::results::ResultStore;
use radio_bench::scenarios::{run_scenarios_with_stores, RunnerConfig, Scenario, ScenarioRecord};
use radio_graph::dataset::DatasetCache;

use crate::report::Outcome;
use crate::stack::LbCounters;

/// End-to-end metrics (name, unit), printed with `--trace 0`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("run_s", "s"),
    ("warm_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("max_lb_energy", "count"),
    ("lb_time", "count"),
    ("passed_share", "share"),
];

/// Per-layer metrics (name, unit), printed with `--trace 1`. A layer the
/// workload does not exercise reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("lb.calls", "count"),
    ("lb.busy_s", "s"),
    ("lb.ns_per_call", "ns"),
    ("lb.senders_per_call", "count"),
    ("lb.receivers_per_call", "count"),
    ("lb.delivered_per_receiver", "ratio"),
    ("lb.physical_slots", "count"),
    ("lb.ns_per_slot", "ns"),
    ("bfs.query_s", "s"),
    ("bfs.self_s", "s"),
    ("bfs.query_baseline_ratio", "ratio"),
    ("recursion.calls", "count"),
    ("recursion.stages", "count"),
    ("recursion.max_wavefront_memberships", "count"),
    ("recursion.max_special_memberships", "count"),
    ("cluster.setup_s", "s"),
    ("cluster.lb_calls", "count"),
    ("cluster.clusters", "count"),
    ("cluster.setup_max_lb_energy", "count"),
    ("baseline.run_s", "s"),
    ("baseline.max_lb_energy", "count"),
    ("sketch.run_s", "s"),
    ("sketch.self_s", "s"),
    ("graph.generate_s", "s"),
    ("dataset.load_s", "s"),
    ("dataset.bytes", "bytes"),
    ("dataset.hits", "count"),
    ("dataset.misses", "count"),
    ("stack.build_s", "s"),
    ("runner.cells", "count"),
    ("runner.group_s.diameter", "s"),
    ("runner.group_s.physical", "s"),
    ("runner.group_s.recursive", "s"),
    ("runner.group_s.wavefront", "s"),
    ("runner.group_s.clustering", "s"),
    ("runner.group_s.hardness", "s"),
    ("runner.serial_s", "s"),
    ("runner.speedup", "ratio"),
    ("store.puts", "count"),
    ("store.put_s", "s"),
    ("store.gets", "count"),
    ("store.get_s", "s"),
    ("store.hits", "count"),
    ("store.misses", "count"),
    ("store.bytes", "bytes"),
    ("trace.overhead_s", "s"),
];

/// Worker threads of the parallel runner passes (this benchmark's boxes
/// have two cores; every other pass is single-threaded).
pub const THREADS: usize = 2;

/// Setups a run makes beyond those of its timed repetitions, so that
/// `setup_s` is a median of many samples.
pub const EXTRA_SETUPS: usize = 2;

/// The workload seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 6;

/// One benchmark invocation.
pub struct Run {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Scratch directory of this run, inside the checkout; removed at exit.
    pub work: PathBuf,
}

impl Run {
    /// Calls `f(0)`, `f(1)`, … at least `min` times, then for as long as
    /// another call is expected to end within the `--seconds` budget.
    pub fn repeat(&self, min: usize, mut f: impl FnMut(usize)) {
        let start = Instant::now();
        let mut i = 0;
        loop {
            f(i);
            i += 1;
            let elapsed = secs(start);
            if i >= min && elapsed + elapsed / i as f64 > self.seconds {
                break;
            }
        }
    }
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Size of the file at `path` in bytes (0 if absent).
pub fn file_bytes(path: &Path) -> f64 {
    std::fs::metadata(path).map_or(0.0, |m| m.len() as f64)
}

/// Samples the Local-Broadcast layer metrics of `c`.
pub fn lb_layer(out: &mut Outcome, c: &LbCounters) {
    let calls = c.calls.max(1) as f64;
    out.sample("lb.calls", c.calls as f64);
    out.sample("lb.busy_s", c.busy_s());
    out.sample("lb.ns_per_call", c.busy_ns as f64 / calls);
    out.sample("lb.senders_per_call", c.senders as f64 / calls);
    out.sample("lb.receivers_per_call", c.receivers as f64 / calls);
    out.sample(
        "lb.delivered_per_receiver",
        c.delivered as f64 / c.receivers.max(1) as f64,
    );
}

/// The research loop's re-run of a workload: its cells as runner
/// scenarios, computed once through `run_scenarios_with_stores` into a
/// fresh result store (the cold pass), then answered from that store by
/// the same call (the warm pass). Workloads make one warm pass after each
/// repetition; each is one `warm_s` sample.
pub struct Rerun<'a> {
    scenarios: Vec<Scenario>,
    datasets: &'a DatasetCache,
    store: ResultStore,
    /// The cold pass's records; every warm pass must reproduce them.
    pub cold: Vec<ScenarioRecord>,
}

impl<'a> Rerun<'a> {
    /// Runs `scenarios` serially through the runner, writing a fresh store
    /// under `dir`.
    pub fn cold(scenarios: Vec<Scenario>, datasets: &'a DatasetCache, dir: &Path) -> Self {
        let store = ResultStore::new(dir);
        let cold = run_scenarios_with_stores(
            &scenarios,
            &RunnerConfig::serial(),
            Some(datasets),
            Some(&store),
        );
        Rerun {
            scenarios,
            datasets,
            store,
            cold,
        }
    }

    /// One warm pass: samples `warm_s` and checks that every cell was a
    /// store hit and the records equal the cold pass's.
    pub fn warm(&self, out: &mut Outcome) {
        let hits = self.store.hits();
        let t = Instant::now();
        let warm = run_scenarios_with_stores(
            &self.scenarios,
            &RunnerConfig::serial(),
            Some(self.datasets),
            Some(&self.store),
        );
        out.sample("warm_s", secs(t));
        out.check(
            warm == self.cold && self.store.hits() - hits == self.cold.len() as u64,
            "rerun: the warm pass missed the store or differs from the cold pass",
        );
    }

    /// Samples the store's counters.
    pub fn finish(&self, out: &mut Outcome) {
        out.sample("store.hits", self.store.hits() as f64);
        out.sample("store.misses", self.store.misses() as f64);
        out.sample("store.bytes", self.store.size().bytes as f64);
    }
}

const USAGE: &str = "usage: perfbench --workload <crossover|sweep|xl> \
[--seed N] [--seconds S] [--trace 0|1]";

fn die(msg: &str) -> ! {
    eprintln!("perfbench: {msg}\n{USAGE}");
    std::process::exit(2)
}

/// Set in the environment of the workload process (see [`main`]).
const WORKER_ENV: &str = "PERFBENCH_WORKER";

/// Runs the workload in a child process and exits with its status.
///
/// `cargo run` replaces itself with this program, and Linux carries a
/// process's peak resident size across `exec`: measured in place,
/// `peak_rss_mib` would read cargo's own peak (about 20 MiB) whenever the
/// workload's is smaller. A child's peak starts from this small launcher
/// instead.
fn main() {
    if std::env::var_os(WORKER_ENV).is_some() {
        return workload_main();
    }
    let exe = std::env::current_exe()
        .unwrap_or_else(|e| die(&format!("locating the benchmark binary: {e}")));
    let status = std::process::Command::new(exe)
        .args(std::env::args_os().skip(1))
        .env(WORKER_ENV, "1")
        .status()
        .unwrap_or_else(|e| die(&format!("starting the workload process: {e}")));
    std::process::exit(status.code().unwrap_or(1));
}

fn workload_main() {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || {
            args.next()
                .unwrap_or_else(|| die(&format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value()),
            "--seed" => seed = value().parse().unwrap_or_else(|_| die("bad --seed")),
            "--seconds" => {
                seconds = value()
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0)
                    .unwrap_or_else(|| die("bad --seconds"))
            }
            "--trace" => {
                trace = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => die("--trace takes 0 or 1"),
                }
            }
            other => die(&format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.unwrap_or_else(|| die("--workload is required"));
    if !["crossover", "sweep", "xl"].contains(&workload.as_str()) {
        die(&format!("unknown workload {workload:?}"));
    }
    let work = PathBuf::from("perfbench")
        .join(".work")
        .join(format!("{workload}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&work);
    std::fs::create_dir_all(&work).expect("create the run's work directory");
    let run = Run {
        seed,
        seconds,
        trace,
        work,
    };
    let started = Instant::now();
    let mut out = match workload.as_str() {
        "crossover" => crossover::run(&run, crossover::N, crossover::INSTANCES),
        "sweep" => {
            let reference = std::fs::read_to_string(sweep::REFERENCE)
                .unwrap_or_else(|e| die(&format!("reading {}: {e}", sweep::REFERENCE)));
            sweep::run(
                &run,
                &radio_bench::scenarios::default_scenarios(),
                Some(&reference),
            )
        }
        "xl" => xl::run(&run, &xl::cells(run.seed, xl::BIG, xl::SKETCH)),
        _ => unreachable!("workload names are checked above"),
    };
    let _ = std::fs::remove_dir_all(&run.work);
    // Drop `perfbench/.work` too once no other run is using it.
    let _ = std::fs::remove_dir(run.work.parent().expect("work dir has a parent"));
    finish(&mut out, &run, &workload, secs(started));
}

/// Adds the process-level metrics, then prints the report line and the
/// result line.
fn finish(out: &mut Outcome, run: &Run, workload: &str, wall_s: f64) {
    out.sample("peak_rss_mib", sys::peak_rss_mib());
    out.sample(
        "passed_share",
        (out.attempted - out.failed) as f64 / out.attempted.max(1) as f64,
    );
    let table = if run.trace { PER_LAYER } else { END_TO_END };
    let idle: Vec<&str> = table
        .iter()
        .map(|(name, _)| *name)
        .filter(|name| !out.samples.contains_key(*name))
        .collect();
    if run.trace {
        for name in &idle {
            out.sample(name, 0.0);
        }
        out.note("layers_not_exercised", idle.join(","));
    }
    let meta: Vec<(String, String)> = [
        ("workload", report::json_str(workload)),
        ("seed", run.seed.to_string()),
        ("seconds", report::json_num(run.seconds)),
        ("trace", run.trace.to_string()),
        ("wall_s", report::json_num(wall_s)),
        (
            "threads",
            if workload == "sweep" { THREADS } else { 1 }.to_string(),
        ),
        (
            "nproc",
            std::thread::available_parallelism()
                .map_or(0, |n| n.get())
                .to_string(),
        ),
        ("git_rev", report::json_str(&sys::git_rev())),
        ("rustc", report::json_str(&sys::rustc_version())),
        ("cpu", report::json_str(&sys::cpu_model())),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_string(), v))
    .collect();
    println!("{}", report::report_line(&meta, out));
    println!("{}", report::result_line(out, table));
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A traced run on a small instance: it alternates undecorated and
    /// decorated repetitions (or, for the sweep, reruns every cell on a
    /// decorated stack) and counts a failed check whenever the decorated
    /// outputs differ from the undecorated ones.
    fn traced_run(name: &str, f: impl FnOnce(&Run) -> Outcome) -> Outcome {
        let work = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(".work")
            .join(format!("test-{name}-{}", std::process::id()));
        let run = Run {
            seed: 11,
            seconds: 0.0,
            trace: true,
            work: work.clone(),
        };
        let out = f(&run);
        let _ = std::fs::remove_dir_all(&work);
        assert!(out.attempted > 0);
        assert_eq!(out.failed, 0, "failed checks: {:?}", out.notes);
        out
    }

    #[test]
    fn crossover_traced_outputs_equal_untraced() {
        let out = traced_run("crossover", |run| crossover::run(run, 512, 4));
        assert!(out.value("lb.calls").unwrap() > 0.0);
        assert!(out.value("recursion.stages").unwrap() > 0.0);
    }

    #[test]
    fn xl_traced_outputs_equal_untraced() {
        let out = traced_run("xl", |run| {
            xl::run(run, &xl::cells(run.seed, 1 << 12, 1 << 10))
        });
        assert!(out.value("sketch.run_s").unwrap() > 0.0);
    }

    #[test]
    fn sweep_traced_outputs_equal_untraced() {
        let keep = [
            "grid16-trivial-physical",
            "path-lbsweep-cd",
            "diam-grid16-hyperball",
            "diam-tree3-three-halves",
            "path512-recursive",
        ];
        let scenarios: Vec<_> = radio_bench::scenarios::default_scenarios()
            .into_iter()
            .filter(|s| keep.contains(&s.name.as_str()))
            .map(|mut s| {
                s.seeds.truncate(2);
                s
            })
            .collect();
        assert_eq!(scenarios.len(), keep.len());
        let out = traced_run("sweep", |run| sweep::run(run, &scenarios, None));
        assert!(out.value("lb.physical_slots").unwrap() > 0.0);
    }
}
