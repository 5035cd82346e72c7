//! `xl`: large node universes, single-threaded, graphs from a warm dataset
//! cache.
//!
//! `trivial_bfs:depth=64` and `lb_sweep:r=8` on a grid and a path of
//! `2^20` nodes make *wide* Local-Broadcast calls (about a million
//! receivers each). HyperBall (`p=4`, 12 rounds) on a `2^16` grid makes
//! hundreds of thousands of narrow calls whose cost grows with `n`, plus
//! the register kernels between them. It runs through the `hyperball`
//! registry spec, which returns the whole sketch summary; the work is the
//! same as `diameter:hyperball:p=4,rounds=12`, which keeps only the
//! estimate.
//!
//! The workload seed picks each wavefront's source and HyperBall's hash
//! seed.
//!
//! The research loop's re-run is the five cells as runner scenarios at the
//! workload seed (the runner starts wavefronts at node 0): computed once
//! into a result store, then answered from it after every cell (`warm_s`).

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use energy_bfs::protocol::registry;
use radio_bench::scenarios::{Family, Protocol, Scenario, StackSpec};
use radio_graph::bfs::bfs_distances;
use radio_graph::dataset::DatasetCache;
use radio_graph::Graph;
use radio_protocols::protocol::{ProtocolInput, ProtocolOutput};
use radio_protocols::{LbFrame, RadioStack, SketchSummary, Stack};

use crate::report::{median, Outcome};
use crate::stack::{LbCounters, Probe, TracedStack};
use crate::{lb_layer, secs, Rerun, Run};

/// Node count of the wide-call cells.
pub const BIG: usize = 1 << 20;
/// Node count of the HyperBall grid.
pub const SKETCH: usize = 1 << 16;
/// Depth horizon of the wavefront cells.
const DEPTH: u64 = 64;
/// HyperBall register bits and round bound.
const SKETCH_P: u32 = 4;
const SKETCH_ROUNDS: u64 = 12;

/// The workload's cells: five scenarios at the workload seed.
pub fn cells(seed: u64, big: usize, sketch: usize) -> Vec<Scenario> {
    let one = |name: &str, family: Family, size: usize, protocol: Protocol| Scenario {
        name: name.into(),
        family,
        sizes: vec![size],
        seeds: vec![seed],
        protocol,
        stack: StackSpec::Abstract,
    };
    let wave = Protocol::TrivialBfsDepth { depth: DEPTH };
    let sweep = Protocol::LbSweep { rounds: 8 };
    let hyper = Protocol::from_spec(
        &format!("hyperball:p={SKETCH_P},rounds={SKETCH_ROUNDS}"),
        &registry(),
    )
    .expect("hyperball spec resolves");
    vec![
        one("xl-grid-trivial-d64", Family::Grid, big, wave.clone()),
        one("xl-path-trivial-d64", Family::Path, big, wave),
        one("xl-grid-lbsweep", Family::Grid, big, sweep.clone()),
        one("xl-path-lbsweep", Family::Path, big, sweep),
        one("xl-grid-hyperball", Family::Grid, sketch, hyper),
    ]
}

/// What a cell computed: energy, time and the typed output, reduced to
/// comparable form. A traced repetition must reproduce it exactly.
#[derive(Clone, Debug, PartialEq)]
enum Output {
    /// A distance vector, kept as its labelled count and digest: it is
    /// checked as soon as the cell ends and then dropped, so the peak
    /// memory is the program's.
    Distances {
        labelled: u64,
        digest: u64,
    },
    Deliveries(u64),
    Sketch(SketchSummary),
}

#[derive(Clone, Debug, PartialEq)]
struct CellOutput {
    lb_calls: u64,
    max_lb_energy: u64,
    mean_lb_energy: f64,
    output: Output,
}

/// Everything the cells share across repetitions: scenario, input, and the
/// centrally computed facts their checks compare against.
struct Plan {
    scenario: Scenario,
    input: ProtocolInput,
    /// For wavefront cells, the centralized depth-64 ball: every vertex's
    /// distance from the source if within the horizon, else `u8::MAX`.
    ball: Option<Vec<u8>>,
    /// For `lb_sweep` cells, the expected delivery count.
    deliveries: Option<u64>,
}

/// One cell's timing, check and output in one repetition.
struct CellRun {
    run_s: f64,
    lb: LbCounters,
    ok: bool,
    out: CellOutput,
}

/// The source a wavefront cell starts from, drawn from the seed.
fn source(seed: u64, cell: usize, n: usize) -> usize {
    let mut z = seed.wrapping_add((cell as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    ((z ^ (z >> 31)) % n as u64) as usize
}

fn load(cache: &DatasetCache, s: &Scenario) -> Arc<Graph> {
    let size = s.sizes[0];
    cache.load_or_build(&s.family.dataset_key(size), || s.family.build(size))
}

/// Runs the workload on `scenarios` (see [`cells`]).
pub fn run(run: &Run, scenarios: &[Scenario]) -> Outcome {
    let mut out = Outcome::default();
    let cache = DatasetCache::new(run.work.join("datasets"));
    let mut generate_s = 0.0;
    let plans: Vec<Plan> = scenarios
        .iter()
        .enumerate()
        .map(|(i, s)| plan(&cache, s, run.seed, i, &mut generate_s))
        .collect();
    out.sample("graph.generate_s", generate_s);

    if !run.trace {
        for _ in 0..crate::EXTRA_SETUPS {
            let s = setup(&cache, scenarios, run.seed);
            out.sample("setup_s", s.load_s + s.stack_s);
        }
    }

    let rerun = Rerun::cold(scenarios.to_vec(), &cache, &run.work.join("results"));
    let mut reference: Option<Vec<CellOutput>> = None;
    let mut runs: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    run.repeat(if run.trace { 2 } else { 3 }, |i| {
        let traced = run.trace && i % 2 == 1;
        let Setup {
            stacks,
            mut frames,
            load_s,
            stack_s,
        } = setup(&cache, scenarios, run.seed);
        // A warm re-run follows every cell, not just every repetition: a
        // run makes only a few repetitions, and `warm_s` needs more samples
        // than that to be steady. Each still comes after real work.
        let cell_runs: Vec<CellRun> = plans
            .iter()
            .zip(stacks)
            .map(|(p, stack)| {
                let frame = frames
                    .get_mut(&stack.num_nodes())
                    .expect("frame per universe");
                let c = if traced {
                    run_cell(p, &mut TracedStack::new(stack), frame)
                } else {
                    run_cell(p, &mut { stack }, frame)
                };
                rerun.warm(&mut out);
                c
            })
            .collect();
        let run_s: f64 = cell_runs.iter().map(|c| c.run_s).sum();
        for (p, c) in plans.iter().zip(&cell_runs) {
            out.check(c.ok, &format!("xl: {} output is wrong", p.scenario.name));
        }
        let outputs: Vec<CellOutput> = cell_runs.iter().map(|c| c.out.clone()).collect();
        match &reference {
            None => {
                check_runner(&mut out, &plans, &outputs, &rerun);
                reference = Some(outputs);
            }
            Some(want) => out.check(
                *want == outputs,
                if traced {
                    "xl: traced outputs differ from untraced"
                } else {
                    "xl: outputs differ between repetitions"
                },
            ),
        }
        runs[usize::from(traced)].push(run_s);
        out.sample("dataset.load_s", load_s);
        out.sample("stack.build_s", stack_s);
        if traced {
            sample_layers(&mut out, &plans, &cell_runs);
        } else {
            out.sample("setup_s", load_s + stack_s);
            out.sample("run_s", run_s);
            let outs = cell_runs.iter().map(|c| &c.out);
            out.sample(
                "max_lb_energy",
                outs.clone().map(|o| o.max_lb_energy).max().unwrap_or(0) as f64,
            );
            out.sample("lb_time", outs.map(|o| o.lb_calls).sum::<u64>() as f64);
        }
    });
    if run.trace {
        out.sample("trace.overhead_s", median(&runs[1]) - median(&runs[0]));
    }
    out.sample("dataset.hits", cache.hits() as f64);
    out.sample("dataset.misses", cache.misses() as f64);
    let bytes: f64 = scenarios
        .iter()
        .map(|s| crate::file_bytes(&cache.path_for(&s.family.dataset_key(s.sizes[0]))))
        .sum();
    out.sample("dataset.bytes", bytes);
    rerun.finish(&mut out);
    out
}

/// The cells' stacks and frames, ready to run.
struct Setup {
    stacks: Vec<Stack>,
    frames: HashMap<usize, LbFrame>,
    load_s: f64,
    stack_s: f64,
}

/// Setup: warm dataset loads (one per distinct graph), one stack per
/// cell, one frame per node universe.
fn setup(cache: &DatasetCache, scenarios: &[Scenario], seed: u64) -> Setup {
    let t = Instant::now();
    let mut graphs: HashMap<String, Arc<Graph>> = HashMap::new();
    for s in scenarios {
        let key = s.family.dataset_key(s.sizes[0]).file_name();
        graphs.entry(key).or_insert_with(|| load(cache, s));
    }
    let load_s = secs(t);
    let t = Instant::now();
    let stacks: Vec<Stack> = scenarios
        .iter()
        .map(|s| {
            let g = &graphs[&s.family.dataset_key(s.sizes[0]).file_name()];
            s.stack.build(Arc::clone(g), seed)
        })
        .collect();
    let frames = stacks
        .iter()
        .map(|st| (st.num_nodes(), st.new_frame()))
        .collect();
    Setup {
        stacks,
        frames,
        load_s,
        stack_s: secs(t),
    }
}

/// Loads a cell's graph (cold the first time: generation and write,
/// timed into `generate_s`) and computes its checks' reference facts.
fn plan(cache: &DatasetCache, s: &Scenario, seed: u64, i: usize, generate_s: &mut f64) -> Plan {
    let t = Instant::now();
    let g = load(cache, s);
    *generate_s += secs(t);
    let n = g.num_nodes();
    let mut input = ProtocolInput::from_seed(seed);
    let mut ball = None;
    let mut deliveries = None;
    match s.protocol {
        Protocol::TrivialBfsDepth { depth } => {
            let src = source(seed, i, n);
            input = input.with_sources(vec![src]);
            ball = Some(
                bfs_distances(&g, src)
                    .into_iter()
                    .map(|d| if d as u64 <= depth { d as u8 } else { u8::MAX })
                    .collect(),
            );
        }
        Protocol::LbSweep { rounds } => {
            deliveries = Some((0..rounds as usize).map(|r| g.degree(r % n) as u64).sum());
        }
        _ => {}
    }
    Plan {
        scenario: s.clone(),
        input,
        ball,
        deliveries,
    }
}

/// Runs one cell through `Protocol::run_with_frame` on a plain or
/// decorated stack.
fn run_cell<S: RadioStack + Probe>(p: &Plan, stack: &mut S, frame: &mut LbFrame) -> CellRun {
    let protocol = registry()
        .get(&p.scenario.protocol.spec())
        .expect("xl spec resolves");
    let t = Instant::now();
    let report = protocol
        .run_with_frame(stack, &p.input, frame)
        .expect("xl cell runs on the abstract stack");
    let run_s = secs(t);
    let (ok, output) = match report.output {
        ProtocolOutput::Distances(d) => {
            let ok = p.ball.as_ref().is_some_and(|ball| {
                d.len() == ball.len()
                    && d.iter()
                        .zip(ball)
                        .all(|(x, &b)| *x == (b != u8::MAX).then_some(u64::from(b)))
            });
            let labelled = d.iter().flatten().count() as u64;
            (
                ok,
                Output::Distances {
                    labelled,
                    digest: digest(&d),
                },
            )
        }
        ProtocolOutput::Deliveries(d) => (p.deliveries == Some(d), Output::Deliveries(d)),
        ProtocolOutput::Sketch(s) => (sketch_ok(&s, &p.scenario), Output::Sketch(s)),
        other => panic!("unexpected xl output {other:?}"),
    };
    CellRun {
        run_s,
        lb: stack.lb(),
        ok,
        out: CellOutput {
            lb_calls: report.energy.lb_time(),
            max_lb_energy: report.energy.max_lb_energy(),
            mean_lb_energy: report.energy.mean_lb_energy(),
            output,
        },
    }
}

/// FNV-1a over a distance vector, unlabelled vertices as `u64::MAX`.
fn digest(d: &[Option<u64>]) -> u64 {
    d.iter().fold(0xcbf2_9ce4_8422_2325, |h, x| {
        (h ^ x.unwrap_or(u64::MAX)).wrapping_mul(0x100_0000_01b3)
    })
}

/// Checks the runner's cold records against the first repetition's cells
/// where both ran the same input (all but the wavefronts, whose sources
/// differ).
fn check_runner(out: &mut Outcome, plans: &[Plan], outputs: &[CellOutput], rerun: &Rerun) {
    let same = plans
        .iter()
        .zip(outputs)
        .zip(&rerun.cold)
        .filter(|((p, _), r)| p.input == ProtocolInput::from_seed(r.seed))
        .all(|((_, o), r)| {
            r.lb_calls == o.lb_calls
                && r.max_lb_energy == o.max_lb_energy
                && r.mean_lb_energy == o.mean_lb_energy
        });
    out.check(
        same && rerun.cold.len() == plans.len(),
        "xl: the runner's records differ from the cells' own runs",
    );
}

/// Σ_v |B_r(v)| on a `side × side` grid: the number of ordered pairs
/// within Manhattan distance `r`.
fn grid_neighborhood(side: usize, r: usize) -> f64 {
    let reach = r.min(side - 1) as i64;
    let mut total = 0.0;
    for dx in -reach..=reach {
        let rest = r as i64 - dx.abs();
        let ry = rest.min(side as i64 - 1);
        for dy in -ry..=ry {
            total += ((side as i64 - dx.abs()) * (side as i64 - dy.abs())) as f64;
        }
    }
    total
}

/// HyperBall on a grid: every round changes some register (the grid's
/// diameter far exceeds the bound), and the estimated neighbourhood
/// function stays within the HyperLogLog envelope of the exact one.
fn sketch_ok(s: &SketchSummary, scenario: &Scenario) -> bool {
    let side = (scenario.sizes[0] as f64).sqrt().floor() as usize;
    let tol = radio_protocols::sketch::relative_error(s.p);
    s.diameter_estimate == SKETCH_ROUNDS
        && s.neighborhood_function.len() == SKETCH_ROUNDS as usize + 1
        && s.neighborhood_function.iter().enumerate().all(|(r, &est)| {
            let exact = grid_neighborhood(side, r);
            (est - exact).abs() <= tol * exact
        })
}

/// Per-layer samples of one decorated repetition.
fn sample_layers(out: &mut Outcome, plans: &[Plan], runs: &[CellRun]) {
    let mut all = LbCounters::default();
    let (mut wave_s, mut wave_energy) = (0.0, 0u64);
    for (p, c) in plans.iter().zip(runs) {
        all.add(&c.lb);
        match (&c.out.output, &p.scenario.protocol) {
            (Output::Sketch(_), _) => {
                out.sample("sketch.run_s", c.run_s);
                out.sample("sketch.self_s", c.run_s - c.lb.busy_s());
            }
            (_, Protocol::TrivialBfsDepth { .. }) => {
                wave_s += c.run_s;
                wave_energy = wave_energy.max(c.out.max_lb_energy);
            }
            _ => {}
        }
    }
    lb_layer(out, &all);
    out.sample("baseline.run_s", wave_s);
    out.sample("baseline.max_lb_energy", wave_energy as f64);
}
