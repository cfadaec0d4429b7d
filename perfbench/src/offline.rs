//! The library workloads: (instance, scheduler) solves through
//! `bsp_sched::Registry` spec strings, run one at a time.

use crate::report::{peak_rss_mb, Report};
use crate::setup::Setups;
use crate::stats::{geomean, median, percentile, resolved_percentile};
use crate::tracing::{Counters, Snap, StageSpans};
use bsp_obs::trace::TraceBuffer;
use bsp_sched::instance::Instance;
use bsp_sched::prelude::{Registry, SolveRequest, StageReport};
use bsp_sched::schedule::cost::total_cost;
use bsp_sched::schedule::scheduler::SharedScheduler;
use bsp_sched::schedule::trivial::trivial_cost;
use bsp_sched::schedule::validity::validate;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// One instance spec (`{seed}` is replaced by the workload seed) and the
/// scheduler specs that solve it.
type Row = (&'static str, &'static [&'static str]);

const PLAIN: &[&str] = &["cilk", "hdagg", "bl-est", "etf"];
const NUMA: &[&str] = &["cilk", "hdagg", "bl-est?numa=on", "etf?numa=on"];

const LARGE: &[Row] = &[
    (
        "spmv?n=85&q=0.25&seed={seed} @ bsp?p=4&g=2",
        &["pipeline/base?ilp=off"],
    ),
    (
        "spmv?n=120&q=0.25&seed={seed} @ bsp?p=4&g=2",
        &["pipeline/base?ilp=off"],
    ),
];

const NUMA_ROWS: &[Row] = &[
    (
        "erdos?n=1000&q=0.006&seed={seed} @ bsp?p=8&numa=tree&delta=3",
        &["pipeline/base?ilp=off&threads=2"],
    ),
    (
        "layered?layers=12&width=25&seed={seed} @ bsp?p=16&numa=tree&delta=2",
        &[
            "pipeline/base?ilp=off&threads=2",
            "pipeline/multilevel?ilp=off",
        ],
    ),
    (
        "cg?n=40&seed={seed} @ bsp?p=8&numa=sockets&sockets=2&delta=4",
        &[
            "pipeline/base?ilp=off&threads=2",
            "pipeline/base?ilp=off&escape=tabu&threads=2",
        ],
    ),
];

// Every ILP call on these ends on its node cap or on optimality, not on
// its time limit: each gives the same cost at ilp_ms=3000 (the default)
// and at ilp_ms=20000 (`perfbench screen`). None has a seed parameter:
// the seeded tiny families screened (spmv, erdos, layered) hit the limit
// on some seeds, so their cost changes between identical passes. All run
// at p=8, where the pipeline skips its ILP initializer (p <= 4 only),
// which ran into its limit on tree/out at p=4. Each solve takes well
// under a second, so a run holds many passes and each solve's fastest
// pass is read from many samples.
const ILP_ROWS: &[Row] = &[
    (
        "forkjoin?chains=4&depth=3&stages=2 @ bsp?p=8",
        &["pipeline/base?ilp=on"],
    ),
    (
        "forkjoin?chains=3&depth=3&stages=3 @ bsp?p=8&numa=tree&delta=3",
        &["pipeline/base?ilp=on"],
    ),
    ("tree/out?depth=4 @ bsp?p=8&g=3", &["pipeline/base?ilp=on"]),
];

/// A library workload: its instances, each solved by its baselines and
/// its pipeline specs.
pub struct Workload {
    rows: Vec<(String, Vec<&'static str>)>,
    /// Two instances of one family at two sizes (small, large): the
    /// per-layer scaling ratios compare them.
    scale_pair: Option<(usize, usize)>,
}

/// The library workload `name` under `seed`, if there is one.
pub fn workload(name: &str, seed: u64) -> Option<Workload> {
    // `copies` instances of every seeded row, at seeds seed, seed + 1000003,
    // ...: the figures then average over more than one random instance of
    // a family, so they depend less on which instance one seed draws.
    let (rows, baselines, scale_pair, copies) = match name {
        "offline-large" => (LARGE, PLAIN, Some((0, 1)), 1),
        "offline-numa" => (NUMA_ROWS, NUMA, None, 2),
        "small-ilp" => (ILP_ROWS, PLAIN, None, 1),
        _ => return None,
    };
    let rows = (0..copies)
        .flat_map(|c| rows.iter().map(move |row| (c, row)))
        .map(|(c, (spec, pipes))| {
            let spec = spec.replace("{seed}", &(seed + c * 1_000_003).to_string());
            (
                spec,
                baselines.iter().chain(pipes.iter()).copied().collect(),
            )
        })
        .collect();
    Some(Workload { rows, scale_pair })
}

/// The layer a scheduler spec belongs to: a baseline's short name, or
/// `None` for a pipeline.
fn baseline_key(spec: &str) -> Option<&'static str> {
    match spec.split('?').next().unwrap_or(spec) {
        "cilk" => Some("cilk"),
        "hdagg" => Some("hdagg"),
        "bl-est" => Some("blest"),
        "etf" => Some("etf"),
        _ => None,
    }
}

struct Job {
    inst: usize,
    spec: String,
    sched: Arc<SharedScheduler>,
}

/// The generated instances and resolved schedulers of one set-up.
struct Prepared {
    instances: Vec<Arc<Instance>>,
    jobs: Vec<Job>,
}

/// Generates every instance and resolves every scheduler; returns the
/// time spent generating instances alone.
fn prepare(w: &Workload) -> Result<(Prepared, Duration), String> {
    let gen_start = Instant::now();
    let catalogue = bsp_sched::instances();
    let mut instances = Vec::new();
    for (spec, _) in &w.rows {
        let inst = catalogue
            .generate_one(spec, bsp_sched::instance::DEFAULT_SEED)
            .map_err(|e| format!("instance {spec:?}: {e}"))?;
        instances.push(Arc::new(inst));
    }
    let gen = gen_start.elapsed();
    let registry = Registry::standard();
    let mut jobs = Vec::new();
    for (i, (_, scheds)) in w.rows.iter().enumerate() {
        for spec in scheds {
            let sched = registry
                .get(spec)
                .map_err(|e| format!("scheduler {spec:?}: {e}"))?;
            jobs.push(Job {
                inst: i,
                spec: spec.to_string(),
                sched: Arc::new(sched),
            });
        }
    }
    Ok((Prepared { instances, jobs }, gen))
}

/// One finished solve.
struct Rec {
    cost: u64,
    wall: Duration,
    stages: Vec<StageReport>,
    counters: Snap,
    /// Validation or re-costing failure, if any.
    check: Result<(), String>,
}

type Task = (
    Arc<SharedScheduler>,
    Arc<Instance>,
    Option<(TraceBuffer, String)>,
);

/// One long-lived thread that runs every solve of a run, one at a time,
/// as a library user's thread would. The caller waits at most a cap for
/// each result; a solve that overruns is abandoned with its thread, which
/// ends with the process.
struct Solver {
    tasks: Option<mpsc::Sender<Task>>,
    results: mpsc::Receiver<Rec>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl Solver {
    fn new(counters: Arc<Counters>) -> Solver {
        let (tasks, task_rx) = mpsc::channel::<Task>();
        let (result_tx, results) = mpsc::channel();
        let thread = std::thread::spawn(move || {
            for (sched, inst, trace) in task_rx {
                if result_tx
                    .send(solve_one(&**sched, &inst, trace, &counters))
                    .is_err()
                {
                    break;
                }
            }
        });
        Solver {
            tasks: Some(tasks),
            results,
            thread: Some(thread),
        }
    }

    fn solve(
        &mut self,
        job: &Job,
        inst: &Arc<Instance>,
        trace: Option<(TraceBuffer, String)>,
        cap: Duration,
    ) -> Result<Rec, String> {
        let tasks = self
            .tasks
            .as_ref()
            .ok_or("an earlier solve was abandoned")?;
        tasks
            .send((job.sched.clone(), inst.clone(), trace))
            .map_err(|_| "the solver thread has ended".to_string())?;
        self.results.recv_timeout(cap).map_err(|e| {
            // Leave the thread to the process: it may still be solving.
            self.tasks = None;
            self.thread = None;
            match e {
                mpsc::RecvTimeoutError::Timeout => {
                    format!("no result within the {} s cap", cap.as_secs())
                }
                mpsc::RecvTimeoutError::Disconnected => "the solve panicked".to_string(),
            }
        })
    }
}

impl Drop for Solver {
    fn drop(&mut self) {
        self.tasks = None;
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// Runs one solve (under a root span and stage spans when traced), then
/// validates and re-costs its schedule.
fn solve_one(
    sched: &dyn bsp_sched::prelude::Scheduler,
    inst: &Instance,
    trace: Option<(TraceBuffer, String)>,
    counters: &Counters,
) -> Rec {
    let req = SolveRequest::new(&inst.dag, &inst.machine);
    let before = counters.read();
    let start = Instant::now();
    let outcome = match &trace {
        Some((buf, name)) => {
            let root = buf.span(name, "solve");
            let observer = StageSpans::new(buf);
            let out = sched.solve(&SolveRequest {
                observer: &observer,
                ..req
            });
            root.finish();
            out
        }
        None => sched.solve(&req),
    };
    let wall = start.elapsed();
    let counters = counters.read().since(before);
    let (dag, machine, res) = (&inst.dag, &inst.machine, &outcome.result);
    let check = validate(dag, machine.p(), &res.sched, &res.comm)
        .map_err(|e| format!("invalid schedule: {e}"))
        .and_then(|()| {
            let recosted = total_cost(dag, machine, &res.sched, &res.comm);
            if recosted == outcome.total() {
                Ok(())
            } else {
                Err(format!(
                    "reported cost {} re-costs to {recosted}",
                    outcome.total()
                ))
            }
        });
    Rec {
        cost: outcome.total(),
        wall,
        stages: outcome.stages,
        counters,
        check,
    }
}

struct Pass {
    traced: bool,
    recs: Vec<Rec>,
}

impl Pass {
    fn wall_s(&self) -> f64 {
        self.recs.iter().map(|r| r.wall.as_secs_f64()).sum()
    }
}

/// Sum of the `stage` elapsed times of the records, in ms.
fn stage_ms<'r>(recs: impl Iterator<Item = &'r Rec>, stages: &[&str]) -> f64 {
    recs.flat_map(|r| r.stages.iter())
        .filter(|s| stages.contains(&s.stage.as_str()))
        .map(|s| s.elapsed.as_secs_f64() * 1e3)
        .sum()
}

/// Per-layer figures of one pass.
#[derive(Default)]
struct Layers {
    baseline_ms: [f64; 4],
    init_ms: f64,
    hc_ms: f64,
    multilevel_ms: f64,
    ilp_ms: f64,
    tabu_ms: f64,
    counters: Snap,
    busy_frac: Option<f64>,
    total_ms: f64,
}

const BASELINES: [&str; 4] = ["cilk", "hdagg", "blest", "etf"];

fn layers(jobs: &[Job], pass: &Pass) -> Layers {
    let pairs = || jobs.iter().zip(&pass.recs);
    let mut l = Layers::default();
    for (k, key) in BASELINES.iter().enumerate() {
        l.baseline_ms[k] = stage_ms(
            pairs()
                .filter(|(j, _)| baseline_key(&j.spec) == Some(key))
                .map(|(_, r)| r),
            &["run"],
        );
    }
    let pipes = || {
        pairs()
            .filter(|(j, _)| baseline_key(&j.spec).is_none())
            .map(|(_, r)| r)
    };
    l.init_ms = stage_ms(pipes(), &["init"]);
    l.hc_ms = stage_ms(pipes(), &["hc"]);
    l.multilevel_ms = stage_ms(pipes(), &["multilevel", "polish"]);
    l.ilp_ms = stage_ms(pipes(), &["ilp"]);
    // The escape search is folded into the `hc` stage: its time is the hc
    // stage of the escape solve minus that of the plain solve it extends.
    for (j, r) in pairs().filter(|(j, _)| j.spec.contains("escape=tabu")) {
        let plain = j.spec.replace("&escape=tabu", "");
        if let Some((_, p)) = pairs().find(|(pj, _)| pj.inst == j.inst && pj.spec == plain) {
            l.tabu_ms += stage_ms([r].into_iter(), &["hc"]) - stage_ms([p].into_iter(), &["hc"]);
        }
    }
    l.counters = pass
        .recs
        .iter()
        .fold(Snap::default(), |a, r| a.plus(r.counters));
    let threaded: Vec<&Rec> = pairs()
        .filter(|(j, _)| j.spec.contains("threads=2"))
        .map(|(_, r)| r)
        .collect();
    if !threaded.is_empty() {
        let busy: u64 = threaded.iter().map(|r| r.counters.busy_us).sum();
        let wall_us: f64 = threaded.iter().map(|r| r.wall.as_secs_f64() * 1e6).sum();
        l.busy_frac = Some(busy as f64 / (2.0 * wall_us));
    }
    l.total_ms = pass.wall_s() * 1e3;
    l
}

/// Where a cost first differs between two solves of one job.
fn first_changed_stage(a: &Rec, b: &Rec) -> String {
    a.stages
        .iter()
        .zip(&b.stages)
        .find(|(x, y)| x.stage != y.stage || x.cost_after != y.cost_after)
        .map_or_else(
            || "final".to_string(),
            |(x, y)| format!("{} ({} vs {})", x.stage, x.cost_after, y.cost_after),
        )
}

/// Runs a library workload for `seconds` of passes and fills `report`.
pub fn run(
    w: &Workload,
    seconds: f64,
    traced: bool,
    cap: Duration,
    trace_path: &std::path::Path,
    report: &mut Report,
) {
    let mut setups = Setups::default();
    let p = match setups.burst(|| prepare(w), drop) {
        Ok(p) => p,
        Err(e) => {
            report.attempted += 1;
            report.fail(format!("set-up: {e}"));
            return;
        }
    };

    let mut solver = Solver::new(Arc::new(Counters::new()));
    let buf = TraceBuffer::new(1 << 16);
    let mut next_id = 0u64;
    let mut passes: Vec<Pass> = Vec::new();
    let started = Instant::now();
    'passes: loop {
        let untraced = passes.iter().filter(|p| !p.traced).count();
        let traced_n = passes.len() - untraced;
        let enough = if traced {
            untraced >= 1 && traced_n >= 1
        } else {
            untraced >= 2
        };
        if enough && started.elapsed().as_secs_f64() >= seconds {
            break;
        }
        let this_traced = traced && passes.len() % 2 == 1;
        let mut recs = Vec::new();
        for job in &p.jobs {
            report.attempted += 1;
            let inst = &p.instances[job.inst];
            next_id += 1;
            let span = this_traced.then(|| {
                (
                    buf.clone(),
                    format!("req-{next_id} {} | {}", job.spec, inst.name),
                )
            });
            match solver.solve(job, inst, span, cap) {
                Ok(rec) => {
                    if let Err(e) = &rec.check {
                        report.fail(format!("{} on {}: {e}", job.spec, inst.name));
                    }
                    recs.push(rec);
                }
                Err(e) => {
                    // The abandoned solve may still be running: stop here
                    // rather than measure beside it.
                    report.fail(format!("{} on {}: {e}", job.spec, inst.name));
                    break 'passes;
                }
            }
            if setups.due() {
                if let Err(e) = setups.burst(|| prepare(w), drop) {
                    report.attempted += 1;
                    report.fail(format!("set-up: {e}"));
                    break 'passes;
                }
            }
        }
        passes.push(Pass {
            traced: this_traced,
            recs,
        });
    }
    setups.report(report);
    if passes.is_empty() {
        return;
    }
    report.set("peak_rss_mb", peak_rss_mb(), 1);
    print_solves(&p, &passes);
    check_repeats(&p, &passes, report);
    end_to_end(&p, &passes, report);
    let layer_passes: Vec<&Pass> = passes.iter().filter(|x| x.traced == traced).collect();
    per_layer(w, &p, &layer_passes, report);
    if traced {
        let walls = |t: bool| {
            let v: Vec<f64> = passes
                .iter()
                .filter(|x| x.traced == t)
                .map(Pass::wall_s)
                .collect();
            median(&v)
        };
        report.set_noted(
            "obs.trace_overhead_frac",
            walls(true) / walls(false) - 1.0,
            passes.len(),
            "median traced pass / median untraced pass - 1".to_string(),
        );
        init_probes(w, &p, &buf, &mut solver, cap, &mut next_id, report);
        if let Err(e) = crate::tracing::export(&buf, trace_path) {
            report.fail(format!("trace export to {}: {e}", trace_path.display()));
        }
    }
}

/// One line per (instance, scheduler): cost, median wall time, stages.
fn print_solves(p: &Prepared, passes: &[Pass]) {
    let walls: Vec<String> = passes
        .iter()
        .map(|x| format!("{:.3}{}", x.wall_s(), if x.traced { "t" } else { "" }))
        .collect();
    println!("# pass times (s; t = traced): {}", walls.join(" "));
    println!(
        "# solves: cost, median ms over {} passes, stages (name cost ms) of pass 0",
        passes.len()
    );
    for (k, job) in p.jobs.iter().enumerate() {
        let ms: Vec<f64> = passes
            .iter()
            .map(|x| x.recs[k].wall.as_secs_f64() * 1e3)
            .collect();
        let rec = &passes[0].recs[k];
        let stages: Vec<String> = rec
            .stages
            .iter()
            .map(|s| {
                format!(
                    "{} {} {:.1}",
                    s.stage,
                    s.cost_after,
                    s.elapsed.as_secs_f64() * 1e3
                )
            })
            .collect();
        println!(
            "  {:<44} {:<46} {:>8} {:>10.2}  [{}]",
            job.spec,
            p.instances[job.inst].name,
            rec.cost,
            median(&ms),
            stages.join(", ")
        );
    }
}

/// Fails every (instance, scheduler) whose cost differs between passes,
/// naming the stage where the two solves first diverged.
fn check_repeats(p: &Prepared, passes: &[Pass], report: &mut Report) {
    let first = &passes[0];
    for (k, pass) in passes.iter().enumerate().skip(1) {
        for (job, (a, b)) in p.jobs.iter().zip(first.recs.iter().zip(&pass.recs)) {
            if a.cost != b.cost {
                report.fail(format!(
                    "{} on {}: cost {} in pass 0 but {} in pass {k}; first differing stage: {}",
                    job.spec,
                    p.instances[job.inst].name,
                    a.cost,
                    b.cost,
                    first_changed_stage(a, b)
                ));
            }
        }
    }
}

fn end_to_end(p: &Prepared, passes: &[Pass], report: &mut Report) {
    let plain: Vec<&Pass> = passes.iter().filter(|x| !x.traced).collect();
    // Timing noise on a shared host only ever adds time, and it comes and
    // goes within seconds: each solve's fastest pass is its time on a quiet
    // host, which the median pass is not (over six seeds the median pass
    // spread 0.24-0.36, the sum of the fastest solves 0.07-0.12).
    let fastest: f64 = (0..p.jobs.len())
        .map(|k| {
            plain
                .iter()
                .map(|x| x.recs[k].wall.as_secs_f64())
                .fold(f64::INFINITY, f64::min)
        })
        .sum();
    report.set_noted(
        "solve_s",
        fastest,
        plain.len(),
        format!(
            "{} solves, each its fastest of the passes; median pass {:.6} s",
            p.jobs.len(),
            median(&plain.iter().map(|x| x.wall_s()).collect::<Vec<_>>())
        ),
    );
    // Latency is the product's: each pipeline solve's median over the
    // passes, with percentiles over the workload's pipeline solves (the
    // baselines are reference points). Pooling raw pass samples instead
    // puts the median on the edge between two solves' groups of samples,
    // where it reads the slowest sample of one group.
    let lat: Vec<f64> = (0..p.jobs.len())
        .filter(|&k| baseline_key(&p.jobs[k].spec).is_none())
        .map(|k| {
            let ms: Vec<f64> = plain
                .iter()
                .map(|x| x.recs[k].wall.as_secs_f64() * 1e3)
                .collect();
            median(&ms)
        })
        .collect();
    let n = lat.len();
    report.set("req_per_s", p.jobs.len() as f64 / fastest, plain.len());
    report.set_noted(
        "req_p50_ms",
        percentile(&lat, 50.0),
        n,
        format!("pipeline solves, each the median of {} passes", plain.len()),
    );
    report.set_noted(
        "req_p99_ms",
        percentile(&lat, 99.0),
        n,
        format!(
            "pipeline solves; highest resolved percentile p{}",
            resolved_percentile(n)
        ),
    );

    // Costs repeat across passes (checked), so the first pass stands for all.
    let (mut vs_trivial, mut vs_baseline) = (Vec::new(), Vec::new());
    for (i, inst) in p.instances.iter().enumerate() {
        let solves = || {
            p.jobs
                .iter()
                .zip(&passes[0].recs)
                .filter(|(j, _)| j.inst == i)
        };
        let best_baseline = solves()
            .filter(|(j, _)| baseline_key(&j.spec).is_some())
            .map(|(_, r)| r.cost)
            .min()
            .unwrap_or(0);
        let trivial = trivial_cost(&inst.dag, &inst.machine);
        for (_, r) in solves().filter(|(j, _)| baseline_key(&j.spec).is_none()) {
            vs_trivial.push(r.cost as f64 / trivial as f64);
            vs_baseline.push(r.cost as f64 / best_baseline as f64);
        }
    }
    report.set("cost_ratio_trivial", geomean(&vs_trivial), vs_trivial.len());
    report.set(
        "cost_ratio_baseline",
        geomean(&vs_baseline),
        vs_baseline.len(),
    );
}

fn per_layer(w: &Workload, p: &Prepared, passes: &[&Pass], report: &mut Report) {
    let ls: Vec<Layers> = passes.iter().map(|x| layers(&p.jobs, x)).collect();
    let n = ls.len();
    let med = |f: &dyn Fn(&Layers) -> f64| median(&ls.iter().map(f).collect::<Vec<_>>());
    for (k, key) in BASELINES.iter().enumerate() {
        report.set(
            &format!("baselines.{key}_ms"),
            med(&|l| l.baseline_ms[k]),
            n,
        );
    }
    report.set("core.init_ms", med(&|l| l.init_ms), n);
    report.set("core.hc_ms", med(&|l| l.hc_ms), n);
    report.set("core.multilevel_ms", med(&|l| l.multilevel_ms), n);
    report.set("core.ilp_ms", med(&|l| l.ilp_ms), n);
    report.set("core.escape.tabu_ms", med(&|l| l.tabu_ms), n);
    report.set("core.ls.probes", med(&|l| l.counters.probes as f64), n);
    report.set("core.ls.scans", med(&|l| l.counters.scans as f64), n);
    report.set("core.ls.moves", med(&|l| l.counters.moves as f64), n);
    report.set(
        "core.ls.probes_per_s",
        med(&|l| l.counters.probes as f64 / ((l.hc_ms + l.multilevel_ms) / 1e3)),
        n,
    );
    report.set(
        "core.ls.moves_per_s",
        med(&|l| l.counters.moves as f64 / ((l.hc_ms + l.multilevel_ms) / 1e3)),
        n,
    );
    report.set(
        "core.ls.moves_per_probe",
        med(&|l| l.counters.moves as f64 / l.counters.probes as f64),
        n,
    );
    report.set("par.chunks", med(&|l| l.counters.chunks as f64), n);
    report.set("par.busy_frac", med(&|l| l.busy_frac.unwrap_or(0.0)), n);
    report.set(
        "share.baselines",
        med(&|l| l.baseline_ms.iter().sum::<f64>() / l.total_ms),
        n,
    );
    report.set("share.core.init", med(&|l| l.init_ms / l.total_ms), n);
    report.set("share.core.hc", med(&|l| l.hc_ms / l.total_ms), n);
    report.set(
        "share.core.multilevel",
        med(&|l| l.multilevel_ms / l.total_ms),
        n,
    );
    report.set("share.core.ilp", med(&|l| l.ilp_ms / l.total_ms), n);

    // Cost-side layer figures, from the first pass (costs repeat).
    let first = passes[0];
    let pipes = || {
        p.jobs
            .iter()
            .zip(&first.recs)
            .filter(|(j, _)| baseline_key(&j.spec).is_none())
    };
    let cost_of = |r: &Rec, stage: &str| {
        r.stages
            .iter()
            .find(|s| s.stage == stage)
            .map(|s| s.cost_after)
    };
    let gains: Vec<f64> = pipes()
        .filter_map(|(_, r)| Some(cost_of(r, "init")? as f64 / cost_of(r, "hc")? as f64))
        .collect();
    report.set("core.hc.gain_x", geomean(&gains), gains.len());
    let ilp: Vec<bool> = pipes()
        .flat_map(|(_, r)| {
            r.stages
                .windows(2)
                .filter(|s| s[1].stage == "ilp")
                .map(|s| s[1].cost_after < s[0].cost_after)
                .collect::<Vec<_>>()
        })
        .collect();
    if !ilp.is_empty() {
        let wins = ilp.iter().filter(|&&b| b).count();
        report.set(
            "core.ilp.win_frac",
            wins as f64 / ilp.len() as f64,
            ilp.len(),
        );
    }

    if let Some((small, large)) = w.scale_pair {
        let nodes = |i: usize| p.instances[i].dag.n() as f64;
        let note = format!("node ratio {:.2}x", nodes(large) / nodes(small));
        for key in ["blest", "etf"] {
            let ratios: Vec<f64> = passes
                .iter()
                .map(|x| {
                    let at = |i: usize| {
                        let recs = p.jobs.iter().zip(&x.recs);
                        stage_ms(
                            recs.filter(|(j, _)| j.inst == i && baseline_key(&j.spec) == Some(key))
                                .map(|(_, r)| r),
                            &["run"],
                        )
                    };
                    at(large) / at(small)
                })
                .collect();
            report.set_noted(
                &format!("baselines.{key}_scale_x"),
                median(&ratios),
                n,
                note.clone(),
            );
        }
    }
}

/// Traced runs only: times each initializer on its own, on every instance
/// a pipeline solves, through the `init/bspg` and `init/source` entries.
fn init_probes(
    w: &Workload,
    p: &Prepared,
    buf: &TraceBuffer,
    solver: &mut Solver,
    cap: Duration,
    next_id: &mut u64,
    report: &mut Report,
) {
    let registry = Registry::standard();
    let mut per_inst = vec![[0.0f64; 2]; p.instances.len()];
    for (k, spec) in ["init/bspg", "init/source"].iter().enumerate() {
        let sched = Arc::new(registry.get(spec).expect("registered initializer"));
        for (i, inst) in p.instances.iter().enumerate() {
            if !p
                .jobs
                .iter()
                .any(|j| j.inst == i && baseline_key(&j.spec).is_none())
            {
                continue;
            }
            let job = Job {
                inst: i,
                spec: spec.to_string(),
                sched: sched.clone(),
            };
            *next_id += 1;
            let name = format!("req-{next_id} {spec} | {}", inst.name);
            report.attempted += 1;
            match solver.solve(&job, inst, Some((buf.clone(), name)), cap) {
                Ok(rec) => per_inst[i][k] = rec.wall.as_secs_f64() * 1e3,
                Err(e) => {
                    report.fail(format!("{spec} on {}: {e}", inst.name));
                    return;
                }
            }
        }
    }
    let n = per_inst.iter().filter(|t| t[0] > 0.0).count();
    report.set("core.init.bspg_ms", per_inst.iter().map(|t| t[0]).sum(), n);
    report.set(
        "core.init.source_ms",
        per_inst.iter().map(|t| t[1]).sum(),
        n,
    );
    if let Some((small, large)) = w.scale_pair {
        let nodes = |i: usize| p.instances[i].dag.n() as f64;
        report.set_noted(
            "core.init.bspg_scale_x",
            per_inst[large][0] / per_inst[small][0],
            2,
            format!("node ratio {:.2}x", nodes(large) / nodes(small)),
        );
    }
}

/// Solves every ILP-enabled pipeline of `small-ilp` at the default ILP
/// time limit and at 20 s, prints both costs, and returns whether every
/// pair agrees: an instance whose ILP stages end on their time limit
/// cannot give a cost that repeats, and does not belong in the workload.
pub fn screen(seed: u64, cap: Duration) -> bool {
    let w = workload("small-ilp", seed).expect("small-ilp is a library workload");
    let (p, _) = prepare(&w).expect("small-ilp sets up");
    let registry = Registry::standard();
    let mut solver = Solver::new(Arc::new(Counters::new()));
    let mut agree = true;
    for job in p.jobs.iter().filter(|j| j.spec.contains("ilp=on")) {
        let inst = &p.instances[job.inst];
        let long = Job {
            inst: job.inst,
            spec: format!("{}&ilp_ms=20000", job.spec),
            sched: Arc::new(
                registry
                    .get(&format!("{}&ilp_ms=20000", job.spec))
                    .expect("valid spec"),
            ),
        };
        let mut cost = |j: &Job| solver.solve(j, inst, None, cap * 3).map(|r| r.cost);
        let (a, b) = (cost(job), cost(&long));
        let same = matches!((&a, &b), (Ok(x), Ok(y)) if x == y);
        agree &= same;
        println!(
            "{} {:<50} default {:?}  ilp_ms=20000 {:?}",
            if same { "same" } else { "DIFF" },
            inst.name,
            a,
            b
        );
    }
    agree
}
