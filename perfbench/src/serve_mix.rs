//! The service workload: an in-process `bsp-serve` server driven over
//! loopback by a closed loop of client connections, each waiting for its
//! reply before it sends the next request.
//!
//! Each connection sends a seeded mix, in blocks of 20 requests: 10% cold solves of distinct
//! layered specs, 60% repeats of specs it solved before (cache hits), 15%
//! one-node weight edits on a cached base (warm `delta` re-solves) and 15%
//! stream-session operations that replay arrival traces through the online
//! re-planner. With 60% cache hits the median request sits inside the
//! cache-hit group rather than on its edge, where it would jump between
//! the cache-hit and the re-plan latencies from run to run.

use crate::report::{peak_rss_mb, Report};
use crate::setup::Setups;
use crate::stats::{geomean, median, percentile, resolved_percentile};
use crate::tracing::{Counters, Snap};
use bsp_obs::trace::TraceBuffer;
use bsp_sched::instance::{arrival_trace, ArrivalEvent, ArrivalOrder, DagEdit, TraceConfig};
use bsp_sched::prelude::{Registry, SolveRequest};
use bsp_sched::schedule::cost::total_cost;
use bsp_sched::schedule::trivial::trivial_cost;
use bsp_sched::schedule::validity::validate;
use bsp_serve::client::{Client, ClientError, DeltaParams, RetryPolicy, SolveParams};
use bsp_serve::server::{start, ServeConfig, ServerHandle};
use std::time::{Duration, Instant};

/// Client connections in the closed loop.
const CONNS: usize = 2;
/// Requests per connection per pass.
const OPS_PER_PASS: usize = 300;
/// Passes after which the peak resident set is read: a fixed amount of
/// work, since the server keeps every result and a faster server would
/// otherwise hold more of them by the end of the run.
const RSS_PASSES: usize = 8;
/// Cold specs each connection solves before timing starts, so the first
/// cached repeats and deltas have something to hit.
const WARM_SPECS: usize = 6;
/// Cold-solve instances: distinct `seed` per request, 10 × 20 = 200 nodes.
const COLD_SPEC: &str = "layered?layers=10&width=20&q=0.25&seed={k} @ bsp?p=4&g=2&l=5";
const COLD_NODES: u64 = 200;
/// The server's default scheduler, which every solve here uses.
const SCHED: &str = "pipeline/base?ilp=off";
/// Streamed instances (DAG spec, machine spec).
const STREAMS: [(&str, &str); 2] = [
    ("erdos?n=80&q=0.08&seed={seed}", "bsp?p=8&numa=ring"),
    (
        "stencil?width=20&steps=10",
        "bsp?p=8&numa=sockets&sockets=2&delta=4",
    ),
];
/// One block of the request mix: every 20 requests of a connection hold
/// exactly these kinds, in a seeded order, so the mix's shares do not vary
/// with the seed. `Kind::Open` stands for the next stream operation
/// (open, push or close, as the connection's session needs).
const BLOCK: [(Kind, usize); 4] = [
    (Kind::Cold, 2),
    (Kind::Cached, 12),
    (Kind::Delta, 3),
    (Kind::Open, 3),
];
/// Arrivals per `stream_push` (the online re-planner's default batch).
const BATCH: usize = 8;
/// Per-arrival re-planning budget: generous, so that the move cap, not the
/// clock, ends each re-plan and a session's final cost repeats.
const STREAM_BUDGET_MS: u64 = 1000;

/// splitmix64: a seeded, dependency-free request-mix generator.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Kind {
    Cold,
    Cached,
    Delta,
    Open,
    Push,
    Close,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Cold => "cold",
            Kind::Cached => "cached",
            Kind::Delta => "delta",
            Kind::Open => "stream_open",
            Kind::Push => "stream_push",
            Kind::Close => "stream_close",
        }
    }
}

/// One completed (or failed) request.
struct Op {
    kind: Kind,
    /// Client-side round trip.
    lat_us: f64,
    /// The result frame's own `elapsed_us`, when it has one.
    server_us: Option<u64>,
}

/// A replayable stream: its arrival events (without the final
/// `Finalize`, which `stream_close` sends) and the machine spec.
struct Stream {
    machine: String,
    events: Vec<ArrivalEvent>,
    /// `solve` spec of the same instance (the ratio's denominator).
    spec: String,
}

struct Session {
    id: String,
    stream: usize,
    pos: usize,
}

/// One client connection and its request-mix state.
struct Conn {
    idx: usize,
    client: Client,
    rng: Rng,
    /// The rest of the current block of request kinds.
    deck: Vec<Kind>,
    seed: u64,
    /// Cold specs this connection solved, with their served costs.
    solved: Vec<(String, u64)>,
    session: Option<Session>,
    sessions: u64,
    /// Final cost of every closed session, per stream.
    closes: Vec<(usize, u64)>,
    seq: u64,
    problems: Vec<String>,
    queue_full: u64,
}

impl Conn {
    fn cold_spec(&mut self) -> String {
        let k = self.seed * 1_000_000 + self.idx as u64 * 100_000 + self.solved.len() as u64;
        COLD_SPEC.replace("{k}", &k.to_string())
    }

    fn solve(&mut self, spec: &str) -> Result<bsp_serve::protocol::Frame, ClientError> {
        let params = SolveParams {
            instance: spec.to_string(),
            ..SolveParams::default()
        };
        self.client
            .solve_with_retry(&params, &RetryPolicy::default())
            .map(|r| r.result)
    }

    fn fail(&mut self, what: String, err: &ClientError) {
        if err.is_code("queue_full") {
            self.queue_full += 1;
        }
        self.problems.push(format!("{what}: {err:?}"));
    }

    /// Refills the deck with one block of the mix, in a seeded order.
    fn deal(&mut self) {
        for (kind, n) in BLOCK {
            self.deck.extend(std::iter::repeat_n(kind, n));
        }
        for i in (1..self.deck.len()).rev() {
            let j = self.rng.below(i as u64 + 1) as usize;
            self.deck.swap(i, j);
        }
    }

    /// Sends one request of the seeded mix; `None` when it failed.
    fn step(&mut self, streams: &[Stream], trace: Option<&TraceBuffer>) -> Option<Op> {
        if self.deck.is_empty() {
            self.deal();
        }
        let kind = match self.deck.pop().expect("dealt") {
            Kind::Open => match &self.session {
                None => Kind::Open,
                Some(s) if s.pos < streams[s.stream].events.len() => Kind::Push,
                Some(_) => Kind::Close,
            },
            k => k,
        };
        self.seq += 1;
        let span = trace.map(|b| {
            b.span(
                &format!("{} c{}-{}", kind.name(), self.idx, self.seq),
                "request",
            )
        });
        let start = Instant::now();
        let frame = match kind {
            Kind::Cold => {
                let spec = self.cold_spec();
                match self.solve(&spec) {
                    Ok(f) => {
                        let cost = f.cost.unwrap_or(0);
                        self.solved.push((spec, cost));
                        Ok(f)
                    }
                    Err(e) => Err((spec, e)),
                }
            }
            Kind::Cached => {
                let k = self.rng.below(self.solved.len() as u64) as usize;
                let (spec, want) = self.solved[k].clone();
                self.solve(&spec)
                    .map_err(|e| (spec.clone(), e))
                    .inspect(|f| {
                        if f.cost != Some(want) || f.cache_hit != Some(true) {
                            self.problems.push(format!(
                                "repeat of {spec}: cost {:?} (hit {:?}), first served {want}",
                                f.cost, f.cache_hit
                            ));
                        }
                    })
            }
            Kind::Delta => {
                let k = self.rng.below(self.solved.len() as u64) as usize;
                let base = self.solved[k].0.clone();
                let edit = DagEdit::SetWeights {
                    node: self.rng.below(COLD_NODES) as u32,
                    work: Some(1 + self.rng.below(16)),
                    comm: None,
                };
                let params = DeltaParams {
                    base: base.clone(),
                    edits: vec![edit],
                    ..DeltaParams::default()
                };
                self.client
                    .delta_with_retry(&params, &RetryPolicy::default())
                    .map(|r| r.result)
                    .map_err(|e| (base, e))
            }
            Kind::Open => {
                let stream = (self.sessions % STREAMS.len() as u64) as usize;
                let id = format!("s{}-{}", self.idx, self.sessions);
                let machine = streams[stream].machine.clone();
                self.client
                    .stream_open(&id, &machine, Some(STREAM_BUDGET_MS))
                    .inspect(|_| {
                        self.session = Some(Session {
                            id: id.clone(),
                            stream,
                            pos: 0,
                        });
                        self.sessions += 1;
                    })
                    .map_err(|e| (id, e))
            }
            Kind::Push => {
                let s = self.session.as_mut().expect("push needs a session");
                let events = &streams[s.stream].events;
                let end = (s.pos + BATCH).min(events.len());
                let batch = &events[s.pos..end];
                s.pos = end;
                let id = s.id.clone();
                self.client.stream_push(&id, batch).map_err(|e| (id, e))
            }
            Kind::Close => {
                let s = self.session.take().expect("close needs a session");
                self.client
                    .stream_close(&s.id)
                    .inspect(|f| self.closes.push((s.stream, f.cost.unwrap_or(0))))
                    .map_err(|e| (s.id, e))
            }
        };
        let lat_us = start.elapsed().as_secs_f64() * 1e6;
        drop(span);
        match frame {
            Ok(f) => Some(Op {
                kind,
                lat_us,
                server_us: f.elapsed_us,
            }),
            Err((what, e)) => {
                if matches!(kind, Kind::Push | Kind::Close) {
                    // The session is gone or broken: start a new one.
                    self.session = None;
                }
                self.fail(format!("{} {what}", kind.name()), &e);
                None
            }
        }
    }
}

struct Pass {
    traced: bool,
    wall_s: f64,
    ops: Vec<Op>,
    counters: Snap,
    sessions: u64,
}

/// Everything one set-up builds.
struct Prepared {
    server: ServerHandle,
    conns: Vec<Conn>,
    streams: Vec<Stream>,
}

impl Prepared {
    /// Closes the connections and stops the server of a set-up.
    fn stop(self) {
        drop(self.conns);
        self.server.shutdown();
    }
}

fn prepare(seed: u64, cap: Duration) -> Result<(Prepared, Duration), String> {
    let gen_start = Instant::now();
    let catalogue = bsp_sched::instances();
    let mut streams = Vec::new();
    for (dag, machine) in STREAMS {
        let spec = format!("{} @ {machine}", dag.replace("{seed}", &seed.to_string()));
        let inst = catalogue
            .generate_one(&spec, bsp_sched::instance::DEFAULT_SEED)
            .map_err(|e| format!("instance {spec:?}: {e}"))?;
        let cfg = TraceConfig {
            order: ArrivalOrder::ShuffledReady,
            seed,
            ..TraceConfig::default()
        };
        let mut events = arrival_trace(&inst.dag, &inst.name, &cfg).events;
        events.retain(|e| !matches!(e, ArrivalEvent::Finalize));
        streams.push(Stream {
            machine: machine.to_string(),
            events,
            spec,
        });
    }
    let gen = gen_start.elapsed();
    let server = start(ServeConfig {
        threads: 2,
        ..ServeConfig::default()
    })
    .map_err(|e| format!("server start: {e}"))?;
    let mut conns = Vec::new();
    for idx in 0..CONNS {
        let mut client = Client::connect(server.addr()).map_err(|e| format!("connect: {e:?}"))?;
        client
            .set_op_timeout(Some(cap))
            .map_err(|e| format!("op timeout: {e:?}"))?;
        conns.push(Conn {
            idx,
            client,
            rng: Rng(seed ^ (0xc0ff_ee00 + idx as u64)),
            deck: Vec::new(),
            seed,
            solved: Vec::new(),
            session: None,
            sessions: 0,
            closes: Vec::new(),
            seq: 0,
            problems: Vec::new(),
            queue_full: 0,
        });
    }
    Ok((
        Prepared {
            server,
            conns,
            streams,
        },
        gen,
    ))
}

/// Solves `spec` in-process with the registry's default configuration
/// and checks the schedule. Returns its cost, the trivial cost and, with
/// `baselines`, the cheapest of the four baselines' costs (else 0).
fn library_solve(
    spec: &str,
    registry: &Registry,
    baselines: bool,
) -> Result<(u64, u64, u64), String> {
    let inst = bsp_sched::instances()
        .generate_one(spec, bsp_sched::instance::DEFAULT_SEED)
        .map_err(|e| e.to_string())?;
    let solve = |s: &str| {
        let sched = registry.get(s).map_err(|e| e.to_string())?;
        let out = sched.solve(&SolveRequest::new(&inst.dag, &inst.machine));
        let (sched, comm) = (&out.result.sched, &out.result.comm);
        validate(&inst.dag, inst.machine.p(), sched, comm).map_err(|e| format!("{s}: {e}"))?;
        let recosted = total_cost(&inst.dag, &inst.machine, sched, comm);
        if recosted != out.total() {
            return Err(format!(
                "{s}: reported {} re-costs to {recosted}",
                out.total()
            ));
        }
        Ok(out.total())
    };
    let cost = solve(SCHED)?;
    let mut best = 0;
    if baselines {
        let costs = ["cilk", "hdagg", "bl-est", "etf"]
            .iter()
            .map(|b| solve(b))
            .collect::<Result<Vec<_>, _>>()?;
        best = costs.into_iter().min().unwrap_or(0);
    }
    Ok((cost, trivial_cost(&inst.dag, &inst.machine), best))
}

fn lat(ops: &[&Op], kinds: &[Kind], scale: f64) -> Vec<f64> {
    ops.iter()
        .filter(|o| kinds.contains(&o.kind))
        .map(|o| o.lat_us / scale)
        .collect()
}

/// Runs the service workload for `seconds` of passes and fills `report`.
pub fn run(
    seed: u64,
    seconds: f64,
    traced: bool,
    cap: Duration,
    trace_path: &std::path::Path,
    report: &mut Report,
) {
    let mut setups = Setups::default();
    let Prepared {
        server,
        mut conns,
        streams,
    } = match setups.burst(|| prepare(seed, cap), Prepared::stop) {
        Ok(p) => p,
        Err(e) => {
            report.attempted += 1;
            report.fail(format!("set-up: {e}"));
            return;
        }
    };

    // Untimed warm-up: a few cold specs per connection, and the cold solve
    // of each streamed instance that the online ratio divides by.
    let mut stream_cold = Vec::new();
    for conn in conns.iter_mut() {
        for _ in 0..WARM_SPECS {
            report.attempted += 1;
            let spec = conn.cold_spec();
            match conn.solve(&spec) {
                Ok(f) => {
                    let cost = f.cost.unwrap_or(0);
                    conn.solved.push((spec, cost));
                }
                Err(e) => conn.fail(format!("warm-up {spec}"), &e),
            }
        }
    }
    for s in &streams {
        report.attempted += 1;
        match conns[0].solve(&s.spec) {
            Ok(f) => stream_cold.push(f.cost.unwrap_or(0)),
            Err(e) => {
                conns[0].fail(format!("cold {}", s.spec), &e);
                stream_cold.push(0);
            }
        }
    }

    let counters = Counters::new();
    let buf = TraceBuffer::new(1 << 18);
    let mut passes: Vec<Pass> = Vec::new();
    let mut first_pass_end = Vec::new();
    let mut rss = 0.0;
    let started = Instant::now();
    'passes: loop {
        let untraced = passes.iter().filter(|p| !p.traced).count();
        let enough = if traced {
            untraced >= 1 && passes.len() > untraced
        } else {
            untraced >= 2
        };
        if enough && started.elapsed().as_secs_f64() >= seconds {
            break;
        }
        let this_traced = traced && passes.len() % 2 == 1;
        let trace = this_traced.then_some(&buf);
        let before = counters.read();
        let sessions_before: u64 = conns.iter().map(|c| c.closes.len() as u64).sum();
        let t0 = Instant::now();
        let ops: Vec<Op> = std::thread::scope(|s| {
            let handles: Vec<_> = conns
                .iter_mut()
                .map(|conn| {
                    let streams = &streams;
                    s.spawn(move || {
                        (0..OPS_PER_PASS)
                            .filter_map(|_| conn.step(streams, trace))
                            .collect::<Vec<Op>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("client thread"))
                .collect()
        });
        let wall_s = t0.elapsed().as_secs_f64();
        report.attempted += (CONNS * OPS_PER_PASS) as u64;
        let sessions_after: u64 = conns.iter().map(|c| c.closes.len() as u64).sum();
        if passes.is_empty() {
            first_pass_end = conns.iter().map(|c| c.solved.len()).collect();
        }
        if passes.len() < RSS_PASSES {
            rss = peak_rss_mb();
        }
        passes.push(Pass {
            traced: this_traced,
            wall_s,
            ops,
            counters: counters.read().since(before),
            sessions: sessions_after - sessions_before,
        });
        if setups.due() {
            match setups.burst(|| prepare(seed, cap), Prepared::stop) {
                Ok(p) => p.stop(),
                Err(e) => {
                    report.attempted += 1;
                    report.fail(format!("set-up: {e}"));
                    break 'passes;
                }
            }
        }
    }
    setups.report(report);

    // Checks, untimed: every problem a connection saw, every cold spec
    // against the library, and every session's final cost against the
    // first one of its stream.
    let mut queue_full = 0;
    for conn in conns.iter_mut() {
        queue_full += conn.queue_full;
        for p in conn.problems.drain(..) {
            report.fail(p);
        }
    }
    let registry = Registry::standard();
    let served: Vec<&(String, u64)> = conns.iter().flat_map(|c| &c.solved).collect();
    let half = served.len().div_ceil(2);
    let mismatches: Vec<String> = std::thread::scope(|s| {
        let handles: Vec<_> = served
            .chunks(half.max(1))
            .map(|chunk| {
                let registry = &registry;
                s.spawn(move || {
                    chunk
                        .iter()
                        .filter_map(
                            |(spec, served)| match library_solve(spec, registry, false) {
                                Ok((cost, ..)) if cost == *served => None,
                                Ok((cost, ..)) => Some(format!(
                                    "{spec}: served cost {served}, library cost {cost}"
                                )),
                                Err(e) => Some(format!("library solve of {spec}: {e}")),
                            },
                        )
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("check thread"))
            .collect()
    });
    for m in mismatches {
        report.fail(m);
    }
    // Cost ratios over the specs the first pass solved cold: the same
    // specs on every run with this seed.
    let (mut vs_trivial, mut vs_baseline) = (Vec::new(), Vec::new());
    for (conn, &end) in conns.iter().zip(&first_pass_end) {
        for (spec, served) in &conn.solved[WARM_SPECS..end] {
            if let Ok((_, trivial, best)) = library_solve(spec, &registry, true) {
                vs_trivial.push(*served as f64 / trivial as f64);
                vs_baseline.push(*served as f64 / best as f64);
            }
        }
    }
    let mut online = Vec::new();
    for (k, (s, &cold)) in streams.iter().zip(&stream_cold).enumerate() {
        match library_solve(&s.spec, &registry, false) {
            Ok((cost, ..)) if cost == cold => {}
            Ok((cost, ..)) => report.fail(format!(
                "{}: served cost {cold}, library cost {cost}",
                s.spec
            )),
            Err(e) => report.fail(format!("library solve of {}: {e}", s.spec)),
        }
        let closes: Vec<u64> = conns
            .iter()
            .flat_map(|c| c.closes.iter().filter(|(i, _)| *i == k).map(|(_, c)| *c))
            .collect();
        if let Some(&first) = closes.first() {
            if let Some(other) = closes.iter().find(|&&c| c != first) {
                report.fail(format!(
                    "stream {}: sessions closed at cost {first} and at {other}",
                    s.spec
                ));
            }
            online.push(first as f64 / cold as f64);
        }
    }

    drop(conns);
    server.shutdown();

    // End-to-end, from the untraced passes.
    let plain: Vec<&Pass> = passes.iter().filter(|p| !p.traced).collect();
    let walls: Vec<f64> = plain.iter().map(|p| p.wall_s).collect();
    // The median pass, unlike the library workloads' fastest solves: the
    // passes' requests differ and four threads share two cores, so the
    // fastest pass depends on which requests met a quiet moment (on six
    // seeds its spread was 0.12 against the median's 0.06).
    let pass_s = median(&walls);
    report.set_noted(
        "solve_s",
        pass_s,
        walls.len(),
        format!(
            "median pass of {CONNS} x {OPS_PER_PASS} requests; fastest pass {:.6} s",
            walls.iter().copied().fold(f64::INFINITY, f64::min)
        ),
    );
    let ops: Vec<&Op> = plain.iter().flat_map(|p| p.ops.iter()).collect();
    let all_ms = lat(&ops, &KINDS, 1e3);
    let n = all_ms.len();
    let per_pass = (CONNS * OPS_PER_PASS) as f64;
    report.set("req_per_s", per_pass / pass_s, walls.len());
    report.set("req_p50_ms", percentile(&all_ms, 50.0), n);
    report.set_noted(
        "req_p99_ms",
        percentile(&all_ms, 99.0),
        n,
        format!("highest resolved percentile p{}", resolved_percentile(n)),
    );
    report.set_noted(
        "peak_rss_mb",
        rss,
        1,
        format!("after {} passes", passes.len().min(RSS_PASSES)),
    );
    report.set("cost_ratio_trivial", geomean(&vs_trivial), vs_trivial.len());
    report.set(
        "cost_ratio_baseline",
        geomean(&vs_baseline),
        vs_baseline.len(),
    );

    // Per-layer, from the traced passes (or the untraced ones without
    // tracing, for the printout).
    let layer: Vec<&Pass> = passes.iter().filter(|p| p.traced == traced).collect();
    let ops: Vec<&Op> = layer.iter().flat_map(|p| p.ops.iter()).collect();
    let pct = |report: &mut Report, name: &str, v: &[f64], p: f64| {
        report.set_noted(
            name,
            percentile(v, p),
            v.len(),
            format!("resolved to p{}", resolved_percentile(v.len())),
        );
    };
    for (kind, scale, p50, p99) in [
        (Kind::Cold, 1e3, "serve.cold_p50_ms", "serve.cold_p99_ms"),
        (
            Kind::Cached,
            1.0,
            "serve.cached_p50_us",
            "serve.cached_p99_us",
        ),
        (Kind::Delta, 1e3, "serve.delta_p50_ms", "serve.delta_p99_ms"),
        (Kind::Push, 1.0, "arrival_p50_us", "arrival_p99_us"),
    ] {
        let v = lat(&ops, &[kind], scale);
        pct(report, p50, &v, 50.0);
        pct(report, p99, &v, 99.0);
    }
    let overhead: Vec<f64> = ops
        .iter()
        .filter(|o| matches!(o.kind, Kind::Cold | Kind::Cached | Kind::Delta))
        .filter_map(|o| Some(o.lat_us - o.server_us? as f64))
        .collect();
    pct(report, "serve.overhead_p50_us", &overhead, 50.0);
    pct(report, "serve.overhead_p99_us", &overhead, 99.0);
    let c = layer
        .iter()
        .fold(Snap::default(), |a, p| a.plus(p.counters));
    report.set(
        "serve.cache_hit_frac",
        c.cache_hits as f64 / (c.cache_hits + c.cache_misses) as f64,
        (c.cache_hits + c.cache_misses) as usize,
    );
    report.set("serve.queue_full", queue_full as f64, passes.len());
    report.set("serve.retries", c.retries as f64, layer.len());
    report.set("online_cost_ratio", geomean(&online), online.len());
    let close_ms = lat(&ops, &[Kind::Close], 1e3);
    report.set("online.close_ms", median(&close_ms), close_ms.len());
    let sessions: Vec<f64> = layer.iter().map(|p| p.sessions as f64).collect();
    report.set("online.sessions", median(&sessions), sessions.len());
    if traced {
        let med = |t: bool| {
            let v: Vec<f64> = passes
                .iter()
                .filter(|p| p.traced == t)
                .map(|p| p.wall_s)
                .collect();
            median(&v)
        };
        report.set_noted(
            "obs.trace_overhead_frac",
            med(true) / med(false) - 1.0,
            passes.len(),
            "median traced pass / median untraced pass - 1".to_string(),
        );
        if let Err(e) = crate::tracing::export(&buf, trace_path) {
            report.fail(format!("trace export to {}: {e}", trace_path.display()));
        }
    }
    let mut kinds = String::new();
    for kind in KINDS {
        let v = lat(&ops, &[kind], 1e3);
        kinds.push_str(&format!(
            " {}={} (p50 {:.3} ms)",
            kind.name(),
            v.len(),
            median(&v)
        ));
    }
    println!("# requests per kind:{kinds}");
}

const KINDS: [Kind; 6] = [
    Kind::Cold,
    Kind::Cached,
    Kind::Delta,
    Kind::Open,
    Kind::Push,
    Kind::Close,
];
