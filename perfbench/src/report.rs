//! The metric catalogue, the host record and the result line.
//!
//! Every workload prints every catalogued metric. A per-layer metric of a
//! layer the workload does not exercise reads 0: that is the quiet side of
//! the layer.

use std::fmt::Write as _;

/// End-to-end metrics (`--trace 0`): name, unit.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("solve_s", "s"),
    ("req_per_s", "1/s"),
    ("cost_ratio_trivial", "ratio"),
    ("cost_ratio_baseline", "ratio"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics (`--trace 1`): name, unit.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("req_p50_ms", "ms"),
    ("req_p99_ms", "ms"),
    ("instance.gen_ms", "ms"),
    ("baselines.cilk_ms", "ms"),
    ("baselines.hdagg_ms", "ms"),
    ("baselines.blest_ms", "ms"),
    ("baselines.etf_ms", "ms"),
    ("baselines.blest_scale_x", "ratio"),
    ("baselines.etf_scale_x", "ratio"),
    ("core.init_ms", "ms"),
    ("core.init.bspg_ms", "ms"),
    ("core.init.source_ms", "ms"),
    ("core.init.bspg_scale_x", "ratio"),
    ("core.hc_ms", "ms"),
    ("core.hc.gain_x", "ratio"),
    ("core.ls.probes", "count"),
    ("core.ls.scans", "count"),
    ("core.ls.moves", "count"),
    ("core.ls.probes_per_s", "1/s"),
    ("core.ls.moves_per_probe", "ratio"),
    ("core.ls.moves_per_s", "1/s"),
    ("core.escape.tabu_ms", "ms"),
    ("core.multilevel_ms", "ms"),
    ("core.ilp_ms", "ms"),
    ("core.ilp.win_frac", "ratio"),
    ("par.chunks", "count"),
    ("par.busy_frac", "ratio"),
    ("share.baselines", "ratio"),
    ("share.core.init", "ratio"),
    ("share.core.hc", "ratio"),
    ("share.core.multilevel", "ratio"),
    ("share.core.ilp", "ratio"),
    ("serve.cold_p50_ms", "ms"),
    ("serve.cold_p99_ms", "ms"),
    ("serve.cached_p50_us", "us"),
    ("serve.cached_p99_us", "us"),
    ("serve.delta_p50_ms", "ms"),
    ("serve.delta_p99_ms", "ms"),
    ("serve.overhead_p50_us", "us"),
    ("serve.overhead_p99_us", "us"),
    ("serve.cache_hit_frac", "ratio"),
    ("serve.queue_full", "count"),
    ("serve.retries", "count"),
    ("arrival_p50_us", "us"),
    ("arrival_p99_us", "us"),
    ("online_cost_ratio", "ratio"),
    ("online.close_ms", "ms"),
    ("online.sessions", "count"),
    ("failed_frac", "ratio"),
    ("obs.trace_overhead_frac", "ratio"),
];

/// One measured value with its sample count.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    /// How many raw samples the value was computed from.
    pub samples: usize,
    /// Extra context printed beside the value (resolution, bases).
    pub note: String,
}

/// Everything one run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    /// Operations attempted (solves, requests) over all passes.
    pub attempted: u64,
    /// Operations that failed: error frames, refusals, timeouts, invalid
    /// or mis-costed schedules, non-repeating costs.
    pub failed: u64,
    /// One line per failed check, printed before the result.
    pub problems: Vec<String>,
}

fn is_catalogued(name: &str) -> bool {
    END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name)
}

impl Report {
    /// Records `name` (which must be catalogued) from `samples` samples.
    pub fn set(&mut self, name: &str, value: f64, samples: usize) {
        self.set_noted(name, value, samples, String::new());
    }

    /// [`set`](Self::set) with a note printed beside the value.
    pub fn set_noted(&mut self, name: &str, value: f64, samples: usize, note: String) {
        // `+ 0.0` turns the -0.0 of an empty float sum into 0.
        let value = if value.is_finite() { value + 0.0 } else { 0.0 };
        assert!(is_catalogued(name), "metric {name:?} is not catalogued");
        self.metrics.retain(|m| m.name != name);
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            samples,
            note,
        });
    }

    /// A failed check: counted as a failed operation and printed.
    pub fn fail(&mut self, problem: String) {
        self.failed += 1;
        self.problems.push(problem);
    }

    fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// Human-readable table of every catalogued metric, one per line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (title, set) in [("end-to-end", END_TO_END), ("per-layer", PER_LAYER)] {
            let _ = writeln!(out, "# {title}");
            for (name, unit) in set {
                match self.get(name) {
                    Some(m) => {
                        let _ = writeln!(
                            out,
                            "  {name:<26} {:>14.6} {unit:<6} n={:<6} {}",
                            m.value, m.samples, m.note
                        );
                    }
                    None => {
                        let _ = writeln!(out, "  {name:<26} {:>14} {unit:<6} (not exercised)", 0);
                    }
                }
            }
        }
        for p in &self.problems {
            let _ = writeln!(out, "FAILED: {p}");
        }
        out
    }

    /// The result line: `correct`, `attempted`, `failed` and the metrics
    /// of `set`, in catalogue order.
    pub fn result_line(&self, set: &[(&str, &str)]) -> String {
        let mut metrics = String::new();
        for (i, (name, unit)) in set.iter().enumerate() {
            let value = self.get(name).map_or(0.0, |m| m.value);
            let _ = write!(
                metrics,
                "{}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}",
                if i == 0 { "" } else { ", " }
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.problems.is_empty(),
            self.attempted.max(1),
            self.failed
        )
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The host, build and seed record printed with every result.
pub fn host_record(workload: &str, seed: u64, seconds: u64, trace: bool) -> String {
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".to_string());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "{{\"host\": {{\"workload\": \"{workload}\", \"seed\": {seed}, \"seconds\": {seconds}, \"trace\": {trace}, \
         \"nproc\": {nproc}, \"detect_threads\": {}, \"BSP_THREADS\": \"{}\", \"rustc\": \"{}\", \
         \"profile\": \"{}\", \"commit\": \"{}\"}}}}",
        bsp_par::detect_threads(),
        std::env::var("BSP_THREADS").unwrap_or_else(|_| "unset".to_string()),
        env("PERFBENCH_RUSTC"),
        if cfg!(debug_assertions) { "debug" } else { "release" },
        env("PERFBENCH_COMMIT"),
    )
}
