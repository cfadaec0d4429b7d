//! Process-global operation counters for the local-search kernels and the
//! ILP stages.
//!
//! The hot loops (probe scans, greedy sweeps) tally into locals and
//! flush once per scan/call with a single relaxed `fetch_add`, so the
//! counters cost nothing measurable (the `obs_overhead` bench guards
//! this). Exposed series: `bsp_ls_probes_total` (gain-kernel probes),
//! `bsp_ls_scans_total` (full neighbourhood scans) and
//! `bsp_ls_moves_total` (accepted moves); `bsp_ilp_solves_total`
//! (branch-and-bound calls) and `bsp_ilp_bb_nodes_total` (nodes they
//! expanded), bumped once per call from `MipSolution::nodes` so that
//! `bsp-ilp` itself stays free of metrics.

use std::sync::OnceLock;

pub(crate) struct LsMetrics {
    pub probes: bsp_obs::Counter,
    pub scans: bsp_obs::Counter,
    pub moves: bsp_obs::Counter,
}

pub(crate) fn ls_metrics() -> &'static LsMetrics {
    static METRICS: OnceLock<LsMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let reg = bsp_obs::global();
        LsMetrics {
            probes: reg.counter("bsp_ls_probes_total", &[]),
            scans: reg.counter("bsp_ls_scans_total", &[]),
            moves: reg.counter("bsp_ls_moves_total", &[]),
        }
    })
}

pub(crate) struct IlpMetrics {
    pub solves: bsp_obs::Counter,
    pub bb_nodes: bsp_obs::Counter,
}

impl IlpMetrics {
    /// Counts one finished branch-and-bound call.
    pub fn record(&self, sol: &bsp_ilp::MipSolution) {
        self.solves.inc();
        self.bb_nodes.add(sol.nodes as u64);
    }
}

pub(crate) fn ilp_metrics() -> &'static IlpMetrics {
    static METRICS: OnceLock<IlpMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let reg = bsp_obs::global();
        IlpMetrics {
            solves: reg.counter("bsp_ilp_solves_total", &[]),
            bb_nodes: reg.counter("bsp_ilp_bb_nodes_total", &[]),
        }
    })
}
