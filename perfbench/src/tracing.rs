//! Bench-side tracing: root spans per solve or request, stage spans from
//! the public `Observer` hook, and per-solve deltas of the counters the
//! program already exports through `bsp_obs::global()`.

use bsp_obs::trace::{Span, TraceBuffer};
use bsp_obs::Counter;
use bsp_sched::prelude::{Observer, StageReport};
use std::sync::Mutex;

/// Opens one child span per pipeline stage under whatever span is open on
/// the solving thread (the solve's root span).
pub struct StageSpans<'a> {
    buf: &'a TraceBuffer,
    open: Mutex<Option<Span>>,
}

impl<'a> StageSpans<'a> {
    pub fn new(buf: &'a TraceBuffer) -> Self {
        StageSpans {
            buf,
            open: Mutex::new(None),
        }
    }
}

impl Observer for StageSpans<'_> {
    fn on_stage_start(&self, _scheduler: &str, stage: &str) {
        *self
            .open
            .lock()
            .expect("stage span lock poisoned by a panicking solve") =
            Some(self.buf.span(stage, "stage"));
    }

    fn on_stage_end(&self, _scheduler: &str, _report: &StageReport) {
        if let Some(span) = self
            .open
            .lock()
            .expect("stage span lock poisoned by a panicking solve")
            .take()
        {
            span.finish();
        }
    }
}

/// The exported counters the benchmark reads, in [`Snap`] field order.
const NAMES: [&str; 8] = [
    "bsp_ls_probes_total",
    "bsp_ls_scans_total",
    "bsp_ls_moves_total",
    "bsp_par_chunks_total",
    "bsp_par_worker_busy_us",
    "bsp_serve_cache_hits_total",
    "bsp_serve_cache_misses_total",
    "bsp_retries_total",
];

/// A reading of every counter in [`NAMES`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Snap {
    pub probes: u64,
    pub scans: u64,
    pub moves: u64,
    pub chunks: u64,
    pub busy_us: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub retries: u64,
}

impl Snap {
    fn from_array(v: [u64; 8]) -> Snap {
        Snap {
            probes: v[0],
            scans: v[1],
            moves: v[2],
            chunks: v[3],
            busy_us: v[4],
            cache_hits: v[5],
            cache_misses: v[6],
            retries: v[7],
        }
    }

    fn to_array(self) -> [u64; 8] {
        [
            self.probes,
            self.scans,
            self.moves,
            self.chunks,
            self.busy_us,
            self.cache_hits,
            self.cache_misses,
            self.retries,
        ]
    }

    /// `self − earlier`, field by field.
    pub fn since(self, earlier: Snap) -> Snap {
        let (a, b) = (self.to_array(), earlier.to_array());
        Snap::from_array(std::array::from_fn(|i| a[i].saturating_sub(b[i])))
    }

    /// `self + other`, field by field.
    pub fn plus(self, other: Snap) -> Snap {
        let (a, b) = (self.to_array(), other.to_array());
        Snap::from_array(std::array::from_fn(|i| a[i] + b[i]))
    }
}

/// Handles on the program's counters, looked up once.
pub struct Counters {
    handles: Vec<Counter>,
}

impl Counters {
    pub fn new() -> Self {
        let reg = bsp_obs::global();
        Counters {
            handles: NAMES.iter().map(|n| reg.counter(n, &[])).collect(),
        }
    }

    pub fn read(&self) -> Snap {
        Snap::from_array(std::array::from_fn(|i| self.handles[i].get()))
    }
}

/// Writes the buffer as Chrome trace JSON to `path`, creating its directory.
pub fn export(buf: &TraceBuffer, path: &std::path::Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, buf.export_chrome())
}
