//! Timed set-ups: a run sets its workload up in short bursts spread over
//! the run and reports the fastest set-up.
//!
//! A burst runs once before the first pass and again, when one is due,
//! after a solve (library workloads) or a pass (`serve-mix`). Set-up is
//! deterministic work, and timing noise on a shared host only ever adds
//! time: the host slows for seconds to minutes at a time, so the median
//! set-up moves 25-35% between runs while the fastest of a run's hundreds
//! of set-ups, spread over the whole run, moves a few percent.

use crate::report::Report;
use crate::stats::median;
use std::time::{Duration, Instant};

/// Timed set-ups per burst: at least `BURST_MIN`, then until
/// `BURST_BUDGET` has passed, at most `BURST_MAX`.
const BURST_MIN: usize = 2;
const BURST_BUDGET: Duration = Duration::from_millis(2);
const BURST_MAX: usize = 10;
/// A burst is due once the time since the last one is this many times
/// that burst's length, so bursts take at most a twentieth of a run.
const BURST_SPACING: u32 = 20;

/// The times of every set-up of a run.
#[derive(Default)]
pub(crate) struct Setups {
    total_s: Vec<f64>,
    gen_ms: Vec<f64>,
    /// When the last burst ended, and how long it took.
    last: Option<(Instant, Duration)>,
}

impl Setups {
    /// One burst: an untimed set-up that warms the caches after whatever
    /// ran before, then the timed ones, each handed to `discard` once its
    /// time is taken. `prepare` returns a set-up and the time it spent
    /// generating instances. Returns the untimed set-up.
    pub(crate) fn burst<P>(
        &mut self,
        prepare: impl Fn() -> Result<(P, Duration), String>,
        mut discard: impl FnMut(P),
    ) -> Result<P, String> {
        let began = Instant::now();
        let (first, _) = prepare()?;
        let since = Instant::now();
        let mut done = 0;
        while done < BURST_MIN || (done < BURST_MAX && since.elapsed() < BURST_BUDGET) {
            let start = Instant::now();
            let (p, gen) = prepare()?;
            self.total_s.push(start.elapsed().as_secs_f64());
            self.gen_ms.push(gen.as_secs_f64() * 1e3);
            discard(p);
            done += 1;
        }
        self.last = Some((Instant::now(), began.elapsed()));
        Ok(first)
    }

    /// Whether the next burst is due.
    pub(crate) fn due(&self) -> bool {
        self.last
            .is_none_or(|(end, took)| end.elapsed() >= took * BURST_SPACING)
    }

    /// Reports `setup_s` (the fastest set-up; the median is printed beside
    /// it) and `instance.gen_ms`.
    pub(crate) fn report(&self, report: &mut Report) {
        report.set_noted(
            "setup_s",
            self.total_s.iter().copied().fold(f64::INFINITY, f64::min),
            self.total_s.len(),
            format!("fastest set-up; median {:.6} s", median(&self.total_s)),
        );
        report.set("instance.gen_ms", median(&self.gen_ms), self.gen_ms.len());
    }
}
