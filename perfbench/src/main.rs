//! `perfbench`: the end-to-end and per-layer benchmark of the scheduling
//! library and the scheduling service.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]
//! perfbench screen --seed <n>
//! ```
//!
//! A run sets its workload up several times, then measures passes over it
//! for `--seconds`, checks every result, prints every metric with its
//! unit and sample count, and ends with one JSON result line. `--trace 1`
//! interleaves traced passes with untraced ones, reports the per-layer
//! metrics and writes a Chrome trace to the output directory. `screen`
//! re-solves every ILP instance of `small-ilp` under a 20 s ILP limit and
//! fails if any cost differs from the default limit's.

mod offline;
mod report;
mod serve_mix;
mod setup;
mod stats;
mod tracing;

use report::{host_record, Report, END_TO_END, PER_LAYER};
use std::path::PathBuf;
use std::time::Duration;

/// Wall-clock cap on any one solve or request.
const CAP: Duration = Duration::from_secs(60);

const WORKLOADS: [&str; 4] = ["offline-large", "offline-numa", "small-ilp", "serve-mix"];

struct Args {
    screen: bool,
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    out_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        screen: false,
        workload: String::new(),
        seed: 42,
        seconds: 10,
        trace: false,
        out_dir: PathBuf::from(".bench_build/perfbench"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "screen" {
            args.screen = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = |v: &str| v.parse::<u64>().map_err(|e| format!("{flag} {v:?}: {e}"));
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = num(&value)?,
            "--seconds" => args.seconds = num(&value)?,
            "--trace" => args.trace = num(&value)? != 0,
            "--out-dir" => args.out_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    if !args.screen && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload {:?} is not one of {WORKLOADS:?}",
            args.workload
        ));
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if args.screen {
        std::process::exit(if offline::screen(args.seed, CAP) {
            0
        } else {
            1
        });
    }
    println!(
        "{}",
        host_record(&args.workload, args.seed, args.seconds, args.trace)
    );
    let mut report = Report::default();
    let trace_path = args
        .out_dir
        .join(format!("trace-{}-{}.json", args.workload, args.seed));
    let seconds = args.seconds as f64;
    match offline::workload(&args.workload, args.seed) {
        Some(w) => offline::run(&w, seconds, args.trace, CAP, &trace_path, &mut report),
        None => serve_mix::run(
            args.seed,
            seconds,
            args.trace,
            CAP,
            &trace_path,
            &mut report,
        ),
    }
    report.set(
        "failed_frac",
        report.failed as f64 / report.attempted.max(1) as f64,
        report.attempted as usize,
    );
    print!("{}", report.render());
    if args.trace {
        println!("# trace: {}", trace_path.display());
    }
    println!(
        "{}",
        report.result_line(if args.trace { PER_LAYER } else { END_TO_END })
    );
    // Abandoned over-cap solves may still be running: end them with us.
    std::process::exit(0);
}
