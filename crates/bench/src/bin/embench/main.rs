//! `embench`: the end-to-end and per-layer benchmark of the AutoML-for-EM
//! stack. One command runs one workload, prints every metric as
//! `name value unit`, checks that the outputs are correct and ends with a
//! one-line JSON result:
//!
//! ```text
//! embench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
//! embench --check [--out <dir>]
//! ```
//!
//! With `--trace 0` the run measures the end-to-end metrics through the
//! public entry points users call; with `--trace 1` it runs the same work
//! split into one call per layer, each wrapped in a span, and reports the
//! per-layer metrics. `--check` runs every workload at a tiny size in both
//! modes and fails unless every declared metric comes out finite and no
//! op fails. The workloads, metrics and how to compare two commits are in
//! `README.md` next to this package.

mod http;
mod layers;
mod offline;
mod report;
mod serving;
mod stats;
mod trace;

use report::Report;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The workloads, in the order `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 4] = ["paper_cell", "table5_row", "serve_match", "serve_bulk_cold"];

/// Set-ups per run: at least `MIN_SETUPS`, more while they have taken less
/// than `SETUP_SECONDS` in all, up to `MAX_SETUPS`; `setup_s` is their
/// median. Cheap set-ups (tens of ms when serving) are noisy one by one.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 15;
const SETUP_SECONDS: f64 = 4.0;

/// How big the workloads are.
#[derive(Clone, Copy)]
pub struct Size {
    /// True for the benchmark proper, false for the `--check` smoke size.
    pub full: bool,
    /// Fraction of S-BR's 450 pairs the offline workloads use.
    pub scale: f64,
    /// Albert pretraining steps and corpus sentences.
    pub pretrain_steps: usize,
    pub corpus_sentences: usize,
    /// `/match/batch` requests per `serve_bulk_cold` rep.
    pub bulk_requests: usize,
}

const FULL: Size = Size {
    full: true,
    scale: 1.0,
    pretrain_steps: 40,
    corpus_sentences: 300,
    bulk_requests: 1000,
};

const TINY: Size = Size {
    full: false,
    scale: 0.1,
    pretrain_steps: 4,
    corpus_sentences: 60,
    bulk_requests: 40,
};

/// One workload run's settings.
pub struct Run<'a> {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub size: Size,
    pub out: &'a Path,
}

/// Decides whether another op fits in the measurement window: it starts
/// one only if the median op so far would still end inside `--seconds`.
pub struct OpClock {
    start: Instant,
    seconds: f64,
    min_ops: usize,
    times: Vec<f64>,
}

impl OpClock {
    /// A window of `seconds` that runs at least `min_ops` ops.
    pub fn new(seconds: f64, min_ops: usize) -> OpClock {
        OpClock {
            start: Instant::now(),
            seconds,
            min_ops,
            times: Vec::new(),
        }
    }

    /// Whether to start another op.
    pub fn more(&self) -> bool {
        self.times.len() < self.min_ops
            || self.start.elapsed().as_secs_f64() + stats::median(&self.times) <= self.seconds
    }

    /// Record one finished op's wall time in seconds.
    pub fn push(&mut self, secs: f64) {
        self.times.push(secs);
    }

    /// Ops finished so far.
    pub fn count(&self) -> usize {
        self.times.len()
    }
}

/// Set up repeatedly, as many times as [`MIN_SETUPS`] describes; returns
/// the last set-up and every set-up time in seconds.
pub fn setups<T>(mut once: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut times: Vec<f64> = Vec::new();
    let mut last = None;
    while times.len() < MIN_SETUPS
        || (times.len() < MAX_SETUPS && times.iter().sum::<f64>() < SETUP_SECONDS)
    {
        drop(last.take());
        let t = Instant::now();
        last = Some(once());
        times.push(t.elapsed().as_secs_f64());
    }
    (last.expect("MIN_SETUPS > 0"), times)
}

fn run_workload(name: &str, run: &Run) -> Option<Report> {
    Some(match name {
        "paper_cell" => offline::paper_cell(run),
        "table5_row" => offline::table5_row(run),
        "serve_match" => serving::serve_match(run),
        "serve_bulk_cold" => serving::serve_bulk_cold(run),
        _ => return None,
    })
}

fn usage(msg: &str) -> ! {
    eprintln!("embench: {msg}");
    eprintln!(
        "usage: embench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]\n       embench --check [--out <dir>]",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn main() {
    let mut args = std::env::args().skip(1).peekable();
    let (mut workload, mut seed, mut seconds) = (None, None, None);
    let mut trace = false;
    let mut check = false;
    let mut out = PathBuf::from(".embench");
    while let Some(flag) = args.next() {
        let mut value = || {
            args.next()
                .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value()),
            "--seed" => {
                seed = Some(
                    value()
                        .parse::<u64>()
                        .unwrap_or_else(|_| usage("--seed needs an integer")),
                )
            }
            "--seconds" => {
                seconds = Some(
                    value()
                        .parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s > 0.0)
                        .unwrap_or_else(|| usage("--seconds needs a positive number")),
                )
            }
            "--out" => out = PathBuf::from(value()),
            // `--trace 0|1`, or a bare `--trace`
            "--trace" => {
                let explicit = args.next_if(|v| v == "0" || v == "1");
                trace = explicit.is_none_or(|v| v == "1");
            }
            "--check" => check = true,
            other => usage(&format!("unknown flag {other}")),
        }
    }
    if check {
        std::process::exit(check_all(&out.join("check")));
    }
    let workload = workload.unwrap_or_else(|| usage("--workload is required"));
    let run = Run {
        seed: seed.unwrap_or_else(|| usage("--seed is required")),
        seconds: seconds.unwrap_or_else(|| usage("--seconds is required")),
        trace,
        size: FULL,
        out: &out,
    };
    let Some(report) = run_workload(&workload, &run) else {
        usage(&format!("unknown workload {workload}"));
    };
    if let Err(e) = report.write(&out) {
        eprintln!(
            "embench: cannot write the report under {}: {e}",
            out.display()
        );
    }
    report.print();
}

/// Every workload at the tiny size, untraced then traced; returns the
/// process exit code.
fn check_all(out: &Path) -> i32 {
    let t = Instant::now();
    let mut bad = Vec::new();
    for name in WORKLOADS {
        for trace in [false, true] {
            let run = Run {
                seed: 7,
                seconds: 1.0,
                trace,
                size: TINY,
                out,
            };
            let report = run_workload(name, &run).expect("known workload");
            let missing = report.missing();
            if !missing.is_empty() || !report.correct() {
                bad.push(format!(
                    "{name} trace={trace}: correct={} failed={} missing={missing:?}",
                    report.correct(),
                    report.failed
                ));
            }
            report.print();
        }
    }
    eprintln!("embench --check: {:.1} s", t.elapsed().as_secs_f64());
    if bad.is_empty() {
        eprintln!("embench --check OK");
        0
    } else {
        for b in &bad {
            eprintln!("embench --check FAILED: {b}");
        }
        1
    }
}
