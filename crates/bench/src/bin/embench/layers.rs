//! The traced path: the pipeline split into one public call per layer,
//! each wrapped in a span, plus the per-layer micro-measurements and the
//! process counters. The split-up calls mirror `EmAdapter::encode_split`,
//! `run_encoded_resumable` and `ModelHost::match_proba` step for step, and
//! the workloads check that they produce bit-identical outputs.

use crate::report::Report;
use crate::stats::median;
use crate::trace::Tracer;
use automl::{AutoMlSystem, Budget, Deadline, FitReport, ResumePolicy, TrialError};
use em_core::model::EngineKind;
use em_core::tokenizer::tokenize_pair;
use em_core::{Combiner, TokenizerMode};
use em_data::{DatasetProfile, EmDataset, RecordPair, Schema};
use embed::cache::EmbeddingCache;
use embed::SequenceEmbedder;
use linalg::Matrix;
use ml::dataset::TabularData;
use ml::preprocess::StandardScaler;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// One `fit_resumable` call.
struct Fit {
    system: &'static str,
    ms: f64,
    trials: usize,
    failed: usize,
}

/// Layer calls with their spans and the work they did.
pub struct Layers {
    /// The span recorder.
    pub tracer: Tracer,
    generate_ms: Vec<f64>,
    pairs: u64,
    seqs: u64,
    words: u64,
    hits: u64,
    misses: u64,
    rows_scaled: u64,
    rows_predicted: u64,
    fits: Vec<Fit>,
}

impl Layers {
    /// No work recorded yet.
    pub fn new() -> Layers {
        Layers {
            tracer: Tracer::new(),
            generate_ms: Vec::new(),
            pairs: 0,
            seqs: 0,
            words: 0,
            hits: 0,
            misses: 0,
            rows_scaled: 0,
            rows_predicted: 0,
            fits: Vec::new(),
        }
    }

    /// Keep the fits and generations `setup` recorded while building a
    /// model, but not its encode work, so the encode counters describe
    /// only the ops.
    pub fn absorb_setup(&mut self, setup: Layers) {
        self.fits.extend(setup.fits);
        self.generate_ms.extend(setup.generate_ms);
    }

    /// `em-data`: generate a dataset.
    pub fn generate(&mut self, profile: &DatasetProfile, seed: u64, scale: f64) -> EmDataset {
        let t = Instant::now();
        let d = self
            .tracer
            .span("data", || profile.generate_scaled(seed, scale));
        self.generate_ms.push(t.elapsed().as_secs_f64() * 1e3);
        d
    }

    /// `em-core` tokenizer → `embed` cache → `em-core` combiner: the
    /// feature matrix `EmAdapter::encode_split` / `encode_pairs` produce.
    pub fn encode(
        &mut self,
        cache: &EmbeddingCache<'_>,
        pairs: &[RecordPair],
        schema: &Schema,
        mode: TokenizerMode,
        combiner: Combiner,
    ) -> Matrix {
        let (sequences, ranges) = self.tracer.span("tokenize", || {
            let mut sequences: Vec<String> = Vec::new();
            let mut ranges = Vec::with_capacity(pairs.len());
            for pair in pairs {
                let start = sequences.len();
                sequences.extend(tokenize_pair(pair, schema, mode));
                ranges.push(start..sequences.len());
            }
            (sequences, ranges)
        });
        self.pairs += pairs.len() as u64;
        self.seqs += sequences.len() as u64;
        self.words += sequences
            .iter()
            .map(|s| s.split_whitespace().count() as u64)
            .sum::<u64>();
        let (h0, m0) = cache.stats();
        let embeddings = self.tracer.span("embed", || cache.embed_batch(&sequences));
        let (h1, m1) = cache.stats();
        self.hits += (h1 - h0) as u64;
        self.misses += (m1 - m0) as u64;
        self.tracer.span("combine", || {
            let rows: Vec<Vec<f32>> = ranges
                .into_iter()
                .map(|r| combiner.combine(&embeddings[r]))
                .collect();
            Matrix::from_rows(&rows)
        })
    }

    /// `ml::preprocess`: fit the scaler on training features.
    pub fn scaler(&mut self, x: &Matrix) -> StandardScaler {
        self.tracer.span("scale", || StandardScaler::fit(x))
    }

    /// `ml::preprocess`: scale features.
    pub fn transform(&mut self, scaler: &StandardScaler, x: &Matrix) -> Matrix {
        self.rows_scaled += x.rows() as u64;
        self.tracer.span("scale", || scaler.transform(x))
    }

    /// `automl`: one fresh search under `hours` paper-hours, no journal.
    pub fn fit(
        &mut self,
        system: &mut dyn AutoMlSystem,
        train: &TabularData,
        valid: &TabularData,
        hours: f64,
    ) -> Result<FitReport, TrialError> {
        let mut budget = Budget::hours(hours)?;
        let t = Instant::now();
        let report = self.tracer.span("fit", || {
            system.fit_resumable(
                train,
                valid,
                &mut budget,
                &ResumePolicy::Fresh,
                Deadline::none(),
            )
        })?;
        self.fits.push(Fit {
            system: report.system,
            ms: t.elapsed().as_secs_f64() * 1e3,
            trials: report.leaderboard.len(),
            failed: report.leaderboard.n_failed(),
        });
        Ok(report)
    }

    /// `automl`: match probabilities of a fitted system.
    pub fn predict_proba(&mut self, system: &dyn AutoMlSystem, x: &Matrix) -> Vec<f32> {
        self.rows_predicted += x.rows() as u64;
        self.tracer.span("predict", || system.predict_proba(x))
    }

    /// Write the recorded spans to `<out>/<workload>.trace.json`.
    pub fn write_trace(&self, out: &Path, workload: &str) {
        let path = out.join(format!("{workload}.trace.json"));
        if let Err(e) = std::fs::create_dir_all(out).and_then(|_| self.tracer.write_chrome(&path)) {
            eprintln!("embench: cannot write {}: {e}", path.display());
        }
    }

    /// Fill the span-derived per-layer metrics. `overhead_pct` compares
    /// traced with untraced ops of the same run.
    pub fn fill(&self, report: &mut Report, overhead_pct: f64, ops: (usize, usize)) {
        let us = |layer: &str| self.tracer.total(layer).0.as_secs_f64() * 1e6;
        let per = |a: f64, b: u64| a / (b.max(1) as f64);
        let n_gen = self.generate_ms.len();
        report.set("data.generate_ms", median(&self.generate_ms), n_gen);
        let seqs = self.seqs as usize;
        report.set("tokenize.us_per_seq", per(us("tokenize"), self.seqs), seqs);
        report.set(
            "tokenize.seqs_per_pair",
            per(self.seqs as f64, self.pairs),
            self.pairs as usize,
        );
        report.set(
            "tokenize.words_per_seq",
            per(self.words as f64, self.seqs),
            seqs,
        );
        report.set("embed.us_per_seq", per(us("embed"), self.seqs), seqs);
        report.set(
            "embed.cache_hit_ratio",
            per(self.hits as f64, self.hits + self.misses),
            (self.hits + self.misses) as usize,
        );
        report.set(
            "combine.us_per_pair",
            per(us("combine"), self.pairs),
            self.pairs as usize,
        );
        report.set(
            "scale.us_per_row",
            per(us("scale"), self.rows_scaled),
            self.rows_scaled as usize,
        );
        let fit_ms: Vec<f64> = self.fits.iter().map(|f| f.ms).collect();
        let trials: usize = self.fits.iter().map(|f| f.trials).sum();
        let n_fits = self.fits.len();
        report.set("fit.ms", median(&fit_ms), n_fits);
        report.set("fit.trials", per(trials as f64, n_fits as u64), n_fits);
        report.set(
            "fit.failed_trials",
            self.fits.iter().map(|f| f.failed).sum::<usize>() as f64,
            n_fits,
        );
        report.set(
            "fit.ms_per_trial",
            per(fit_ms.iter().sum(), trials as u64),
            trials,
        );
        let mut systems: Vec<&str> = self.fits.iter().map(|f| f.system).collect();
        systems.sort_unstable();
        systems.dedup();
        for system in systems {
            let (ms, n) = self
                .fits
                .iter()
                .filter(|f| f.system == system)
                .fold((0.0, 0), |(ms, n), f| (ms + f.ms, n + f.trials));
            report.diag(
                format!("fit.ms_per_trial.{system}"),
                per(ms, n as u64),
                "ms",
            );
        }
        report.set(
            "predict.us_per_row",
            per(us("predict"), self.rows_predicted),
            self.rows_predicted as usize,
        );
        report.set("trace.coverage", self.tracer.coverage(), ops.1);
        report.set("trace.overhead_pct", overhead_pct, ops.0 + ops.1);
    }
}

/// A fresh engine of `kind`, as `ModelSpec::train` builds it.
pub fn engine(kind: EngineKind, seed: u64) -> Box<dyn AutoMlSystem> {
    match kind {
        EngineKind::AutoSklearn => Box::new(automl::sklearn_like::AutoSklearnStyle::new(seed)),
        EngineKind::AutoGluon => Box::new(automl::gluon_like::AutoGluonStyle::new(seed)),
        EngineKind::H2o => Box::new(automl::h2o_like::H2oStyle::new(seed)),
        EngineKind::Halving => Box::new(automl::halving::SuccessiveHalving::new(seed)),
    }
}

/// The 0/1 training targets of `pairs`, as `EmAdapter::encode_split` sets them.
pub fn labels(pairs: &[RecordPair]) -> Vec<f32> {
    pairs
        .iter()
        .map(|p| if p.label { 1.0 } else { 0.0 })
        .collect()
}

/// `(traced − untraced) ÷ untraced` of the median op times, in percent.
pub fn overhead_pct(untraced: &[f64], traced: &[f64]) -> f64 {
    (median(traced) / median(untraced) - 1.0) * 100.0
}

/// The frozen encoder alone: single-thread `embed` (no cache) over a fixed
/// sample of the workload's sequences, in µs per sequence.
pub fn forward_us_per_seq(embedder: &dyn SequenceEmbedder, sample: &[String]) -> f64 {
    let t = Instant::now();
    for s in sample {
        black_box(embedder.embed(black_box(s)));
    }
    t.elapsed().as_secs_f64() * 1e6 / sample.len().max(1) as f64
}

/// `linalg::Matrix::matmul` throughput on an `m×k · k×n` product, in
/// GFLOP/s: median of 9 samples of at least 2 ms each.
pub fn gemm_gflops(m: usize, k: usize, n: usize) -> f64 {
    let mut rng = linalg::Rng::new(0x6E44);
    let a = Matrix::randn(m, k, 1.0, &mut rng);
    let b = Matrix::randn(k, n, 1.0, &mut rng);
    let mut calls = 1usize;
    loop {
        let t = Instant::now();
        for _ in 0..calls {
            black_box(black_box(&a).matmul(black_box(&b)));
        }
        if t.elapsed().as_secs_f64() >= 2e-3 {
            break;
        }
        calls *= 2;
    }
    let samples: Vec<f64> = (0..9)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..calls {
                black_box(black_box(&a).matmul(black_box(&b)));
            }
            t.elapsed().as_secs_f64() / calls as f64
        })
        .collect();
    2.0 * (m * k * n) as f64 / median(&samples) / 1e9
}

/// Fill `forward.*` and `gemm.*`: the encoder on `sample` and the GEMM
/// shapes of a 64-wide encoder at the median framed length `framed`.
pub fn micro(
    report: &mut Report,
    embedder: &dyn SequenceEmbedder,
    sample: &[String],
    framed: &[usize],
) {
    report.set(
        "forward.us_per_seq",
        forward_us_per_seq(embedder, sample),
        sample.len(),
    );
    let lens: Vec<f64> = framed.iter().map(|&l| l as f64).collect();
    let l = median(&lens).round().max(1.0) as usize;
    report.set("gemm.gflops_qkv_seq", gemm_gflops(l, 64, 64), 9);
    report.set("gemm.gflops_ffn_seq", gemm_gflops(l, 64, 128), 9);
    report.set("gemm.gflops_qkv_stacked", gemm_gflops(32 * l, 64, 64), 9);
    report.diag("gemm.framed_len", l as f64, "count");
}

/// CPU time and `par` scope count at one instant.
pub struct ProcSample {
    at: Instant,
    user_s: f64,
    sys_s: f64,
    scopes: u64,
}

extern "C" {
    fn sysconf(name: i32) -> i64;
}

/// `_SC_CLK_TCK` on Linux.
const SC_CLK_TCK: i32 = 2;

impl ProcSample {
    /// Read `/proc/self/stat` and the `par.scopes` counter now.
    pub fn now() -> ProcSample {
        // SAFETY: sysconf takes an integer and has no memory preconditions.
        let ticks = unsafe { sysconf(SC_CLK_TCK) }.max(1) as f64;
        let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
        // fields after the parenthesised command name start at field 3
        let fields: Vec<&str> = stat
            .rsplit_once(')')
            .map_or("", |(_, rest)| rest)
            .split_whitespace()
            .collect();
        let field = |n: usize| {
            fields
                .get(n - 3)
                .and_then(|v| v.parse::<f64>().ok())
                .unwrap_or(0.0)
        };
        ProcSample {
            at: Instant::now(),
            user_s: field(14) / ticks,
            sys_s: field(15) / ticks,
            scopes: obs::counter("par.scopes").get(),
        }
    }

    /// Fill `proc.*` and `par.scopes_per_op` for the window since `self`.
    pub fn finish(&self, report: &mut Report, ops: usize) {
        let end = ProcSample::now();
        let user = end.user_s - self.user_s;
        let sys = end.sys_s - self.sys_s;
        let wall = (end.at - self.at).as_secs_f64();
        report.set("proc.cpu_user_s", user, 1);
        report.set("proc.cpu_sys_s", sys, 1);
        report.set("proc.sys_share", sys / (user + sys).max(1e-9), 1);
        report.set("proc.cpu_util", (user + sys) / wall.max(1e-9), 1);
        report.set(
            "par.scopes_per_op",
            (end.scopes - self.scopes) as f64 / ops.max(1) as f64,
            ops,
        );
    }
}

/// Peak resident set size of this process so far (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("VmHWM:")?
                    .trim()
                    .trim_end_matches("kB")
                    .trim()
                    .parse::<f64>()
                    .ok()
            })
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
