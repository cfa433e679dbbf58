//! Offline workloads: one Table 5 cell (`paper_cell`, embedding-bound)
//! and the 1-hour half of S-BR's Table 5 row (`table5_row`, search-bound).
//!
//! Untraced ops call the public entry points exactly as `table5.rs` does:
//! `EmAdapter::encode_split` and `run_encoded_resumable`. Traced ops run
//! the same work through [`Layers`], one span per layer call.

use crate::layers::{self, Layers, ProcSample};
use crate::report::Report;
use crate::stats::{median, tail_or_q3};
use crate::{setups, OpClock, Run};
use automl::{Deadline, ResumePolicy, TrialError};
use em_core::model::EngineKind;
use em_core::tokenizer::tokenize_pair;
use em_core::{run_encoded_resumable, Combiner, EmAdapter, PipelineConfig, TokenizerMode};
use em_data::{EmDataset, MagellanDataset, Split};
use embed::cache::EmbeddingCache;
use embed::families::{EmbedderFamily, PretrainConfig, PretrainedTransformer};
use ml::dataset::TabularData;
use ml::metrics::f1_score;
use std::time::Instant;

/// Result digest of each offline workload at `--seed 42`, full size
/// (see [`digest`]). Every op of such a run must reproduce it.
const SEED42_DIGESTS: [(&str, &str); 2] = [
    ("paper_cell", "3d75d83036ffdad2"),
    ("table5_row", "f9805200a6cd63f1"),
];

const MODE: TokenizerMode = TokenizerMode::Hybrid;
const COMBINER: Combiner = Combiner::Average;
const SPLITS: [Split; 3] = [Split::Train, Split::Validation, Split::Test];

/// What one search produced: the fields of a `PipelineResult` that the
/// traced path can rebuild from the `FitReport` and the test predictions.
struct Outcome {
    system: &'static str,
    val_f1: f64,
    test_f1: f64,
    hours: f64,
    models: usize,
    failed: usize,
}

/// FNV-1a digest of the outcomes of one op, bit-exact in every float.
fn digest(outcomes: &[Outcome]) -> String {
    let parts: Vec<String> = outcomes
        .iter()
        .flat_map(|o| {
            [
                o.system.to_owned(),
                o.val_f1.to_bits().to_string(),
                o.test_f1.to_bits().to_string(),
                o.hours.to_bits().to_string(),
                o.models.to_string(),
                o.failed.to_string(),
            ]
        })
        .collect();
    let refs: Vec<&str> = parts.iter().map(String::as_str).collect();
    obs::wal::fnv1a_hex(&refs)
}

/// The engines of a Table 5 row, in the paper's column order.
const ROW: [EngineKind; 3] = [
    EngineKind::AutoSklearn,
    EngineKind::AutoGluon,
    EngineKind::H2o,
];

/// The dataset and the pretrained Albert every op of a run shares.
struct Setup {
    dataset: EmDataset,
    albert: PretrainedTransformer,
}

/// S-BR at the run's size plus Albert pretrained on the generalist corpus
/// and a sample of S-BR text, as `table5.rs` pretrains with
/// `EMBED_BENCH_FAST=1`.
fn setup(layers: &mut Layers, run: &Run) -> Setup {
    let profile = MagellanDataset::SBR.profile();
    let dataset = layers.generate(&profile, run.seed, run.size.scale);
    let domain = layers.generate(
        &profile,
        run.seed ^ 0x7E47,
        (200.0 / profile.size as f64).min(1.0),
    );
    let text: Vec<String> = domain
        .pairs()
        .iter()
        .take(100)
        .flat_map(|p| [p.left.flatten(), p.right.flatten()])
        .collect();
    let albert = PretrainedTransformer::pretrain(
        EmbedderFamily::Albert,
        &text,
        PretrainConfig {
            seed: run.seed,
            steps: run.size.pretrain_steps,
            corpus_sentences: run.size.corpus_sentences,
            ..PretrainConfig::default()
        },
    );
    Setup { dataset, albert }
}

fn public_encode(adapter: &EmAdapter<'_>, d: &EmDataset) -> [TabularData; 3] {
    SPLITS.map(|s| adapter.encode_split(d, s))
}

fn traced_encode(layers: &mut Layers, s: &Setup) -> [TabularData; 3] {
    let cache = EmbeddingCache::new(&s.albert);
    let d = &s.dataset;
    SPLITS.map(|split| {
        let pairs = d.split(split);
        let x = layers.encode(&cache, pairs, d.schema(), MODE, COMBINER);
        TabularData::new(x, layers::labels(pairs))
    })
}

fn same_bits(a: &[TabularData; 3], b: &[TabularData; 3]) -> bool {
    a.iter().zip(b).all(|(a, b)| {
        a.x.shape() == b.x.shape()
            && a.x
                .as_slice()
                .iter()
                .zip(b.x.as_slice())
                .all(|(u, v)| u.to_bits() == v.to_bits())
            && a.y == b.y
    })
}

/// One search through the public pipeline entry point.
fn public_search(
    kind: EngineKind,
    seed: u64,
    data: &[TabularData; 3],
) -> Result<Outcome, TrialError> {
    let mut system = layers::engine(kind, seed);
    let r = run_encoded_resumable(
        system.as_mut(),
        &data[0],
        &data[1],
        &data[2],
        PipelineConfig {
            budget_hours: 1.0,
            seed,
            ..PipelineConfig::default()
        },
        "S-BR",
        &ResumePolicy::Fresh,
        Deadline::none(),
    )?;
    Ok(Outcome {
        system: r.system,
        val_f1: r.val_f1,
        test_f1: r.test_f1,
        hours: r.hours_used,
        models: r.models_evaluated,
        failed: r.models_failed,
    })
}

/// The same search split into scale → fit → predict layer calls.
fn traced_search(
    layers: &mut Layers,
    kind: EngineKind,
    seed: u64,
    data: &[TabularData; 3],
) -> Result<Outcome, TrialError> {
    let scaler = layers.scaler(&data[0].x);
    let [train, valid, test] = [0, 1, 2]
        .map(|i| TabularData::new(layers.transform(&scaler, &data[i].x), data[i].y.clone()));
    let mut system = layers::engine(kind, seed);
    let report = layers.fit(system.as_mut(), &train, &valid, 1.0)?;
    let t = system.threshold();
    let preds: Vec<bool> = layers
        .predict_proba(system.as_ref(), &test.x)
        .iter()
        .map(|&p| p >= t)
        .collect();
    Ok(Outcome {
        system: report.system,
        val_f1: report.val_f1,
        test_f1: f1_score(&preds, &test.labels_bool()),
        hours: report.hours_used,
        models: report.leaderboard.len(),
        failed: report.leaderboard.n_failed(),
    })
}

/// Per-op bookkeeping shared by both offline workloads.
struct Ops {
    clock: OpClock,
    untraced_s: Vec<f64>,
    traced_s: Vec<f64>,
    digests: Vec<String>,
}

impl Ops {
    /// Start the measurement window after one untimed warm-up op, whose
    /// digest joins the oracle but whose time counts nowhere: the first
    /// search and first-touch allocations are not part of an op's cost.
    fn new(run: &Run, report: &mut Report, warm_up: Result<String, TrialError>) -> Ops {
        if let Err(e) = &warm_up {
            eprintln!("embench: warm-up search failed: {e}");
        }
        report.oracle("warmup_ok", warm_up.is_ok());
        Ops {
            clock: OpClock::new(run.seconds, if run.trace { 2 } else { 1 }),
            untraced_s: Vec::new(),
            traced_s: Vec::new(),
            digests: warm_up.into_iter().collect(),
        }
    }

    fn finish_op(
        &mut self,
        report: &mut Report,
        traced: bool,
        secs: f64,
        outcome: Result<String, TrialError>,
    ) {
        report.attempted += 1;
        self.clock.push(secs);
        if traced {
            self.traced_s.push(secs);
        } else {
            self.untraced_s.push(secs);
        }
        match outcome {
            Ok(d) => self.digests.push(d),
            Err(e) => {
                eprintln!("embench: search failed: {e}");
                report.failed += 1;
            }
        }
    }

    /// Digest oracles, then the end-to-end metrics (untraced runs) or the
    /// per-layer ones (traced runs).
    fn report(
        &self,
        workload: &str,
        run: &Run,
        report: &mut Report,
        layers: &Layers,
        setup_s: &[f64],
        pairs_per_op: usize,
    ) {
        let first = self.digests.first().cloned().unwrap_or_default();
        report.oracle(
            "result_digest_stable",
            self.digests.iter().all(|d| *d == first),
        );
        if run.seed == 42 && run.size.full {
            let want = SEED42_DIGESTS.iter().find(|(w, _)| *w == workload);
            report.oracle(
                "result_digest_seed42",
                want.is_some_and(|(_, d)| *d == first),
            );
        }
        eprintln!("embench: {workload} result digest {first}");
        if run.trace {
            layers.fill(
                report,
                layers::overhead_pct(&self.untraced_s, &self.traced_s),
                (self.untraced_s.len(), self.traced_s.len()),
            );
            return;
        }
        let ms: Vec<f64> = self.untraced_s.iter().map(|s| s * 1e3).collect();
        for (i, m) in ms.iter().enumerate() {
            report.diag(format!("op{i}_ms"), *m, "ms");
        }
        report.set("setup_s", median(setup_s), setup_s.len());
        report.set("latency_p50_ms", median(&ms), ms.len());
        // a run holds a handful of ops, too few for any percentile with ten
        // samples beyond it: the upper quartile stands in for the tail
        let (q, tail) = tail_or_q3(&ms);
        report.diag("latency_tail_q", q, "quantile");
        report.set("latency_tail_ms", tail, ms.len());
        let total: f64 = self.untraced_s.iter().sum();
        report.set(
            "throughput_pairs_per_s",
            (pairs_per_op * ms.len()) as f64 / total,
            ms.len(),
        );
        report.set("peak_rss_mb", layers::peak_rss_mb(), 1);
    }
}

/// Sequences of the run's dataset and their framed lengths under Albert's
/// subword tokenizer, for the encoder and GEMM micro-measurements.
fn micro(report: &mut Report, s: &Setup) {
    let d = &s.dataset;
    let seqs: Vec<String> = d
        .pairs()
        .iter()
        .flat_map(|p| tokenize_pair(p, d.schema(), MODE))
        .collect();
    let framed: Vec<usize> = seqs
        .iter()
        .map(|q| (s.albert.tokenizer().encode(q).len() + 2).min(96))
        .collect();
    let sample = &seqs[..seqs.len().min(256)];
    layers::micro(report, &s.albert, sample, &framed);
}

/// One cell through the public entry points, on a fresh adapter and cache.
fn public_cell(s: &Setup, seed: u64) -> ([TabularData; 3], Result<Outcome, TrialError>) {
    let adapter = EmAdapter::new(MODE, &s.albert, COMBINER);
    let data = public_encode(&adapter, &s.dataset);
    let out = public_search(EngineKind::AutoSklearn, seed, &data);
    (data, out)
}

/// One row through the public entry point, on features encoded in set-up.
fn public_row(seed: u64, data: &[TabularData; 3]) -> Result<Vec<Outcome>, TrialError> {
    ROW.into_iter()
        .map(|kind| public_search(kind, seed, data))
        .collect()
}

/// `paper_cell`: a fresh adapter and cache per op, the three splits
/// encoded, one AutoSklearn search at 1 paper-hour, test predictions.
pub fn paper_cell(run: &Run) -> Report {
    let mut report = Report::new("paper_cell", run.seed, run.trace);
    let mut layers = Layers::new();
    let (s, setup_s) = setups(|| setup(&mut layers, run));
    let warm_up = public_cell(&s, run.seed).1.map(|o| digest(&[o]));
    let mut ops = Ops::new(run, &mut report, warm_up);
    let mut last_public: Option<[TabularData; 3]> = None;
    let mut encode_ok = true;
    let window = ProcSample::now();
    while ops.clock.more() {
        let id = ops.clock.count();
        let traced = run.trace && id % 2 == 1;
        let t = Instant::now();
        let (data, outcome) = if traced {
            layers.tracer.begin_op(id as u64);
            let data = traced_encode(&mut layers, &s);
            let out = traced_search(&mut layers, EngineKind::AutoSklearn, run.seed, &data);
            layers.tracer.end_op();
            (data, out)
        } else {
            public_cell(&s, run.seed)
        };
        let secs = t.elapsed().as_secs_f64();
        ops.finish_op(&mut report, traced, secs, outcome.map(|o| digest(&[o])));
        if !traced {
            last_public = Some(data);
        } else if let Some(public) = &last_public {
            encode_ok &= same_bits(public, &data);
        }
    }
    if run.trace {
        window.finish(&mut report, ops.clock.count());
        report.oracle("traced_encode_bit_identical", encode_ok);
        micro(&mut report, &s);
        layers.write_trace(run.out, "paper_cell");
    }
    ops.report(
        "paper_cell",
        run,
        &mut report,
        &layers,
        &setup_s,
        s.dataset.len(),
    );
    report
}

/// `table5_row`: S-BR encoded once during set-up (as `table5.rs` encodes
/// once per dataset); each op runs AutoSklearn, AutoGluon and H2OAutoML
/// at 1 paper-hour on those features, with test predictions.
pub fn table5_row(run: &Run) -> Report {
    let mut report = Report::new("table5_row", run.seed, run.trace);
    let mut layers = Layers::new();
    let ((s, data), setup_s) = setups(|| {
        let s = setup(&mut layers, run);
        let adapter = EmAdapter::new(MODE, &s.albert, COMBINER);
        let data = public_encode(&adapter, &s.dataset);
        (s, data)
    });
    if run.trace {
        // the encode layers run once per row, outside the ops
        let traced = traced_encode(&mut layers, &s);
        report.oracle("traced_encode_bit_identical", same_bits(&data, &traced));
    }
    let warm_up = public_row(run.seed, &data).map(|o| digest(&o));
    let mut ops = Ops::new(run, &mut report, warm_up);
    let window = ProcSample::now();
    while ops.clock.more() {
        let id = ops.clock.count();
        let traced = run.trace && id % 2 == 1;
        let t = Instant::now();
        let outcome = if traced {
            layers.tracer.begin_op(id as u64);
            let out = ROW
                .into_iter()
                .map(|kind| traced_search(&mut layers, kind, run.seed, &data))
                .collect();
            layers.tracer.end_op();
            out
        } else {
            public_row(run.seed, &data)
        };
        let secs = t.elapsed().as_secs_f64();
        ops.finish_op(&mut report, traced, secs, outcome.map(|o| digest(&o)));
    }
    if run.trace {
        window.finish(&mut report, ops.clock.count());
        micro(&mut report, &s);
        layers.write_trace(run.out, "table5_row");
    }
    ops.report(
        "table5_row",
        run,
        &mut report,
        &layers,
        &setup_s,
        s.dataset.len(),
    );
    report
}
