//! Serving workloads over real sockets, with `em_serve::serve` running in
//! this process on `ModelSpec::fixture()` and the default `ServeConfig`
//! (plus any `AUTOML_EM_SERVE_*` overrides, recorded in the provenance).
//!
//! * `serve_match`: open-loop Poisson single-pair `POST /match` at a rate
//!   ladder, pairs drawn from the fixture dataset, so every cache lookup
//!   hits; then a closed loop for capacity.
//! * `serve_bulk_cold`: closed-loop `POST /match/batch` with 32 pairs the
//!   model has never seen, each rep on a freshly trained host whose cache
//!   is cold.
//!
//! Every served probability is checked bit for bit against offline
//! `ModelHost::match_proba`. Traced runs send no HTTP traffic: they
//! alternate in-process `match_proba` calls with the same call split into
//! its layers (see [`Layers`]).

use crate::http::{self, Conn};
use crate::layers::{self, Layers, ProcSample};
use crate::report::Report;
use crate::stats::{median, tail_or_q3, tail_q};
use crate::{setups, OpClock, Run};
use automl::AutoMlSystem;
use em_core::model::{EmbedderSpec, ModelHost, ModelSpec};
use em_core::tokenizer::tokenize_pair;
use em_data::{EmDataset, Entity, MagellanDataset, RecordPair, Schema, Split};
use em_serve::{ServeConfig, ServerHandle};
use embed::cache::EmbeddingCache;
use embed::HashingEmbedder;
use linalg::stats::quantile;
use linalg::Rng;
use ml::dataset::TabularData;
use ml::preprocess::StandardScaler;
use obs::json::{self, Json};
use obs::metrics::MetricSnapshot;
use std::collections::VecDeque;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Load-generator threads, one connection each: the `nproc` of the host
/// the benchmark was sized on.
const CONNS: usize = 2;
/// A rate passes when the p99 over all its scheduled requests is at most
/// this; dropped, failed and unanswered requests count as over it.
const LIMIT_MS: f64 = 10.0;
/// Open-loop rates in req/s. The ladder stops at the first failing rate.
const LADDER: [f64; 5] = [250.0, 500.0, 1000.0, 2000.0, 4000.0];
/// Shares of `--seconds` for the first rate (whose p50 and tail are the
/// end-to-end latencies), for each later rate and for the closed loop.
const BASE_SHARE: f64 = 0.5;
const RUNG_SHARE: f64 = 0.075;
const CLOSED_SHARE: f64 = 0.2;
/// The generator drops a request this late, or when its connection
/// already has this many outstanding.
const MAX_LATE: Duration = Duration::from_secs(1);
const MAX_OUTSTANDING: usize = 256;
/// How long after a step's last send its answers are waited for.
const GRACE: Duration = Duration::from_secs(2);
/// Pairs per `/match/batch` request.
const BULK_BATCH: usize = 32;

fn serve_config() -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".into(),
        ..ServeConfig::from_env()
    }
}

fn train_fixture() -> ModelHost {
    ModelSpec::fixture()
        .train()
        .unwrap_or_else(|e| panic!("fixture model failed to train: {e}"))
}

fn entity_json(schema: &Schema, entity: &Entity) -> String {
    let mut o = json::Obj::new();
    for (i, attr) in schema.attributes().iter().enumerate() {
        if let Some(v) = entity.value(i) {
            o.str(&attr.name, v);
        }
    }
    o.finish()
}

fn pair_json(schema: &Schema, pair: &RecordPair) -> String {
    let mut o = json::Obj::new();
    o.raw("left", &entity_json(schema, &pair.left))
        .raw("right", &entity_json(schema, &pair.right));
    o.finish()
}

/// One request and the probability bits offline `match_proba` gives it.
struct Plan {
    bytes: Vec<u8>,
    want: Vec<u32>,
}

fn bits(probs: &[f32]) -> Vec<u32> {
    probs.iter().map(|p| p.to_bits()).collect()
}

/// True when a 200 body carries exactly the expected probabilities.
fn served_ok(body: &str, want: &[u32]) -> bool {
    let Ok(v) = json::parse(body) else {
        return false;
    };
    let p = |o: &Json| {
        o.get("p_match")
            .and_then(Json::as_f64)
            .map(|p| (p as f32).to_bits())
    };
    let got: Vec<Option<u32>> = match v.get("results") {
        Some(Json::Arr(items)) => items.iter().map(p).collect(),
        _ => vec![p(&v)],
    };
    got.len() == want.len() && got.iter().zip(want).all(|(g, w)| *g == Some(*w))
}

/// What one load phase observed.
#[derive(Default)]
struct Load {
    latencies_ms: Vec<f64>,
    late_ms: Vec<f64>,
    scheduled: usize,
    dropped: usize,
    failed: usize,
    secs: f64,
}

impl Load {
    fn merge(parts: Vec<Load>, secs: f64) -> Load {
        let mut all = Load {
            secs,
            ..Load::default()
        };
        for p in parts {
            all.latencies_ms.extend(p.latencies_ms);
            all.late_ms.extend(p.late_ms);
            all.scheduled += p.scheduled;
            all.dropped += p.dropped;
            all.failed += p.failed;
        }
        all
    }

    /// p99 over every scheduled request, over-limit ones as +∞.
    fn p99_all(&self) -> f64 {
        let mut all = self.latencies_ms.clone();
        all.extend(std::iter::repeat_n(
            f64::INFINITY,
            self.dropped + self.failed,
        ));
        if all.is_empty() {
            f64::INFINITY
        } else {
            quantile(&all, 0.99)
        }
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// One connection's share of an open-loop step: send each request at its
/// scheduled time whatever the replies, pipelining on the connection.
fn open_conn(addr: SocketAddr, start: Instant, sched: &[(f64, usize)], plans: &[Plan]) -> Load {
    let mut load = Load {
        scheduled: sched.len(),
        ..Load::default()
    };
    let Ok(mut conn) = Conn::connect(addr) else {
        load.failed = sched.len();
        return load;
    };
    let due = |i: usize| start + Duration::from_secs_f64(sched[i].0);
    let grace_end = start + Duration::from_secs_f64(sched.last().map_or(0.0, |s| s.0)) + GRACE;
    let mut outstanding: VecDeque<(Instant, usize)> = VecDeque::new();
    let mut next = 0;
    loop {
        while next < sched.len() && due(next) <= Instant::now() {
            let (d, idx) = (due(next), sched[next].1);
            next += 1;
            let now = Instant::now();
            if now - d > MAX_LATE || outstanding.len() >= MAX_OUTSTANDING {
                load.dropped += 1;
                continue;
            }
            load.late_ms.push(ms(now - d));
            if conn.send(&plans[idx].bytes).is_err() {
                load.failed += 1 + outstanding.len() + (sched.len() - next);
                return load;
            }
            outstanding.push_back((d, idx));
        }
        if next == sched.len() && outstanding.is_empty() {
            return load;
        }
        let now = Instant::now();
        if next == sched.len() && now >= grace_end {
            load.failed += outstanding.len();
            return load;
        }
        let wake = if next < sched.len() {
            due(next)
        } else {
            grace_end
        };
        match conn.poll(wake.saturating_duration_since(now)) {
            Ok(responses) => {
                let t = Instant::now();
                for r in responses {
                    match outstanding.pop_front() {
                        Some((d, idx))
                            if r.status == 200 && served_ok(&r.body, &plans[idx].want) =>
                        {
                            load.latencies_ms.push(ms(t - d));
                        }
                        _ => load.failed += 1,
                    }
                }
            }
            Err(_) => {
                load.failed += outstanding.len() + (sched.len() - next);
                return load;
            }
        }
    }
}

/// Poisson arrivals at `rate` req/s for `n` requests over `CONNS`
/// connections, each carrying a uniformly drawn plan.
fn open_loop(addr: SocketAddr, plans: &[Plan], rate: f64, n: usize, rng: &mut Rng) -> Load {
    let mut t = 0.0;
    let schedule: Vec<(f64, usize)> = (0..n)
        .map(|_| {
            t += -(1.0 - rng.f64()).ln() / rate;
            (t, rng.below(plans.len()))
        })
        .collect();
    let start = Instant::now() + Duration::from_millis(5);
    let parts = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CONNS)
            .map(|c| {
                let sched: Vec<(f64, usize)> =
                    schedule.iter().skip(c).step_by(CONNS).copied().collect();
                s.spawn(move || open_conn(addr, start, &sched, plans))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect()
    });
    Load::merge(parts, t)
}

/// Closed loop: each connection sends its next request when the previous
/// answer arrives. Connection `c` takes `order[c], order[c + CONNS], …`,
/// cycling until `until` when given, else once through.
fn closed_loop(addr: SocketAddr, plans: &[Plan], order: &[usize], until: Option<Instant>) -> Load {
    let t0 = Instant::now();
    let parts = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CONNS)
            .map(|c| {
                s.spawn(move || {
                    let mut load = Load::default();
                    let Ok(mut conn) = Conn::connect(addr) else {
                        load.failed = 1;
                        load.scheduled = 1;
                        return load;
                    };
                    let mut k = c;
                    loop {
                        match until {
                            Some(end) if Instant::now() >= end => break,
                            None if k >= order.len() => break,
                            _ => {}
                        }
                        let plan = &plans[order[k % order.len()]];
                        k += CONNS;
                        load.scheduled += 1;
                        let t = Instant::now();
                        let ok = conn.send(&plan.bytes).is_ok()
                            && conn
                                .recv()
                                .is_ok_and(|r| r.status == 200 && served_ok(&r.body, &plan.want));
                        if ok {
                            load.latencies_ms.push(ms(t.elapsed()));
                        } else {
                            load.failed += 1;
                            match Conn::connect(addr) {
                                Ok(fresh) => conn = fresh,
                                Err(_) => break,
                            }
                        }
                    }
                    load
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect()
    });
    Load::merge(parts, t0.elapsed().as_secs_f64())
}

/// Server-side counters read straight from the `obs` registry that
/// `GET /metrics` serves.
#[derive(Default, Clone, Copy)]
struct ServerCounters {
    batches: f64,
    batch_pairs: f64,
    route_n: f64,
    route_us: f64,
    hits: f64,
    misses: f64,
    shed: f64,
}

impl ServerCounters {
    fn read(route: &str) -> ServerCounters {
        let mut c = ServerCounters::default();
        for (name, snap) in obs::snapshot() {
            match (name.as_str(), snap) {
                ("serve.batch_pairs", MetricSnapshot::Histogram(n, sum, _)) => {
                    c.batches = n as f64;
                    c.batch_pairs = sum;
                }
                (n, MetricSnapshot::Histogram(count, sum, _))
                    if n == format!("serve.latency_us.{route}") =>
                {
                    c.route_n = count as f64;
                    c.route_us = sum;
                }
                ("embed.cache.hits", MetricSnapshot::Counter(v)) => c.hits = v as f64,
                ("embed.cache.misses", MetricSnapshot::Counter(v)) => c.misses = v as f64,
                (n, MetricSnapshot::Counter(v)) if n.starts_with("serve.rejected.") => {
                    c.shed += v as f64;
                }
                _ => {}
            }
        }
        c
    }

    /// The counts added since `before`.
    fn since(&self, before: &ServerCounters) -> ServerCounters {
        ServerCounters {
            batches: self.batches - before.batches,
            batch_pairs: self.batch_pairs - before.batch_pairs,
            route_n: self.route_n - before.route_n,
            route_us: self.route_us - before.route_us,
            hits: self.hits - before.hits,
            misses: self.misses - before.misses,
            shed: self.shed - before.shed,
        }
    }

    /// Diagnostics for the traffic these counts (a delta) describe;
    /// returns the server's mean route latency in µs.
    fn report(&self, client_ms: &[f64], prefix: &str, report: &mut Report) -> f64 {
        let per = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        let server_us = per(self.route_us, self.route_n);
        let client_us = 1e3 * per(client_ms.iter().sum(), client_ms.len() as f64);
        let pairs_per_batch = per(self.batch_pairs, self.batches);
        let hit_ratio = per(self.hits, self.hits + self.misses);
        report.diag(
            format!("{prefix}batcher.pairs_per_batch"),
            pairs_per_batch,
            "count",
        );
        report.diag(format!("{prefix}serve.route_mean_us"), server_us, "us");
        report.diag(
            format!("{prefix}http.overhead_us"),
            client_us - server_us,
            "us",
        );
        report.diag(format!("{prefix}serve.cache_hit_ratio"), hit_ratio, "ratio");
        report.diag(format!("{prefix}serve.shed"), self.shed, "count");
        server_us
    }
}

/// The split-up twin of a `ModelHost`: the same recipe rebuilt through
/// [`Layers`] calls, so its inference can be timed layer by layer.
struct Replica {
    spec: ModelSpec,
    dataset: EmDataset,
    cache: EmbeddingCache<'static>,
    scaler: StandardScaler,
    system: Box<dyn AutoMlSystem>,
}

/// Rebuild `ModelSpec::train` step by step; the fits and generations it
/// records go to `layers`, its encode work does not.
fn replica(layers: &mut Layers, spec: &ModelSpec) -> Replica {
    let mut setup = Layers::new();
    let dataset = setup.generate(&spec.dataset.profile(), spec.data_seed, spec.scale);
    let cache = EmbeddingCache::shared(Arc::new(embedder(spec)));
    let schema = dataset.schema();
    let [train, valid] = [Split::Train, Split::Validation].map(|s| {
        let pairs = dataset.split(s);
        (
            setup.encode(&cache, pairs, schema, spec.mode, spec.combiner),
            layers::labels(pairs),
        )
    });
    let scaler = setup.scaler(&train.0);
    let train = TabularData::new(setup.transform(&scaler, &train.0), train.1);
    let valid = TabularData::new(setup.transform(&scaler, &valid.0), valid.1);
    let mut system = layers::engine(spec.engine, spec.engine_seed);
    setup
        .fit(system.as_mut(), &train, &valid, spec.budget_hours)
        .unwrap_or_else(|e| panic!("fixture replica failed to train: {e}"));
    layers.absorb_setup(setup);
    Replica {
        spec: spec.clone(),
        dataset,
        cache,
        scaler,
        system,
    }
}

/// `ModelHost::match_proba`, one layer call at a time.
fn replica_match(layers: &mut Layers, r: &Replica, pairs: &[RecordPair]) -> Vec<f32> {
    let x = layers.encode(
        &r.cache,
        pairs,
        r.dataset.schema(),
        r.spec.mode,
        r.spec.combiner,
    );
    let xs = layers.transform(&r.scaler, &x);
    layers.predict_proba(r.system.as_ref(), &xs)
}

/// One in-process op on `pairs`: traced ops run [`replica_match`] inside
/// a root span, untraced ones `host.match_proba`. Returns the op's wall
/// time and whether its probabilities carry exactly the `want` bits.
fn match_op(
    layers: &mut Layers,
    id: usize,
    host: &ModelHost,
    rep: &Replica,
    pairs: &[RecordPair],
    want: &[u32],
) -> (f64, bool) {
    let t = Instant::now();
    let probs = if id % 2 == 1 {
        layers.tracer.begin_op(id as u64);
        let p = replica_match(layers, rep, pairs);
        layers.tracer.end_op();
        p
    } else {
        host.match_proba(pairs)
    };
    (t.elapsed().as_secs_f64(), bits(&probs) == want)
}

/// Run `op(layers, id)` for the measurement window, odd ids traced, and
/// fill the per-layer metrics from what the ops recorded.
fn in_process_ops(
    run: &Run,
    report: &mut Report,
    layers: &mut Layers,
    mut op: impl FnMut(&mut Layers, usize) -> (f64, bool),
) {
    let mut clock = OpClock::new(run.seconds, 2);
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let window = ProcSample::now();
    while clock.more() {
        let id = clock.count();
        let (secs, ok) = op(layers, id);
        clock.push(secs);
        if id % 2 == 1 {
            traced.push(secs);
        } else {
            untraced.push(secs);
        }
        report.attempted += 1;
        report.failed += u64::from(!ok);
    }
    window.finish(report, clock.count());
    layers.fill(
        report,
        layers::overhead_pct(&untraced, &traced),
        (untraced.len(), traced.len()),
    );
}

/// The frozen embedder a fixture recipe names.
fn embedder(spec: &ModelSpec) -> HashingEmbedder {
    let EmbedderSpec::Hashing { dim } = spec.embedder else {
        panic!("the serving fixture embeds by hashing");
    };
    HashingEmbedder::new(dim)
}

/// Encoder and GEMM micro-measurements on the workload's own pairs.
fn micro(report: &mut Report, spec: &ModelSpec, pairs: &[RecordPair], schema: &Schema) {
    let seqs: Vec<String> = pairs
        .iter()
        .flat_map(|p| tokenize_pair(p, schema, spec.mode))
        .collect();
    let framed: Vec<usize> = seqs
        .iter()
        .map(|s| s.split_whitespace().count() + 2)
        .collect();
    layers::micro(
        report,
        &embedder(spec),
        &seqs[..seqs.len().min(256)],
        &framed,
    );
}

/// Median µs of `f` over `n` calls.
fn time_us(n: usize, mut f: impl FnMut(usize)) -> f64 {
    let samples: Vec<f64> = (0..n)
        .map(|i| {
            let t = Instant::now();
            f(i);
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&samples)
}

/// `serve_match`: interactive single-pair matching on a warm cache.
pub fn serve_match(run: &Run) -> Report {
    let mut report = Report::new("serve_match", run.seed, run.trace);
    struct Setup {
        host: Arc<ModelHost>,
        handle: ServerHandle,
        plans: Vec<Plan>,
        reference: Vec<u32>,
    }
    let (s, setup_s) = setups(|| {
        let host = Arc::new(train_fixture());
        host.warm_cache();
        let pairs = host.dataset().pairs();
        let reference = bits(&host.match_proba(pairs));
        let schema = host.schema();
        let plans = pairs
            .iter()
            .zip(&reference)
            .map(|(p, &want)| Plan {
                bytes: http::post("/match", &pair_json(schema, p)),
                want: vec![want],
            })
            .collect();
        let handle = em_serve::serve(Arc::clone(&host), &serve_config())
            .unwrap_or_else(|e| panic!("server failed to start: {e}"));
        Setup {
            host,
            handle,
            plans,
            reference,
        }
    });
    let mut rng = Rng::new(run.seed ^ 0x5E4E);
    let pairs = s.host.dataset().pairs();

    if run.trace {
        let mut layers = Layers::new();
        let rep = replica(&mut layers, s.host.spec());
        let seqs: Vec<String> = pairs
            .iter()
            .flat_map(|p| tokenize_pair(p, s.host.schema(), rep.spec.mode))
            .collect();
        rep.cache.warm(&seqs);
        let order: Vec<usize> = (0..4096).map(|_| rng.below(pairs.len())).collect();
        in_process_ops(run, &mut report, &mut layers, |layers, id| {
            let i = order[id % order.len()];
            match_op(
                layers,
                id,
                &s.host,
                &rep,
                &pairs[i..=i],
                &s.reference[i..=i],
            )
        });
        micro(&mut report, s.host.spec(), pairs, s.host.schema());
        layers.write_trace(run.out, "serve_match");
        return report;
    }

    let addr = s.handle.addr();
    let all: Vec<usize> = (0..s.plans.len()).collect();
    let warm = closed_loop(
        addr,
        &s.plans,
        &all,
        Some(Instant::now() + Duration::from_millis(300)),
    );
    report.oracle("warmup_bit_identical", warm.failed == 0);
    let mut base: Option<(Load, f64)> = None;
    let mut max_qps = 0.0;
    for (k, &rate) in LADDER.iter().enumerate() {
        let share = if k == 0 { BASE_SHARE } else { RUNG_SHARE };
        let n = ((rate * share * run.seconds).round() as usize).max(1);
        let before = ServerCounters::read("match");
        let load = open_loop(addr, &s.plans, rate, n, &mut rng);
        let server = ServerCounters::read("match").since(&before);
        report.attempted += load.scheduled as u64;
        report.failed += load.failed as u64;
        let tag = format!("r{rate}.");
        let server_us = server.report(&load.latencies_ms, &tag, &mut report);
        let p99 = load.p99_all();
        let pass = p99 <= LIMIT_MS;
        report.diag(
            format!("{tag}p50_ms"),
            median_or_inf(&load.latencies_ms),
            "ms",
        );
        report.diag(
            format!("{tag}p90_ms"),
            quantile_or_zero(&load.latencies_ms, 0.9),
            "ms",
        );
        report.diag(format!("{tag}p99_ms"), p99, "ms");
        report.diag(
            format!("{tag}gen.late_ms_p99"),
            quantile_or_zero(&load.late_ms, 0.99),
            "ms",
        );
        report.diag(format!("{tag}dropped"), load.dropped as f64, "count");
        report.diag(format!("{tag}pass"), f64::from(u8::from(pass)), "bool");
        if k == 0 {
            base = Some((load, server_us));
        }
        if !pass {
            break;
        }
        max_qps = rate;
    }
    report.diag("match_max_qps", max_qps, "req/s");
    let order: Vec<usize> = (0..4096).map(|_| rng.below(s.plans.len())).collect();
    let until = Instant::now() + Duration::from_secs_f64(CLOSED_SHARE * run.seconds);
    let closed = closed_loop(addr, &s.plans, &order, Some(until));
    report.attempted += closed.scheduled as u64;
    report.failed += closed.failed as u64;
    let match_us_1 = time_us(200, |i| {
        std::hint::black_box(s.host.match_proba(&pairs[i % pairs.len()..][..1]));
    });
    report.diag("host.match_us_1", match_us_1, "us");

    let (base, base_server_us) = base.expect("the ladder runs its first rate");
    // what the batcher adds on top of scoring one pair: queueing + linger
    report.diag(
        format!("r{}.batcher.wait_us", LADDER[0]),
        base_server_us - match_us_1,
        "us",
    );
    let lat = &base.latencies_ms;
    if !lat.is_empty() {
        let (q, tail) = tail_or_q3(lat);
        report.diag("latency_tail_q", q, "quantile");
        report.set("latency_p50_ms", median(lat), lat.len());
        report.set("latency_tail_ms", tail, lat.len());
    }
    report.set("setup_s", median(&setup_s), setup_s.len());
    report.set(
        "throughput_pairs_per_s",
        closed.latencies_ms.len() as f64 / closed.secs,
        closed.latencies_ms.len(),
    );
    report.set("peak_rss_mb", layers::peak_rss_mb(), 1);
    report
}

fn median_or_inf(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        f64::INFINITY
    } else {
        median(xs)
    }
}

fn quantile_or_zero(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        quantile(xs, q)
    }
}

/// S-BR pairs the fixture never saw: full-size datasets generated at
/// seeds drawn from the run seed, skipping the fixture's own.
fn unseen_pairs(layers: &mut Layers, seed: u64, n: usize) -> (Schema, Vec<RecordPair>) {
    let profile = MagellanDataset::SBR.profile();
    let fixture_seed = ModelSpec::fixture().data_seed;
    let mut rng = Rng::new(seed ^ 0xB01C);
    let mut schema = None;
    let mut pairs = Vec::with_capacity(n);
    while pairs.len() < n {
        let s = rng.next_u64();
        if s == fixture_seed {
            continue;
        }
        let d = layers.generate(&profile, s, 1.0);
        pairs.extend(d.pairs().iter().cloned());
        schema.get_or_insert_with(|| d.schema().clone());
    }
    pairs.truncate(n);
    (schema.expect("at least one dataset"), pairs)
}

/// `serve_bulk_cold`: bulk matching of never-seen pairs on a cold cache.
pub fn serve_bulk_cold(run: &Run) -> Report {
    let mut report = Report::new("serve_bulk_cold", run.seed, run.trace);
    let mut layers = Layers::new();
    let requests = run.size.bulk_requests;
    let (s, setup_s) = setups(|| {
        let (schema, pairs) = unseen_pairs(&mut layers, run.seed, requests * BULK_BATCH);
        // a separately trained host computes the reference, so the hosts
        // that serve keep a cold cache
        let reference = bits(&train_fixture().match_proba(&pairs));
        let plans: Vec<Plan> = pairs
            .chunks(BULK_BATCH)
            .zip(reference.chunks(BULK_BATCH))
            .map(|(chunk, want)| {
                let items = json::array(chunk.iter().map(|p| pair_json(&schema, p)));
                let mut o = json::Obj::new();
                o.raw("pairs", &items);
                Plan {
                    bytes: http::post("/match/batch", &o.finish()),
                    want: want.to_vec(),
                }
            })
            .collect();
        (schema, pairs, reference, plans)
    });
    let (schema, pairs, reference, plans) = s;

    if run.trace {
        let spec = ModelSpec::fixture();
        let chunks: Vec<(&[RecordPair], &[u32])> = pairs
            .chunks(BULK_BATCH)
            .zip(reference.chunks(BULK_BATCH))
            .collect();
        // each pass over the pool gets a fresh host and replica, so every
        // chunk meets a cold cache on both paths
        let mut models: Option<(ModelHost, Replica)> = None;
        in_process_ops(run, &mut report, &mut layers, |layers, id| {
            let k = id % chunks.len();
            if k == 0 {
                models = Some((train_fixture(), replica(layers, &spec)));
            }
            let (host, rep) = models.as_ref().expect("built at the pass start");
            match_op(layers, id, host, rep, chunks[k].0, chunks[k].1)
        });
        micro(&mut report, &spec, &pairs[..pairs.len().min(256)], &schema);
        layers.write_trace(run.out, "serve_bulk_cold");
        return report;
    }

    let order: Vec<usize> = (0..plans.len()).collect();
    let cfg = serve_config();
    let serve_rep = || {
        let host = Arc::new(train_fixture());
        let handle = em_serve::serve(Arc::clone(&host), &cfg)
            .unwrap_or_else(|e| panic!("server failed to start: {e}"));
        let before = ServerCounters::read("batch");
        let load = closed_loop(handle.addr(), &plans, &order, None);
        let server = ServerCounters::read("batch").since(&before);
        handle.shutdown();
        (load, server)
    };
    let (warm, _) = serve_rep();
    report.oracle("warmup_bit_identical", warm.failed == 0);
    let mut clock = OpClock::new(run.seconds, 1);
    let mut latencies = Vec::new();
    let mut rates = Vec::new();
    while clock.more() {
        let (load, server) = serve_rep();
        clock.push(load.secs);
        report.attempted += load.scheduled as u64;
        report.failed += load.failed as u64;
        rates.push((load.latencies_ms.len() * BULK_BATCH) as f64 / load.secs);
        if latencies.is_empty() {
            // the server's side of the first timed rep
            server.report(&load.latencies_ms, "", &mut report);
        }
        latencies.extend_from_slice(&load.latencies_ms);
    }
    let fresh = train_fixture();
    let chunks: Vec<&[RecordPair]> = pairs.chunks(BULK_BATCH).take(20).collect();
    report.diag(
        "host.match_us_per_pair_cold32",
        time_us(chunks.len(), |i| {
            std::hint::black_box(fresh.match_proba(chunks[i]));
        }) / BULK_BATCH as f64,
        "us",
    );

    report.set("setup_s", median(&setup_s), setup_s.len());
    if !latencies.is_empty() {
        // the tail is the highest percentile one rep's requests support,
        // so its definition does not depend on how many reps fit the run
        let q = tail_q(requests).unwrap_or(0.75);
        report.diag("latency_tail_q", q, "quantile");
        report.set("latency_p50_ms", median(&latencies), latencies.len());
        report.set("latency_tail_ms", quantile(&latencies, q), latencies.len());
    }
    report.set("throughput_pairs_per_s", median(&rates), rates.len());
    report.set("peak_rss_mb", layers::peak_rss_mb(), 1);
    report
}
