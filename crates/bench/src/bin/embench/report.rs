//! The metric catalogue (exactly the names `BENCHMARK.json` declares), the
//! per-run report and its provenance header.

use obs::json::{self, Obj};
use std::collections::BTreeMap;
use std::path::Path;

/// End-to-end metrics `(name, unit)`, reported by every workload with
/// tracing off. What each means per workload is in the README.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("throughput_pairs_per_s", "pairs/s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics `(name, unit)`, reported by every workload with
/// tracing on. Names start with the layer they time.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("data.generate_ms", "ms"),
    ("tokenize.us_per_seq", "us"),
    ("tokenize.seqs_per_pair", "count"),
    ("tokenize.words_per_seq", "count"),
    ("embed.us_per_seq", "us"),
    ("embed.cache_hit_ratio", "ratio"),
    ("forward.us_per_seq", "us"),
    ("gemm.gflops_qkv_seq", "GFLOP/s"),
    ("gemm.gflops_ffn_seq", "GFLOP/s"),
    ("gemm.gflops_qkv_stacked", "GFLOP/s"),
    ("combine.us_per_pair", "us"),
    ("scale.us_per_row", "us"),
    ("fit.ms", "ms"),
    ("fit.trials", "count"),
    ("fit.failed_trials", "count"),
    ("fit.ms_per_trial", "ms"),
    ("predict.us_per_row", "us"),
    ("proc.cpu_user_s", "s"),
    ("proc.cpu_sys_s", "s"),
    ("proc.sys_share", "ratio"),
    ("proc.cpu_util", "ratio"),
    ("par.scopes_per_op", "count"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_pct", "%"),
];

/// The catalogue a run in this tracing mode must fill.
pub fn catalogue(trace: bool) -> &'static [(&'static str, &'static str)] {
    if trace {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// Everything one workload run measured and checked.
pub struct Report {
    workload: &'static str,
    seed: u64,
    trace: bool,
    /// Ops (cells, rows, requests) the run attempted.
    pub attempted: u64,
    /// Ops that failed: an `Err` search, a transport error, a non-200
    /// response or an output that disagrees with its oracle.
    pub failed: u64,
    oracles: Vec<(String, bool)>,
    /// Catalogue metric → (value, samples behind it).
    metrics: BTreeMap<&'static str, (f64, usize)>,
    /// Workload-specific numbers outside the catalogue: `(name, value, unit)`.
    diagnostics: Vec<(String, f64, &'static str)>,
}

impl Report {
    /// An empty report.
    pub fn new(workload: &'static str, seed: u64, trace: bool) -> Report {
        Report {
            workload,
            seed,
            trace,
            attempted: 0,
            failed: 0,
            oracles: Vec::new(),
            metrics: BTreeMap::new(),
            diagnostics: Vec::new(),
        }
    }

    /// Record catalogue metric `name`, measured from `n` samples.
    ///
    /// Panics when `name` is not in this mode's catalogue: the catalogue
    /// and the workloads must agree, and `--check` exercises every call.
    pub fn set(&mut self, name: &'static str, value: f64, n: usize) {
        assert!(
            catalogue(self.trace).iter().any(|(m, _)| *m == name),
            "{name} is not a {} metric",
            if self.trace {
                "per-layer"
            } else {
                "end-to-end"
            }
        );
        self.metrics.insert(name, (value, n));
    }

    /// Record a workload-specific number that is not in the catalogue.
    pub fn diag(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.diagnostics.push((name.into(), value, unit));
    }

    /// Record the verdict of one correctness oracle.
    pub fn oracle(&mut self, name: &str, ok: bool) {
        if !ok {
            eprintln!("embench: oracle {name} FAILED");
        }
        self.oracles.push((name.to_owned(), ok));
    }

    /// True when no op failed and every oracle agreed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.oracles.iter().all(|(_, ok)| *ok)
    }

    /// Catalogue names this report lacks or holds a non-finite value for.
    pub fn missing(&self) -> Vec<&'static str> {
        catalogue(self.trace)
            .iter()
            .filter(|(name, _)| !self.metrics.get(name).is_some_and(|(v, _)| v.is_finite()))
            .map(|(name, _)| *name)
            .collect()
    }

    fn unit(name: &str) -> &'static str {
        END_TO_END
            .iter()
            .chain(PER_LAYER)
            .find(|(m, _)| *m == name)
            .map_or("", |(_, u)| u)
    }

    /// Print every metric as `name value unit` (catalogue metrics on
    /// stdout, diagnostics on stderr), then the one-line JSON result.
    pub fn print(&self) {
        for (name, (value, _)) in &self.metrics {
            println!("{name} {value} {}", Self::unit(name));
        }
        for (name, value, unit) in &self.diagnostics {
            eprintln!("{name} {value} {unit}");
        }
        let mut metrics = Obj::new();
        for (name, (value, _)) in &self.metrics {
            let mut m = Obj::new();
            m.f64("value", *value).str("unit", Self::unit(name));
            metrics.raw(name, &m.finish());
        }
        let mut o = Obj::new();
        o.bool("correct", self.correct())
            .u64("attempted", self.attempted)
            .u64("failed", self.failed)
            .raw("metrics", &metrics.finish());
        println!("{}", o.finish());
    }

    /// Write the full report, provenance header first, to
    /// `<out>/<workload>.json` (`<workload>.layers.json` when traced).
    pub fn write(&self, out: &Path) -> std::io::Result<()> {
        let mut metrics = Obj::new();
        for (name, (value, n)) in &self.metrics {
            let mut m = Obj::new();
            m.f64("value", *value)
                .str("unit", Self::unit(name))
                .u64("samples", *n as u64);
            metrics.raw(name, &m.finish());
        }
        let mut diagnostics = Obj::new();
        for (name, value, unit) in &self.diagnostics {
            let mut m = Obj::new();
            m.f64("value", *value).str("unit", unit);
            diagnostics.raw(name, &m.finish());
        }
        let oracles = json::array(self.oracles.iter().map(|(name, ok)| {
            let mut o = Obj::new();
            o.str("name", name).bool("ok", *ok);
            o.finish()
        }));
        let mut o = Obj::new();
        o.raw("provenance", &provenance(self.seed))
            .str("workload", self.workload)
            .bool("trace", self.trace)
            .bool("correct", self.correct())
            .u64("attempted", self.attempted)
            .u64("failed", self.failed)
            .raw("oracles", &oracles)
            .raw("metrics", &metrics.finish())
            .raw("diagnostics", &diagnostics.finish());
        std::fs::create_dir_all(out)?;
        let file = if self.trace {
            format!("{}.layers.json", self.workload)
        } else {
            format!("{}.json", self.workload)
        };
        std::fs::write(out.join(file), o.finish() + "\n")
    }
}

/// Where a result came from: commit, toolchain, machine, thread and
/// serving configuration, and the seed.
fn provenance(seed: u64) -> String {
    let serve = em_serve::ServeConfig::from_env();
    let mut env = Obj::new();
    let mut vars: Vec<(String, String)> = std::env::vars()
        .filter(|(k, _)| k == "AUTOML_EM_THREADS" || k.starts_with("AUTOML_EM_SERVE_"))
        .collect();
    vars.sort();
    for (k, v) in &vars {
        env.str(k, v);
    }
    let mut sc = Obj::new();
    sc.u64("linger_us", serve.linger_us)
        .u64("max_batch", serve.max_batch as u64)
        .u64("workers", serve.workers as u64)
        .u64("queue_pairs", serve.queue_pairs as u64);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name")?.split_once(':'))
                .map(|(_, m)| m.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".into());
    let git_sha = if Path::new(".git").exists() {
        command_output("git", &["rev-parse", "HEAD"])
    } else {
        "unknown".into()
    };
    let mut o = Obj::new();
    o.str("git_sha", &git_sha)
        .str("rustc", &command_output("rustc", &["-V"]))
        .u64(
            "nproc",
            std::thread::available_parallelism().map_or(1, |n| n.get()) as u64,
        )
        .str("cpu_model", &cpu)
        .str(
            "build_profile",
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
        )
        .u64("par_threads", par::threads() as u64)
        .raw("env", &env.finish())
        .raw("serve_config", &sc.finish())
        .u64("seed", seed);
    o.finish()
}

/// First line of a command's stdout, `"unknown"` when it cannot run.
fn command_output(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8_lossy(&o.stdout)
                .lines()
                .next()
                .map(str::to_owned)
        })
        .unwrap_or_else(|| "unknown".into())
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::json::Json;

    fn declared(section: &str) -> Vec<(String, String)> {
        // the manifest dir is `crates/bench` in the workspace build and this
        // directory in the package's own build; the file is at the repo root
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .map(|d| d.join("BENCHMARK.json"))
            .find(|p| p.is_file())
            .expect("BENCHMARK.json at the repo root");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
        let v = json::parse(&text).expect("BENCHMARK.json parses");
        match v.get(section) {
            Some(Json::Arr(items)) => items
                .iter()
                .map(|m| {
                    let field = |k: &str| m.get(k).and_then(Json::as_str).unwrap().to_owned();
                    (field("name"), field("unit"))
                })
                .collect(),
            _ => panic!("BENCHMARK.json has no {section} array"),
        }
    }

    fn owned(cat: &[(&str, &str)]) -> Vec<(String, String)> {
        cat.iter()
            .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
            .collect()
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        assert_eq!(owned(END_TO_END), declared("end_to_end"));
        assert_eq!(owned(PER_LAYER), declared("per_layer"));
    }

    #[test]
    fn names_are_well_formed_and_within_limits() {
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        assert!(END_TO_END.iter().any(|(n, u)| *n == "setup_s" && *u == "s"));
        let mut all: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|(n, _)| *n)
            .collect();
        for name in &all {
            assert!(
                name.starts_with(|c: char| c.is_ascii_alphanumeric())
                    && name.len() <= 64
                    && name
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-'),
                "{name}"
            );
        }
        all.sort_unstable();
        all.dedup();
        assert_eq!(
            all.len(),
            END_TO_END.len() + PER_LAYER.len(),
            "duplicate name"
        );
    }
}
