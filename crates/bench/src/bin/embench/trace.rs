//! Spans recorded by embench around its own calls into each layer: the
//! program under test is not instrumented. Each op (a cell, a row, an
//! in-process match) is a root span and the layer calls inside it are its
//! children; spans outside any op (set-up work) count towards the layer
//! totals but not towards coverage. Spans stay in memory and are written
//! once, at exit, in Chrome trace-event format.

use obs::json::{self, Obj};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

/// Chrome events kept for the trace file; layer totals cover every span.
const MAX_EVENTS: usize = 50_000;

struct Event {
    name: &'static str,
    op: Option<u64>,
    start: Duration,
    dur: Duration,
}

/// The span recorder of one run.
pub struct Tracer {
    t0: Instant,
    current_op: Option<(u64, Instant)>,
    events: Vec<Event>,
    /// Layer name → (total time, spans).
    totals: BTreeMap<&'static str, (Duration, u64)>,
    /// Σ root-span time and Σ child time inside roots.
    op_time: Duration,
    child_time: Duration,
}

impl Tracer {
    /// A recorder whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            current_op: None,
            events: Vec::new(),
            totals: BTreeMap::new(),
            op_time: Duration::ZERO,
            child_time: Duration::ZERO,
        }
    }

    fn record(&mut self, name: &'static str, op: Option<u64>, start: Instant, dur: Duration) {
        if self.events.len() < MAX_EVENTS {
            self.events.push(Event {
                name,
                op,
                start: start - self.t0,
                dur,
            });
        }
    }

    /// Run `f` as a child span named after its layer.
    pub fn span<T>(&mut self, layer: &'static str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        let dur = start.elapsed();
        let total = self.totals.entry(layer).or_default();
        total.0 += dur;
        total.1 += 1;
        if self.current_op.is_some() {
            self.child_time += dur;
        }
        self.record(layer, self.current_op.map(|(id, _)| id), start, dur);
        out
    }

    /// Open the root span of op `id`; spans until [`end_op`](Self::end_op)
    /// are its children.
    pub fn begin_op(&mut self, id: u64) {
        self.current_op = Some((id, Instant::now()));
    }

    /// Close the open op and return its wall time.
    pub fn end_op(&mut self) -> Duration {
        let Some((id, start)) = self.current_op.take() else {
            panic!("end_op without begin_op");
        };
        let dur = start.elapsed();
        self.op_time += dur;
        self.record("op", Some(id), start, dur);
        dur
    }

    /// Total time and span count of one layer.
    pub fn total(&self, layer: &str) -> (Duration, u64) {
        self.totals.get(layer).copied().unwrap_or_default()
    }

    /// Σ child-span time ÷ Σ op wall time.
    pub fn coverage(&self) -> f64 {
        self.child_time.as_secs_f64() / self.op_time.as_secs_f64().max(1e-12)
    }

    /// Write the kept spans as a Chrome trace (`chrome://tracing`, Perfetto).
    pub fn write_chrome(&self, path: &Path) -> std::io::Result<()> {
        let events = json::array(self.events.iter().map(|e| {
            let mut args = Obj::new();
            if let Some(op) = e.op {
                args.u64("op", op);
            }
            let mut o = Obj::new();
            o.str("name", e.name)
                .str("ph", "X")
                .f64("ts", e.start.as_secs_f64() * 1e6)
                .f64("dur", e.dur.as_secs_f64() * 1e6)
                .u64("pid", 1)
                .u64("tid", 1)
                .raw("args", &args.finish());
            o.finish()
        }));
        let mut o = Obj::new();
        o.raw("traceEvents", &events).str("displayTimeUnit", "ms");
        std::fs::write(path, o.finish() + "\n")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coverage_counts_children_inside_ops_only() {
        let mut t = Tracer::new();
        t.span("data", || std::thread::sleep(Duration::from_millis(5)));
        t.begin_op(0);
        t.span("fit", || std::thread::sleep(Duration::from_millis(10)));
        std::thread::sleep(Duration::from_millis(10));
        let wall = t.end_op();
        assert!(wall >= Duration::from_millis(20));
        let c = t.coverage();
        assert!(c > 0.3 && c < 0.7, "{c}");
        assert_eq!(t.total("data").1, 1);
        assert_eq!(t.total("fit").1, 1);
        assert_eq!(t.total("embed"), (Duration::ZERO, 0));
    }
}
