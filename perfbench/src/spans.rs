//! Benchmark-owned spans: wall-clock intervals recorded around each call
//! into a layer's public functions, from outside the program. They live in
//! memory and are written as Chrome-trace JSON when the benchmark ends.

use std::time::Instant;

use apc_analysis::export::JsonValue;

/// One closed interval of host wall time.
struct BenchSpan {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

/// An in-memory span recorder with a stack of open spans.
pub struct Recorder {
    origin: Instant,
    spans: Vec<BenchSpan>,
    open: Vec<usize>,
}

impl Recorder {
    /// An empty recorder; span times count from now.
    pub fn new() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name`; spans opened inside `f` (through
    /// the recorder it receives) become its children.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(BenchSpan {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        out
    }

    /// Durations in seconds of every span named `name`, in order.
    pub fn seconds(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
            .collect()
    }

    /// Durations in seconds of every span named `name` that runs inside a
    /// span named `ancestor`, in order.
    pub fn seconds_within(&self, name: &str, ancestor: &str) -> Vec<f64> {
        let inside = |mut parent: Option<usize>| {
            while let Some(p) = parent {
                if self.spans[p].name == ancestor {
                    return true;
                }
                parent = self.spans[p].parent;
            }
            false
        };
        self.spans
            .iter()
            .filter(|s| s.name == name && inside(s.parent))
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
            .collect()
    }

    /// The spans as Chrome trace-event JSON: one complete (`"ph": "X"`)
    /// event per span, times in microseconds, the parent's index in `args`.
    pub fn chrome_trace(&self) -> JsonValue {
        let events = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                let mut args = JsonValue::object();
                args.push("id", JsonValue::UInt(id as u64)).push(
                    "parent",
                    s.parent
                        .map_or(JsonValue::Null, |p| JsonValue::UInt(p as u64)),
                );
                let mut e = JsonValue::object();
                e.push("name", JsonValue::Str(s.name.to_owned()))
                    .push("cat", JsonValue::Str("perfbench".to_owned()))
                    .push("ph", JsonValue::Str("X".to_owned()))
                    .push("ts", JsonValue::Float(s.start_ns as f64 / 1000.0))
                    .push(
                        "dur",
                        JsonValue::Float((s.end_ns - s.start_ns) as f64 / 1000.0),
                    )
                    .push("pid", JsonValue::UInt(1))
                    .push("tid", JsonValue::UInt(1))
                    .push("args", args);
                e
            })
            .collect();
        let mut o = JsonValue::object();
        o.push("traceEvents", JsonValue::Array(events))
            .push("displayTimeUnit", JsonValue::Str("ms".to_owned()));
        o
    }
}
