//! In-memory span recorder for the per-layer (`--trace 1`) run.
//!
//! Spans are recorded from the benchmark's own code around calls into
//! each layer's public functions; nothing inside the program is
//! instrumented. At exit the spans are written as a Chrome trace
//! (`chrome://tracing`, Perfetto) and summarized per layer.

use std::collections::BTreeMap;
use std::time::Instant;

use disparity_model::json::{self, Value};

/// Name of the root span around one request (or one sim op). Its
/// children are the layers on the request's path.
pub const ROOT: &str = "request";

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name, e.g. `spec.canonical`.
    pub name: &'static str,
    /// Start, in nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The request (or op) the span belongs to.
    pub request: u64,
}

/// Records nested spans; one recorder per traced run. A disabled
/// recorder (the end-to-end run's) records nothing and only runs the
/// timed closures.
#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    request: u64,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl Recorder {
    /// An empty, enabled recorder whose clock starts now.
    #[must_use]
    pub fn new() -> Self {
        Recorder {
            enabled: true,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            request: 0,
        }
    }

    /// A recorder that records nothing.
    #[must_use]
    pub fn disabled() -> Self {
        Recorder {
            enabled: false,
            ..Recorder::new()
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span nested in the innermost open one; close it with
    /// [`Recorder::end`].
    pub fn begin(&mut self, name: &'static str) -> usize {
        if !self.enabled {
            return 0;
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            dur_ns: 0,
            parent: self.open.last().copied(),
            request: self.request,
        });
        self.open.push(index);
        index
    }

    /// Closes span `index` (and any span left open inside it).
    pub fn end(&mut self, index: usize) {
        if !self.enabled {
            return;
        }
        let now = self.now_ns();
        while let Some(top) = self.open.pop() {
            self.spans[top].dur_ns = now - self.spans[top].start_ns;
            if top == index {
                break;
            }
        }
    }

    /// Times `f` as one span.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let span = self.begin(name);
        let out = f();
        self.end(span);
        out
    }

    /// Tags the spans opened from now on with `request`.
    pub fn set_request(&mut self, request: u64) {
        self.request = request;
    }

    /// Every recorded span.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus the part its direct
    /// children cover.
    #[must_use]
    pub fn self_times(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.dur_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.dur_ns);
            }
        }
        own
    }

    /// Per layer, the self time of each request that entered the layer
    /// (summed over the layer's spans in that request), in nanoseconds.
    /// `on_path` selects spans inside a [`ROOT`] span (the layers a
    /// request passes through) or outside any (probes beside the path).
    #[must_use]
    pub fn per_request_self(&self, on_path: bool) -> BTreeMap<&'static str, Vec<u64>> {
        let own = self.self_times();
        let mut per: BTreeMap<(&'static str, u64), u64> = BTreeMap::new();
        for (s, self_ns) in self.spans.iter().zip(own) {
            if s.name == ROOT || s.parent.is_some() != on_path {
                continue;
            }
            *per.entry((s.name, s.request)).or_default() += self_ns;
        }
        let mut out: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
        for ((name, _), ns) in per {
            out.entry(name).or_default().push(ns);
        }
        out
    }

    /// The spans as a Chrome trace: complete (`X`) events with
    /// microsecond timestamps on one track (the replay is
    /// single-threaded), each tagged with its request number.
    #[must_use]
    pub fn chrome_trace(&self) -> Value {
        let events = self
            .spans
            .iter()
            .map(|s| {
                json::object(vec![
                    ("name", Value::from(s.name)),
                    ("ph", Value::from("X")),
                    ("ts", Value::Float(s.start_ns as f64 / 1e3)),
                    ("dur", Value::Float(s.dur_ns as f64 / 1e3)),
                    ("pid", Value::Int(1)),
                    ("tid", Value::Int(1)),
                    (
                        "args",
                        json::object(vec![(
                            "request",
                            Value::Int(i64::try_from(s.request).unwrap_or(i64::MAX)),
                        )]),
                    ),
                ])
            })
            .collect();
        json::object(vec![
            ("traceEvents", Value::Array(events)),
            ("displayTimeUnit", Value::from("ns")),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let mut rec = Recorder::new();
        rec.set_request(7);
        let root = rec.begin(ROOT);
        rec.time("a", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        let b = rec.begin("b");
        rec.time("c", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        rec.end(b);
        rec.end(root);
        rec.time("probe", || ());
        let own = rec.self_times();
        let spans = rec.spans();
        assert_eq!(spans.len(), 5);
        assert_eq!(spans[3].parent, Some(2), "c nests in b");
        assert!(own[2] < spans[3].dur_ns, "b's self time excludes c");
        let total_children = spans[1].dur_ns + spans[2].dur_ns;
        assert_eq!(own[0], spans[0].dur_ns - total_children);
        let on_path = rec.per_request_self(true);
        assert_eq!(on_path.keys().copied().collect::<Vec<_>>(), ["a", "b", "c"]);
        assert_eq!(
            rec.per_request_self(false)
                .keys()
                .copied()
                .collect::<Vec<_>>(),
            ["probe"]
        );
        let trace = rec.chrome_trace();
        let events = trace.get("traceEvents").and_then(Value::as_array).unwrap();
        assert_eq!(events.len(), 5);
        assert_eq!(events[0].get("ph").and_then(Value::as_str), Some("X"));
    }
}
