//! The traced run's span recorder: spans the benchmark itself opens
//! around each timed call into a layer, kept in memory and written at
//! the end as Chrome `trace_event` JSON (opens in Perfetto).

use std::fmt::Write as _;
use std::time::Instant;

struct Span {
    name: String,
    layer: &'static str,
    start_us: f64,
    dur_us: f64,
    calls: u64,
}

/// Spans recorded so far, relative to the recorder's creation.
/// A disabled recorder only times its spans; it keeps none.
pub struct Recorder {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Self {
        Self {
            origin: Instant::now(),
            enabled,
            spans: Vec::new(),
        }
    }

    /// Runs `f` inside a span named `layer.name` (one call into the
    /// layer) and returns its result with its wall time in seconds.
    pub fn span<T>(&mut self, layer: &'static str, name: &str, f: impl FnOnce() -> T) -> (T, f64) {
        let start = Instant::now();
        let out = f();
        (out, self.record(layer, name, start, 1))
    }

    /// Closes a span opened at `start` that made `calls` calls into the
    /// layer; returns its wall time in seconds.
    pub fn record(&mut self, layer: &'static str, name: &str, start: Instant, calls: u64) -> f64 {
        let dur = start.elapsed();
        if self.enabled {
            self.spans.push(Span {
                name: format!("{layer}.{name}"),
                layer,
                start_us: start.duration_since(self.origin).as_secs_f64() * 1e6,
                dur_us: dur.as_secs_f64() * 1e6,
                calls,
            });
        }
        dur.as_secs_f64()
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// The spans as a Chrome `trace_event` JSON document: one complete
    /// (`"ph":"X"`) event per span, one track per layer.
    pub fn chrome_json(&self) -> String {
        let mut layers: Vec<&str> = self.spans.iter().map(|s| s.layer).collect();
        layers.sort_unstable();
        layers.dedup();
        let mut out = String::from("{\"traceEvents\":[");
        for (i, layer) in layers.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{},\"args\":{{\"name\":\"{}\"}}}}",
                i + 1,
                layer
            );
        }
        for s in &self.spans {
            let tid = layers.iter().position(|l| *l == s.layer).unwrap_or(0) + 1;
            let _ = write!(
                out,
                ",{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"calls\":{}}}}}",
                s.name, s.layer, tid, s.start_us, s.dur_us, s.calls
            );
        }
        out.push_str("],\"displayTimeUnit\":\"ms\"}\n");
        out
    }
}
