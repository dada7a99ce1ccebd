//! Spans around the calls into each layer, kept in memory and written
//! as JSON lines when the run ends.
//!
//! The program under test carries no instrumentation yet, so every span
//! is recorded here, from outside, around one public call or one whole
//! layer-isolating pass. With tracing off the same calls are only
//! timed, nothing is stored.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

use crate::json;

/// One finished span. `parent` indexes the enclosing span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub layer: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

/// A started measurement; hand it back to [`Spans::end`].
#[derive(Debug)]
pub struct Started {
    at: Instant,
    slot: Option<usize>,
}

/// The span recorder of one workload process.
#[derive(Debug)]
pub struct Spans {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    pub fn new(enabled: bool) -> Spans {
        Spans {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Starts timing `name` in `layer`; spans nest by call order.
    pub fn begin(&mut self, name: &'static str, layer: &'static str) -> Started {
        let at = Instant::now();
        let slot = self.enabled.then(|| {
            let start_ns = at.duration_since(self.epoch).as_nanos() as u64;
            self.spans.push(Span {
                name,
                layer,
                start_ns,
                end_ns: start_ns,
                parent: self.open.last().copied(),
            });
            self.open.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        Started { at, slot }
    }

    /// Ends the measurement and returns its duration in seconds.
    pub fn end(&mut self, started: Started) -> f64 {
        let elapsed = started.at.elapsed();
        if let Some(slot) = started.slot {
            self.spans[slot].end_ns = self.spans[slot].start_ns + elapsed.as_nanos() as u64;
            self.open.retain(|&s| s != slot);
        }
        elapsed.as_secs_f64()
    }

    /// Times one call.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        layer: &'static str,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let started = self.begin(name, layer);
        let out = f();
        (out, self.end(started))
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Self time per layer, seconds: each span's duration minus the part
    /// its direct children cover, summed by layer, in first-seen order.
    pub fn self_time_by_layer(&self) -> Vec<(&'static str, f64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                child_ns[p] += span.end_ns - span.start_ns;
            }
        }
        let mut by_layer: Vec<(&'static str, f64)> = Vec::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let own = (span.end_ns - span.start_ns).saturating_sub(children) as f64 / 1e9;
            match by_layer.iter_mut().find(|(layer, _)| *layer == span.layer) {
                Some((_, total)) => *total += own,
                None => by_layer.push((span.layer, own)),
            }
        }
        by_layer
    }

    /// The cost of recording one span, seconds, measured on a scratch
    /// recorder: the traced run's overhead is this times its span count.
    pub fn cost_per_span_s() -> f64 {
        const PROBES: usize = 20_000;
        let mut scratch = Spans::new(true);
        let clock = Instant::now();
        for _ in 0..PROBES {
            let started = scratch.begin("probe", "driver");
            scratch.end(started);
        }
        clock.elapsed().as_secs_f64() / PROBES as f64
    }

    /// Writes the spans as JSON lines.
    pub fn write_jsonl(&self, path: &Path, workload: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, span) in self.spans.iter().enumerate() {
            writeln!(
                out,
                "{{\"id\": {id}, \"name\": {}, \"layer\": {}, \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {}, \"workload\": {}}}",
                json::quote(span.name),
                json::quote(span.layer),
                span.start_ns,
                span.end_ns,
                span.parent.map_or("null".to_string(), |p| p.to_string()),
                json::quote(workload),
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_self_time_subtracts_children() {
        let mut spans = Spans::new(true);
        let outer = spans.begin("pass", "driver");
        let inner = spans.begin("synthesize", "trace");
        std::thread::sleep(std::time::Duration::from_millis(5));
        let inner_s = spans.end(inner);
        let outer_s = spans.end(outer);
        assert!(outer_s >= inner_s && inner_s >= 0.005);
        assert_eq!(spans.spans[1].parent, Some(0));
        assert_eq!(spans.spans[0].parent, None);
        let by_layer = spans.self_time_by_layer();
        assert_eq!(by_layer[0].0, "driver");
        assert!(
            by_layer[0].1 < 0.004,
            "outer self time excludes the child: {by_layer:?}"
        );
        assert!(by_layer[1].1 >= 0.005);
        // After both ended, a new span is a root again.
        let (_, _) = spans.time("next", "node", || ());
        assert_eq!(spans.spans[2].parent, None);
    }

    #[test]
    fn disabled_recorder_times_but_stores_nothing() {
        let mut spans = Spans::new(false);
        let ((), secs) = spans.time("call", "node", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        assert!(secs >= 0.002);
        assert_eq!(spans.len(), 0);
    }
}
