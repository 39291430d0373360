//! Spans recorded from the benchmark's side of each call into the
//! program. A span names the layer boundary it wraps, when the call
//! started and ended, and the span that caused it; spans of one pass
//! share the pass as their root. Spans stay in memory until the run
//! ends. The untraced run records none, and the ratio of the two runs'
//! throughput is the tracing overhead.

use crate::json::Json;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Microseconds since the tracer's epoch.
    pub start_us: f64,
    pub end_us: f64,
    /// Index of the causing span in the same tracer.
    pub parent: Option<usize>,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_us - self.start_us) / 1e3
    }
}

/// An append-only span log. One per thread; [`Tracer::absorb`] joins
/// them when the threads do.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Self {
        Tracer {
            epoch,
            spans: Vec::new(),
        }
    }

    /// A tracer for another thread of the same run (same epoch).
    pub fn fork(&self) -> Tracer {
        Tracer::new(self.epoch)
    }

    /// Records a finished call; returns its index for use as a parent.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
    ) -> usize {
        let us = |t: Instant| t.saturating_duration_since(self.epoch).as_secs_f64() * 1e6;
        self.spans.push(Span {
            name,
            start_us: us(start),
            end_us: us(end),
            parent,
        });
        self.spans.len() - 1
    }

    /// Opens a root span whose end is filled in by [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, start: Instant) -> usize {
        self.record(name, start, start, None)
    }

    pub fn close(&mut self, index: usize, end: Instant) {
        self.spans[index].end_us = end.saturating_duration_since(self.epoch).as_secs_f64() * 1e6;
    }

    /// Appends another thread's spans, keeping their parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Durations in milliseconds of every span called `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .map(|s| {
                    Json::obj([
                        ("name", Json::str(s.name)),
                        ("start_us", Json::Num(s.start_us)),
                        ("end_us", Json::Num(s.end_us)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                        ),
                    ])
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn spans_keep_parent_links_across_threads() {
        let epoch = Instant::now();
        let at = |ms: u64| epoch + Duration::from_millis(ms);
        let mut main = Tracer::new(epoch);
        let pass = main.open("pass", at(0));
        main.record("decode.p", at(1), at(4), Some(pass));
        main.close(pass, at(10));

        let mut worker = main.fork();
        let round = worker.open("pass", at(20));
        worker.record("decode.p", at(21), at(26), Some(round));
        worker.close(round, at(30));
        main.absorb(worker);

        assert_eq!(main.len(), 4);
        assert_eq!(main.durations_ms("decode.p"), vec![3.0, 5.0]);
        assert_eq!(main.durations_ms("pass"), vec![10.0, 10.0]);
        let json = main.to_json();
        let spans = json.as_array().unwrap();
        assert_eq!(spans[3].get("parent").unwrap().as_f64(), Some(2.0));
        assert_eq!(spans[0].get("parent"), Some(&Json::Null));
    }
}
