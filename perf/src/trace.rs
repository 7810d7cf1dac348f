//! Spans of the traced run: one per call into a layer, recorded by the
//! harness around the call (spans inside the engine are a later issue).
//! Spans stay in memory and are written to the JSON document at exit.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::J;
use crate::report::Metric;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u32,
    /// The span that caused this one.
    pub parent: Option<u32>,
    /// Spans of one statement share this id.
    pub stmt: u32,
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
    /// Measured by a separate call beside the parent, not inside it: the
    /// analytics kernels cannot be timed from outside while the operator
    /// runs them, so the same kernel is run again on the same input and
    /// its duration is attributed to the parent.
    pub beside: bool,
}

impl Span {
    pub fn duration_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

const MAX_SPANS_WRITTEN: usize = 2000;

pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    pub fn open(&mut self, name: &'static str, parent: Option<u32>, stmt: u32) -> u32 {
        let id = self.spans.len() as u32;
        let now = self.now_us();
        self.spans.push(Span {
            id,
            parent,
            stmt,
            name,
            start_us: now,
            end_us: now,
            beside: false,
        });
        id
    }

    /// Close a span and return its duration in microseconds.
    pub fn close(&mut self, id: u32) -> f64 {
        let now = self.now_us();
        let span = &mut self.spans[id as usize];
        span.end_us = now;
        span.duration_us()
    }

    /// Time `f` as a child span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<u32>,
        stmt: u32,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let id = self.open(name, parent, stmt);
        let out = f();
        (out, self.close(id))
    }

    /// Time `f` beside `parent` and attribute it to `parent` (see
    /// [`Span::beside`]).
    pub fn beside<T>(
        &mut self,
        name: &'static str,
        parent: u32,
        stmt: u32,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let id = self.open(name, Some(parent), stmt);
        let out = f();
        let us = self.close(id);
        self.spans[id as usize].beside = true;
        (out, us)
    }

    /// Statements traced so far: the highest statement id.
    pub fn statements(&self) -> u64 {
        self.spans
            .iter()
            .map(|s| u64::from(s.stmt))
            .max()
            .unwrap_or(0)
    }

    /// Mean self time per span name: where the traced time went, layer
    /// by layer.
    pub fn self_time_metrics(&self) -> Vec<Metric> {
        let mut totals: BTreeMap<&'static str, (f64, u64)> = BTreeMap::new();
        for (span, self_us) in self.spans.iter().zip(self_times(&self.spans)) {
            let e = totals.entry(span.name).or_insert((0.0, 0));
            e.0 += self_us;
            e.1 += 1;
        }
        totals
            .into_iter()
            .map(|(name, (us, n))| Metric::new(format!("self_us.{name}"), "us", us / n as f64, n))
            .collect()
    }

    /// The first [`MAX_SPANS_WRITTEN`] spans: enough to read the shape of
    /// every statement kind without megabytes of `durable.write` inserts.
    pub fn to_json(&self) -> J {
        J::Arr(
            self.spans
                .iter()
                .take(MAX_SPANS_WRITTEN)
                .map(|s| {
                    J::obj(vec![
                        ("id", J::Num(f64::from(s.id))),
                        ("parent", s.parent.map_or(J::Null, |p| J::Num(f64::from(p)))),
                        ("stmt", J::Num(f64::from(s.stmt))),
                        ("name", J::Str(s.name.to_string())),
                        ("start_us", J::Num(s.start_us)),
                        ("end_us", J::Num(s.end_us)),
                        ("beside", J::Bool(s.beside)),
                    ])
                })
                .collect(),
        )
    }
}

/// A span's self time: its duration minus what its children cover. A
/// child inside the parent covers its overlap with it; a child measured
/// beside covers its own duration. Never below zero.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut covered = vec![0.0; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            covered[p as usize] += if s.beside {
                s.duration_us()
            } else {
                (s.end_us.min(parent.end_us) - s.start_us.max(parent.start_us)).max(0.0)
            };
        }
    }
    spans
        .iter()
        .zip(covered)
        .map(|(s, c)| (s.duration_us() - c).max(0.0))
        .collect()
}

pub fn self_test() -> Result<(), String> {
    let span = |id, parent, start_us, end_us, beside| Span {
        id,
        parent,
        stmt: 0,
        name: "t",
        start_us,
        end_us,
        beside,
    };
    let spans = vec![
        span(0, None, 0.0, 100.0, false),     // statement
        span(1, Some(0), 5.0, 15.0, false),   // parse
        span(2, Some(0), 20.0, 90.0, false),  // execute
        span(3, Some(2), 200.0, 240.0, true), // kernel, beside execute
        span(4, Some(2), 85.0, 95.0, false),  // sticks out of its parent by 5
    ];
    let got = self_times(&spans);
    let want = [20.0, 10.0, 25.0, 40.0, 10.0];
    if got != want {
        return Err(format!(
            "trace self-test failed: self times {got:?}, want {want:?}"
        ));
    }
    Ok(())
}
