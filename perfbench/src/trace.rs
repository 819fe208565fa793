//! Spans recorded around the benchmark's calls into the library.
//!
//! A span is one call into a layer: its name, host start and end relative
//! to the tracer's epoch, the span that enclosed it, and the run it belongs
//! to (`setup3`, `iter5`, ...). Spans stay in memory and are written once,
//! when the benchmark ends. With tracing off, [`Tracer::span`] only calls
//! its closure, so untraced and traced runs execute the same code.

use dvs_core::json::{Json, ObjBuilder};
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub run: String,
    pub parent: Option<usize>,
    pub start_s: f64,
    pub end_s: f64,
}

impl Span {
    pub fn duration(&self) -> f64 {
        self.end_s - self.start_s
    }
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    run: String,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            run: String::new(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Label the spans that follow with the run they belong to.
    pub fn begin_run(&mut self, run: String) {
        self.run = run;
    }

    /// Call `f`, recording a span named `name` around it when tracing is on.
    /// Spans opened inside `f` become children of this one.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        let start_s = self.epoch.elapsed().as_secs_f64();
        self.spans.push(Span {
            name,
            run: self.run.clone(),
            parent: self.open.last().copied(),
            start_s,
            end_s: start_s,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_s = self.epoch.elapsed().as_secs_f64();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Each span's self time: its duration minus the durations of its
    /// direct children (children never overlap: calls are sequential).
    pub fn self_times(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(Span::duration).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.duration();
            }
        }
        own
    }

    /// Median self time of every span name.
    pub fn median_self_times(&self) -> BTreeMap<&'static str, f64> {
        let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_times()) {
            by_name.entry(s.name).or_default().push(own);
        }
        by_name
            .into_iter()
            .map(|(name, mut v)| (name, crate::median(&mut v)))
            .collect()
    }

    /// All spans as a JSON document tagged with the workload and seed.
    pub fn to_json(&self, workload: &str, seed: u64) -> Json {
        let spans = self
            .spans
            .iter()
            .zip(self.self_times())
            .enumerate()
            .map(|(id, (s, own))| {
                let mut b = ObjBuilder::new()
                    .uint("id", id as u64)
                    .str("name", s.name)
                    .str("run", &s.run);
                if let Some(p) = s.parent {
                    b = b.uint("parent", p as u64);
                }
                b.float("start_s", s.start_s)
                    .float("end_s", s.end_s)
                    .float("self_s", own)
                    .build()
            })
            .collect();
        ObjBuilder::new()
            .str("workload", workload)
            .uint("seed", seed)
            .array("spans", spans)
            .build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_parents_and_self_time() {
        let mut tr = Tracer::new(true);
        tr.begin_run("iter0".into());
        tr.span("outer", |tr| {
            tr.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        let spans = tr.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].run, "iter0");
        let own = tr.self_times();
        assert!(own[1] >= 0.005);
        assert!((own[0] + own[1] - spans[0].duration()).abs() < 1e-12);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(false);
        assert_eq!(tr.span("x", |_| 7), 7);
        assert!(tr.spans().is_empty());
    }
}
