//! The benchmark's own span recorder.
//!
//! The traced run calls each layer's public functions itself and wraps
//! every call in a span: name, start, end, the span that was open when it
//! began, the workload and the execution mode.  Spans stay in memory and
//! are written to `out/trace_<workload>.json` when the run ends.  The
//! engine's existing iteration/subquery/compile events are read back
//! through its public tracer and hung under the span that was open while
//! the engine ran, so one tree covers both.
//!
//! A layer's **self time** is its span's duration minus the part of that
//! interval its child spans cover.

use std::collections::BTreeMap;
use std::time::Instant;

use carac::{EventKind, Phase};
use carac_exec::Tracer;

use crate::json::Json;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// 1-based; 0 means "no parent".
    pub id: usize,
    pub parent: usize,
    pub name: String,
    pub mode: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Recorder {
    workload: String,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new(workload: &str) -> Recorder {
        Recorder {
            workload: workload.to_string(),
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `body` inside a span and returns what it returned together with
    /// the span's duration in seconds.
    pub fn time<T>(
        &mut self,
        name: &str,
        mode: &'static str,
        body: impl FnOnce(&mut Recorder) -> T,
    ) -> (T, f64) {
        let id = self.spans.len() + 1;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied().unwrap_or(0),
            name: name.to_string(),
            mode,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        let value = body(self);
        let end_ns = self.now_ns();
        self.open.pop();
        self.spans[id - 1].end_ns = end_ns;
        (value, (end_ns - start_ns) as f64 / 1e9)
    }

    /// Hangs the engine's recorded events under the span that is open now
    /// (call it inside the span that ran the engine).  Returns how many
    /// events the engine's ring had already dropped.
    pub fn import_engine(&mut self, tracer: &Tracer, mode: &'static str) -> u64 {
        let Some(engine_epoch) = tracer.epoch() else {
            return 0;
        };
        let offset_ns = engine_epoch
            .saturating_duration_since(self.epoch)
            .as_nanos() as u64;
        let host = self.open.last().copied().unwrap_or(0);
        // engine span id -> our span id
        let mut ours: BTreeMap<u64, usize> = BTreeMap::new();
        for event in tracer.events() {
            let at_ns = offset_ns + event.at.as_nanos() as u64;
            match event.kind {
                EventKind::Begin => {
                    let id = self.spans.len() + 1;
                    self.spans.push(Span {
                        id,
                        parent: ours.get(&event.parent).copied().unwrap_or(host),
                        name: format!("exec.{}", event.phase.name()),
                        mode,
                        start_ns: at_ns,
                        end_ns: at_ns,
                    });
                    ours.insert(event.id, id);
                }
                EventKind::End => {
                    let Some(&id) = ours.get(&event.id) else {
                        continue; // its begin fell out of the ring
                    };
                    let span = &mut self.spans[id - 1];
                    span.end_ns = at_ns;
                    // A blocking compilation is logged as a zero-width mark
                    // the moment it finishes, its length in a counter.
                    if event.phase == Phase::Compile {
                        let took = event
                            .counters
                            .iter()
                            .find(|(name, _)| *name == "duration_ns")
                            .map_or(0, |&(_, ns)| ns);
                        span.start_ns = at_ns.saturating_sub(took);
                    }
                }
            }
        }
        tracer.dropped()
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn to_json(&self) -> Json {
        Json::obj([
            ("workload", Json::str(&self.workload)),
            ("unit", Json::str("ns since the recorder started")),
            (
                "spans",
                Json::Arr(
                    self.spans
                        .iter()
                        .map(|s| {
                            Json::obj([
                                ("id", Json::Num(s.id as f64)),
                                ("parent", Json::Num(s.parent as f64)),
                                ("name", Json::str(&s.name)),
                                ("mode", Json::str(s.mode)),
                                ("start", Json::Num(s.start_ns as f64)),
                                ("end", Json::Num(s.end_ns as f64)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// Self time of every span, in nanoseconds, indexed like `spans`: the
/// span's duration minus the union of its children's intervals (clipped to
/// the span, so a child that strays outside cannot make it negative).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent.checked_sub(1).and_then(|p| spans.get(p)) {
            let (start, end) = (
                span.start_ns.max(parent.start_ns),
                span.end_ns.min(parent.end_ns),
            );
            if start < end {
                children[parent.id - 1].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(span, intervals)| {
            intervals.sort_unstable();
            let (mut covered, mut reach) = (0u64, span.start_ns);
            for &(start, end) in intervals.iter() {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            span.duration_ns() - covered
        })
        .collect()
}

/// Self time in seconds summed per `(name, mode)`.
pub fn self_seconds_by_name(spans: &[Span]) -> BTreeMap<(String, &'static str), f64> {
    let mut out = BTreeMap::new();
    for (span, self_ns) in spans.iter().zip(self_times_ns(spans)) {
        *out.entry((span.name.clone(), span.mode)).or_insert(0.0) += self_ns as f64 / 1e9;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: usize, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: format!("s{id}"),
            mode: "m",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            span(1, 0, 0, 100), // root
            span(2, 1, 10, 40), // child
            span(3, 1, 50, 90), // child
            span(4, 3, 60, 70), // grandchild: counts against 3, not 1
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 30, 30, 10]);
        // Nothing is lost or counted twice: self times add up to the root.
        assert_eq!(self_times_ns(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn overlapping_and_straying_children_are_clipped() {
        let spans = vec![
            span(1, 0, 100, 200),
            span(2, 1, 120, 160),
            span(3, 1, 150, 180), // overlaps 2 by 10
            span(4, 1, 190, 250), // strays 50 past the parent
            span(5, 1, 10, 20),   // entirely outside
        ];
        // Covered: 120..180 and 190..200.
        assert_eq!(self_times_ns(&spans)[0], 100 - 60 - 10);
    }

    #[test]
    fn recorder_nests_by_call_structure() {
        let mut recorder = Recorder::new("w");
        let ((), outer) = recorder.time("outer", "m", |r| {
            r.time("inner", "m", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let spans = recorder.spans();
        assert_eq!((spans[0].parent, spans[1].parent), (0, 1));
        assert!(spans[1].start_ns >= spans[0].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert!(outer >= 0.002);
        let by_name = self_seconds_by_name(spans);
        let total: f64 = by_name.values().sum();
        assert!((total - outer).abs() < 1e-6);
    }
}
