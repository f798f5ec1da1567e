//! The benchmark's own span recorder, attached from outside through
//! `Cell::set_stage_observer`.
//!
//! One span per (rep, stage, simulated-second bucket with at least one
//! active TTI). A stage's self time is exclusive: `RlcDown` work
//! re-entered from inside `PhyTx` is charged to `RlcDown` by keeping a
//! stage stack and charging every lap between two callbacks to the
//! stage on top of it. Spans stay in memory; the observer hands them
//! over when the cell drops it.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use outran_ran::stages::{StageId, StageObserver, TtiSummary};
use outran_simcore::Time;

use crate::json::Json;

pub const N_STAGES: usize = StageId::ALL.len();

fn slot(id: StageId) -> usize {
    StageId::ALL.iter().position(|&s| s == id).unwrap()
}

/// Stage activity inside one simulated second of one rep.
#[derive(Debug, Clone, Copy, Default)]
struct StageSpan {
    start_ns: u64,
    end_ns: u64,
    self_ns: u64,
    entries: u64,
}

/// What one traced rep recorded.
#[derive(Debug, Default)]
pub struct RepTrace {
    /// `(simulated second, per-stage span)` in time order.
    buckets: Vec<(u64, [StageSpan; N_STAGES])>,
    pub active_ttis: u64,
    pub used_rbs: u64,
    pub total_rbs: u64,
}

impl RepTrace {
    /// Exclusive seconds per stage, in `StageId::ALL` order.
    pub fn self_s(&self) -> [f64; N_STAGES] {
        let mut out = [0.0; N_STAGES];
        for (_, spans) in &self.buckets {
            for (o, s) in out.iter_mut().zip(spans) {
                *o += s.self_ns as f64 / 1e9;
            }
        }
        out
    }
}

pub type TraceSink = Arc<Mutex<Option<RepTrace>>>;

pub struct SpanObserver {
    origin: Instant,
    last: Instant,
    stack: Vec<StageId>,
    /// The TTI in progress; its bucket is only known at `on_tti`.
    tti: [StageSpan; N_STAGES],
    trace: RepTrace,
    sink: TraceSink,
}

impl SpanObserver {
    /// `origin` is the instant the rep's timed region started, so span
    /// times are offsets into the rep span.
    pub fn new(origin: Instant, sink: TraceSink) -> SpanObserver {
        SpanObserver {
            origin,
            last: origin,
            stack: Vec::with_capacity(4),
            tti: [StageSpan::default(); N_STAGES],
            trace: RepTrace::default(),
            sink,
        }
    }

    /// Charge the time since the previous callback to the stage on top
    /// of the stack (nothing when between stages) and return "now".
    fn lap(&mut self) -> u64 {
        let t = Instant::now();
        if let Some(&top) = self.stack.last() {
            self.tti[slot(top)].self_ns += t.duration_since(self.last).as_nanos() as u64;
        }
        self.last = t;
        t.duration_since(self.origin).as_nanos() as u64
    }
}

impl StageObserver for SpanObserver {
    fn stage_enter(&mut self, id: StageId) {
        let at = self.lap();
        let s = &mut self.tti[slot(id)];
        if s.entries == 0 {
            s.start_ns = at;
        }
        s.entries += 1;
        self.stack.push(id);
    }

    fn stage_exit(&mut self, id: StageId) {
        let at = self.lap();
        self.stack.pop();
        self.tti[slot(id)].end_ns = at;
    }

    fn on_tti(&mut self, now: Time, summary: &TtiSummary) {
        let sec = now.as_nanos() / 1_000_000_000;
        if self.trace.buckets.last().map(|b| b.0) != Some(sec) {
            self.trace
                .buckets
                .push((sec, [StageSpan::default(); N_STAGES]));
        }
        let bucket = &mut self.trace.buckets.last_mut().unwrap().1;
        for (b, t) in bucket.iter_mut().zip(&self.tti) {
            if t.entries > 0 {
                if b.entries == 0 {
                    b.start_ns = t.start_ns;
                }
                b.end_ns = t.end_ns;
                b.self_ns += t.self_ns;
                b.entries += t.entries;
            }
        }
        self.tti = [StageSpan::default(); N_STAGES];
        self.trace.active_ttis += 1;
        self.trace.used_rbs += summary.used_rbs as u64;
        self.trace.total_rbs += summary.total_rbs as u64;
    }
}

impl Drop for SpanObserver {
    fn drop(&mut self) {
        if let Ok(mut sink) = self.sink.lock() {
            *sink = Some(std::mem::take(&mut self.trace));
        }
    }
}

/// Flatten the run into the span list written to `out/trace-<w>.json`:
/// span 0 is the run, one child per rep, one grandchild per (stage,
/// simulated second). Times are nanoseconds from the run's start.
pub fn spans_json(workload: &str, run_ns: u64, reps: &[(u64, u64, RepTrace)]) -> Json {
    let num = |n: u64| Json::Num(n as f64);
    let span = |id: usize, parent: Option<usize>, name: &str, start: u64, end: u64| {
        vec![
            ("id".to_string(), num(id as u64)),
            (
                "parent".to_string(),
                parent.map_or(Json::Null, |p| num(p as u64)),
            ),
            ("name".to_string(), Json::Str(name.to_string())),
            ("start_ns".to_string(), num(start)),
            ("end_ns".to_string(), num(end)),
        ]
    };
    let mut spans = vec![Json::Obj(span(0, None, workload, 0, run_ns))];
    for (rep, (start, end, trace)) in reps.iter().enumerate() {
        let rep_id = spans.len();
        spans.push(Json::Obj(span(
            rep_id,
            Some(0),
            &format!("rep{rep}"),
            *start,
            *end,
        )));
        for (sec, stages) in &trace.buckets {
            for (id, s) in StageId::ALL.iter().zip(stages) {
                if s.entries == 0 {
                    continue;
                }
                let mut o = span(
                    spans.len(),
                    Some(rep_id),
                    id.name(),
                    start + s.start_ns,
                    start + s.end_ns,
                );
                o.push(("sim_s".to_string(), num(*sec)));
                o.push(("self_ns".to_string(), num(s.self_ns)));
                o.push(("entries".to_string(), num(s.entries)));
                spans.push(Json::Obj(o));
            }
        }
    }
    Json::Obj(vec![
        ("workload".to_string(), Json::Str(workload.to_string())),
        ("spans".to_string(), Json::Arr(spans)),
    ])
}
