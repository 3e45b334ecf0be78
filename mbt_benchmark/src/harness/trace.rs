//! In-memory span tracing for the traced run.
//!
//! The benchmark records a span around every call it makes into a layer
//! (`name`, start, end, the span that caused it, and the op — `request` —
//! it belongs to). Spans the program already exports (`Engine::spans()`,
//! the `mbt_obs` global recorder) carry no parent, so they are attached
//! under the innermost benchmark span whose interval contains them. Both
//! timelines count nanoseconds from `mbt_obs::epoch()`.
//!
//! Spans stay in memory until the run ends; the per-layer times the
//! traced run reports are read back from them ([`Tracer::seconds`]), and
//! a layer's self time is its span minus what its children cover.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use super::json::Value;

/// Identifies no span (a root) or no request (set-up, staged replay).
pub const NONE: u64 = 0;

#[derive(Debug, Clone)]
pub struct SpanRec {
    pub id: u64,
    pub parent: u64,
    pub request: u64,
    pub name: String,
    /// Small per-thread integer; 0 for program spans (they carry none).
    pub thread: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl SpanRec {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

fn now_ns() -> u64 {
    u64::try_from(mbt_obs::epoch().elapsed().as_nanos()).unwrap_or(u64::MAX)
}

fn thread_number() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    thread_local! {
        // ordering: only uniqueness of the number matters
        static THREAD: u64 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    THREAD.with(|t| *t)
}

pub struct Tracer {
    on: bool,
    next_id: AtomicU64,
    spans: Mutex<Vec<SpanRec>>,
}

/// An open span; records itself when dropped.
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    id: u64,
    parent: u64,
    request: u64,
    name: &'static str,
    start_ns: u64,
}

impl SpanGuard<'_> {
    /// The id children name as their parent ([`NONE`] when tracing is off).
    pub fn id(&self) -> u64 {
        self.id
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if self.id == NONE {
            return;
        }
        let rec = SpanRec {
            id: self.id,
            parent: self.parent,
            request: self.request,
            name: self.name.to_string(),
            thread: thread_number(),
            start_ns: self.start_ns,
            end_ns: now_ns(),
        };
        self.tracer
            .spans
            .lock()
            .expect("no span holder panics")
            .push(rec);
    }
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Opens a span. With tracing off this is two branches and no clock
    /// read, so the untraced run pays nothing for being traceable.
    pub fn span(&self, name: &'static str, parent: u64, request: u64) -> SpanGuard<'_> {
        if !self.on {
            return SpanGuard {
                tracer: self,
                id: NONE,
                parent,
                request,
                name,
                start_ns: 0,
            };
        }
        SpanGuard {
            tracer: self,
            // ordering: only uniqueness of the id matters
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent,
            request,
            name,
            start_ns: now_ns(),
        }
    }

    /// Runs `f` inside a span.
    pub fn within<R>(
        &self,
        name: &'static str,
        parent: u64,
        request: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let _span = self.span(name, parent, request);
        f()
    }

    /// Attaches spans the program exported under the innermost benchmark
    /// span containing each one; returns how many found a parent.
    pub fn attach_program_spans(&self, program: &[mbt_obs::Span]) -> usize {
        // `record_duration` back-dates a span from "now", so a program
        // span can stick out of the call that produced it by the time it
        // took to reach the recorder.
        const SLACK_NS: u64 = 20_000;
        let mut spans = self.spans.lock().expect("no span holder panics");
        let mut hosts: Vec<(u64, u64, u64, u64)> = spans
            .iter()
            .map(|s| (s.start_ns, s.end_ns, s.id, s.request))
            .collect();
        hosts.sort_unstable();
        let mut attached = 0;
        for p in program {
            let end_ns = p.start_ns.saturating_add(p.dur_ns);
            let upto = hosts.partition_point(|h| h.0 <= p.start_ns.saturating_add(SLACK_NS));
            let host = hosts[..upto]
                .iter()
                .rev()
                .find(|h| h.1.saturating_add(SLACK_NS) >= end_ns);
            let (parent, request) = host.map_or((NONE, NONE), |h| (h.2, h.3));
            attached += usize::from(host.is_some());
            spans.push(SpanRec {
                // ordering: only uniqueness of the id matters
                id: self.next_id.fetch_add(1, Ordering::Relaxed),
                parent,
                request,
                name: format!("program.{}", p.phase.as_str()),
                thread: 0,
                start_ns: p.start_ns,
                end_ns,
            });
        }
        attached
    }

    /// How many spans the trace holds.
    pub fn count(&self) -> usize {
        self.spans.lock().expect("no span holder panics").len()
    }

    /// Durations, in seconds, of every span called `name`, in the order
    /// they ended.
    pub fn seconds(&self, name: &str) -> Vec<f64> {
        self.spans
            .lock()
            .expect("no span holder panics")
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 * 1e-9)
            .collect()
    }

    /// Self time of every span: its duration minus the union of its
    /// children's intervals (children may run in parallel and overlap).
    fn self_ns(spans: &[SpanRec]) -> BTreeMap<u64, u64> {
        let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
        for s in spans {
            if s.parent != NONE {
                children
                    .entry(s.parent)
                    .or_default()
                    .push((s.start_ns, s.end_ns));
            }
        }
        spans
            .iter()
            .map(|s| {
                let mut covered = 0;
                if let Some(kids) = children.get_mut(&s.id) {
                    kids.sort_unstable();
                    let mut reach = s.start_ns;
                    for &(a, b) in kids.iter() {
                        let a = a.max(reach);
                        let b = b.min(s.end_ns);
                        if b > a {
                            covered += b - a;
                            reach = b;
                        }
                    }
                }
                (s.id, s.dur_ns().saturating_sub(covered))
            })
            .collect()
    }

    /// Per span name: `(count, total seconds, total self seconds)`.
    pub fn by_name(&self) -> BTreeMap<String, (usize, f64, f64)> {
        let spans = self.spans.lock().expect("no span holder panics");
        let self_ns = Tracer::self_ns(&spans);
        let mut out: BTreeMap<String, (usize, f64, f64)> = BTreeMap::new();
        for s in spans.iter() {
            let row = out.entry(s.name.clone()).or_default();
            row.0 += 1;
            row.1 += s.dur_ns() as f64 * 1e-9;
            row.2 += self_ns[&s.id] as f64 * 1e-9;
        }
        out
    }

    /// Self seconds of every span called `name`.
    pub fn self_seconds(&self, name: &str) -> Vec<f64> {
        let spans = self.spans.lock().expect("no span holder panics");
        let self_ns = Tracer::self_ns(&spans);
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| self_ns[&s.id] as f64 * 1e-9)
            .collect()
    }

    /// The trace file: one object per span, ordered by start.
    pub fn to_json(&self) -> String {
        let mut spans = self.spans.lock().expect("no span holder panics").clone();
        spans.sort_by_key(|s| (s.start_ns, s.id));
        Value::Arr(
            spans
                .iter()
                .map(|s| {
                    Value::obj([
                        ("id", Value::Num(s.id as f64)),
                        ("parent", Value::Num(s.parent as f64)),
                        ("request", Value::Num(s.request as f64)),
                        ("name", Value::str(&s.name)),
                        ("thread", Value::Num(s.thread as f64)),
                        ("start_ns", Value::Num(s.start_ns as f64)),
                        ("end_ns", Value::Num(s.end_ns as f64)),
                    ])
                })
                .collect(),
        )
        .to_pretty(1)
    }
}

/// The process-wide `mbt_obs` recorder of the traced run: keeps every
/// core-layer span (compile, sweep, fmm_sweep, direct_sweep) in memory.
pub struct VecRecorder(Mutex<Vec<mbt_obs::Span>>);

impl mbt_obs::Recorder for VecRecorder {
    fn record(&self, span: mbt_obs::Span) {
        self.0.lock().expect("no recorder user panics").push(span);
    }
}

impl VecRecorder {
    /// Installs a leaked recorder as the process-wide hook. The hook can
    /// be installed once per process, which is one reason every workload
    /// runs in a process of its own.
    pub fn install() -> &'static VecRecorder {
        let rec: &'static VecRecorder = Box::leak(Box::new(VecRecorder(Mutex::new(Vec::new()))));
        assert!(
            mbt_obs::install_global(rec),
            "the mbt_obs hook was already installed in this process"
        );
        rec
    }

    /// Removes and returns everything recorded so far.
    pub fn drain(&self) -> Vec<mbt_obs::Span> {
        std::mem::take(&mut *self.0.lock().expect("no recorder user panics"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let rec = |id, parent, start_ns, end_ns| SpanRec {
            id,
            parent,
            request: 1,
            name: "x".to_string(),
            thread: 1,
            start_ns,
            end_ns,
        };
        // children [10,40] and [30,60] overlap; [90,120] sticks out past 100
        let spans = vec![
            rec(1, NONE, 0, 100),
            rec(2, 1, 10, 40),
            rec(3, 1, 30, 60),
            rec(4, 1, 90, 120),
        ];
        let s = Tracer::self_ns(&spans);
        assert_eq!(s[&1], 100 - 50 - 10);
        assert_eq!(s[&2], 30);
    }

    #[test]
    fn program_spans_land_under_the_innermost_host() {
        let t = Tracer::new(true);
        let (outer_id, inner_id);
        let (a, b);
        {
            let outer = t.span("op", NONE, 7);
            outer_id = outer.id();
            {
                let inner = t.span("layer", outer.id(), 7);
                inner_id = inner.id();
                a = now_ns();
                std::thread::sleep(std::time::Duration::from_millis(2));
                b = now_ns();
            }
        }
        let n = t.attach_program_spans(&[mbt_obs::Span {
            phase: mbt_obs::Phase::Sweep,
            start_ns: a,
            dur_ns: b - a,
        }]);
        assert_eq!(n, 1);
        let spans = t.spans.lock().unwrap();
        let prog = spans.iter().find(|s| s.name == "program.sweep").unwrap();
        assert_eq!((prog.parent, prog.request), (inner_id, 7));
        assert_ne!(prog.parent, outer_id);
        drop(spans);
        assert_eq!(t.seconds("op").len(), 1);
        assert_eq!(Tracer::new(false).span("op", NONE, 1).id(), NONE);
    }
}
