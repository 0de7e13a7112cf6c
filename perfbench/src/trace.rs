//! In-memory spans recorded from outside the layers: one span per call the
//! benchmark makes into a layer's public function.
//!
//! A span has a layer, a name, a start and end (ns since the tracer was
//! made), a parent span and an optional job id shared by every span of one
//! job. The whole set is written out once the pass ends; a layer's self
//! time is the summed duration of its spans minus the part of each span
//! its child spans cover. Spans that start after the timed phase belong to
//! the attribution calls a traced pass makes once the timed phase is over.

use ruche_telemetry::json::Json;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub job: Option<u64>,
    pub layer: &'static str,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// The span store of one pass.
#[derive(Debug)]
pub struct Tracer {
    t0: Instant,
    next: AtomicU64,
    timed_end: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            t0: Instant::now(),
            next: AtomicU64::new(1),
            timed_end: AtomicU64::new(u64::MAX),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Marks the end of the pass's timed phase.
    pub fn end_timed_phase(&self) {
        self.timed_end.store(self.now(), Ordering::Relaxed);
    }

    /// When the timed phase ended (ns since the tracer was made).
    pub fn timed_end(&self) -> u64 {
        self.timed_end.load(Ordering::Relaxed)
    }

    /// Nanoseconds since the tracer was made.
    pub fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// `t` as nanoseconds since the tracer was made.
    pub fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.t0).as_nanos() as u64
    }

    /// Reserves a span id, so children can name their parent before it ends.
    pub fn open(&self) -> u64 {
        self.next.fetch_add(1, Ordering::Relaxed)
    }

    /// Records a finished span under a reserved id.
    #[allow(clippy::too_many_arguments)]
    pub fn close(
        &self,
        id: u64,
        parent: Option<u64>,
        job: Option<u64>,
        layer: &'static str,
        name: impl Into<String>,
        start_ns: u64,
        end_ns: u64,
    ) {
        self.spans.lock().expect("span store lock").push(Span {
            id,
            parent,
            job,
            layer,
            name: name.into(),
            start_ns,
            end_ns,
        });
    }

    pub fn spans(&self) -> Vec<Span> {
        let mut v = self.spans.lock().expect("span store lock").clone();
        v.sort_by_key(|s| (s.start_ns, s.id));
        v
    }
}

/// Times `f` as one span when a tracer is given; always returns the
/// elapsed seconds. `f` receives the span's id to parent its children.
pub fn span<T>(
    tr: Option<&Tracer>,
    layer: &'static str,
    name: &str,
    parent: Option<u64>,
    job: Option<u64>,
    f: impl FnOnce(Option<u64>) -> T,
) -> (T, f64) {
    let id = tr.map(Tracer::open);
    let start = tr.map_or(0, Tracer::now);
    let t = Instant::now();
    let out = f(id);
    let secs = t.elapsed().as_secs_f64();
    if let (Some(tr), Some(id)) = (tr, id) {
        tr.close(id, parent, job, layer, name, start, tr.now());
    }
    (out, secs)
}

/// Self time per layer: each span's duration minus the union of its
/// children's intervals (children of one span may overlap when they ran
/// on different workers).
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    let mut out = BTreeMap::new();
    for s in spans {
        let mut covered = 0u64;
        if let Some(kids) = children.get_mut(&s.id) {
            kids.sort_unstable();
            let mut cur: Option<(u64, u64)> = None;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(s.start_ns), b.min(s.end_ns));
                if a >= b {
                    continue;
                }
                cur = match cur {
                    Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        Some((a, b))
                    }
                    None => Some((a, b)),
                };
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
        }
        let own = (s.end_ns - s.start_ns).saturating_sub(covered);
        *out.entry(s.layer).or_insert(0.0) += own as f64 * 1e-9;
    }
    out
}

/// The spans as JSON, for the trace file, each marked with its phase:
/// `timed` if it starts before `timed_end`, else `attribution`.
pub fn to_json(spans: &[Span], timed_end: u64) -> Json {
    let opt = |v: Option<u64>| v.map_or(Json::Str("-".into()), Json::U64);
    Json::Arr(
        spans
            .iter()
            .map(|s| {
                Json::Obj(vec![
                    ("id".into(), Json::U64(s.id)),
                    ("parent".into(), opt(s.parent)),
                    ("job".into(), opt(s.job)),
                    ("layer".into(), Json::Str(s.layer.into())),
                    ("name".into(), Json::Str(s.name.clone())),
                    ("start_ns".into(), Json::U64(s.start_ns)),
                    ("end_ns".into(), Json::U64(s.end_ns)),
                    (
                        "phase".into(),
                        Json::Str(
                            if s.start_ns < timed_end {
                                "timed"
                            } else {
                                "attribution"
                            }
                            .into(),
                        ),
                    ),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(id: u64, parent: Option<u64>, layer: &'static str, a: u64, b: u64) -> Span {
        Span {
            id,
            parent,
            job: None,
            layer,
            name: String::new(),
            start_ns: a,
            end_ns: b,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let spans = [
            s(1, None, "pool", 0, 100),
            s(2, Some(1), "job", 10, 50),
            s(3, Some(1), "job", 30, 70),
            s(4, Some(1), "job", 80, 90),
        ];
        let t = self_times(&spans);
        assert!((t["pool"] - 30e-9).abs() < 1e-15);
        assert!((t["job"] - 90e-9).abs() < 1e-15);
    }
}
