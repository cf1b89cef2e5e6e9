//! In-memory span recorder for the traced run.
//!
//! A span is a named interval with the span that caused it. Spans are
//! recorded from the benchmark's own code, around calls into the
//! program's public functions, kept in memory while the run lasts and
//! saved once at exit. Self time is a span's duration minus the part of
//! it that its children cover.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

use ebcp_harness::Value;

/// Index of a recorded span.
pub type SpanId = usize;

#[derive(Debug, Clone)]
struct Span {
    name: String,
    parent: Option<SpanId>,
    start_ns: u64,
    end_ns: u64,
}

/// The span store of one traced run.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// An empty recorder; times are nanoseconds since its creation.
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Nanoseconds since the recorder was created.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn spans(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Opens a span now; close it with [`Tracer::close`].
    pub fn open(&self, name: &str, parent: Option<SpanId>) -> SpanId {
        let start_ns = self.now();
        self.record(name, parent, start_ns, start_ns)
    }

    /// Closes `id` now and returns its duration in nanoseconds.
    pub fn close(&self, id: SpanId) -> u64 {
        let end = self.now();
        let mut spans = self.spans();
        spans[id].end_ns = end;
        end - spans[id].start_ns
    }

    /// Records an already-finished span.
    pub fn record(&self, name: &str, parent: Option<SpanId>, start_ns: u64, end_ns: u64) -> SpanId {
        let mut spans = self.spans();
        spans.push(Span {
            name: name.to_owned(),
            parent,
            start_ns,
            end_ns: end_ns.max(start_ns),
        });
        spans.len() - 1
    }

    /// Runs `f` inside a span named `name`; returns its result and the
    /// span's duration in nanoseconds.
    pub fn time<R>(&self, name: &str, parent: Option<SpanId>, f: impl FnOnce() -> R) -> (R, u64) {
        let id = self.open(name, parent);
        let r = f();
        (r, self.close(id))
    }

    /// Duration of span `id`, in nanoseconds.
    pub fn duration(&self, id: SpanId) -> u64 {
        let s = &self.spans()[id];
        s.end_ns - s.start_ns
    }

    /// The direct children of `id`: `(child, start_ns, end_ns)`.
    pub fn children(&self, id: SpanId) -> Vec<(SpanId, u64, u64)> {
        self.spans()
            .iter()
            .enumerate()
            .filter(|(_, s)| s.parent == Some(id))
            .map(|(i, s)| (i, s.start_ns, s.end_ns))
            .collect()
    }

    /// Every span below `root`, with `root` itself first.
    fn subtree(spans: &[Span], root: SpanId) -> Vec<SpanId> {
        let mut children: Vec<Vec<SpanId>> = vec![Vec::new(); spans.len()];
        for (i, s) in spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(i);
            }
        }
        let mut out = vec![root];
        let mut k = 0;
        while k < out.len() {
            out.extend(&children[out[k]]);
            k += 1;
        }
        out
    }

    /// Self time per span name, in nanoseconds, over the subtree rooted
    /// at `root` (the root included).
    pub fn self_times(&self, root: SpanId) -> BTreeMap<String, u64> {
        let spans = self.spans();
        let tree = Self::subtree(&spans, root);
        let mut out = BTreeMap::new();
        for &i in &tree {
            let s = &spans[i];
            let covered = union_len(tree.iter().filter(|&&c| spans[c].parent == Some(i)).map(
                |&c| {
                    (
                        spans[c].start_ns.max(s.start_ns),
                        spans[c].end_ns.min(s.end_ns),
                    )
                },
            ));
            *out.entry(s.name.clone()).or_insert(0) +=
                (s.end_ns - s.start_ns).saturating_sub(covered);
        }
        out
    }

    /// The share of `root`'s duration during which at least one span
    /// below it whose name passes `is_layer` was open.
    pub fn coverage(&self, root: SpanId, is_layer: impl Fn(&str) -> bool) -> f64 {
        let spans = self.spans();
        let r = &spans[root];
        let covered = union_len(
            Self::subtree(&spans, root)
                .into_iter()
                .skip(1)
                .filter(|&i| is_layer(&spans[i].name))
                .map(|i| {
                    (
                        spans[i].start_ns.max(r.start_ns),
                        spans[i].end_ns.min(r.end_ns),
                    )
                }),
        );
        covered as f64 / (r.end_ns - r.start_ns).max(1) as f64
    }

    /// Saves every span as a JSON array of `{id, name, parent,
    /// start_ns, end_ns}` objects.
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        let doc = Value::Arr(
            self.spans()
                .iter()
                .enumerate()
                .map(|(i, s)| {
                    Value::Obj(vec![
                        ("id".into(), Value::Int(i as u64)),
                        ("name".into(), Value::Str(s.name.clone())),
                        (
                            "parent".into(),
                            s.parent.map_or(Value::Null, |p| Value::Int(p as u64)),
                        ),
                        ("start_ns".into(), Value::Int(s.start_ns)),
                        ("end_ns".into(), Value::Int(s.end_ns)),
                    ])
                })
                .collect(),
        );
        ebcp_harness::write_doc(path, &doc)
    }
}

/// Total length covered by a set of (possibly overlapping) intervals.
fn union_len(intervals: impl Iterator<Item = (u64, u64)>) -> u64 {
    let mut v: Vec<(u64, u64)> = intervals.filter(|(a, b)| b > a).collect();
    v.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in v {
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    total + cur.map_or(0, |(a, b)| b - a)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let t = Tracer::new();
        let root = t.record("root", None, 0, 100);
        t.record("a", Some(root), 10, 40);
        t.record("a", Some(root), 30, 50);
        t.record("b", Some(root), 80, 90);
        let st = t.self_times(root);
        assert_eq!(st["root"], 100 - 40 - 10);
        assert_eq!(st["a"], 30 + 20);
        assert_eq!(st["b"], 10);
        assert!((t.coverage(root, |n| n == "a") - 0.4).abs() < 1e-12);
    }
}
