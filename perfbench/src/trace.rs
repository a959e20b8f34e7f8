//! In-memory spans around the benchmark's calls into the simulator's
//! layers, and the self-time arithmetic over them.
//!
//! A span records one public call: its name, start, end, the span that
//! caused it and the id of the `World` it belongs to (0 for work that
//! belongs to the whole workload). Spans are only collected; nothing is
//! written until the pass ends.

use std::sync::Mutex;
use std::time::Instant;

/// Index of a span in its [`Trace`].
pub type SpanId = usize;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Seconds since the trace's origin.
    pub start: f64,
    pub end: f64,
    pub parent: Option<SpanId>,
    /// 1-based id of the `World` the span belongs to; 0 = workload-wide.
    pub run: usize,
}

/// Span collector shared by the pool's workers. `None` inside means
/// tracing is off and every call is a plain pass-through.
pub struct Trace {
    origin: Instant,
    spans: Option<Mutex<Vec<Span>>>,
}

impl Trace {
    pub fn new(enabled: bool) -> Self {
        Trace {
            origin: Instant::now(),
            spans: enabled.then(|| Mutex::new(Vec::new())),
        }
    }

    pub fn enabled(&self) -> bool {
        self.spans.is_some()
    }

    /// Open a span; its end is filled in by [`Trace::close`].
    pub fn open(&self, name: &'static str, parent: Option<SpanId>, run: usize) -> Option<SpanId> {
        let spans = self.spans.as_ref()?;
        let start = self.origin.elapsed().as_secs_f64();
        let mut v = spans
            .lock()
            .expect("span list poisoned by a panicking worker");
        v.push(Span {
            name,
            start,
            end: start,
            parent,
            run,
        });
        Some(v.len() - 1)
    }

    pub fn close(&self, id: Option<SpanId>) {
        if let (Some(spans), Some(id)) = (&self.spans, id) {
            let end = self.origin.elapsed().as_secs_f64();
            spans
                .lock()
                .expect("span list poisoned by a panicking worker")[id]
                .end = end;
        }
    }

    /// Run `f` inside a span.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        run: usize,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, parent, run);
        let r = f();
        self.close(id);
        r
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
            .map(|m| {
                m.into_inner()
                    .expect("span list poisoned by a panicking worker")
            })
            .unwrap_or_default()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover. Children may overlap each other (the pool
/// runs them on several threads), so the covered part is the length of
/// the union of the children's intervals, clipped to the parent.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (lo, hi) = (spans[p].start, spans[p].end);
            let (a, b) = (s.start.max(lo), s.end.min(hi));
            if b > a {
                children[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| (s.end - s.start) - union_len(kids))
        .collect()
}

/// Length of the union of half-open intervals.
fn union_len(iv: &mut [(f64, f64)]) -> f64 {
    iv.sort_by(|x, y| x.0.total_cmp(&y.0));
    let mut total = 0.0;
    let mut cur: Option<(f64, f64)> = None;
    for &(a, b) in iv.iter() {
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    if let Some((ca, cb)) = cur {
        total += cb - ca;
    }
    total
}

/// Sum of self times of every span named `name`.
pub fn self_time_of(spans: &[Span], selfs: &[f64], name: &str) -> f64 {
    spans
        .iter()
        .zip(selfs)
        .filter(|(s, _)| s.name == name)
        .fold(0.0, |acc, (_, t)| acc + t)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(name: &'static str, start: f64, end: f64, parent: Option<SpanId>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            run: 0,
        }
    }

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn leaf_self_time_is_its_duration() {
        let s = self_times(&[sp("a", 1.0, 3.5, None)]);
        assert!(close(s[0], 2.5));
    }

    #[test]
    fn nested_children_subtract_only_from_their_parent() {
        // root [0,10] > mid [1,7] > leaf [2,5]
        let spans = [
            sp("root", 0.0, 10.0, None),
            sp("mid", 1.0, 7.0, Some(0)),
            sp("leaf", 2.0, 5.0, Some(1)),
        ];
        let s = self_times(&spans);
        assert!(close(s[0], 4.0), "root {}", s[0]);
        assert!(close(s[1], 3.0), "mid {}", s[1]);
        assert!(close(s[2], 3.0), "leaf {}", s[2]);
        // Self times of a tree add up to the root's duration.
        assert!(close(s.iter().sum::<f64>(), 10.0));
    }

    #[test]
    fn disjoint_siblings_both_subtract() {
        let spans = [
            sp("root", 0.0, 10.0, None),
            sp("a", 1.0, 3.0, Some(0)),
            sp("b", 6.0, 9.0, Some(0)),
        ];
        let s = self_times(&spans);
        assert!(close(s[0], 5.0), "root {}", s[0]);
    }

    #[test]
    fn overlapping_siblings_count_their_union_once() {
        // Two pool workers: [1,6] and [2,8] cover [1,8] → 7 of 10.
        let spans = [
            sp("pool", 0.0, 10.0, None),
            sp("w1", 1.0, 6.0, Some(0)),
            sp("w2", 2.0, 8.0, Some(0)),
            sp("w3", 3.0, 4.0, Some(0)),
        ];
        let s = self_times(&spans);
        assert!(close(s[0], 3.0), "pool {}", s[0]);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let spans = [sp("p", 0.0, 4.0, None), sp("c", 3.0, 9.0, Some(0))];
        let s = self_times(&spans);
        assert!(close(s[0], 3.0), "p {}", s[0]);
    }

    #[test]
    fn self_time_of_sums_by_name() {
        let spans = [
            sp("root", 0.0, 10.0, None),
            sp("x", 0.0, 1.0, Some(0)),
            sp("x", 2.0, 4.0, Some(0)),
        ];
        let s = self_times(&spans);
        assert!(close(self_time_of(&spans, &s, "x"), 3.0));
        assert!(close(self_time_of(&spans, &s, "root"), 7.0));
    }

    #[test]
    fn disabled_trace_records_nothing() {
        let t = Trace::new(false);
        assert_eq!(t.span("x", None, 0, || 7), 7);
        assert!(t.into_spans().is_empty());
    }

    #[test]
    fn enabled_trace_records_parent_and_run() {
        let t = Trace::new(true);
        let root = t.open("root", None, 0);
        t.span("child", root, 3, || ());
        t.close(root);
        let spans = t.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].run, 3);
        assert!(spans[0].end >= spans[1].end);
    }
}
