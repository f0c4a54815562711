//! Spans around the calls into each layer: name, start, end, and the span
//! that caused it. Kept in memory while the loop runs, aggregated and
//! written out afterwards. A layer's *self* time is its span's duration
//! minus the part its child spans cover.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Parent id of a span nobody caused.
pub const ROOT: u32 = u32::MAX;

/// One recorded span. Times are nanoseconds since the tracer was created.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
}

#[derive(Debug)]
struct Inner {
    origin: Instant,
    spans: Vec<Span>,
    /// Ids of the spans currently open, innermost last.
    open: Vec<u32>,
}

/// A cloneable handle to one span recorder. The traced loop is single
/// threaded; the mutex exists because the crypto provider it is injected
/// into must be `Sync`, and is never contended.
#[derive(Clone, Debug)]
pub struct Tracer {
    /// `None` = spans off: `span` runs its closure and reads no clock.
    inner: Option<Arc<Mutex<Inner>>>,
}

impl Tracer {
    /// A recorder with spans on or off.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            inner: enabled.then(|| {
                Arc::new(Mutex::new(Inner {
                    origin: Instant::now(),
                    spans: Vec::new(),
                    open: Vec::new(),
                }))
            }),
        }
    }

    /// Runs `f` inside a span called `name`, child of whatever span is open.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let Some(inner) = &self.inner else {
            return f();
        };
        let id = {
            let mut t = inner.lock().expect("tracer lock");
            let id = t.spans.len() as u32;
            let parent = t.open.last().copied().unwrap_or(ROOT);
            let start_ns = t.origin.elapsed().as_nanos() as u64;
            t.spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent,
            });
            t.open.push(id);
            id
        };
        let result = f();
        let mut t = inner.lock().expect("tracer lock");
        t.spans[id as usize].end_ns = t.origin.elapsed().as_nanos() as u64;
        let closed = t.open.pop();
        debug_assert_eq!(closed, Some(id), "spans must nest");
        result
    }

    /// Takes the recorded spans (empty when spans are off).
    pub fn take(&self) -> Vec<Span> {
        self.inner
            .as_ref()
            .map(|inner| std::mem::take(&mut inner.lock().expect("tracer lock").spans))
            .unwrap_or_default()
    }
}

/// Totals of all spans sharing a name.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Aggregate {
    pub count: u64,
    /// Sum of durations.
    pub total_ns: u64,
    /// Sum of durations minus the time covered by direct children.
    pub self_ns: u64,
}

/// Per-name totals with self time. Children never overlap each other (the
/// recorder is a stack), so the time they cover is the sum of their
/// durations.
pub fn aggregate(spans: &[Span]) -> BTreeMap<&'static str, Aggregate> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != ROOT {
            child_ns[s.parent as usize] += s.end_ns - s.start_ns;
        }
    }
    let mut out: BTreeMap<&'static str, Aggregate> = BTreeMap::new();
    for (s, covered) in spans.iter().zip(child_ns) {
        let dur = s.end_ns - s.start_ns;
        let a = out.entry(s.name).or_default();
        a.count += 1;
        a.total_ns += dur;
        a.self_ns += dur.saturating_sub(covered);
    }
    out
}

/// Writes the raw spans as CSV: `id,parent,name,start_ns,end_ns` (parent is
/// empty for a root span).
pub fn write_csv(spans: &[Span], w: &mut impl Write) -> io::Result<()> {
    writeln!(w, "id,parent,name,start_ns,end_ns")?;
    for (id, s) in spans.iter().enumerate() {
        if s.parent == ROOT {
            writeln!(w, "{id},,{},{},{}", s.name, s.start_ns, s.end_ns)?;
        } else {
            writeln!(
                w,
                "{id},{},{},{},{}",
                s.parent, s.name, s.start_ns, s.end_ns
            )?;
        }
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // on_message [0,100) has two verify children [10,30) and [40,50);
        // the first verify has a hash grandchild [12,20).
        let spans = [
            span("on_message", 0, 100, ROOT),
            span("verify", 10, 30, 0),
            span("hash", 12, 20, 1),
            span("verify", 40, 50, 0),
            span("decode", 100, 130, ROOT),
        ];
        let agg = aggregate(&spans);
        assert_eq!(
            agg["on_message"],
            Aggregate {
                count: 1,
                total_ns: 100,
                self_ns: 70
            }
        );
        // verify: 20 + 10 total, minus the 8 ns grandchild under the first.
        assert_eq!(
            agg["verify"],
            Aggregate {
                count: 2,
                total_ns: 30,
                self_ns: 22
            }
        );
        assert_eq!(agg["hash"].self_ns, 8);
        assert_eq!(agg["decode"].self_ns, 30);
        // Self times partition the root spans' wall time exactly.
        let self_sum: u64 = agg.values().map(|a| a.self_ns).sum();
        assert_eq!(self_sum, 100 + 30);
    }

    #[test]
    fn recorder_nests_and_parents() {
        let t = Tracer::new(true);
        let v = t.span("outer", || t.span("inner", || 1) + t.span("inner", || 2));
        assert_eq!(v, 3);
        let spans = t.take();
        assert_eq!(spans.len(), 3);
        assert_eq!((spans[0].name, spans[0].parent), ("outer", ROOT));
        assert_eq!((spans[1].name, spans[1].parent), ("inner", 0));
        assert_eq!((spans[2].name, spans[2].parent), ("inner", 0));
        assert!(spans[0].start_ns <= spans[1].start_ns);
        assert!(spans[1].end_ns <= spans[2].start_ns);
        assert!(spans[2].end_ns <= spans[0].end_ns);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span("x", || 5), 5);
        assert!(t.take().is_empty());
    }

    #[test]
    fn csv_has_one_row_per_span() {
        let spans = [span("a", 0, 5, ROOT), span("b", 1, 2, 0)];
        let mut out = Vec::new();
        write_csv(&spans, &mut out).unwrap();
        assert_eq!(
            String::from_utf8(out).unwrap(),
            "id,parent,name,start_ns,end_ns\n0,,a,0,5\n1,0,b,1,2\n"
        );
    }
}
