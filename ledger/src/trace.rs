//! Bench-side spans: an in-memory recorder the workloads wrap around
//! their own calls into each layer's public functions. Each photo,
//! request, pass and round is a root span; the calls it makes are its
//! children. Spans stay in memory until the run ends and are then
//! written as Chrome trace-event JSON.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer function (or root operation) the span wraps.
    pub name: &'static str,
    /// Start, nanoseconds from the recorder's epoch.
    pub start_ns: u64,
    /// End, nanoseconds from the recorder's epoch.
    pub end_ns: u64,
    /// Index of the span that caused this one, within the same recorder.
    pub parent: Option<u32>,
    /// The photo, request, pass or round every span of one operation
    /// shares.
    pub op: u64,
}

/// Per-thread span recorder. A disabled recorder runs the wrapped code
/// and records nothing, so the untraced run pays one branch per span.
#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    tid: u32,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Recorder {
    /// A recorder for thread `tid`, timing from `epoch` (share one epoch
    /// between the threads of a run so their spans line up).
    pub fn new(enabled: bool, epoch: Instant, tid: u32) -> Self {
        Recorder {
            enabled,
            epoch,
            tid,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// The epoch spans are timed from.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Runs `f` inside a span named `name` for operation `op`; spans
    /// opened by `f` through the same recorder become its children.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        op: u64,
        f: impl FnOnce(&mut Recorder) -> R,
    ) -> R {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len() as u32;
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            op,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id as usize].end_ns = self.epoch.elapsed().as_nanos() as u64;
        out
    }

    /// Records an interval measured elsewhere (a request's due→reply
    /// time, say) under `parent`, returning its index for children of
    /// its own; `None` when disabled.
    pub fn record(
        &mut self,
        name: &'static str,
        op: u64,
        start_ns: u64,
        end_ns: u64,
        parent: Option<u32>,
    ) -> Option<u32> {
        if !self.enabled {
            return None;
        }
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            op,
        });
        Some(self.spans.len() as u32 - 1)
    }

    /// The spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The recorder's thread id.
    pub fn tid(&self) -> u32 {
        self.tid
    }
}

/// Every span's self time: its duration minus the part of it its
/// children cover. Children may overlap each other (two replicas written
/// in parallel): the covered part is the union of their intervals,
/// clipped to the parent.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut kids: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let (a, b) = (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns));
            if b > a {
                kids[p as usize].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(kids)
        .map(|(me, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = me.start_ns;
            for (a, b) in kids {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (me.end_ns - me.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Totals for all spans of one name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotals {
    /// Spans recorded under the name.
    pub count: u64,
    /// Sum of their durations.
    pub total_ns: u64,
    /// Sum of their self times.
    pub self_ns: u64,
}

/// Per-name totals over one recorder's spans.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(self_times(spans)) {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.end_ns - s.start_ns;
        t.self_ns += self_ns;
    }
    out
}

/// Cost of recording one span, measured by recording `n` empty ones —
/// what the traced run pays on top of the untraced one.
pub fn span_cost_ns(n: usize) -> f64 {
    let mut r = Recorder::new(true, Instant::now(), 0);
    let t = Instant::now();
    for i in 0..n {
        r.span("calibrate", i as u64, |_| std::hint::black_box(i));
    }
    let ns = t.elapsed().as_nanos() as f64;
    std::hint::black_box(r.spans().len());
    ns / n.max(1) as f64
}

/// Renders the recorders as Chrome trace-event JSON (`ph: "X"` complete
/// events, microsecond timestamps, one `tid` per recorder; `args` carry
/// the operation id and the parent span's index).
pub fn chrome_json(recorders: &[Recorder]) -> String {
    let mut s = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    let mut first = true;
    for r in recorders {
        for (i, sp) in r.spans().iter().enumerate() {
            if !first {
                s.push(',');
            }
            first = false;
            let parent = sp.parent.map_or(-1, i64::from);
            // Writing to a String cannot fail.
            let _ = write!(
                s,
                "\n{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"op\":{},\"id\":{},\"parent\":{}}}}}",
                sp.name,
                r.tid(),
                sp.start_ns as f64 / 1e3,
                (sp.end_ns - sp.start_ns) as f64 / 1e3,
                sp.op,
                i,
                parent
            );
        }
    }
    s.push_str("\n]}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        // root 0..100, child 10..60, grandchild 20..30 (inside child).
        let spans = vec![
            sp("root", 0, 100, None),
            sp("child", 10, 60, Some(0)),
            sp("grandchild", 20, 30, Some(1)),
        ];
        // Only the direct child counts against the root.
        assert_eq!(self_times(&spans), [50, 40, 10]);
        let t = totals(&spans);
        assert_eq!(
            t["root"],
            NameTotals {
                count: 1,
                total_ns: 100,
                self_ns: 50
            }
        );
        // Self times add back up to the root's duration.
        assert_eq!(t.values().map(|x| x.self_ns).sum::<u64>(), 100);
    }

    #[test]
    fn overlapping_children_cover_their_union() {
        // Two replica writes in parallel: 10..50 and 30..70 cover 60, not 80;
        // a disjoint third child 80..90 adds 10; one child spills past the
        // parent's end and is clipped.
        let spans = vec![
            sp("root", 0, 100, None),
            sp("a", 10, 50, Some(0)),
            sp("b", 30, 70, Some(0)),
            sp("c", 80, 90, Some(0)),
            sp("d", 95, 120, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 100 - 60 - 10 - 5);
        // A child wholly inside another adds nothing.
        let spans = vec![
            sp("root", 0, 100, None),
            sp("a", 10, 90, Some(0)),
            sp("b", 20, 30, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 20);
    }

    #[test]
    fn recorder_nests_spans_and_a_disabled_one_records_nothing() {
        let mut r = Recorder::new(true, Instant::now(), 3);
        let out = r.span("photo", 7, |r| {
            r.span("compress", 7, |_| 1) + r.span("put", 7, |_| 2)
        });
        assert_eq!(out, 3);
        let s = r.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(
            (s[0].parent, s[1].parent, s[2].parent),
            (None, Some(0), Some(0))
        );
        assert!(s.iter().all(|x| x.op == 7 && x.end_ns >= x.start_ns));
        assert!(s[0].start_ns <= s[1].start_ns && s[2].end_ns <= s[0].end_ns);

        let mut off = Recorder::new(false, Instant::now(), 0);
        assert_eq!(off.span("photo", 1, |r| r.span("compress", 1, |_| 5)), 5);
        assert_eq!(off.record("late", 1, 0, 10, None), None);
        assert!(off.spans().is_empty());
    }

    #[test]
    fn chrome_json_is_valid_json() {
        let mut r = Recorder::new(true, Instant::now(), 1);
        r.span("round", 0, |r| r.span("core.rpc.cluster.ftdmp", 0, |_| ()));
        let root = r.record("infer_request", 1, 2, 9, None);
        assert_eq!(r.record("core.rpc.client.infer", 1, 5, 9, root), Some(3));
        assert_eq!(self_times(r.spans())[2], 3);
        let json = chrome_json(&[r, Recorder::new(true, Instant::now(), 2)]);
        telemetry::export::validate_json(&json).expect("chrome trace parses");
        assert!(json.contains("\"ph\":\"X\"") && json.contains("\"parent\":0"));
        assert!(span_cost_ns(1000) > 0.0);
    }
}
