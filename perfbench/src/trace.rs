//! Spans recorded by the benchmark around its own calls into each
//! layer's public functions. Spans stay in memory and are written once
//! the run ends; a layer's self time is its span minus the part of that
//! interval its child spans cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Span ids are unique across threads; 0 means "no parent".
static NEXT_ID: AtomicU64 = AtomicU64::new(1);

/// One finished span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub req: u64,
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
}

/// A span that has started; its id is known so children can name it.
#[derive(Debug, Clone, Copy)]
pub struct Open {
    pub id: u64,
    start: u64,
}

/// Span recorder for one thread. Disabled tracers never read the clock,
/// so untraced runs go through the same code at no measurable cost.
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    pub spans: Vec<Span>,
    /// Work counted at the same boundaries as the spans.
    counts: BTreeMap<&'static str, u64>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            epoch: Instant::now(),
            enabled,
            spans: Vec::new(),
            counts: BTreeMap::new(),
        }
    }

    /// A tracer for another thread, sharing this one's epoch so spans
    /// from both lie on one time axis.
    pub fn fork(&self) -> Self {
        Self {
            epoch: self.epoch,
            enabled: self.enabled,
            spans: Vec::new(),
            counts: BTreeMap::new(),
        }
    }

    pub fn start(&self) -> Open {
        if !self.enabled {
            return Open { id: 0, start: 0 };
        }
        Open {
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
            start: self.now(),
        }
    }

    pub fn finish(&mut self, open: Open, name: &'static str, parent: u64, req: u64) {
        if self.enabled {
            let end = self.now();
            self.spans.push(Span {
                id: open.id,
                parent,
                req,
                name,
                start: open.start,
                end,
            });
        }
    }

    /// Time `f` as a span named `name`.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: u64,
        req: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let open = self.start();
        let out = f();
        self.finish(open, name, parent, req);
        out
    }

    pub fn count(&mut self, name: &'static str, n: u64) {
        *self.counts.entry(name).or_insert(0) += n;
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}

/// Per span name: (summed self time in ns, span count).
pub type SelfTimes = BTreeMap<&'static str, (u64, u64)>;

/// Self time of every span, summed per name. Child intervals are
/// clipped to their parent and merged before they are subtracted, so
/// children running in parallel on several threads are not counted
/// twice.
pub fn self_times(spans: &[Span]) -> SelfTimes {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children.entry(s.parent).or_default().push((s.start, s.end));
    }
    let mut out = SelfTimes::new();
    for s in spans {
        let mut covered = 0;
        if let Some(kids) = children.get_mut(&s.id) {
            kids.sort_unstable();
            let mut cursor = s.start;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(cursor), b.min(s.end));
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
        }
        let entry = out.entry(s.name).or_insert((0, 0));
        entry.0 += (s.end - s.start).saturating_sub(covered);
        entry.1 += 1;
    }
    out
}

/// Mean self time of `name` in microseconds per span; 0 when absent.
pub fn mean_self_us(times: &SelfTimes, name: &str) -> f64 {
    times
        .get(name)
        .map_or(0.0, |&(ns, n)| ns as f64 / 1e3 / n.max(1) as f64)
}

/// Write spans as CSV (`id,parent,req,name,start_ns,end_ns`).
pub fn write_csv(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "id,parent,req,name,start_ns,end_ns")?;
    for s in spans {
        writeln!(
            w,
            "{},{},{},{},{},{}",
            s.id, s.parent, s.req, s.name, s.start, s.end
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            req: 1,
            name,
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_merged_children() {
        let spans = vec![
            span(1, 0, "request", 0, 100),
            span(2, 1, "encode", 0, 10),
            // Two children overlapping in time (parallel workers)
            // cover 30..70 once, not 60 ns.
            span(3, 1, "cell", 30, 60),
            span(4, 1, "cell", 40, 70),
            // A child overrunning its parent is clipped to it.
            span(5, 1, "decode", 95, 120),
            span(6, 3, "fit", 35, 55),
        ];
        let t = self_times(&spans);
        assert_eq!(t["request"], (100 - 10 - 40 - 5, 1));
        assert_eq!(t["cell"], (30 - 20 + 30, 2));
        assert_eq!(t["fit"], (20, 1));
        assert_eq!(mean_self_us(&t, "cell"), 0.02);
        assert_eq!(mean_self_us(&t, "absent"), 0.0);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let v = t.span("x", 0, 0, || 7);
        assert_eq!(v, 7);
        assert!(t.spans.is_empty());
        let mut t = Tracer::new(true);
        let outer = t.start();
        t.span("inner", outer.id, 3, || ());
        t.finish(outer, "outer", 0, 3);
        assert_eq!(t.spans.len(), 2);
        assert_eq!(t.spans[0].parent, t.spans[1].id);
        assert!(t.spans[1].start <= t.spans[0].start && t.spans[0].end <= t.spans[1].end);
    }
}
