//! Spans and counters recorded by the benchmark around calls into each
//! layer's public functions. Nothing inside the program is instrumented:
//! a span opens before the benchmark calls a layer and closes when the
//! call returns, and the forwarding wrappers below count and time what
//! the layers ask of the metric and the sequential solver.

use fairsw_metric::{ColoredId, CoresetView, Metric, Resolver};
use fairsw_sequential::{FairCenterSolver, FairSolution, Instance, SolveError};
use std::io::{self, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One recorded span: a named interval, the span that caused it, and
/// the request it belongs to.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub req: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// In-memory span recorder; spans are written out once, when the run ends.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Nanoseconds since the tracer started.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span named `name`, nested under the innermost open span.
    pub fn open(&mut self, name: &'static str, req: u64) -> usize {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            req,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        id
    }

    /// Closes the innermost open span, `id`.
    pub fn close(&mut self, id: usize) {
        let top = self.open.pop();
        debug_assert_eq!(top, Some(id), "spans close innermost first");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span named `name`. Returns `f`'s value and the
    /// span's index.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        req: u64,
        f: impl FnOnce(&mut Self) -> T,
    ) -> (T, usize) {
        let id = self.open(name, req);
        let out = f(self);
        self.close(id);
        (out, id)
    }

    /// Duration of span `id` in nanoseconds.
    pub fn ns(&self, id: usize) -> f64 {
        self.spans[id].dur_ns() as f64
    }

    /// Records an interval measured elsewhere (another thread, or a
    /// wrapper's own clock) as a child of `parent`.
    pub fn record(
        &mut self,
        name: &'static str,
        req: u64,
        parent: Option<usize>,
        start_ns: u64,
        end_ns: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            req,
            parent,
            start_ns,
            end_ns,
        });
        self.spans.len() - 1
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes every span as one tab-separated line:
    /// `index name req parent start_ns end_ns self_ns`.
    pub fn write_tsv(&self, path: &Path) -> io::Result<()> {
        let selfs = self_times(&self.spans);
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tname\treq\tparent\tstart_ns\tend_ns\tself_ns")?;
        for (i, (s, own)) in self.spans.iter().zip(&selfs).enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{i}\t{}\t{}\t{parent}\t{}\t{}\t{own}",
                s.name, s.req, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// covered by its children (children clipped to the parent, overlaps
/// between children counted once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start_ns;
            for &(a, b) in kids.iter() {
                let a = a.clamp(cursor, s.end_ns);
                let b = b.clamp(a, s.end_ns);
                covered += b - a;
                cursor = cursor.max(b);
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// Mean cost of recording one span, measured by recording `n` empty ones.
pub fn span_cost_ns(n: usize) -> f64 {
    let mut t = Tracer::new();
    let start = Instant::now();
    for i in 0..n {
        t.span("calibrate", i as u64, |_| ());
    }
    start.elapsed().as_nanos() as f64 / n.max(1) as f64
}

// ---- the metric layer -----------------------------------------------------

/// Distance evaluations and busy time accumulated by [`Counting`].
#[derive(Default, Debug)]
pub struct MetricCounters {
    evals: AtomicU64,
    busy_ns: AtomicU64,
    scalar_calls: AtomicU64,
    /// What reading the clock twice costs; subtracted from every timing.
    clock_ns: u64,
}

/// A snapshot of [`MetricCounters`]; subtract two to get one call's share.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct MetricTally {
    pub evals: u64,
    pub busy_ns: u64,
}

impl std::ops::Sub for MetricTally {
    type Output = MetricTally;
    fn sub(self, rhs: Self) -> Self {
        MetricTally {
            evals: self.evals - rhs.evals,
            busy_ns: self.busy_ns - rhs.busy_ns,
        }
    }
}

impl MetricCounters {
    /// Counters whose timings exclude the cost of reading the clock,
    /// taken as the fastest of many back-to-back readings.
    pub fn calibrated() -> Self {
        let clock_ns = (0..10_000)
            .map(|_| {
                let t = Instant::now();
                t.elapsed().as_nanos() as u64
            })
            .min()
            .unwrap_or(0);
        MetricCounters {
            clock_ns,
            ..Self::default()
        }
    }

    fn add_busy(&self, t: Instant, scale: u64) {
        let ns = (t.elapsed().as_nanos() as u64).saturating_sub(self.clock_ns);
        self.busy_ns.fetch_add(ns * scale, Ordering::Relaxed);
    }

    pub fn tally(&self) -> MetricTally {
        // Plain statistics: no other data is published through them.
        MetricTally {
            evals: self.evals.load(Ordering::Relaxed),
            busy_ns: self.busy_ns.load(Ordering::Relaxed),
        }
    }
}

/// Every this-many scalar `dist` calls one is timed and its time scaled
/// up, so the clock does not dominate the cheapest kernel.
const SCALAR_TIMING_STRIDE: u64 = 64;

/// A forwarding [`Metric`] that counts distance evaluations and times
/// the batched kernels (`stage`, `dist_one_to_many`, `dist_many_to_many`,
/// `dist_one_to_many_exact`) and a sample of scalar `dist` calls.
/// Answers are the inner metric's, bit for bit.
#[derive(Clone, Debug)]
pub struct Counting<M> {
    inner: M,
    counters: Arc<MetricCounters>,
}

impl<M> Counting<M> {
    pub fn new(inner: M, counters: Arc<MetricCounters>) -> Self {
        Counting { inner, counters }
    }

    fn timed<T>(&self, evals: usize, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.counters.add_busy(t, 1);
        self.counters
            .evals
            .fetch_add(evals as u64, Ordering::Relaxed);
        out
    }
}

impl<M: Metric> Metric for Counting<M> {
    type Point = M::Point;

    fn dist(&self, a: &M::Point, b: &M::Point) -> f64 {
        let c = &self.counters;
        c.evals.fetch_add(1, Ordering::Relaxed);
        if c.scalar_calls
            .fetch_add(1, Ordering::Relaxed)
            .is_multiple_of(SCALAR_TIMING_STRIDE)
        {
            let t = Instant::now();
            let d = self.inner.dist(a, b);
            c.add_busy(t, SCALAR_TIMING_STRIDE);
            d
        } else {
            self.inner.dist(a, b)
        }
    }

    fn stage(&self, view: &mut CoresetView<M::Point>) {
        self.timed(0, || self.inner.stage(view))
    }

    fn dist_one_to_many(&self, q: &M::Point, view: &CoresetView<M::Point>, out: &mut [f64]) {
        self.timed(out.len(), || self.inner.dist_one_to_many(q, view, out))
    }

    fn dist_many_to_many(
        &self,
        rows: &CoresetView<M::Point>,
        cols: &CoresetView<M::Point>,
        out: &mut [f64],
    ) {
        self.timed(out.len(), || self.inner.dist_many_to_many(rows, cols, out))
    }

    fn dist_one_to_many_exact(&self, q: &M::Point, view: &CoresetView<M::Point>, out: &mut [f64]) {
        self.timed(out.len(), || {
            self.inner.dist_one_to_many_exact(q, view, out)
        })
    }
}

// ---- the sequential layer -------------------------------------------------

/// A forwarding [`FairCenterSolver`] that records the interval of every
/// solve, so the caller can attach them as child spans of its query.
pub struct Timed<'t, S> {
    inner: S,
    clock: &'t Tracer,
    intervals: Mutex<Vec<(u64, u64)>>,
}

impl<'t, S> Timed<'t, S> {
    pub fn new(inner: S, clock: &'t Tracer) -> Self {
        Timed {
            inner,
            clock,
            intervals: Mutex::new(Vec::new()),
        }
    }

    /// The recorded `(start_ns, end_ns)` intervals, in call order.
    pub fn take(&self) -> Vec<(u64, u64)> {
        std::mem::take(
            &mut *self
                .intervals
                .lock()
                .expect("solver interval lock poisoned"),
        )
    }

    fn time<T>(&self, f: impl FnOnce() -> T) -> T {
        let start = self.clock.now_ns();
        let out = f();
        let end = self.clock.now_ns();
        self.intervals
            .lock()
            .expect("solver interval lock poisoned")
            .push((start, end));
        out
    }
}

impl<M: Metric, S: FairCenterSolver<M>> FairCenterSolver<M> for Timed<'_, S> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn solve(&self, inst: &Instance<'_, M>) -> Result<FairSolution<M::Point>, SolveError> {
        self.time(|| self.inner.solve(inst))
    }

    fn solve_ids(
        &self,
        metric: &M,
        res: Resolver<'_, M::Point>,
        ids: &[ColoredId],
        caps: &[usize],
    ) -> Result<FairSolution<M::Point>, SolveError> {
        self.time(|| self.inner.solve_ids(metric, res, ids, caps))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fairsw_metric::{Colored, EuclidPoint, Euclidean};
    use fairsw_sequential::Jones;

    fn span(parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: "s",
            req: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            span(None, 0, 100),
            // Two overlapping children cover 10..50 together.
            span(Some(0), 10, 40),
            span(Some(0), 30, 50),
            // A grandchild is its child's business, not the root's.
            span(Some(1), 12, 20),
            // A child running past its parent only counts inside it.
            span(Some(0), 90, 130),
        ];
        assert_eq!(self_times(&spans), vec![100 - 40 - 10, 30 - 8, 20, 8, 40]);
    }

    #[test]
    fn self_time_without_children_is_the_duration() {
        assert_eq!(self_times(&[span(None, 5, 9)]), vec![4]);
        assert_eq!(self_times(&[]), Vec::<u64>::new());
    }

    #[test]
    fn tracer_nests_spans() {
        let mut t = Tracer::new();
        let (_, outer) = t.span("outer", 7, |t| {
            t.span("inner", 7, |_| ());
        });
        let s = t.spans();
        assert_eq!(s.len(), 2);
        assert_eq!(s[outer].parent, None);
        assert_eq!(s[1].parent, Some(outer));
        assert!(s[1].start_ns >= s[0].start_ns && s[1].end_ns <= s[0].end_ns);
    }

    #[test]
    fn wrappers_forward_answers_unchanged() {
        let pts: Vec<Colored<EuclidPoint>> = (0..40)
            .map(|i| Colored::new(EuclidPoint::new(vec![(i * 7 % 13) as f64, i as f64]), i % 3))
            .collect();
        let caps = [1, 2, 1];
        let counters = Arc::new(MetricCounters::calibrated());
        let counting = Counting::new(Euclidean, counters.clone());
        let clock = Tracer::new();
        let timed = Timed::new(Jones, &clock);
        let plain = Jones
            .solve(&Instance::new(&Euclidean, &pts, &caps))
            .unwrap();
        let wrapped = timed.solve(&Instance::new(&counting, &pts, &caps)).unwrap();
        assert_eq!(plain.radius.to_bits(), wrapped.radius.to_bits());
        assert_eq!(plain.centers, wrapped.centers);
        assert!(counters.tally().evals > 0);
        assert_eq!(timed.take().len(), 1);
    }
}
