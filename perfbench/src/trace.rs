//! Spans and call aggregates recorded from outside the library: around
//! each call the benchmark makes into a layer, and inside timing
//! decorators for the two trait seams the harness hands out
//! (`CongestionControl` via the provisioner's `CcFactory`, and
//! `SessionHook`). Spans are kept in memory and written when the run ends.

use std::cell::Cell;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use phi_core::harness::{run_experiment, ExperimentSpec, ProvisionCtx, Provisioned, RunResult};
use phi_sim::engine::Ctx;
use phi_sim::time::{Dur, Time};
use phi_tcp::cc::{AckEvent, CongestionControl, LossEvent};
use phi_tcp::hook::{ContextSnapshot, SessionHook};
use phi_tcp::report::FlowReport;

pub type SpanId = u64;

/// One call into a layer: `[start_ns, end_ns)` on the tracer's clock.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: SpanId,
    pub parent: Option<SpanId>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Calls too frequent for one span each (per ACK, per hook call), summed
/// per (name, parent span).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Agg {
    pub calls: u64,
    pub ns: u64,
}

pub struct Tracer {
    epoch: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
    aggs: Mutex<BTreeMap<(&'static str, SpanId), Agg>>,
}

impl Tracer {
    pub fn new() -> Arc<Tracer> {
        Arc::new(Tracer {
            epoch: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
            aggs: Mutex::new(BTreeMap::new()),
        })
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// `t` on this tracer's clock (0 if `t` precedes the tracer).
    pub fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// A fresh span id, for spans whose children start before they end.
    pub fn reserve(&self) -> SpanId {
        self.next.fetch_add(1, Ordering::Relaxed)
    }

    pub fn record(
        &self,
        id: SpanId,
        parent: Option<SpanId>,
        name: &'static str,
        start: u64,
        end: u64,
    ) {
        let span = Span {
            id,
            parent,
            name,
            start_ns: start,
            end_ns: end.max(start),
        };
        self.spans.lock().expect("span list poisoned").push(span);
    }

    /// Run `f` inside a span named `name`; `f` receives the span's id.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        f: impl FnOnce(SpanId) -> T,
    ) -> T {
        let id = self.reserve();
        let start = self.now_ns();
        let out = f(id);
        self.record(id, parent, name, start, self.now_ns());
        out
    }

    pub fn add(&self, name: &'static str, parent: SpanId, calls: u64, ns: u64) {
        let mut aggs = self.aggs.lock().expect("aggregate map poisoned");
        let a = aggs.entry((name, parent)).or_default();
        a.calls += calls;
        a.ns += ns;
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span list poisoned").clone()
    }

    pub fn aggs(&self) -> Vec<(&'static str, SpanId, Agg)> {
        let aggs = self.aggs.lock().expect("aggregate map poisoned");
        aggs.iter().map(|(&(n, p), &a)| (n, p, a)).collect()
    }
}

/// What timing an empty call records, ns: the clock-read cost that every
/// timed call's recorded time includes and the per-call figures subtract.
pub fn timer_floor_ns() -> f64 {
    const N: u32 = 20_000;
    let samples: Vec<f64> = (0..7)
        .map(|_| {
            let mut acc = 0u64;
            for _ in 0..N {
                let t = Instant::now();
                acc += std::hint::black_box(t).elapsed().as_nanos() as u64;
            }
            acc as f64 / f64::from(N)
        })
        .collect();
    crate::stats::median(&samples).unwrap_or(0.0)
}

/// Length of the union of `intervals`, clipped to `[lo, hi)`.
pub fn covered(lo: u64, hi: u64, intervals: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(s, e)| (s.max(lo), e.min(hi)))
        .filter(|(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in clipped {
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

/// Calls, total time and self time of every span or aggregate name.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerTime {
    pub name: &'static str,
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Self time per name: a span's duration minus the part of its interval
/// its child spans cover, minus the time of its aggregated child calls
/// (which run inside it, between child spans). Aggregates are leaves.
/// Self time saturates at zero: aggregates summed over parallel domain
/// threads can exceed the wall interval that covers them.
pub fn self_times(spans: &[Span], aggs: &[(&'static str, SpanId, Agg)]) -> Vec<LayerTime> {
    let mut kids: HashMap<SpanId, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            kids.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    let mut agg_ns: HashMap<SpanId, u64> = HashMap::new();
    for (_, parent, a) in aggs {
        *agg_ns.entry(*parent).or_default() += a.ns;
    }
    let mut by_name: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    let mut add = |name, calls, total, own| {
        let row = by_name.entry(name).or_insert(LayerTime {
            name,
            calls: 0,
            total_ns: 0,
            self_ns: 0,
        });
        row.calls += calls;
        row.total_ns += total;
        row.self_ns += own;
    };
    for s in spans {
        let dur = s.end_ns - s.start_ns;
        let child = kids
            .get(&s.id)
            .map_or(0, |iv| covered(s.start_ns, s.end_ns, iv));
        let agg = agg_ns.get(&s.id).copied().unwrap_or(0);
        add(
            s.name,
            1,
            dur,
            dur.saturating_sub(child).saturating_sub(agg),
        );
    }
    for (name, _, a) in aggs {
        add(name, a.calls, a.ns, a.ns);
    }
    let mut rows: Vec<LayerTime> = by_name.into_values().collect();
    rows.sort_by(|a, b| b.self_ns.cmp(&a.self_ns).then(a.name.cmp(b.name)));
    rows
}

/// Counts and times every call of one controller; flushes into the
/// tracer when the controller is dropped (at flow end or run end).
struct TimedCc {
    inner: Box<dyn CongestionControl>,
    tracer: Arc<Tracer>,
    parent: SpanId,
    calls: Cell<u64>,
    ns: Cell<u64>,
}

impl TimedCc {
    fn note(&self, t: Instant) {
        self.calls.set(self.calls.get() + 1);
        self.ns.set(self.ns.get() + t.elapsed().as_nanos() as u64);
    }
}

impl CongestionControl for TimedCc {
    fn on_flow_start(&mut self, now: Time) {
        let t = Instant::now();
        self.inner.on_flow_start(now);
        self.note(t);
    }
    fn window(&self) -> f64 {
        let t = Instant::now();
        let w = self.inner.window();
        self.note(t);
        w
    }
    fn intersend(&self) -> Option<Dur> {
        let t = Instant::now();
        let d = self.inner.intersend();
        self.note(t);
        d
    }
    fn on_ack(&mut self, ev: &AckEvent) {
        let t = Instant::now();
        self.inner.on_ack(ev);
        self.note(t);
    }
    fn on_loss(&mut self, ev: &LossEvent) {
        let t = Instant::now();
        self.inner.on_loss(ev);
        self.note(t);
    }
    fn on_rto(&mut self, now: Time) {
        let t = Instant::now();
        self.inner.on_rto(now);
        self.note(t);
    }
    fn ecn_capable(&self) -> bool {
        let t = Instant::now();
        let e = self.inner.ecn_capable();
        self.note(t);
        e
    }
    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

impl Drop for TimedCc {
    fn drop(&mut self) {
        self.tracer
            .add("tcp.cc", self.parent, self.calls.get(), self.ns.get());
    }
}

/// Counts and times every call of one sender's session hook, including
/// the wait for the shared store's mutex inside the hook.
struct TimedHook {
    inner: Box<dyn SessionHook>,
    tracer: Arc<Tracer>,
    parent: SpanId,
    calls: Cell<u64>,
    ns: Cell<u64>,
}

impl TimedHook {
    fn note(&self, t: Instant) {
        self.calls.set(self.calls.get() + 1);
        self.ns.set(self.ns.get() + t.elapsed().as_nanos() as u64);
    }
}

impl SessionHook for TimedHook {
    fn lookup(&mut self, now: Time, ctx: &mut Ctx<'_>) -> Option<ContextSnapshot> {
        let t = Instant::now();
        let s = self.inner.lookup(now, ctx);
        self.note(t);
        s
    }
    fn report(&mut self, report: &FlowReport, ctx: &mut Ctx<'_>) {
        let t = Instant::now();
        self.inner.report(report, ctx);
        self.note(t);
    }
    fn live_util(&self, ctx: &Ctx<'_>) -> Option<f64> {
        let t = Instant::now();
        let u = self.inner.live_util(ctx);
        self.note(t);
        u
    }
}

impl Drop for TimedHook {
    fn drop(&mut self) {
        self.tracer
            .add("hooks", self.parent, self.calls.get(), self.ns.get());
    }
}

/// `run_experiment` with spans for its phases: `harness.build` (entry to
/// the first provisioner call), one `harness.provision` per sender, and
/// `harness.run` (last provisioner return to exit), whose self time is
/// the part the harness does not expose: engine plus `TcpSender`. Every
/// controller and hook the provisioner returns is wrapped in a timing
/// decorator that forwards each trait method unchanged.
pub fn traced_run(
    tracer: &Arc<Tracer>,
    parent: Option<SpanId>,
    spec: &ExperimentSpec,
    provision: impl Fn(ProvisionCtx<'_>) -> Provisioned,
) -> RunResult {
    let run_id = tracer.reserve();
    let phase_id = tracer.reserve();
    let entry = tracer.now_ns();
    let mut first_call = None;
    let mut last_return = entry;
    let result = run_experiment(spec, |ctx| {
        let t0 = tracer.now_ns();
        first_call.get_or_insert(t0);
        let Provisioned { mut factory, hook } = provision(ctx);
        let cc_tracer = tracer.clone();
        let factory: phi_tcp::sender::CcFactory = Box::new(move |snap| {
            Box::new(TimedCc {
                inner: factory(snap),
                tracer: cc_tracer.clone(),
                parent: phase_id,
                calls: Cell::new(0),
                ns: Cell::new(0),
            })
        });
        let hook = Box::new(TimedHook {
            inner: hook,
            tracer: tracer.clone(),
            parent: phase_id,
            calls: Cell::new(0),
            ns: Cell::new(0),
        });
        let t1 = tracer.now_ns();
        tracer.record(tracer.reserve(), Some(run_id), "harness.provision", t0, t1);
        last_return = t1;
        Provisioned { factory, hook }
    });
    let exit = tracer.now_ns();
    let build_end = first_call.unwrap_or(entry);
    tracer.record(
        tracer.reserve(),
        Some(run_id),
        "harness.build",
        entry,
        build_end,
    );
    tracer.record(phase_id, Some(run_id), "harness.run", last_return, exit);
    tracer.record(run_id, parent, "harness.run_experiment", entry, exit);
    result
}

/// One line per layer: calls, total and self time, self share of the
/// traced wall. `harness.run`'s self time is named as the unattributed
/// remainder.
pub fn table(rows: &[LayerTime], wall_ns: u64) -> String {
    let mut out = format!(
        "{:<34} {:>10} {:>12} {:>12} {:>7}\n",
        "layer", "calls", "total_ms", "self_ms", "self%"
    );
    for r in rows {
        let label = if r.name == "harness.run" {
            "unattributed (engine + TcpSender)"
        } else {
            r.name
        };
        out += &format!(
            "{:<34} {:>10} {:>12.3} {:>12.3} {:>6.1}%\n",
            label,
            r.calls,
            r.total_ns as f64 / 1e6,
            r.self_ns as f64 / 1e6,
            100.0 * r.self_ns as f64 / wall_ns.max(1) as f64
        );
    }
    out
}

/// Spans and aggregates as one JSON document.
pub fn to_json(tracer: &Tracer, machine: &str) -> String {
    let mut out = format!("{{\"machine\": {machine},\n\"spans\": [\n");
    let spans = tracer.spans();
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out += &format!(
            "{{\"id\": {}, \"parent\": {parent}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}{}\n",
            s.id,
            s.name,
            s.start_ns,
            s.end_ns,
            if i + 1 < spans.len() { "," } else { "" }
        );
    }
    out += "],\n\"aggregates\": [\n";
    let aggs = tracer.aggs();
    for (i, (name, parent, a)) in aggs.iter().enumerate() {
        out += &format!(
            "{{\"name\": \"{name}\", \"parent\": {parent}, \"calls\": {}, \"ns\": {}}}{}\n",
            a.calls,
            a.ns,
            if i + 1 < aggs.len() { "," } else { "" }
        );
    }
    out + "]}\n"
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: SpanId, parent: Option<SpanId>, name: &'static str, s: u64, e: u64) -> Span {
        Span {
            id,
            parent,
            name,
            start_ns: s,
            end_ns: e,
        }
    }

    #[test]
    fn covered_merges_overlaps_and_clips() {
        assert_eq!(covered(0, 100, &[]), 0);
        assert_eq!(covered(0, 100, &[(10, 20), (15, 30), (50, 60)]), 30);
        assert_eq!(covered(20, 55, &[(10, 30), (50, 60)]), 15);
        assert_eq!(covered(0, 100, &[(0, 100), (10, 20)]), 100);
        assert_eq!(covered(0, 10, &[(20, 30)]), 0);
    }

    #[test]
    fn self_time_subtracts_children_and_aggregates() {
        // run [0,100): build [0,10), provision [10,20), phase [20,100).
        // The phase holds 30 ns of controller calls and 5 ns of hooks.
        let spans = vec![
            span(1, None, "harness.run_experiment", 0, 100),
            span(2, Some(1), "harness.build", 0, 10),
            span(3, Some(1), "harness.provision", 10, 20),
            span(4, Some(1), "harness.run", 20, 100),
        ];
        let aggs = vec![
            ("tcp.cc", 4, Agg { calls: 6, ns: 30 }),
            ("hooks", 4, Agg { calls: 2, ns: 5 }),
        ];
        let rows = self_times(&spans, &aggs);
        let get = |n: &str| rows.iter().find(|r| r.name == n).expect("row").clone();
        assert_eq!(get("harness.run_experiment").self_ns, 0);
        assert_eq!(get("harness.run").self_ns, 45);
        assert_eq!(get("tcp.cc").self_ns, 30);
        assert_eq!(get("tcp.cc").calls, 6);
        assert_eq!(get("hooks").self_ns, 5);
        // Self times partition the root span.
        assert_eq!(rows.iter().map(|r| r.self_ns).sum::<u64>(), 100);
        assert_eq!(rows[0].name, "harness.run", "largest self time first");
    }

    #[test]
    fn parallel_children_count_once_and_self_saturates() {
        // Two cells on two workers overlap inside one sweep.
        let spans = vec![
            span(1, None, "sweep", 0, 100),
            span(2, Some(1), "cell", 0, 60),
            span(3, Some(1), "cell", 10, 90),
            span(4, None, "phase", 0, 10),
        ];
        let aggs = vec![("tcp.cc", 4, Agg { calls: 2, ns: 18 })];
        let rows = self_times(&spans, &aggs);
        let get = |n: &str| rows.iter().find(|r| r.name == n).expect("row").clone();
        assert_eq!(get("sweep").self_ns, 10);
        assert_eq!(get("cell").total_ns, 140);
        assert_eq!(
            get("phase").self_ns,
            0,
            "aggregates over two threads exceed the wall"
        );
    }

    #[test]
    fn tracer_nests_spans_and_sums_aggregates() {
        let t = Tracer::new();
        let inner = t.span("outer", None, |outer| {
            t.add("agg", outer, 1, 7);
            t.add("agg", outer, 2, 3);
            t.span("inner", Some(outer), |id| id)
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].id, inner);
        assert_eq!(spans[0].parent, Some(spans[1].id));
        assert_eq!(
            t.aggs(),
            vec![("agg", spans[1].id, Agg { calls: 3, ns: 10 })]
        );
    }
}
