//! The simulation workloads: `wan_sweep` and `dc_incast`.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use phi_core::harness::{
    provision_cubic, provision_cubic_phi, provision_dctcp, provision_mixed, run_experiment,
    ExperimentSpec, ProvisionCtx, Provisioned, RunResult,
};
use phi_core::journal::{fnv1a, RunRecord};
use phi_core::policy::PolicyTable;
use phi_core::runpool::RunPool;
use phi_core::supervise::{run_supervised_with, SupervisorConfig};
use phi_sim::switch::{EcnSpec, SwitchSpec, SwitchStats};
use phi_sim::time::Dur;
use phi_tcp::cubic::CubicParams;
use phi_tcp::dctcp::DctcpParams;
use phi_workload::{IncastConfig, OnOffConfig};

use crate::report::{peak_rss_mb, Outcome};
use crate::stats::{median, Dist};
use crate::trace::{self_times, traced_run, SpanId, Tracer};

/// Workers of the sweep pool: the machine this benchmark targets has two
/// cores, and load comes from one process with at most that many threads.
const POOL_WORKERS: usize = 2;
/// Seed of the pinned canary inputs (see `pins.rs`).
pub const CANARY_SEED: u64 = 0x5EED_CA7A;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    WanSweep,
    DcIncast,
}

/// The size of one measured unit of a workload.
#[derive(Debug, Clone, Copy)]
struct Size {
    /// Sweep cells (`wan_sweep`) or 1.
    cells: usize,
    /// Workers of the sweep pool (`wan_sweep`) or 1.
    workers: usize,
    /// Sender pairs or incast workers.
    pairs: usize,
    /// Simulated seconds (on/off workloads) or incast rounds.
    length: u64,
}

impl Kind {
    fn full(self) -> Size {
        match self {
            // The paper's dumbbell, 48 cells of 32 pairs for 60 s.
            Kind::WanSweep => Size {
                cells: 48,
                workers: POOL_WORKERS,
                pairs: 32,
                length: 60,
            },
            // 32 DCTCP workers, 60 synchronized 64 KB fan-in rounds.
            Kind::DcIncast => Size {
                cells: 1,
                workers: 1,
                pairs: 32,
                length: 60,
            },
        }
    }

    /// A small instance with a fixed seed whose fingerprint is pinned.
    /// The canary sweep runs its cells one after another: its cells differ
    /// in length, and on two workers its wall time depended on which
    /// worker drew which cell.
    fn canary(self) -> Size {
        match self {
            Kind::WanSweep => Size {
                cells: 3,
                workers: 1,
                pairs: 8,
                length: 20,
            },
            Kind::DcIncast => Size {
                cells: 1,
                workers: 1,
                pairs: 16,
                length: 8,
            },
        }
    }

    /// Domain count of the measured runs. `dc_incast` measures at one
    /// domain: at two, its constant barriers wait on the other vCPU's
    /// wake-up, and on the machine this was sized on that made whole runs
    /// 2-3x slower whenever the host took CPU time away (0.55-1.87 M
    /// events/s in one ten-run set). Its two-domain cost is measured by
    /// the traced run instead (`par.speedup_vs_serial`).
    fn domains(self) -> Option<u32> {
        match self {
            Kind::WanSweep => None,
            Kind::DcIncast => Some(1),
        }
    }

    /// Set-ups before each measured unit; `setup_s` is the median of all
    /// of a run's set-ups. Spread over the run instead of bunched at its
    /// start, they sample the same host conditions as the units: on the
    /// machine this was sized on, the canary sweep's wall time switched
    /// between two levels 35% apart for seconds at a time.
    fn setups_per_unit(self) -> usize {
        match self {
            // About 30 set-ups over a 35 s run of 3 s sweeps.
            Kind::WanSweep => 3,
            // About 150 over a 35 s run of 0.2 s runs.
            Kind::DcIncast => 1,
        }
    }

    /// The other domain count a partitioned workload must agree with.
    fn other_domains(self) -> Option<u32> {
        match self {
            Kind::WanSweep => None,
            Kind::DcIncast => Some(2),
        }
    }

    fn spec(self, size: Size, seed: u64, domains: Option<u32>) -> ExperimentSpec {
        let mut spec = match self {
            Kind::WanSweep => ExperimentSpec::new(
                size.pairs,
                OnOffConfig::fig2(),
                Dur::from_secs(size.length),
                seed,
            ),
            Kind::DcIncast => incast_spec(size, seed),
        };
        spec.domains = domains;
        spec
    }
}

/// 1 Gb/s, 100 µs RTT fan-in through shared-buffer switches: a 200 KB
/// pool under Dynamic Threshold (α = 1) with step ECN at 25 KB, small
/// enough that admission drops as well as marks.
fn incast_spec(size: Size, seed: u64) -> ExperimentSpec {
    let mut spec = ExperimentSpec::new(
        size.pairs,
        // Placeholder; the incast source replaces the on/off workload.
        OnOffConfig::fig2(),
        Dur::from_secs(10),
        seed,
    );
    spec.dumbbell.bottleneck_bps = 1_000_000_000;
    spec.dumbbell.access_bps = 10_000_000_000;
    spec.dumbbell.rtt = Dur::from_micros(100);
    let incast = IncastConfig {
        workers: size.pairs as u32,
        bytes_per_worker: 64 * 1024,
        rounds: size.length,
        round_gap_secs: 0.001,
        jitter_secs: 0.0,
    };
    spec.with_switch(
        SwitchSpec::shared(200_000)
            .with_alpha(1.0)
            .with_ecn(EcnSpec::step(25_000)),
    )
    .with_incast(incast)
}

/// Counters of one or more runs, read from their `RunResult`s.
#[derive(Debug, Clone, Copy, Default)]
struct RunStats {
    events: u64,
    scheduled: u64,
    skipped_stale: u64,
    peak_pending: u64,
    overflowed: u64,
    flows: u64,
    retransmits: u64,
    timeouts: u64,
    aborted: u64,
    switch: SwitchStats,
}

impl RunStats {
    fn of(r: &RunResult) -> Self {
        let reports = r.per_sender.iter().flatten();
        let mut s = RunStats {
            events: r.events,
            scheduled: r.sched.scheduled,
            skipped_stale: r.sched.skipped_stale,
            peak_pending: r.sched.peak_pending,
            overflowed: r.sched.overflowed,
            ..RunStats::default()
        };
        for f in reports {
            s.flows += 1;
            s.retransmits += f.retransmits;
            s.timeouts += f.timeouts;
            s.aborted += u64::from(f.aborted);
        }
        for sw in r.switch_stats.iter().flatten() {
            s.switch.admitted += sw.admitted;
            s.switch.shared_drops += sw.shared_drops;
            s.switch.ecn_marked += sw.ecn_marked;
            s.switch.pauses += sw.pauses;
        }
        s
    }

    fn add(&mut self, o: &RunStats) {
        self.events += o.events;
        self.scheduled += o.scheduled;
        self.skipped_stale += o.skipped_stale;
        self.peak_pending = self.peak_pending.max(o.peak_pending);
        self.overflowed += o.overflowed;
        self.flows += o.flows;
        self.retransmits += o.retransmits;
        self.timeouts += o.timeouts;
        self.aborted += o.aborted;
        self.switch.admitted += o.switch.admitted;
        self.switch.shared_drops += o.switch.shared_drops;
        self.switch.ecn_marked += o.switch.ecn_marked;
        self.switch.pauses += o.switch.pauses;
    }
}

/// Fingerprint of one run: the journal's encoding of its events and
/// `RunMetrics`, followed by the switch counters.
fn run_fingerprint(r: &RunResult) -> u64 {
    let record = RunRecord {
        run_index: 0,
        seed: 0,
        spec_hash: 0,
        events: r.events,
        metrics: r.metrics.clone(),
    };
    let mut bytes = record.encode();
    for sw in r.switch_stats.iter().flatten() {
        for v in [
            sw.admitted,
            sw.shared_drops,
            sw.ecn_marked,
            sw.pauses,
            sw.resumes,
            sw.watchdog_fires,
            sw.pfc_dropped,
        ] {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
    }
    fnv1a(&bytes)
}

/// One measured unit: a whole sweep or a whole run.
#[derive(Debug, Default)]
struct Unit {
    wall_s: f64,
    fingerprint: u64,
    stats: RunStats,
    /// Wall time of each cell by cell index, ms (sweeps only).
    cell_ms: Vec<f64>,
    quarantined: u64,
    flaky: u64,
    terminated: u64,
    /// Operations in the unit (cells, or 1 for a run).
    ops: u64,
    /// Failed operations and why.
    failed: u64,
    problems: Vec<String>,
}

fn exec(
    spec: &ExperimentSpec,
    provision: impl Fn(ProvisionCtx<'_>) -> Provisioned,
    tracer: Option<(&Arc<Tracer>, Option<SpanId>)>,
) -> RunResult {
    match tracer {
        Some((t, parent)) => traced_run(t, parent, spec, provision),
        None => run_experiment(spec, provision),
    }
}

/// Sweep cells alternate default Cubic, Phi, and a mixed deployment.
fn sweep_cell(
    i: usize,
    spec: &ExperimentSpec,
    tracer: Option<(&Arc<Tracer>, Option<SpanId>)>,
) -> RunResult {
    match i % 3 {
        0 => exec(spec, provision_cubic(CubicParams::default()), tracer),
        1 => exec(spec, provision_cubic_phi(PolicyTable::reference()), tracer),
        _ => exec(
            spec,
            provision_mixed(CubicParams::tuned(32.0, 128.0, 0.2)),
            tracer,
        ),
    }
}

fn run_unit(
    kind: Kind,
    size: Size,
    seed: u64,
    domains: Option<u32>,
    tracer: Option<&Arc<Tracer>>,
) -> Unit {
    if kind == Kind::WanSweep {
        return sweep_unit(size, seed, tracer);
    }
    let spec = kind.spec(size, seed, domains);
    let t0 = Instant::now();
    let r = exec(
        &spec,
        provision_dctcp(DctcpParams::default()),
        tracer.map(|t| (t, None)),
    );
    let wall_s = t0.elapsed().as_secs_f64();
    let mut u = Unit {
        wall_s,
        fingerprint: run_fingerprint(&r),
        stats: RunStats::of(&r),
        ops: 1,
        ..Unit::default()
    };
    let mut bad = Vec::new();
    if let Some(reason) = r.terminated {
        bad.push(format!("run terminated by its budget: {reason:?}"));
    }
    let expected = (size.pairs as u64) * size.length;
    let done = u.stats.flows - u.stats.aborted;
    if done != expected {
        bad.push(format!("incast completed {done} of {expected} flows"));
    }
    if !bad.is_empty() {
        u.failed = 1;
        u.problems = bad;
    }
    u
}

fn sweep_unit(size: Size, seed: u64, tracer: Option<&Arc<Tracer>>) -> Unit {
    let spec = Kind::WanSweep.spec(size, seed, None);
    let pool = RunPool::new(size.workers);
    let cells: Mutex<Vec<(usize, f64, RunStats)>> = Mutex::new(Vec::new());
    let sweep_id = tracer.map(|t| (t.reserve(), t.now_ns()));
    let t0 = Instant::now();
    let report = run_supervised_with(
        &pool,
        &spec,
        size.cells,
        &SupervisorConfig::new(),
        |i, s| {
            let c0 = Instant::now();
            let r = match (tracer, sweep_id) {
                (Some(t), Some((sid, _))) => t.span("supervise.cell", Some(sid), |cid| {
                    sweep_cell(i, s, Some((t, Some(cid))))
                }),
                _ => sweep_cell(i, s, None),
            };
            let ms = c0.elapsed().as_secs_f64() * 1e3;
            cells
                .lock()
                .expect("cell list poisoned")
                .push((i, ms, RunStats::of(&r)));
            r
        },
    );
    let wall_s = t0.elapsed().as_secs_f64();
    if let (Some(t), Some((sid, start))) = (tracer, sweep_id) {
        t.record(sid, None, "runpool.sweep", start, t.now_ns());
    }
    let mut u = Unit {
        wall_s,
        ops: size.cells as u64,
        cell_ms: vec![0.0; size.cells],
        ..Unit::default()
    };
    for (i, ms, st) in cells.into_inner().expect("cell list poisoned") {
        u.cell_ms[i] = ms;
        u.stats.add(&st);
    }
    match report {
        Ok(rep) => {
            u.fingerprint = rep.fingerprint();
            u.quarantined = rep.quarantined.len() as u64;
            u.flaky = rep.flaky.len() as u64;
            u.terminated = rep.terminated.len() as u64;
            let missing = (size.cells - rep.completed.len()) as u64;
            u.failed = missing.max(u.quarantined + u.flaky + u.terminated);
            if u.failed > 0 {
                u.problems.push(format!(
                    "sweep: {} of {} cells completed, {} quarantined, {} flaky, {} terminated",
                    rep.completed.len(),
                    size.cells,
                    u.quarantined,
                    u.flaky,
                    u.terminated
                ));
            }
        }
        Err(e) => {
            u.failed = size.cells as u64;
            u.problems.push(format!("sweep did not start: {e}"));
        }
    }
    u
}

/// Fold a unit's operations and failures into the outcome.
fn account(out: &mut Outcome, u: &Unit) {
    out.attempted += u.ops;
    out.failed += u.failed;
    out.problems.extend(u.problems.iter().cloned());
}

/// The pinned canary: the workload's small instance at the canary seed,
/// run at `domains`. Its fingerprint must equal the pin.
fn canary(kind: Kind, domains: Option<u32>, out: &mut Outcome) {
    let pin = crate::pins::pinned(kind_name(kind));
    let u = run_unit(kind, kind.canary(), CANARY_SEED, domains, None);
    account(out, &u);
    out.check(u.fingerprint == pin, || {
        format!(
            "{} canary at domains {domains:?}: fingerprint {:#018x}, pinned {pin:#018x}",
            kind_name(kind),
            u.fingerprint
        )
    });
}

/// The canary at the other domain count, outside any timed window: with
/// the set-up canary it shows `Some(1)` and `Some(2)` agree on every run.
fn cross_check(kind: Kind, out: &mut Outcome) {
    if kind.other_domains().is_some() {
        canary(kind, kind.other_domains(), out);
    }
}

pub fn kind_name(kind: Kind) -> &'static str {
    match kind {
        Kind::WanSweep => "wan_sweep",
        Kind::DcIncast => "dc_incast",
    }
}

/// Untraced run: for `seconds`, set up [`Kind::setups_per_unit`] times
/// and then measure one whole unit; every end-to-end metric.
pub fn measure(kind: Kind, seed: u64, seconds: f64, out: &mut Outcome) {
    let size = kind.full();
    let t0 = Instant::now();
    let mut setups = Vec::new();
    let mut units: Vec<Unit> = Vec::new();
    while units.is_empty() || t0.elapsed().as_secs_f64() < seconds {
        for _ in 0..kind.setups_per_unit() {
            let s0 = Instant::now();
            canary(kind, kind.domains(), out);
            setups.push(s0.elapsed().as_secs_f64());
        }
        let u = run_unit(kind, size, seed, kind.domains(), None);
        account(out, &u);
        let first = units.first().map_or(u.fingerprint, |f| f.fingerprint);
        out.check(u.fingerprint == first, || {
            format!(
                "repeat {} of the same input changed its fingerprint",
                units.len()
            )
        });
        units.push(u);
    }
    cross_check(kind, out);
    out.set_opt("setup_s", median(&setups));
    let setup_ms: Vec<f64> = setups.iter().map(|s| s * 1e3).collect();
    println!("# set-up ms {}", Dist::new(&setup_ms).describe());
    // Every unit repeats the same input (the fingerprint check above
    // proves it), so the fastest repeat is the estimate of the program's
    // own cost: interference from other tenants of the machine only ever
    // adds time, and on the machine this was sized on it came in bursts
    // that moved a run's median by up to 2x.
    let walls: Vec<f64> = units.iter().map(|u| u.wall_s).collect();
    let best = crate::stats::min(&walls);
    let (rate, latency_ms) = match kind {
        Kind::WanSweep => {
            let per_cell: Vec<f64> = (0..size.cells)
                .filter_map(|i| {
                    crate::stats::min(&units.iter().map(|u| u.cell_ms[i]).collect::<Vec<_>>())
                })
                .collect();
            (best.map(|w| size.cells as f64 / w), median(&per_cell))
        }
        _ => (
            best.map(|w| units[0].stats.events as f64 / w),
            best.map(|w| w * 1e3),
        ),
    };
    out.set_opt("ops_per_s", rate);
    out.set_opt("latency_ms", latency_ms);
    out.set("ok_frac", 1.0 - out.failed_frac());
    out.set_opt("peak_rss_mb", peak_rss_mb());
    println!(
        "# {}: {} units in {:.1} s, unit wall {}",
        kind_name(kind),
        units.len(),
        t0.elapsed().as_secs_f64(),
        Dist::new(&walls).describe()
    );
    println!("# unit walls s {:.3?}", crate::stats::sorted(&walls));
}

/// Traced run: rounds of (untraced, traced) units at the measured domain
/// count, plus serial units and units at the other domain count for
/// partitioned workloads, for `seconds`; every per-layer metric. Returns
/// the layer table.
pub fn trace(
    kind: Kind,
    seed: u64,
    seconds: f64,
    out: &mut Outcome,
    tracer: &Arc<Tracer>,
) -> String {
    canary(kind, kind.domains(), out);
    cross_check(kind, out);
    let size = kind.full();
    let (mut plain, mut traced, mut serial, mut other) = (vec![], vec![], vec![], vec![]);
    let t0 = Instant::now();
    while plain.is_empty() || t0.elapsed().as_secs_f64() < seconds {
        let u = run_unit(kind, size, seed, kind.domains(), None);
        let t = run_unit(kind, size, seed, kind.domains(), Some(tracer));
        for x in [&u, &t] {
            account(out, x);
        }
        out.check(t.fingerprint == u.fingerprint, || {
            format!(
                "traced fingerprint {:#x} differs from untraced {:#x}",
                t.fingerprint, u.fingerprint
            )
        });
        if let Some(first) = plain.first().map(|f: &Unit| f.fingerprint) {
            out.check(u.fingerprint == first, || {
                "repeat changed the fingerprint".into()
            });
        }
        if let Some(k) = kind.other_domains() {
            let s = run_unit(kind, size, seed, None, None);
            let o = run_unit(kind, size, seed, Some(k), None);
            for x in [&s, &o] {
                account(out, x);
            }
            out.check(o.fingerprint == u.fingerprint, || {
                format!(
                    "fingerprint at Some({k}) {:#x} differs from {:?} {:#x}",
                    o.fingerprint,
                    kind.domains(),
                    u.fingerprint
                )
            });
            serial.push(s);
            other.push(o);
        }
        plain.push(u);
        traced.push(t);
    }

    let wall = |v: &[Unit]| median(&v.iter().map(|u| u.wall_s).collect::<Vec<_>>()).unwrap_or(0.0);
    let (w_plain, w_traced) = (wall(&plain), wall(&traced));
    let st = plain[0].stats;
    let n_traced = traced.len() as f64;

    if kind == Kind::WanSweep {
        let cells: Vec<f64> = plain
            .iter()
            .flat_map(|u| u.cell_ms.iter().copied())
            .collect();
        let busy: Vec<f64> = plain
            .iter()
            .map(|u| u.cell_ms.iter().sum::<f64>() / 1e3 / (POOL_WORKERS as f64 * u.wall_s))
            .collect();
        out.set_opt("runpool.busy_frac", median(&busy));
        out.set_opt("runpool.cell_p50_ms", median(&cells));
        out.set(
            "runpool.cell_max_ms",
            cells.iter().copied().fold(0.0, f64::max),
        );
        let all = plain.iter().chain(&traced);
        let (q, f, t) = all.fold((0, 0, 0), |(q, f, t), u| {
            (q + u.quarantined, f + u.flaky, t + u.terminated)
        });
        out.set("supervise.quarantined", q as f64);
        out.set("supervise.flaky", f as f64);
        out.set("supervise.terminated", t as f64);
        let cell_s: f64 = plain.iter().flat_map(|u| &u.cell_ms).sum::<f64>() / 1e3;
        let events: u64 = plain.iter().map(|u| u.stats.events).sum();
        out.set("engine.ns_per_event", cell_s * 1e9 / events as f64);
    } else {
        out.set("engine.ns_per_event", w_plain * 1e9 / st.events as f64);
        // Measured at `Some(1)`; `other` holds the `Some(2)` units.
        let (w_k1, w_k2) = (w_plain, wall(&other));
        out.set("par.speedup_vs_serial", wall(&serial) / w_k2);
        out.set("par.k1_overhead", w_k1 / wall(&serial));
    }
    out.set("engine.events", st.events as f64);
    out.set("engine.events_per_s", st.events as f64 / w_plain);
    out.set("sched.scheduled", st.scheduled as f64);
    out.set(
        "sched.stale_skip_frac",
        st.skipped_stale as f64 / st.scheduled.max(1) as f64,
    );
    out.set("sched.peak_pending", st.peak_pending as f64);
    out.set("sched.overflowed", st.overflowed as f64);
    out.set("tcp.flows", st.flows as f64);
    out.set("tcp.retransmits", st.retransmits as f64);
    out.set("tcp.timeouts", st.timeouts as f64);
    if kind == Kind::DcIncast {
        let sw = st.switch;
        out.set("switch.admitted", sw.admitted as f64);
        out.set(
            "switch.drop_frac",
            sw.shared_drops as f64 / (sw.admitted + sw.shared_drops).max(1) as f64,
        );
        out.set(
            "switch.ecn_frac",
            sw.ecn_marked as f64 / sw.admitted.max(1) as f64,
        );
        out.set("switch.pauses", sw.pauses as f64);
    }
    out.set("trace.overhead_frac", w_traced / w_plain - 1.0);

    // Layer times from the traced units.
    let spans = tracer.spans();
    let aggs = tracer.aggs();
    let sum_of = |name: &str| -> f64 {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .sum()
    };
    let runs = spans
        .iter()
        .filter(|s| s.name == "harness.run_experiment")
        .count()
        .max(1) as f64;
    let run_ns = sum_of("harness.run_experiment");
    out.set("harness.build_ms", sum_of("harness.build") / runs / 1e6);
    out.set(
        "harness.provision_ms",
        sum_of("harness.provision") / runs / 1e6,
    );
    out.set("harness.run_ms", sum_of("harness.run") / runs / 1e6);
    // Per-call figures net of the clock reads each timed call adds.
    let floor = crate::trace::timer_floor_ns();
    for (layer, calls_key, ns_key, share_key) in [
        (
            "tcp.cc",
            "tcp.cc_calls",
            "tcp.cc_ns_per_call",
            "tcp.cc_share",
        ),
        ("hooks", "hooks.calls", "hooks.ns_per_call", "hooks.share"),
    ] {
        let (calls, ns) = aggs
            .iter()
            .filter(|(n, _, _)| *n == layer)
            .fold((0u64, 0u64), |(c, t), (_, _, a)| (c + a.calls, t + a.ns));
        let net_ns = (ns as f64 - floor * calls as f64).max(0.0);
        out.set(calls_key, calls as f64 / n_traced);
        out.set(
            ns_key,
            if calls > 0 {
                net_ns / calls as f64
            } else {
                0.0
            },
        );
        out.set(share_key, net_ns / run_ns.max(1.0));
    }
    let rows = self_times(&spans, &aggs);
    let unattributed = rows
        .iter()
        .find(|r| r.name == "harness.run")
        .map_or(0, |r| r.self_ns);
    out.set(
        "trace.unattributed_frac",
        unattributed as f64 / run_ns.max(1.0),
    );
    out.set("failed_frac", out.failed_frac());

    let roots: u64 = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| s.end_ns - s.start_ns)
        .sum();
    format!(
        "# {} layer table over {} traced unit(s); self% is of the traced wall ({:.1} ms), \
         and parallel workers or domains can sum above 100%\n{}",
        kind_name(kind),
        traced.len(),
        roots as f64 / 1e6,
        crate::trace::table(&rows, roots)
    )
}
