//! The `ctx_serve` workload: a live sharded context server on loopback,
//! driven by pre-connected clients in the paper's pattern — a lookup when
//! a flow starts, then the flow's report through the write-behind buffer.

use std::net::SocketAddr;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use phi_core::context::{FlowSummary, PathKey, StoreConfig};
use phi_core::server::{ContextClient, ContextServer, ServerConfig};
use phi_core::shard::ShardedStore;
use phi_core::wire::{encode, Decoder, Message};
use phi_tcp::hook::ContextSnapshot;

use crate::gen::{poisson_schedule, Rng, Zipf};
use crate::report::{peak_rss_mb, Outcome};
use crate::stats::{median, Dist, Hist};
use crate::trace::{self_times, table, SpanId, Tracer};

const SHARDS: usize = 4;
/// Connections, each driven by its own thread: at most the two cores.
const CLIENTS: usize = 2;
/// Distinct paths; their popularity is Zipf(1), as in §2.1.
const PATHS: usize = 1000;
const ZIPF_S: f64 = 1.0;
/// Open-loop offered lookups per second, all clients together: about a
/// quarter of the closed-loop lookup rate on a two-core machine, so the
/// open loop measures latency, not queueing at saturation. Lower rates
/// leave the cores idle between requests, and the time to wake an idle
/// virtual CPU then dominates, and scatters, every reply.
const OPEN_RATE: f64 = 8000.0;
/// Keys and summaries the closed loop cycles through, per client.
const CLOSED_KEYS: usize = 1 << 16;
/// Untimed pause between the server's start and the first connect. The
/// accept loop polls, sleeping 50 ms whenever no connection is waiting:
/// without the pause a connect sometimes beats the first poll and
/// sometimes waits a whole interval, and set-up time flips between the
/// two. With it, every connect lands after the first poll.
const CONNECT_DELAY: Duration = Duration::from_millis(10);

/// The store as `phi serve` configures it: the provider knows its egress
/// capacity (1 Gbit/s) and aggregates over a 10 s window.
fn store_config() -> StoreConfig {
    StoreConfig {
        window_ns: 10_000_000_000,
        capacity_bps: Some(1e9),
        queue_alpha: 0.3,
    }
}

/// Everything a client sends, generated from the seed before any timing.
struct Plan {
    /// Open-loop arrival offsets from the window start, ns.
    due_ns: Vec<u64>,
    /// Path of each open-loop arrival.
    keys: Vec<PathKey>,
    /// Paths the closed loop cycles through.
    closed_keys: Vec<PathKey>,
    /// Flow reports, cycled by both loops.
    summaries: Vec<FlowSummary>,
}

fn plans(seed: u64, open_ns: u64) -> Vec<Plan> {
    let root = Rng::new(seed);
    let mut path_rng = root.fork(0);
    let paths: Vec<PathKey> = (0..PATHS).map(|_| PathKey(path_rng.next_u64())).collect();
    let zipf = Zipf::new(PATHS, ZIPF_S);
    (0..CLIENTS as u64)
        .map(|c| {
            let mut r = root.fork(1 + c);
            let due_ns = poisson_schedule(&mut r, OPEN_RATE / CLIENTS as f64, open_ns);
            let keys = due_ns.iter().map(|_| paths[zipf.sample(&mut r)]).collect();
            let closed_keys = (0..CLOSED_KEYS)
                .map(|_| paths[zipf.sample(&mut r)])
                .collect();
            let summaries = (0..CLOSED_KEYS)
                .map(|_| {
                    let bytes = r.exp(500_000.0) as u64 + 1;
                    let min_rtt_ms = 150.0;
                    FlowSummary {
                        bytes,
                        duration_ns: (bytes as f64 * 8.0 / 15e6 * 1e9) as u64 + 150_000_000,
                        mean_rtt_ms: min_rtt_ms + r.exp(30.0),
                        min_rtt_ms,
                        retransmits: (r.unit() * 4.0) as u32,
                        timeouts: 0,
                    }
                })
                .collect();
            Plan {
                due_ns,
                keys,
                closed_keys,
                summaries,
            }
        })
        .collect()
}

fn sane(s: &ContextSnapshot) -> bool {
    (0.0..=1.0).contains(&s.utilization) && s.queue_ms.is_finite() && s.queue_ms >= 0.0
}

/// What one client thread saw.
#[derive(Default)]
struct ClientLog {
    lookups: u64,
    reports: u64,
    errors: u64,
    poisoned: bool,
    problems: Vec<String>,
    /// Open loop: (due, send, reply) per lookup, ns from the window start.
    timings: Vec<(u64, u64, u64)>,
    /// Open loop: each flush (send, reply), ns from the window start.
    flushes: Vec<(u64, u64)>,
    /// Open loop: the lookups in order with their replies, and the index
    /// of the arrival whose report triggered each flush.
    replies: Vec<(PathKey, ContextSnapshot)>,
    flush_at: Vec<usize>,
    /// Closed loop: lookup latency (send to reply), counted in buckets so
    /// that memory, and with it peak RSS, does not follow throughput.
    closed: Hist,
    /// Closed loop: the last reply, ns from the window start.
    closed_end: u64,
}

impl ClientLog {
    fn error(&mut self, what: &str, e: phi_core::server::ClientError, client: &ContextClient) {
        self.errors += 1;
        if self.problems.len() < 5 {
            self.problems.push(format!("client {what}: {e}"));
        }
        self.poisoned |= client.is_poisoned();
    }
}

fn ns_since(start: Instant) -> u64 {
    start.elapsed().as_nanos() as u64
}

/// Poisson arrivals at their due times; latency counts from the due time,
/// so a stalled reply also delays the arrivals queued behind it.
fn open_loop(client: &mut ContextClient, plan: &Plan, start: Instant) -> ClientLog {
    tight_timer_slack();
    let mut log = ClientLog::default();
    if let Some(wait) = start.checked_duration_since(Instant::now()) {
        thread::sleep(wait);
    }
    for (k, (&due, &path)) in plan.due_ns.iter().zip(&plan.keys).enumerate() {
        let now = ns_since(start);
        if now < due {
            thread::sleep(Duration::from_nanos(due - now));
        }
        let send = ns_since(start);
        let res = client.lookup(path);
        let reply = ns_since(start);
        log.lookups += 1;
        match res {
            Ok(snap) => {
                if !sane(&snap) {
                    log.errors += 1;
                    log.problems.push(format!("insane snapshot {snap:?}"));
                }
                log.timings.push((due, send, reply));
                log.replies.push((path, snap));
            }
            Err(e) => log.error("lookup", e, client),
        }
        let f0 = ns_since(start);
        log.reports += 1;
        match client.buffer_report(path, plan.summaries[k % plan.summaries.len()]) {
            Ok(true) => {
                log.flushes.push((f0, ns_since(start)));
                log.flush_at.push(k);
            }
            Ok(false) => {}
            Err(e) => log.error("flush", e, client),
        }
        if log.poisoned {
            break;
        }
    }
    log
}

/// Let this thread's sleeps end on time: Linux lets a normal thread's
/// timers fire up to 50 µs late by default, which would otherwise show up
/// as generator lateness on every arrival.
fn tight_timer_slack() {
    extern "C" {
        fn prctl(option: std::os::raw::c_int, ...) -> std::os::raw::c_int;
    }
    const PR_SET_TIMERSLACK: std::os::raw::c_int = 29;
    // SAFETY: PR_SET_TIMERSLACK takes one unsigned long by value and
    // changes only the calling thread's timer slack; no memory is passed.
    // Failure leaves the default slack, which the lateness metric shows.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1 as std::os::raw::c_ulong);
    }
}

/// Back-to-back lookup + buffered report until `end`; every lookup is
/// timed from send to reply.
fn closed_loop(
    client: &mut ContextClient,
    plan: &Plan,
    start: Instant,
    end: Duration,
) -> ClientLog {
    let mut log = ClientLog::default();
    if let Some(wait) = start.checked_duration_since(Instant::now()) {
        thread::sleep(wait);
    }
    let end_ns = end.as_nanos() as u64;
    let mut k = 0;
    while ns_since(start) < end_ns && !log.poisoned {
        let i = k % plan.closed_keys.len();
        let path = plan.closed_keys[i];
        let send = ns_since(start);
        match client.lookup(path) {
            Ok(snap) if sane(&snap) => {
                let reply = ns_since(start);
                log.closed.add(reply - send);
                log.closed_end = reply;
            }
            Ok(snap) => {
                log.errors += 1;
                log.problems.push(format!("insane snapshot {snap:?}"));
            }
            Err(e) => log.error("lookup", e, client),
        }
        if let Err(e) = client.buffer_report(path, plan.summaries[i]) {
            log.error("flush", e, client);
        }
        log.lookups += 1;
        log.reports += 1;
        k += 1;
    }
    log
}

/// What one set-up produced.
struct Setup {
    server: ContextServer,
    clients: Vec<ContextClient>,
    seconds: f64,
    connect_ms: Vec<f64>,
}

/// Start the server, connect every client, and wait for one reply on
/// each: what a sender pays before its first timed lookup. The timed
/// set-up leaves out the untimed [`CONNECT_DELAY`].
fn set_up() -> std::io::Result<Setup> {
    let t0 = Instant::now();
    let server = ContextServer::start_sharded(
        "127.0.0.1:0",
        store_config(),
        ServerConfig::default(),
        SHARDS,
    )?;
    let addr: SocketAddr = server.addr();
    let started = t0.elapsed();
    thread::sleep(CONNECT_DELAY);
    let t1 = Instant::now();
    // Connect every client before waiting on any reply, as senders that
    // start together would.
    let mut clients = Vec::new();
    for _ in 0..CLIENTS {
        clients.push((Instant::now(), ContextClient::connect(addr)?));
    }
    let mut connect_ms = Vec::new();
    for (c0, c) in &mut clients {
        c.epoch()
            .map_err(|e| std::io::Error::other(e.to_string()))?;
        connect_ms.push(c0.elapsed().as_secs_f64() * 1e3);
    }
    Ok(Setup {
        server,
        clients: clients.into_iter().map(|(_, c)| c).collect(),
        seconds: (started + t1.elapsed()).as_secs_f64(),
        connect_ms,
    })
}

/// Run each client's loop on its own thread; all start together.
fn drive<F>(clients: &mut [ContextClient], plans: &[Plan], f: F) -> (Vec<ClientLog>, Instant, f64)
where
    F: Fn(&mut ContextClient, &Plan, Instant) -> ClientLog + Sync,
{
    let start = Instant::now() + Duration::from_millis(5);
    let logs = thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(plans)
            .map(|(c, p)| s.spawn(|| f(c, p, start)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect::<Vec<_>>()
    });
    let wall = start.elapsed().as_secs_f64();
    (logs, start, wall)
}

fn account(out: &mut Outcome, logs: &[ClientLog]) {
    for l in logs {
        out.attempted += l.lookups + l.reports;
        out.fail_ops(l.errors, || {
            format!("{} client errors: {:?}", l.errors, l.problems)
        });
        out.check(!l.poisoned, || "a client connection was poisoned".into());
    }
}

/// Close the clients (flushing their write-behind buffers), check the
/// server counted exactly what they sent with no protocol errors, and
/// return its counters.
fn finish(
    server: ContextServer,
    clients: Vec<ContextClient>,
    sent: (u64, u64),
    out: &mut Outcome,
) -> [u64; 4] {
    for c in clients {
        if let Err(e) = c.close() {
            out.fail_ops(1, || format!("final flush failed: {e}"));
        }
    }
    let st = server.stats();
    let read = |a: &std::sync::atomic::AtomicU64| a.load(std::sync::atomic::Ordering::SeqCst);
    let counts = [
        read(&st.lookups),
        read(&st.reports),
        read(&st.protocol_errors),
        read(&st.rejected),
    ];
    server.shutdown();
    let [lookups, reports, errors, rejected] = counts;
    out.check(lookups == sent.0, || {
        format!("server counted {lookups} lookups, clients sent {}", sent.0)
    });
    out.check(reports == sent.1, || {
        format!("server counted {reports} reports, clients sent {}", sent.1)
    });
    out.check(errors == 0, || {
        format!("server answered {errors} protocol errors")
    });
    out.check(rejected == 0, || {
        format!("server rejected {rejected} connections")
    });
    counts
}

fn set_counts(out: &mut Outcome, counts: [u64; 4]) {
    let names = [
        "server.lookups",
        "server.reports",
        "server.protocol_errors",
        "server.rejected",
    ];
    for (name, v) in names.into_iter().zip(counts) {
        out.set(name, v as f64);
    }
}

fn sent(logs: &[ClientLog]) -> (u64, u64) {
    logs.iter()
        .fold((0, 0), |(l, r), g| (l + g.lookups, r + g.reports))
}

/// Windows per phase. Each window runs on a fresh server with fresh
/// connections, so a run's median spans many placements of the client
/// and handler threads on the cores instead of depending on one. The
/// closed loop, which the end-to-end metrics come from, gets more of them.
const OPEN_WINDOWS: usize = 16;
const CLOSED_WINDOWS: usize = 32;
/// Closed-loop windows run, checked and then left out of the figures
/// before the timed ones: the first two windows' lookups took about twice
/// as long as the rest.
const CLOSED_WARMUP: usize = 2;
/// Shares of `--seconds` given to each phase's timed windows; the
/// warm-up and the set-ups take the rest.
const OPEN_SHARE: f64 = 0.25;
const CLOSED_SHARE: f64 = 0.61;

/// Set-up samples and server counters gathered over a run's windows.
#[derive(Default)]
struct Tally {
    setup_ms: Vec<f64>,
    connect_ms: Vec<f64>,
    counts: [u64; 4],
}

/// One phase window on a fresh server.
struct Window {
    logs: Vec<ClientLog>,
    start: Instant,
    wall: f64,
}

impl Window {
    fn rate(&self) -> f64 {
        let (l, r) = sent(&self.logs);
        (l + r) as f64 / self.wall
    }
}

/// Set up, drive every client with `f`, close, and check what the server
/// counted. `None` (with the failure recorded) if set-up failed.
fn window<F>(plans: &[Plan], f: F, tally: &mut Tally, out: &mut Outcome) -> Option<Window>
where
    F: Fn(&mut ContextClient, &Plan, Instant) -> ClientLog + Sync,
{
    let s = match set_up() {
        Ok(s) => s,
        Err(e) => {
            out.check(false, || format!("set-up failed: {e}"));
            return None;
        }
    };
    tally.setup_ms.push(s.seconds * 1e3);
    tally.connect_ms.extend(s.connect_ms.iter().copied());
    let Setup {
        server,
        mut clients,
        ..
    } = s;
    let (logs, start, wall) = drive(&mut clients, plans, f);
    account(out, &logs);
    let counts = finish(server, clients, sent(&logs), out);
    for (a, b) in tally.counts.iter_mut().zip(counts) {
        *a += b;
    }
    Some(Window { logs, start, wall })
}

/// Both phases of a run: `OPEN_WINDOWS` open-loop windows over
/// `OPEN_SHARE` of `seconds`, then `CLOSED_WARMUP` + `CLOSED_WINDOWS`
/// closed-loop windows, the timed ones over `CLOSED_SHARE` of it, every
/// window driven by the same inputs. `None` (with the failure recorded)
/// if a set-up failed.
struct Phases {
    open: Vec<Window>,
    closed: Vec<Window>,
    plans: Vec<Plan>,
}

fn run_phases(seed: u64, seconds: f64, out: &mut Outcome) -> Option<Phases> {
    let open_ns = (seconds * OPEN_SHARE * 1e9) as u64 / OPEN_WINDOWS as u64;
    let closed = Duration::from_secs_f64(seconds * CLOSED_SHARE / CLOSED_WINDOWS as f64);
    let plans = plans(seed, open_ns);
    let mut tally = Tally::default();
    let open = (0..OPEN_WINDOWS)
        .map(|_| window(&plans, open_loop, &mut tally, out))
        .collect::<Option<Vec<_>>>()?;
    let run_closed = |c: &mut ContextClient, p: &Plan, s| closed_loop(c, p, s, closed);
    let mut closed = (0..CLOSED_WARMUP + CLOSED_WINDOWS)
        .map(|_| window(&plans, run_closed, &mut tally, out))
        .collect::<Option<Vec<_>>>()?;
    closed.drain(..CLOSED_WARMUP);
    report_setups(&tally, out);
    set_counts(out, tally.counts);
    Some(Phases {
        open,
        closed,
        plans,
    })
}

fn report_setups(tally: &Tally, out: &mut Outcome) {
    println!(
        "# ctx_serve set-up ms {}",
        Dist::new(&tally.setup_ms).describe()
    );
    println!(
        "# ctx_serve connect + first reply ms {}",
        Dist::new(&tally.connect_ms).describe()
    );
    out.set_opt("setup_s", median(&tally.setup_ms).map(|ms| ms / 1e3));
    out.set_opt("client.connect_ms", median(&tally.connect_ms));
}

/// Open-loop latency distributions, in µs: from due, send→reply, lateness.
fn open_dists(logs: &[&ClientLog]) -> (Dist, Dist, Dist) {
    let us = |f: fn(&(u64, u64, u64)) -> u64| {
        let v: Vec<f64> = logs
            .iter()
            .flat_map(|l| l.timings.iter().map(|t| f(t) as f64 / 1e3))
            .collect();
        Dist::new(&v)
    };
    (us(|t| t.2 - t.0), us(|t| t.2 - t.1), us(|t| t.1 - t.0))
}

fn all_logs(windows: &[Window]) -> Vec<&ClientLog> {
    windows.iter().flat_map(|w| &w.logs).collect()
}

fn print_dists(from_due: &Dist, service: &Dist, late: &Dist) {
    println!(
        "# ctx_serve open loop at {OPEN_RATE}/s: lookup from due {}",
        from_due.describe()
    );
    println!("#   service {}", service.describe());
    println!("#   generator lateness {}", late.describe());
}

/// Closed-loop lookup latency (send to reply) of the given logs.
fn closed_dist(logs: &[&ClientLog]) -> Hist {
    let mut h = Hist::default();
    for l in logs {
        h.merge(&l.closed);
    }
    h
}

/// Untraced run: every end-to-end metric.
pub fn measure(seed: u64, seconds: f64, out: &mut Outcome) {
    let Some(ph) = run_phases(seed, seconds, out) else {
        return;
    };
    let rates: Vec<f64> = ph.closed.iter().map(Window::rate).collect();
    let p50s: Vec<f64> = ph
        .closed
        .iter()
        .filter_map(|w| closed_dist(&w.logs.iter().collect::<Vec<_>>()).p50_us())
        .collect();
    let (from_due, service, late) = open_dists(&all_logs(&ph.open));
    print_dists(&from_due, &service, &late);
    println!(
        "# ctx_serve closed-loop lookup us {}",
        closed_dist(&all_logs(&ph.closed)).describe()
    );
    println!("# ctx_serve closed-loop windows: lookup p50 us {p50s:.1?}, ops/s {rates:.0?}");
    // Every window repeats the same inputs on a fresh server. The median
    // over windows, not the best one: a window's figures depend on where
    // the scheduler places four threads on the cores and on when idle
    // cores wake, and the best of many windows is an outlier of that.
    out.set_opt("ops_per_s", median(&rates));
    out.set_opt("latency_ms", median(&p50s).map(|us| us / 1e3));
    out.set("ok_frac", 1.0 - out.failed_frac());
    out.set_opt("peak_rss_mb", peak_rss_mb());
}

/// Codec cost of the frames the open loop exchanged: requests and their
/// replies, reports in the batches the write-behind buffer actually sent.
struct Wire {
    encode_ns: f64,
    decode_ns: f64,
    bytes: f64,
    /// Encode + decode of one lookup and its reply.
    lookup_ns: f64,
}

fn time_codec(frames: &[Message], reps: usize) -> (f64, f64, usize) {
    let (mut enc, mut dec, mut bytes) = (Vec::new(), Vec::new(), 0);
    for _ in 0..reps {
        let t = Instant::now();
        let encoded: Vec<_> = frames.iter().map(encode).collect();
        enc.push(t.elapsed().as_nanos() as f64);
        bytes = encoded.iter().map(|b| b.len()).sum();
        let mut d = Decoder::new();
        let t = Instant::now();
        for b in &encoded {
            d.extend(b);
            std::hint::black_box(d.next().expect("own frames decode"));
        }
        dec.push(t.elapsed().as_nanos() as f64);
    }
    (
        median(&enc).unwrap_or(0.0),
        median(&dec).unwrap_or(0.0),
        bytes,
    )
}

fn wire_replay(logs: &[ClientLog], plans: &[Plan]) -> Wire {
    let mut lookups = Vec::new();
    let mut reports = Vec::new();
    let mut n_reports = 0;
    for (log, plan) in logs.iter().zip(plans) {
        for (path, snap) in &log.replies {
            lookups.push(Message::Lookup { path: *path });
            lookups.push(Message::Context(*snap));
        }
        // Only batches the buffer flushed inside the window: the reports
        // still buffered at its end travel with the next phase's.
        let mut from = 0;
        for &k in &log.flush_at {
            let batch: Vec<_> = (from..=k)
                .map(|i| (plan.keys[i], plan.summaries[i % plan.summaries.len()]))
                .collect();
            n_reports += batch.len();
            reports.push(Message::BatchReport(batch));
            reports.push(Message::ReportOk);
            from = k + 1;
        }
    }
    let n_lookups = (lookups.len() / 2).max(1) as f64;
    let ops = n_lookups + n_reports as f64;
    let (le, ld, lb) = time_codec(&lookups, 5);
    let (re, rd, rb) = time_codec(&reports, 5);
    Wire {
        encode_ns: (le + re) / ops,
        decode_ns: (ld + rd) / ops,
        bytes: (lb + rb) as f64 / ops,
        lookup_ns: (le + ld) / n_lookups,
    }
}

/// Per-call cost of the sharded store on the open loop's key sequence
/// (both clients merged in due order), timed per call, less the cost of
/// reading the clock.
fn store_replay(logs: &[ClientLog], plans: &[Plan]) -> (f64, f64) {
    let mut ops: Vec<(u64, PathKey, FlowSummary)> = Vec::new();
    for (log, plan) in logs.iter().zip(plans) {
        for (i, t) in log.timings.iter().enumerate() {
            ops.push((t.1, plan.keys[i], plan.summaries[i % plan.summaries.len()]));
        }
    }
    ops.sort_by_key(|o| o.0);
    let n = ops.len().max(1) as f64;
    let clock = crate::trace::timer_floor_ns();
    let (mut lk, mut rp) = (Vec::new(), Vec::new());
    for _ in 0..5 {
        let mut store = ShardedStore::new(store_config(), SHARDS);
        let (mut l, mut r) = (0u64, 0u64);
        for (now, path, summary) in &ops {
            let t0 = Instant::now();
            std::hint::black_box(store.lookup(*path, *now));
            let t1 = Instant::now();
            store.report(*path, *now, summary);
            let t2 = Instant::now();
            l += (t1 - t0).as_nanos() as u64;
            r += (t2 - t1).as_nanos() as u64;
        }
        lk.push((l as f64 / n - clock).max(0.0));
        rp.push((r as f64 / n - clock).max(0.0));
    }
    (median(&lk).unwrap_or(0.0), median(&rp).unwrap_or(0.0))
}

/// Traced run: the same phases as the untraced run, then spans, the
/// codec and store replays, and every per-layer metric.
pub fn trace(seed: u64, seconds: f64, out: &mut Outcome, tracer: &Arc<Tracer>) -> String {
    let Some(ph) = run_phases(seed, seconds, out) else {
        return String::new();
    };
    // The loops take the same timestamps traced or not; tracing only adds
    // the span records, written after the windows.
    let t0 = Instant::now();
    for w in &ph.open {
        record_spans(tracer, "ctx.open_loop", &w.logs, w.start, true);
    }
    for w in &ph.closed {
        record_spans(tracer, "ctx.closed_loop", &w.logs, w.start, false);
    }
    let loops: f64 = ph.open.iter().chain(&ph.closed).map(|w| w.wall).sum();
    out.set("trace.overhead_frac", t0.elapsed().as_secs_f64() / loops);

    let (from_due, service, late) = open_dists(&all_logs(&ph.open));
    out.set_opt("client.service_p50_us", service.p50());
    out.set_opt("client.service_p99_us", service.p99());
    out.set_opt("gen.late_p50_us", late.p50());
    out.set_opt("gen.late_p99_us", late.p99());
    out.set("gen.samples", from_due.n() as f64);
    out.set_opt("ctx.lookup_p50_us", from_due.p50());
    out.set_opt("ctx.lookup_p99_us", from_due.p99());

    let wire = wire_replay(&ph.open[0].logs, &ph.plans);
    let (store_lookup, store_report) = store_replay(&ph.open[0].logs, &ph.plans);
    out.set("wire.encode_ns", wire.encode_ns);
    out.set("wire.decode_ns", wire.decode_ns);
    out.set("wire.bytes_per_op", wire.bytes);
    out.set("store.lookup_ns", store_lookup);
    out.set("store.report_ns", store_report);
    let explained_us = (wire.lookup_ns + store_lookup) / 1e3;
    if let Some(p50) = service.p50() {
        out.set("server.residual_us", p50 - explained_us);
        out.set("trace.unattributed_frac", (p50 - explained_us) / p50);
    }
    out.set("failed_frac", out.failed_frac());
    print_dists(&from_due, &service, &late);

    let spans = tracer.spans();
    let aggs = tracer.aggs();
    let roots: u64 = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| s.end_ns - s.start_ns)
        .sum();
    format!(
        "# ctx_serve layer table; self% is of the summed per-client loop walls ({:.1} ms); \
         a loop's self time is the generator (sleeping to the next due time, bookkeeping)\n{}\
         # server side of one lookup: codec {:.0} ns + store {:.0} ns + residual (socket, wake-up, lock wait) {}\n",
        roots as f64 / 1e6,
        table(&self_times(&spans, &aggs), roots),
        wire.lookup_ns,
        store_lookup,
        service
            .p50()
            .map_or("unresolved".into(), |p| format!("{:.1} us", p - explained_us)),
    )
}

/// Spans from timestamps the loops already took, recorded after the
/// loop so the record-keeping never runs inside the timed window. The
/// open loop keeps one span per request; the closed loop's requests are
/// summed per client.
fn record_spans(
    tracer: &Tracer,
    name: &'static str,
    logs: &[ClientLog],
    start: Instant,
    per_request: bool,
) {
    let base = tracer.at(start);
    for log in logs {
        let id: SpanId = tracer.reserve();
        let mut last = 0;
        if per_request {
            for &(_, send, reply) in &log.timings {
                tracer.record(
                    tracer.reserve(),
                    Some(id),
                    "client.lookup",
                    base + send,
                    base + reply,
                );
                last = last.max(reply);
            }
            for &(send, reply) in &log.flushes {
                tracer.record(
                    tracer.reserve(),
                    Some(id),
                    "client.flush",
                    base + send,
                    base + reply,
                );
                last = last.max(reply);
            }
        } else {
            tracer.add(
                "client.closed_lookup",
                id,
                log.closed.n(),
                log.closed.sum_ns(),
            );
            last = log.closed_end;
        }
        tracer.record(id, None, name, base, base + last);
    }
}
