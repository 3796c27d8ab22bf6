//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Starts the gateway chain in this process over loopback, drives one
//! workload for about `--seconds`, checks every reply byte for byte and
//! each gateway's counters against the client's, and prints one metric
//! per line followed by one JSON result line. `--trace 0` reports the
//! end-to-end metrics; `--trace 1` reports the per-layer budget from a
//! traced run. See README.md.

use std::net::SocketAddr;
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use perfbench::chain::{Chain, DriveStats};
use perfbench::host;
use perfbench::load::{self, ClientConn, PhaseResult, Schedule};
use perfbench::replay::replay;
use perfbench::stats::{
    kept_windows, median_f64, percentile, tail_percentile, LadderSearch, StepOutcome,
};
use perfbench::sys;
use perfbench::workload::{build_endpoint, generate, Inputs, Shape, Workload};
use protoobf_core::profile::Profile;
use protoobf_core::telemetry::HistogramSnapshot;
use protoobf_transport::Gateway;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Chains started per run; `setup_s` is the median of their set-up times.
const SETUP_REPEATS: usize = 15;
const MIB: f64 = 1024.0 * 1024.0;
/// Share of `--seconds` spent warming up at the nominal rate.
const WARMUP_SHARE: f64 = 0.05;
/// Share of `--seconds` measured at the nominal rate on an open loop,
/// which spends the rest on its rate ladder; a closed loop measures the
/// whole remainder.
const NOMINAL_SHARE: f64 = 0.3;
/// Operations due in one open-loop window: enough for the window's own
/// p99 (ten samples beyond it), few enough that most windows miss the
/// millisecond stalls a shared host inflicts now and then, so the median
/// over windows reads the chain rather than the host's worst moments.
const WINDOW_OPS: f64 = 1100.0;
/// Windows of a closed loop, whose p99 is taken over all of them.
const CLOSED_WINDOWS: usize = 8;
/// Length of one ladder step.
const STEP: Duration = Duration::from_secs(1);
/// Seconds budgeted per ladder step: the step itself, the reconnect
/// and the drain of the replies still outstanding at its end. The number
/// of steps follows from `--seconds` and this, so every run with the
/// same `--seconds` measures the same number of steps.
const STEP_COST: f64 = 1.1;
/// In a traced run: the share of `--seconds` measured untraced, then
/// traced, and the replay's share.
const TRACE_SHARE: f64 = 0.4;
const REPLAY_SHARE: f64 = 0.05;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::by_name(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("bad seconds {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(out) => {
            out.print();
            if out.tally.failed == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Operations attempted and failed over the whole run, every chain and
/// phase included.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn add(&mut self, r: &PhaseResult) {
        self.attempted += r.attempted;
        self.failed += r.failed;
    }

    /// Stops a chain after checking its gateways' counters; every
    /// disagreeing counter counts as one failed operation.
    fn retire(&mut self, chain: Chain) -> Result<(), String> {
        self.failed += chain.counter_mismatches();
        chain.stop()
    }
}

struct Output {
    metrics: Vec<(&'static str, f64, &'static str)>,
    tally: Tally,
}

impl Output {
    fn print(&self) {
        for (name, value, unit) in &self.metrics {
            println!("metric {name} {value} {unit}");
        }
        let body: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.tally.failed == 0,
            self.tally.attempted,
            self.tally.failed,
            body.join(", ")
        );
    }
}

fn secs(share: f64, seconds: f64) -> Duration {
    Duration::from_secs_f64(share * seconds)
}

fn run(args: &Args) -> Result<Output, String> {
    let w = args.workload;
    println!("fingerprint {}", host::fingerprint(w.name, args.seed));
    let _spinners = host::IdleSpinners::start();
    let tw_before = host::time_wait_sockets();
    let steal_before = host::steal_ms();
    let inputs =
        generate(&w, &build_endpoint(&w.profile_text()).map_err(|e| e.to_string())?, args.seed);
    let mut tally = Tally::default();

    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    for _ in 1..SETUP_REPEATS {
        let (chain, setup) = Chain::start(&w, &inputs, false)?;
        setups.push(setup.as_secs_f64());
        tally.retire(chain)?;
    }
    let (chain, setup) = Chain::start(&w, &inputs, false)?;
    setups.push(setup.as_secs_f64());
    tally.attempted += SETUP_REPEATS as u64;

    let metrics = if args.trace {
        traced_run(args, &inputs, chain, &mut tally)?
    } else {
        let mut m = end_to_end(args, &inputs, chain, &mut tally)?;
        m.push(("setup_s", median_f64(&setups), "s"));
        m.push(("ok_frac", 1.0 - tally.failed as f64 / tally.attempted as f64, "frac"));
        m
    };
    let show = |v: Option<u64>| v.map_or("unknown".to_string(), |v| v.to_string());
    println!("time_wait before {} after {}", show(tw_before), show(host::time_wait_sockets()));
    println!("steal_ms {}", show(steal_before.zip(host::steal_ms()).map(|(a, b)| b - a)));
    println!("failed_frac {}", tally.failed as f64 / tally.attempted as f64);
    Ok(Output { metrics, tally })
}

/// The long-lived connections of a pipelined or closed-loop workload.
fn connect_pair(
    entry: SocketAddr,
    seed: u64,
    r: &mut PhaseResult,
) -> Result<Vec<ClientConn>, String> {
    (0..2u64)
        .map(|c| {
            ClientConn::connect(entry, StdRng::seed_from_u64(seed ^ (c + 1) << 32), r)
                .map_err(|e| format!("connect: {e}"))
        })
        .collect()
}

/// Runs one phase of `dur` at `rate` (closed loop: as fast as replies
/// come) on two client threads.
fn phase(
    w: &Workload,
    inputs: &Inputs,
    entry: SocketAddr,
    conns: &mut [ClientConn],
    seed: u64,
    rate: f64,
    dur: Duration,
) -> PhaseResult {
    let start = Instant::now() + Duration::from_millis(1);
    let end = start + dur;
    let next = AtomicU64::new(0);
    let completed = AtomicU64::new(0);
    let (next, completed) = (&next, &completed);
    let mut total = PhaseResult::default();
    std::thread::scope(|s| {
        let mut handles = Vec::with_capacity(2);
        let mut conns = conns.iter_mut();
        for c in 0..2u32 {
            let conn = conns.next();
            let body = move || {
                if let Err(e) = sys::tight_timer_slack() {
                    eprintln!("client: timer slack: {e}");
                }
                match w.shape {
                    Shape::OpenPipelined => {
                        let interval = Duration::from_secs_f64(2.0 / rate);
                        let offset = Duration::from_secs_f64(f64::from(c) / rate);
                        let sched = Schedule { start, offset, interval, end };
                        load::pipelined(conn.expect("two connections"), inputs, sched)
                    }
                    Shape::ClosedLoop => load::closed(conn.expect("two connections"), inputs, end),
                    Shape::OpenChurn => {
                        let interval = Duration::from_secs_f64(1.0 / rate);
                        let sched = Schedule { start, offset: Duration::ZERO, interval, end };
                        load::churn(entry, inputs, seed, sched, next, completed)
                    }
                }
            };
            let spawned = std::thread::Builder::new().name("client".into()).spawn_scoped(s, body);
            handles.push(spawned.expect("spawn client thread"));
        }
        for h in handles {
            total.merge(h.join().expect("client thread panicked"));
        }
    });
    total
}

/// How a measured phase of `dur` splits into windows: `(count, length)`.
fn window_plan(w: &Workload, dur: Duration) -> (usize, Duration) {
    if w.is_open() {
        let len = Duration::from_secs_f64(WINDOW_OPS / w.rate);
        ((dur.as_secs_f64() / len.as_secs_f64()).floor().max(1.0) as usize, len)
    } else {
        (CLOSED_WINDOWS, dur / CLOSED_WINDOWS as u32)
    }
}

/// Largest share of the machine's CPU time the hypervisor may steal
/// during a window or ladder step for it to count as clean. On a shared
/// host, steal comes in bursts that stall every thread of the chain for
/// milliseconds; a window or step measured through one says more about
/// the neighbours than about the chain.
const STEAL_LIMIT: f64 = 0.05;

/// Whether `stolen_ms` over `secs` exceeds [`STEAL_LIMIT`].
fn steal_heavy(stolen_ms: u64, secs: f64) -> bool {
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    stolen_ms as f64 > STEAL_LIMIT * secs * 1e3 * cpus as f64
}

/// Milliseconds stolen since `before`, a reading of [`host::steal_ms`]
/// (0 where `/proc/stat` does not tell).
fn stolen_since(before: Option<u64>) -> u64 {
    before.zip(host::steal_ms()).map_or(0, |(a, b)| b.saturating_sub(a))
}

/// One measured window of the nominal phase.
struct Window {
    r: PhaseResult,
    secs: f64,
    cpu_ns: u64,
    /// CPU time the hypervisor stole from the machine during the window
    /// (0 where `/proc/stat` does not tell).
    stolen_ms: u64,
}

/// End-to-end figures of a run of windows: each is the median over the
/// windows, so one noisy second on a shared host does not set the
/// result.
struct Summary {
    p50_us: f64,
    p99_us: f64,
    goodput_mib_s: f64,
    cpu_us_per_op: f64,
    ops_per_s: f64,
}

/// Medians over the windows [`kept_windows`] keeps: those within
/// [`STEAL_LIMIT`], or when fewer than half are, the least stolen half,
/// and then the run prints `host_noisy true`: its figures partly show the
/// host and not the chain. The p99 is the median of the windows' p99s
/// when every window has the samples to support one, else the p99 of the
/// windows pooled, which must then support it.
fn summarize(all: &[Window]) -> Result<Summary, String> {
    let stolen: Vec<u64> = all.iter().map(|w| w.stolen_ms).collect();
    let heavy: Vec<bool> = all.iter().map(|w| steal_heavy(w.stolen_ms, w.secs)).collect();
    let (kept, noisy) = kept_windows(&stolen, &heavy);
    println!("windows {} kept {}", all.len(), kept.len());
    println!("host_noisy {noisy}");
    let ws: Vec<&Window> = kept.into_iter().map(|i| &all[i]).collect();
    let med = |f: &dyn Fn(&Window) -> f64| median_f64(&ws.iter().map(|w| f(w)).collect::<Vec<_>>());
    if ws.iter().any(|w| w.r.completed == 0) {
        return Err("a measured window completed no operation".into());
    }
    let supports_p99 = |n: usize| tail_percentile(n).is_some_and(|p| p >= 99.0);
    let p99_us = if ws.iter().all(|w| supports_p99(w.r.lat_ns.len())) {
        med(&|w| percentile(&sorted(&w.r.lat_ns), 99.0) as f64 / 1e3)
    } else {
        let mut pooled: Vec<u64> = ws.iter().flat_map(|w| w.r.lat_ns.iter().copied()).collect();
        if !supports_p99(pooled.len()) {
            return Err(format!("{} samples do not support a p99", pooled.len()));
        }
        pooled.sort_unstable();
        percentile(&pooled, 99.0) as f64 / 1e3
    };
    Ok(Summary {
        p50_us: med(&|w| percentile(&sorted(&w.r.lat_ns), 50.0) as f64 / 1e3),
        p99_us,
        goodput_mib_s: med(&|w| w.r.payload_bytes as f64 / w.secs / MIB),
        cpu_us_per_op: med(&|w| w.cpu_ns as f64 / w.r.completed as f64 / 1e3),
        ops_per_s: med(&|w| w.r.completed as f64 / w.secs),
    })
}

/// A chain with the client's long-lived connections, if the workload
/// keeps any.
struct Runner<'a> {
    args: &'a Args,
    inputs: &'a Inputs,
    chain: Chain,
    conns: Vec<ClientConn>,
    /// Connect times of `conns`.
    connect_ns: Vec<u64>,
}

impl<'a> Runner<'a> {
    fn new(args: &'a Args, inputs: &'a Inputs, chain: Chain) -> Result<Runner<'a>, String> {
        let mut d = Runner { args, inputs, chain, conns: Vec::new(), connect_ns: Vec::new() };
        d.reconnect()?;
        Ok(d)
    }

    /// Closes the long-lived connections and opens them anew, before
    /// every window and ladder step, so nothing left over from one phase
    /// (a reply still in flight after an overloaded step) reaches the
    /// next.
    fn reconnect(&mut self) -> Result<(), String> {
        if self.args.workload.shape == Shape::OpenChurn {
            return Ok(());
        }
        self.conns.clear();
        let mut r = PhaseResult::default();
        self.conns = connect_pair(self.chain.entry, self.args.seed, &mut r)?;
        self.chain.note_client(0, r.connections);
        self.connect_ns.extend(r.connect_ns);
        Ok(())
    }

    fn run(&mut self, tally: &mut Tally, rate: f64, dur: Duration) -> PhaseResult {
        let w = &self.args.workload;
        let r = phase(w, self.inputs, self.chain.entry, &mut self.conns, self.args.seed, rate, dur);
        tally.add(&r);
        self.chain.note_client(r.replies, r.connections);
        r
    }

    /// `n` consecutive windows of `len` at the nominal rate, each on
    /// fresh connections.
    fn windows(
        &mut self,
        tally: &mut Tally,
        n: usize,
        len: Duration,
    ) -> Result<Vec<Window>, String> {
        (0..n)
            .map(|_| {
                self.reconnect()?;
                let cpu0 = host::thread_cpu_ns("gw-");
                let steal0 = host::steal_ms();
                let t0 = Instant::now();
                let r = self.run(tally, self.args.workload.rate, len);
                let secs = t0.elapsed().as_secs_f64();
                let cpu_ns = host::thread_cpu_ns("gw-") - cpu0;
                Ok(Window { r, secs, cpu_ns, stolen_ms: stolen_since(steal0) })
            })
            .collect()
    }

    fn finish(self, tally: &mut Tally) -> Result<(), String> {
        tally.retire(self.chain)
    }
}

fn end_to_end(
    args: &Args,
    inputs: &Inputs,
    chain: Chain,
    tally: &mut Tally,
) -> Result<Vec<(&'static str, f64, &'static str)>, String> {
    let w = &args.workload;
    let mut d = Runner::new(args, inputs, chain)?;
    d.run(tally, w.rate, secs(WARMUP_SHARE, args.seconds));
    let share = if w.is_open() { NOMINAL_SHARE } else { 1.0 - WARMUP_SHARE };
    let (n, len) = window_plan(w, secs(share, args.seconds));
    let steps = if w.is_open() {
        ((1.0 - WARMUP_SHARE - NOMINAL_SHARE) * args.seconds / STEP_COST) as usize
    } else {
        0
    };
    let ws = d.windows(tally, n, len)?;
    // Memory at the nominal load, before the ladder's overload steps.
    let peak_rss = host::peak_rss_mib();
    let mut search = LadderSearch::new(w.ladder());
    for _ in 0..steps {
        ladder_step(&mut d, tally, &mut search)?;
    }
    let s = summarize(&ws)?;
    // An open loop's goodput is taken at the ladder steps that give
    // `max_rate_ops`: at the nominal rate it only echoes the offered load.
    let searched = if w.is_open() { search.max_rate() } else { None };
    let (max_rate, goodput) = searched.unwrap_or_else(|| {
        if w.is_open() {
            // Only a host stealing most of the run's CPU time gets here;
            // the nominal windows still show a rate the chain sustained.
            println!("ladder: no step passed; reporting the nominal completion rate");
        }
        (s.ops_per_s, s.goodput_mib_s)
    });
    d.finish(tally)?;
    // The p99 follows the time the hypervisor steals far more than the
    // chain, so it has no regression bound: it is shown here and
    // reported as a per-layer metric of the traced run.
    println!("lat_p99_us {} us", s.p99_us);
    Ok(vec![
        ("lat_p50_us", s.p50_us, "us"),
        ("max_rate_ops", max_rate, "1/s"),
        ("goodput_mib_s", goodput, "MiB/s"),
        ("gw_cpu_us_per_op", s.cpu_us_per_op, "us"),
        ("peak_rss_mib", peak_rss, "MiB"),
    ])
}

/// Measures one step of the rate ladder at the rate `search` asks for
/// and records its outcome there.
fn ladder_step(
    d: &mut Runner<'_>,
    tally: &mut Tally,
    search: &mut LadderSearch,
) -> Result<(), String> {
    let w = d.args.workload;
    let rate = search.next_rate();
    let phase = if search.walking() { "walk" } else { "bisect" };
    d.reconnect()?;
    let steal0 = host::steal_ms();
    let step = d.run(tally, rate, STEP);
    let stolen = stolen_since(steal0);
    let outcome = step_outcome(&step);
    let ok = outcome.passes(w.limit_us * 1000);
    let p99 = match outcome.p99_ns {
        u64::MAX => "unmet".to_string(),
        ns => format!("{:.1}", ns as f64 / 1e3),
    };
    println!(
        "step {phase} rate {rate:.0} p99_us {p99} failed {} backlog_growing {} stolen_ms {stolen} passed {ok}",
        outcome.failed, outcome.backlog_growing
    );
    let heavy = steal_heavy(stolen, STEP.as_secs_f64());
    search.record(ok, heavy, step.payload_bytes as f64 / STEP.as_secs_f64() / MIB);
    Ok(())
}

/// Tail latency of a ladder step; operations that never completed, or
/// were due but never sent, count as beyond any limit.
fn step_outcome(r: &PhaseResult) -> StepOutcome {
    let mut lat = r.lat_ns.clone();
    let missing = r.attempted - r.completed + r.unserved;
    lat.extend(std::iter::repeat_n(u64::MAX, missing as usize));
    lat.sort_unstable();
    StepOutcome {
        p99_ns: if lat.is_empty() { u64::MAX } else { percentile(&lat, 99.0) },
        failed: r.failed,
        backlog_growing: r.backlog_growing,
    }
}

fn traced_run(
    args: &Args,
    inputs: &Inputs,
    plain: Chain,
    tally: &mut Tally,
) -> Result<Vec<(&'static str, f64, &'static str)>, String> {
    let w = &args.workload;
    let warm = secs(WARMUP_SHARE, args.seconds);
    let (n, len) = window_plan(w, secs(TRACE_SHARE, args.seconds));
    // The same windows untraced, then traced: the difference is the
    // tracing overhead.
    let mut d = Runner::new(args, inputs, plain)?;
    d.run(tally, w.rate, warm);
    let plain = summarize(&d.windows(tally, n, len)?)?;
    d.finish(tally)?;
    let (traced, _) = Chain::start(w, inputs, true)?;
    tally.attempted += 1;
    let mut d = Runner::new(args, inputs, traced)?;
    d.run(tally, w.rate, warm);
    let before = snapshot(&d.chain);
    let ws = d.windows(tally, n, len)?;
    let delta = snapshot(&d.chain).minus(&before);
    let traced = summarize(&ws)?;
    let mut all = PhaseResult { connect_ns: d.connect_ns.clone(), ..PhaseResult::default() };
    for win in ws {
        all.merge(win.r);
    }

    let ops = all.completed.max(1) as f64;
    let p50_traced = traced.p50_us;
    let enc_us = delta.busy_ns[0] as f64 / ops / 1e3;
    let dec_us = delta.busy_ns[1] as f64 / ops / 1e3;
    let server_us = delta.server_ns as f64 / ops / 1e3;
    let client_us = all.send_ns as f64 / ops / 1e3;
    let drives = (delta.drives[0] + delta.drives[1]) as f64;
    let idle = (delta.idle[0] + delta.idle[1]) as f64;
    let chain = &d.chain;
    let setup_ns = {
        let t = chain.trace.as_ref().expect("traced chain");
        let mut all: Vec<u64> =
            t.iter().flat_map(|s| s.setup_ns.lock().expect("setup list lock").clone()).collect();
        all.sort_unstable();
        all
    };
    let late = sorted(&all.late_ns);
    let connect = sorted(&all.connect_ns);
    let (parser_peak, serializer_peak) = pool_peaks(&[&chain.enc, &chain.dec]);
    let gw = [chain.enc.metrics().snapshot(), chain.dec.metrics().snapshot()];

    let rp = replay(&chain.enc, &chain.dec, inputs, secs(REPLAY_SHARE, args.seconds));
    tally.attempted += rp.ops;
    tally.failed += rp.mismatches;
    let prof = profile_layers(w)?;
    d.finish(tally)?;
    let rops = rp.ops as f64;

    let per = |ns: u64| ns as f64 / rops;
    Ok(vec![
        ("lat_p99_us", plain.p99_us, "us"),
        ("profile.parse_us", prof[0], "us"),
        ("profile.derive_us", prof[1], "us"),
        ("profile.build_us", prof[2], "us"),
        ("service.transcode_target_us", prof[3], "us"),
        ("serialize.obf_ns_per_op", per(rp.serialize_obf_ns), "ns"),
        ("serialize.clear_ns_per_op", per(rp.serialize_clear_ns), "ns"),
        ("parse.obf_ns_per_op", per(rp.parse_obf_ns), "ns"),
        ("parse.clear_ns_per_op", per(rp.parse_clear_ns), "ns"),
        ("transcode.to_obf_ns_per_op", per(rp.to_obf_ns), "ns"),
        ("transcode.to_clear_ns_per_op", per(rp.to_clear_ns), "ns"),
        ("codec.wire_expansion", rp.obf_bytes as f64 / rp.clear_bytes as f64, "ratio"),
        ("conn.feed_ns_per_op", per(rp.feed_ns), "ns"),
        ("conn.consume_ns_per_op", per(rp.consume_ns), "ns"),
        ("gateway.bytes_per_op", (delta.bytes as f64) / ops, "B"),
        ("relay.enc.drive_us_per_op", enc_us, "us"),
        ("relay.dec.drive_us_per_op", dec_us, "us"),
        ("relay.drives_per_op", drives / ops, "count"),
        ("relay.idle_drive_frac", if drives > 0.0 { idle / drives } else { 0.0 }, "frac"),
        ("evloop.wake_p50_us", delta.wake.p50() as f64, "us"),
        ("evloop.session_setup_us_p50", pct_us(&setup_ns, 50.0), "us"),
        ("service.parser_pool_peak", parser_peak as f64, "count"),
        ("service.serializer_pool_peak", serializer_peak as f64, "count"),
        ("gateway.failed", (gw[0].failed + gw[1].failed) as f64, "count"),
        ("gateway.accept_errors", (gw[0].accept_errors + gw[1].accept_errors) as f64, "count"),
        (
            "gateway.backpressure_events",
            (gw[0].backpressure_events + gw[1].backpressure_events) as f64,
            "count",
        ),
        ("client.late_p99_us", pct_us(&late, 99.0), "us"),
        ("client.connect_us_p50", pct_us(&connect, 50.0), "us"),
        ("trace.lat_p50_us", p50_traced, "us"),
        ("trace.self.enc_us", enc_us, "us"),
        ("trace.self.dec_us", dec_us, "us"),
        ("trace.self.server_us", server_us, "us"),
        ("trace.self.client_us", client_us, "us"),
        (
            "trace.unattributed_us_per_op",
            p50_traced - (enc_us + dec_us + server_us + client_us),
            "us",
        ),
        ("trace.overhead_frac", p50_traced / plain.p50_us - 1.0, "frac"),
    ])
}

fn sorted(v: &[u64]) -> Vec<u64> {
    let mut v = v.to_vec();
    v.sort_unstable();
    v
}

/// Percentile of an ascending ns sample in µs (0 for an empty sample).
fn pct_us(sorted: &[u64], p: f64) -> f64 {
    if sorted.is_empty() {
        0.0
    } else {
        percentile(sorted, p) as f64 / 1e3
    }
}

/// Counters of a chain at one instant, for deltas over a phase.
#[derive(Clone)]
struct Snap {
    drives: [u64; 2],
    idle: [u64; 2],
    busy_ns: [u64; 2],
    server_ns: u64,
    bytes: u64,
    wake: HistogramSnapshot,
}

impl Snap {
    fn minus(&self, b: &Snap) -> Snap {
        let sub = |x: [u64; 2], y: [u64; 2]| [x[0] - y[0], x[1] - y[1]];
        Snap {
            drives: sub(self.drives, b.drives),
            idle: sub(self.idle, b.idle),
            busy_ns: sub(self.busy_ns, b.busy_ns),
            server_ns: self.server_ns - b.server_ns,
            bytes: self.bytes - b.bytes,
            wake: self.wake.delta(&b.wake),
        }
    }
}

fn snapshot(chain: &Chain) -> Snap {
    let load = |f: fn(&DriveStats) -> &AtomicU64| -> [u64; 2] {
        match &chain.trace {
            Some(t) => [f(&t[0]).load(Ordering::Relaxed), f(&t[1]).load(Ordering::Relaxed)],
            None => [0, 0],
        }
    };
    let (e, d) = (chain.enc.metrics().snapshot(), chain.dec.metrics().snapshot());
    let mut wake = e.wake_latency;
    for (a, b) in wake.buckets.iter_mut().zip(d.wake_latency.buckets.iter()) {
        *a += b;
    }
    wake.sum += d.wake_latency.sum;
    Snap {
        drives: load(|s| &s.drives),
        idle: load(|s| &s.idle),
        busy_ns: load(|s| &s.busy_ns),
        server_ns: chain.server_stats().busy_ns.load(Ordering::Relaxed),
        bytes: e.bytes_in + e.bytes_out + d.bytes_in + d.bytes_out,
        wake,
    }
}

/// Summed parser and serializer pool peaks over the distinct codec
/// services of `gateways`.
fn pool_peaks(gateways: &[&Gateway]) -> (usize, usize) {
    let mut seen: Vec<*const protoobf_core::CodecService> = Vec::new();
    let (mut parsers, mut serializers) = (0, 0);
    for gw in gateways {
        let (down, up) = (gw.down_services(), gw.up_services());
        for svc in [down.rx, down.tx, up.rx, up.tx] {
            let p = svc as *const _;
            if seen.contains(&p) {
                continue;
            }
            seen.push(p);
            let s = svc.stats();
            parsers += s.pooled_parser_peak;
            serializers += s.pooled_serializer_peak;
        }
    }
    (parsers, serializers)
}

/// Medians over [`SETUP_REPEATS`] of: `Profile::parse`,
/// `Profile::derive_with`, `Profile::build_with`, and the first
/// `CodecService::transcode_target` calls a fresh gateway pair makes
/// (both directions of one gateway).
fn profile_layers(w: &Workload) -> Result<[f64; 4], String> {
    use perfbench::workload::resolve;
    use protoobf_transport::GatewayMode;
    let text = w.profile_text();
    let mut cols: [Vec<f64>; 4] = Default::default();
    let us = |t: Instant| t.elapsed().as_secs_f64() * 1e6;
    for _ in 0..SETUP_REPEATS {
        let t = Instant::now();
        let profile = Profile::parse(&text).map_err(|e| e.to_string())?;
        cols[0].push(us(t));
        let t = Instant::now();
        profile.derive_with(&resolve).map_err(|e| e.to_string())?;
        cols[1].push(us(t));
        let t = Instant::now();
        let ep = profile.build_with(&resolve).map_err(|e| e.to_string())?;
        cols[2].push(us(t));
        let addr: SocketAddr = "127.0.0.1:9".parse().expect("literal address");
        let gw =
            Gateway::from_endpoint(&ep, GatewayMode::Encode, addr).map_err(|e| e.to_string())?;
        let (down, up) = (gw.down_services(), gw.up_services());
        let t = Instant::now();
        up.tx.transcode_target(down.rx).map_err(|e| e.to_string())?;
        down.tx.transcode_target(up.rx).map_err(|e| e.to_string())?;
        cols[3].push(us(t));
    }
    Ok(cols.map(|c| median_f64(&c)))
}
