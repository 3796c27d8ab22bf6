//! The non-blocking event loop: thread-per-core workers over `std::net`,
//! with **kernel readiness** on Linux and a portable scan fallback.
//!
//! Workers share nothing but the listener and the [`Metrics`]: each
//! accepted connection lives on the worker that accepted it, so there is
//! no cross-thread session locking — the codec state sessions share (the
//! compiled plan inside each [`protoobf_core::CodecService`]) is
//! immutable by construction.
//!
//! ## Readiness backends
//!
//! On targets with the raw-syscall shim ([`crate::sys`], Linux
//! x86-64/aarch64 — no libc) each worker owns an epoll instance:
//! connection sockets are registered **edge-triggered** when the session
//! is accepted (the session reports them via [`Session::sockets`]),
//! sessions are re-armed by simply going back to `epoll_wait` after a
//! drive hits `WouldBlock`, and deregistered when they finish or fail.
//! Discovering work is then O(ready), not O(connections): ten thousand
//! quiet flows cost one sleeping syscall, and a wake services exactly
//! the sessions the kernel named. The listener is registered
//! level-triggered so a capped accept burst (see below) resumes without
//! a new edge.
//!
//! The portable fallback — selected at **compile time** on targets
//! without the shim, or at run time by setting `PROTOOBF_EVLOOP=scan`
//! (how the test suite covers both paths on one machine) — discovers
//! work by scanning: every socket is non-blocking and each worker
//! repeatedly calls [`Session::drive`] on every session it owns, backing
//! off exponentially (yield → 50 µs … 1.6 ms naps) when a whole scan
//! makes no progress. That is O(n) per quiet connection and adds up to a
//! nap of latency — fine for hundreds of connections, the reason the
//! epoll path exists for thousands.
//!
//! Both backends cap accepts per wake ([`LoopConfig::accept_burst`]) so
//! a continuous stream of new connections cannot starve established
//! sessions, and both record how long each wake spent servicing ready
//! sessions into [`Metrics::wake_latency`] (p50/p95/p99 visible in the
//! snapshot).

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Duration;

use protoobf_core::telemetry::{peer_token, EventKind, Metrics};

use crate::error::TransportError;
use crate::sys;

/// What one [`Session::drive`] call accomplished.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Drive {
    /// Bytes or messages moved; scan again immediately.
    Progress,
    /// Nothing to do right now (all reads/writes would block).
    Idle,
    /// The session finished cleanly and can be dropped.
    Done,
}

/// One unit of work owned by an event-loop worker: typically a
/// [`crate::gateway::Relay`] or [`crate::gateway::Server`], but any
/// state machine that can be pumped without blocking fits.
pub trait Session {
    /// Pumps the session once: read what's readable, decode/encode what's
    /// complete, write what's writable — never blocking.
    ///
    /// # Errors
    ///
    /// A [`TransportError`] tears the session down (the loop counts it in
    /// [`Metrics::failed`] and drops it, closing its sockets).
    fn drive(&mut self) -> Result<Drive, TransportError>;

    /// The sockets whose readiness gates this session's progress, for
    /// kernel registration on the epoll path (edge-triggered, read and
    /// write interest, registered at accept and deregistered at
    /// close/fail). The default reports none, which makes the epoll
    /// worker treat the session as always-ready — correct but O(n), i.e.
    /// scan semantics for that one session.
    fn sockets<'a>(&'a self, out: &mut Vec<&'a TcpStream>) {
        let _ = out;
    }

    /// An opaque identity for this session's flight-recorder events —
    /// conventionally [`peer_token`] of the accepted peer, so `/events`
    /// lines correlate with client addresses. The default (0) renders as
    /// an anonymous token; lifecycle events are still recorded.
    fn token(&self) -> u64 {
        0
    }
}

/// Event-loop sizing and lifecycle knobs.
#[derive(Debug, Clone)]
pub struct LoopConfig {
    /// Worker threads (acceptor + driver each). Defaults to the number of
    /// available CPUs.
    pub workers: usize,
    /// Stop accepting after this many connections in total and return once
    /// the last session drains — bounded runs for tests and smoke jobs.
    /// `None` runs until `shutdown` is raised.
    pub accept_limit: Option<u64>,
    /// Most connections a worker accepts per wake before it services its
    /// established sessions again (default
    /// [`LoopConfig::DEFAULT_ACCEPT_BURST`]). A continuous accept flood
    /// therefore delays established traffic by at most one bounded burst,
    /// never a whole backlog. Clamped to at least 1.
    pub accept_burst: usize,
}

impl LoopConfig {
    /// Default [`LoopConfig::accept_burst`].
    pub const DEFAULT_ACCEPT_BURST: usize = 32;
}

impl Default for LoopConfig {
    fn default() -> Self {
        LoopConfig {
            workers: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
            accept_limit: None,
            accept_burst: LoopConfig::DEFAULT_ACCEPT_BURST,
        }
    }
}

/// Runs the event loop until `shutdown` is raised (live sessions are
/// dropped immediately, closing their sockets) or `accept_limit` is
/// reached and every session drains gracefully. `factory` is called once
/// per accepted connection — on the accepting worker's thread — to build
/// its session; a factory error closes the connection and counts an
/// accept error.
///
/// Workers use kernel readiness (epoll via [`crate::sys`]) where the
/// build supports it, unless `PROTOOBF_EVLOOP=scan` forces the portable
/// readiness-scan fallback; see the [module docs](self).
///
/// # Errors
///
/// Only listener-level failures (clone/configure) abort the loop; per-
/// connection errors are absorbed into `metrics`.
pub fn serve<S, F>(
    listener: TcpListener,
    cfg: &LoopConfig,
    shutdown: &AtomicBool,
    metrics: &Metrics,
    factory: F,
) -> io::Result<()>
where
    S: Session,
    F: Fn(TcpStream, SocketAddr) -> Result<S, TransportError> + Sync,
{
    listener.set_nonblocking(true)?;
    let workers = cfg.workers.max(1);
    let counters = AcceptCounters::default();
    let factory = &factory;
    let counters = &counters;
    // Backend choice: compile-time (sys::supported() is const-false off
    // Linux) plus the runtime escape hatch the tests use to cover the
    // fallback on epoll-capable hosts.
    let use_epoll =
        sys::supported() && !matches!(std::env::var("PROTOOBF_EVLOOP").as_deref(), Ok("scan"));
    // Clone every worker's listener handle *before* spawning: a clone
    // failure mid-spawn would otherwise leave already-running workers
    // looping (shutdown never raised) while `?` waits on the scope join —
    // a hang instead of an error.
    let mut listeners = Vec::with_capacity(workers);
    for _ in 0..workers {
        listeners.push(listener.try_clone()?);
    }
    drop(listener);
    std::thread::scope(|scope| {
        let handles: Vec<_> = listeners
            .into_iter()
            .map(|listener| {
                let cfg = cfg.clone();
                scope.spawn(move || {
                    worker(listener, &cfg, shutdown, metrics, counters, factory, use_epoll)
                })
            })
            .collect();
        for h in handles {
            // Worker panics propagate: a crashed worker is a bug, not a
            // recoverable condition.
            h.join().expect("event-loop worker panicked");
        }
    });
    Ok(())
}

/// Shared accept accounting. `reserved` bounds admissions (slots are taken
/// *before* `accept` so concurrent workers cannot collectively over-admit
/// and released when the accept yields nothing); `admitted` counts
/// completed accepts and drives the workers' exit check — a transient
/// reservation must not make sibling workers conclude the limit was
/// reached and retire early.
#[derive(Debug, Default)]
struct AcceptCounters {
    reserved: AtomicU64,
    admitted: AtomicU64,
}

fn worker<S, F>(
    listener: TcpListener,
    cfg: &LoopConfig,
    shutdown: &AtomicBool,
    metrics: &Metrics,
    counters: &AcceptCounters,
    factory: &F,
    use_epoll: bool,
) where
    S: Session,
    F: Fn(TcpStream, SocketAddr) -> Result<S, TransportError> + Sync,
{
    #[cfg(unix)]
    if use_epoll {
        // Setup failures (fd exhaustion, odd kernels) fall back to the
        // scan loop instead of taking the worker down.
        if epoll_worker(&listener, cfg, shutdown, metrics, counters, factory).is_ok() {
            return;
        }
    }
    #[cfg(not(unix))]
    let _ = use_epoll;
    scan_worker(listener, cfg, shutdown, metrics, counters, factory);
}

/// What one bounded accept pass did.
struct AcceptPass {
    /// At least one connection was admitted (or definitively errored).
    progress: bool,
    /// The kernel's queue emptied (`WouldBlock`): no accepts are pending,
    /// so the epoll worker may park until the listener's next event.
    drained: bool,
}

/// Accepts up to `cfg.accept_burst` connections, building a session for
/// each and handing it to `sink`. Honors the accept-limit reservation
/// protocol; the caller must already have checked shutdown/limit.
fn accept_pass<S, F>(
    listener: &TcpListener,
    cfg: &LoopConfig,
    metrics: &Metrics,
    counters: &AcceptCounters,
    factory: &F,
    mut sink: impl FnMut(S),
) -> AcceptPass
where
    S: Session,
    F: Fn(TcpStream, SocketAddr) -> Result<S, TransportError> + Sync,
{
    let mut pass = AcceptPass { progress: false, drained: false };
    let release = || {
        if cfg.accept_limit.is_some() {
            counters.reserved.fetch_sub(1, Ordering::Relaxed);
        }
    };
    // Bounded burst: one worker can neither hoard every pending
    // connection while its siblings starve, nor let a connect flood
    // starve its own established sessions.
    for _ in 0..cfg.accept_burst.max(1) {
        if let Some(limit) = cfg.accept_limit {
            let reservation =
                counters.reserved.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| {
                    (n < limit).then_some(n + 1)
                });
            if reservation.is_err() {
                break;
            }
        }
        match listener.accept() {
            Ok((stream, peer)) => {
                counters.admitted.fetch_add(1, Ordering::Relaxed);
                pass.progress = true;
                match configure(&stream)
                    .map_err(TransportError::Io)
                    .and_then(|()| factory(stream, peer))
                {
                    Ok(session) => {
                        Metrics::add(&metrics.accepted, 1);
                        metrics.recorder.record(EventKind::Accept, session.token(), 0);
                        sink(session);
                    }
                    Err(e) => {
                        Metrics::add(&metrics.accept_errors, 1);
                        metrics.recorder.record(
                            EventKind::AcceptError,
                            peer_token(&peer),
                            e.code(),
                        );
                    }
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                release();
                pass.drained = true;
                break;
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => release(),
            // Transient accept failures (peer reset mid-handshake,
            // fd pressure): count and keep serving.
            Err(_) => {
                release();
                Metrics::add(&metrics.accept_errors, 1);
                metrics.recorder.record(EventKind::AcceptError, 0, 0);
                break;
            }
        }
    }
    pass
}

fn limit_reached(cfg: &LoopConfig, counters: &AcceptCounters) -> bool {
    cfg.accept_limit.is_some_and(|limit| counters.admitted.load(Ordering::Relaxed) >= limit)
}

// ---------------------------------------------------------------------
// Epoll backend: O(ready) wakes via the raw-syscall shim.
// ---------------------------------------------------------------------

/// Token of the worker's listener in its epoll interest list; session
/// tokens are their slot index, which can never reach this.
#[cfg(unix)]
const LISTENER_TOKEN: u64 = u64::MAX;

/// Runs one worker on kernel readiness. Returns `Err` only for *setup*
/// failures (epoll instance / listener registration) — the caller then
/// falls back to the scan loop; once serving, per-connection errors are
/// absorbed into `metrics` exactly like the scan worker.
#[cfg(unix)]
fn epoll_worker<S, F>(
    listener: &TcpListener,
    cfg: &LoopConfig,
    shutdown: &AtomicBool,
    metrics: &Metrics,
    counters: &AcceptCounters,
    factory: &F,
) -> io::Result<()>
where
    S: Session,
    F: Fn(TcpStream, SocketAddr) -> Result<S, TransportError> + Sync,
{
    use std::os::fd::AsRawFd;

    let epoll = sys::Epoll::new()?;
    // Level-triggered listener: a burst capped short of draining the
    // backlog re-reports immediately, so established sessions get their
    // turn without new connections waiting for a fresh edge.
    epoll.add(listener.as_raw_fd(), sys::flags::IN, LISTENER_TOKEN)?;

    let mut slots: Vec<Option<S>> = Vec::new();
    let mut free_slots: Vec<usize> = Vec::new();
    let mut is_ready: Vec<bool> = Vec::new();
    let mut ready: Vec<usize> = Vec::new();
    let mut next_ready: Vec<usize> = Vec::new();
    let mut live = 0usize;
    // Assume a pending backlog at startup: connections may have queued
    // before our interest registration.
    let mut accept_ready = true;
    let mut events = vec![sys::EpollEvent::zeroed(); 256];
    let mut fd_scratch: Vec<i32> = Vec::new();

    // Deregisters a finished session's sockets and frees its slot.
    let retire = |slot: usize,
                  slots: &mut Vec<Option<S>>,
                  free_slots: &mut Vec<usize>,
                  is_ready: &mut [bool],
                  epoll: &sys::Epoll,
                  fd_scratch: &mut Vec<i32>| {
        if let Some(session) = slots[slot].take() {
            collect_fds(&session, fd_scratch);
            for &fd in fd_scratch.iter() {
                let _ = epoll.del(fd);
            }
            drop(session);
        }
        is_ready[slot] = false;
        free_slots.push(slot);
    };

    loop {
        let stop = shutdown.load(Ordering::Relaxed);
        if stop && live > 0 {
            // Shutdown is immediate: drop every live session (closing its
            // sockets) rather than waiting out idle peers that may never
            // send or hang up. Bounded runs that want a graceful drain
            // use `accept_limit` instead.
            Metrics::add(&metrics.closed, live as u64);
            for slot in 0..slots.len() {
                if let Some(session) = slots[slot].as_ref() {
                    metrics.recorder.record(EventKind::Shutdown, session.token(), 0);
                    retire(
                        slot,
                        &mut slots,
                        &mut free_slots,
                        &mut is_ready,
                        &epoll,
                        &mut fd_scratch,
                    );
                }
            }
            ready.clear();
            live = 0;
        }
        let limited = limit_reached(cfg, counters);
        if (stop || limited) && live == 0 {
            return Ok(());
        }

        if !stop && !limited && accept_ready {
            let pass = accept_pass(listener, cfg, metrics, counters, factory, |session| {
                let slot = match free_slots.pop() {
                    Some(slot) => slot,
                    None => {
                        slots.push(None);
                        is_ready.push(false);
                        slots.len() - 1
                    }
                };
                collect_fds(&session, &mut fd_scratch);
                let mut registered = Vec::new();
                let mut ok = true;
                for &fd in fd_scratch.iter() {
                    let interest =
                        sys::flags::IN | sys::flags::OUT | sys::flags::RDHUP | sys::flags::ET;
                    match epoll.add(fd, interest, slot as u64) {
                        Ok(()) => registered.push(fd),
                        Err(_) => {
                            ok = false;
                            break;
                        }
                    }
                }
                if ok {
                    slots[slot] = Some(session);
                    live += 1;
                    // Drive immediately: bytes may already be buffered
                    // and the registration edge is consumed by the add.
                    if !is_ready[slot] {
                        is_ready[slot] = true;
                        ready.push(slot);
                    }
                } else {
                    // Registration failed (fd pressure): surface as an
                    // accept-time error, like a factory failure.
                    for fd in registered {
                        let _ = epoll.del(fd);
                    }
                    free_slots.push(slot);
                    Metrics::add(&metrics.accept_errors, 1);
                    // The accepted counter already ticked; keep it — the
                    // connection *was* accepted, then failed setup.
                }
            });
            if pass.drained {
                accept_ready = false;
            }
        }

        // Park in the kernel only when nothing is actionable; a pending
        // ready set or an undrained backlog polls instead. The 10 ms cap
        // bounds how stale the shutdown/limit check can get.
        let timeout = if !ready.is_empty() || (accept_ready && !stop && !limited) {
            Some(Duration::ZERO)
        } else {
            Some(Duration::from_millis(10))
        };
        // Wait failures are not setup failures; treat one as a timeout
        // tick rather than abandoning live sessions to a restart.
        let n = epoll.wait(&mut events, timeout).unwrap_or_default();
        for ev in events.iter().take(n) {
            let token = ev.token();
            if token == LISTENER_TOKEN {
                accept_ready = true;
            } else {
                let slot = token as usize;
                if slot < slots.len() && slots[slot].is_some() && !is_ready[slot] {
                    is_ready[slot] = true;
                    ready.push(slot);
                }
            }
        }

        // Service this wake's ready set: one drive per session per pass
        // (fairness — a firehose session cannot monopolize the worker),
        // sessions that made progress stay ready for the next pass.
        if !ready.is_empty() {
            let t0 = std::time::Instant::now();
            next_ready.clear();
            for &slot in &ready {
                let Some(session) = slots[slot].as_mut() else {
                    is_ready[slot] = false;
                    continue;
                };
                match session.drive() {
                    Ok(Drive::Progress) => next_ready.push(slot),
                    Ok(Drive::Idle) => is_ready[slot] = false,
                    Ok(Drive::Done) => {
                        Metrics::add(&metrics.closed, 1);
                        metrics.recorder.record(EventKind::Close, session.token(), 0);
                        retire(
                            slot,
                            &mut slots,
                            &mut free_slots,
                            &mut is_ready,
                            &epoll,
                            &mut fd_scratch,
                        );
                        live -= 1;
                    }
                    Err(e) => {
                        Metrics::add(&metrics.failed, 1);
                        metrics.recorder.record(EventKind::Fail, session.token(), e.code());
                        retire(
                            slot,
                            &mut slots,
                            &mut free_slots,
                            &mut is_ready,
                            &epoll,
                            &mut fd_scratch,
                        );
                        live -= 1;
                    }
                }
            }
            std::mem::swap(&mut ready, &mut next_ready);
            metrics.wake_latency.record(t0.elapsed().as_micros() as u64);
        }
    }
}

/// Extracts the raw fds a session's sockets expose (epoll registration
/// currency). Scratch-reusing so the accept path does not allocate per
/// connection beyond the first.
#[cfg(unix)]
fn collect_fds<S: Session>(session: &S, out: &mut Vec<i32>) {
    use std::os::fd::AsRawFd;
    let mut streams = Vec::new();
    session.sockets(&mut streams);
    out.clear();
    out.extend(streams.iter().map(|s| s.as_raw_fd()));
}

// ---------------------------------------------------------------------
// Portable fallback: readiness by scanning with exponential backoff.
// ---------------------------------------------------------------------

fn scan_worker<S, F>(
    listener: TcpListener,
    cfg: &LoopConfig,
    shutdown: &AtomicBool,
    metrics: &Metrics,
    counters: &AcceptCounters,
    factory: &F,
) where
    S: Session,
    F: Fn(TcpStream, SocketAddr) -> Result<S, TransportError> + Sync,
{
    let mut sessions: Vec<S> = Vec::new();
    let mut idle_scans: u32 = 0;
    loop {
        let stop = shutdown.load(Ordering::Relaxed);
        if stop && !sessions.is_empty() {
            // Shutdown is immediate: drop every live session (closing its
            // sockets) rather than waiting out idle peers that may never
            // send or hang up — otherwise one lingering connection keeps
            // serve() from ever returning. Bounded runs that want a
            // graceful drain use `accept_limit` instead.
            Metrics::add(&metrics.closed, sessions.len() as u64);
            for session in &sessions {
                metrics.recorder.record(EventKind::Shutdown, session.token(), 0);
            }
            sessions.clear();
        }
        let limited = limit_reached(cfg, counters);
        if (stop || limited) && sessions.is_empty() {
            return;
        }
        let t0 = std::time::Instant::now();
        let mut progress = false;

        if !stop && !limited {
            let pass = accept_pass(&listener, cfg, metrics, counters, factory, |session| {
                sessions.push(session);
            });
            progress |= pass.progress;
        }

        sessions.retain_mut(|session| match session.drive() {
            Ok(Drive::Progress) => {
                progress = true;
                true
            }
            Ok(Drive::Idle) => true,
            Ok(Drive::Done) => {
                progress = true;
                Metrics::add(&metrics.closed, 1);
                metrics.recorder.record(EventKind::Close, session.token(), 0);
                false
            }
            Err(e) => {
                progress = true;
                Metrics::add(&metrics.failed, 1);
                metrics.recorder.record(EventKind::Fail, session.token(), e.code());
                false
            }
        });

        if progress {
            metrics.wake_latency.record(t0.elapsed().as_micros() as u64);
            idle_scans = 0;
        } else {
            backoff(idle_scans, metrics);
            idle_scans = idle_scans.saturating_add(1);
        }
    }
}

fn configure(stream: &TcpStream) -> io::Result<()> {
    stream.set_nonblocking(true)?;
    // Latency over batching: gateway frames are message-sized.
    let _ = stream.set_nodelay(true);
    Ok(())
}

/// Idle strategy of the scan fallback: stay hot for a few dozen scans
/// (another thread likely holds the bytes we're waiting for), then sleep
/// exponentially up to ~1.6 ms — long enough to be cheap, short enough
/// that shutdown and new connections are picked up promptly. Naps (count
/// and slept time) are recorded in [`Metrics`]. The epoll path never
/// calls this: it parks in `epoll_wait` instead.
fn backoff(idle_scans: u32, metrics: &Metrics) {
    match backoff_duration(idle_scans) {
        None => std::thread::yield_now(),
        Some(nap) => {
            Metrics::add(&metrics.idle_naps, 1);
            Metrics::add(&metrics.idle_nap_micros, nap.as_micros() as u64);
            std::thread::sleep(nap);
        }
    }
}

/// The backoff envelope, as a pure function of the idle-scan counter:
/// `None` (spin-yield) for the first 32 scans, then 50 µs doubling every
/// 32 further scans up to a hard 1.6 ms cap. The exponent is clamped
/// **before** the shift (`min(5)`, so the shifted value is at most
/// `50 << 5`), which makes the envelope safe for every `u32` input — an
/// idle-scan counter that saturates at `u32::MAX` still naps 1.6 ms, it
/// can never shift past the cap or overflow. Pinned by `backoff_envelope`
/// below.
fn backoff_duration(idle_scans: u32) -> Option<Duration> {
    if idle_scans < 32 {
        return None;
    }
    let exp = ((idle_scans - 32) / 32).min(5);
    Some(Duration::from_micros(50u64 << exp))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The 50 µs .. 1.6 ms envelope, pinned across the whole `u32` domain
    /// (a counter overflow/saturation can never escape the cap).
    #[test]
    fn backoff_envelope() {
        // Hot phase: pure yields, no naps.
        for scans in 0..32 {
            assert_eq!(backoff_duration(scans), None, "scan {scans} must spin");
        }
        // First nap tier and the doubling schedule.
        assert_eq!(backoff_duration(32), Some(Duration::from_micros(50)));
        assert_eq!(backoff_duration(63), Some(Duration::from_micros(50)));
        assert_eq!(backoff_duration(64), Some(Duration::from_micros(100)));
        assert_eq!(backoff_duration(96), Some(Duration::from_micros(200)));
        assert_eq!(backoff_duration(128), Some(Duration::from_micros(400)));
        assert_eq!(backoff_duration(160), Some(Duration::from_micros(800)));
        // Cap tier: reached at 192 scans and held forever after.
        assert_eq!(backoff_duration(192), Some(Duration::from_micros(1600)));
        for scans in [193, 1 << 16, 1 << 24, u32::MAX - 1, u32::MAX] {
            let nap = backoff_duration(scans).expect("idle workers nap");
            assert_eq!(nap, Duration::from_micros(1600), "scan {scans} escaped the cap");
        }
        // Monotone within the envelope: longer idling never naps shorter.
        let mut last = Duration::ZERO;
        for scans in 32..512 {
            let nap = backoff_duration(scans).unwrap();
            assert!(nap >= last, "nap shrank at scan {scans}");
            assert!((50..=1600).contains(&(nap.as_micros() as u64)));
            last = nap;
        }
    }

    /// Worker naps are visible in the metrics (count and slept micros).
    #[test]
    fn backoff_records_naps_in_metrics() {
        let metrics = Metrics::new();
        backoff(0, &metrics); // yield: not a nap
        backoff(32, &metrics); // 50 µs
        backoff(500, &metrics); // capped 1.6 ms
        let snap = metrics.snapshot();
        assert_eq!(snap.idle_naps, 2);
        assert_eq!(snap.idle_nap_micros, 50 + 1600);
    }
}
