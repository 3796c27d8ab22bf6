//! The load generator: at most two client threads, each owning at most
//! one connection at a time.
//!
//! * [`pipelined`] — open loop on a long-lived connection: frames are
//!   sent on a fixed schedule whether or not replies have come back, and
//!   each operation's latency runs from when it was *due*, so a stall
//!   also counts against every operation queued behind it.
//! * [`closed`] — closed loop on a long-lived connection, one message
//!   outstanding; latency runs from the send.
//! * [`churn`] — open-loop arrivals, each served on a new connection
//!   (connect, one request, one reply, close); latency runs from the due
//!   time, so waiting for a free client thread counts too.

use std::collections::VecDeque;
use std::io::{self, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::Rng;

use crate::chain::IO_TIMEOUT;
use crate::stats::{backlog_growing, backlog_slack};
use crate::sys;
use crate::workload::{FrameBuf, Inputs};

/// How long a phase waits past its end for outstanding replies before
/// counting them as timed out.
pub const DRAIN_GRACE: Duration = Duration::from_secs(3);

/// What one client thread measured in one phase; [`PhaseResult::merge`]
/// combines threads.
#[derive(Debug, Default, Clone)]
pub struct PhaseResult {
    /// Latency of each completed operation, ns.
    pub lat_ns: Vec<u64>,
    /// How late each send started after its due time, ns (open loops).
    pub late_ns: Vec<u64>,
    /// Time of each `connect`, ns.
    pub connect_ns: Vec<u64>,
    /// Operations started.
    pub attempted: u64,
    /// Operations whose reply came back byte-identical.
    pub completed: u64,
    /// Replies that came back at all (right or wrong).
    pub replies: u64,
    /// Operations that errored, timed out or came back wrong.
    pub failed: u64,
    /// Arrivals due before the phase ended that no client was free to
    /// send by then (churn only; a sign of overload, not of a fault).
    pub unserved: u64,
    /// Connections opened.
    pub connections: u64,
    /// Clear payload bytes of completed operations, both directions.
    pub payload_bytes: u64,
    /// Time the client spent sending, ns (its share of the blocking path).
    pub send_ns: u64,
    /// Whether the backlog (due minus completed) grew over the phase.
    pub backlog_growing: bool,
}

impl PhaseResult {
    /// Adds `other`'s counts and samples to `self`.
    pub fn merge(&mut self, other: PhaseResult) {
        self.lat_ns.extend(other.lat_ns);
        self.late_ns.extend(other.late_ns);
        self.connect_ns.extend(other.connect_ns);
        self.attempted += other.attempted;
        self.completed += other.completed;
        self.replies += other.replies;
        self.failed += other.failed;
        self.unserved += other.unserved;
        self.connections += other.connections;
        self.payload_bytes += other.payload_bytes;
        self.send_ns += other.send_ns;
        self.backlog_growing |= other.backlog_growing;
    }
}

/// A fixed arrival schedule: operation `k` is due at `start + offset +
/// k * interval`, for due times before `end`.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    /// Phase start.
    pub start: Instant,
    /// Offset of this thread's first arrival.
    pub offset: Duration,
    /// Time between arrivals.
    pub interval: Duration,
    /// No arrival is due at or after this instant.
    pub end: Instant,
}

impl Schedule {
    fn due(&self, k: u64) -> Instant {
        self.start + self.offset + self.interval.mul_f64(k as f64)
    }

    /// Arrivals due by `now`.
    fn due_by(&self, now: Instant) -> u64 {
        let last = now.min(self.end);
        let first = self.start + self.offset;
        if last < first {
            return 0;
        }
        let n = ((last - first).as_secs_f64() / self.interval.as_secs_f64()).floor() as u64 + 1;
        n.min(self.arrivals())
    }

    /// All arrivals of the schedule (due times before `end`).
    fn arrivals(&self) -> u64 {
        let first = self.start + self.offset;
        if self.end <= first {
            return 0;
        }
        ((self.end - first).as_secs_f64() / self.interval.as_secs_f64()).ceil() as u64
    }
}

/// A long-lived client connection.
#[derive(Debug)]
pub struct ClientConn {
    stream: TcpStream,
    fb: FrameBuf,
    out: Vec<u8>,
    out_pos: usize,
    /// Picks which request each operation sends.
    rng: StdRng,
}

impl ClientConn {
    /// Connects to `addr`; records the connect time in `r`.
    pub fn connect(addr: SocketAddr, rng: StdRng, r: &mut PhaseResult) -> io::Result<ClientConn> {
        let t = Instant::now();
        let stream = TcpStream::connect_timeout(&addr, IO_TIMEOUT)?;
        r.connect_ns.push(t.elapsed().as_nanos() as u64);
        r.connections += 1;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(IO_TIMEOUT))?;
        stream.set_write_timeout(Some(IO_TIMEOUT))?;
        Ok(ClientConn { stream, fb: FrameBuf::default(), out: Vec::new(), out_pos: 0, rng })
    }

    /// Writes as much queued output as the socket takes without
    /// blocking.
    fn flush_some(&mut self) -> io::Result<()> {
        while self.out_pos < self.out.len() {
            match self.stream.write(&self.out[self.out_pos..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => self.out_pos += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        if self.out_pos == self.out.len() {
            self.out.clear();
            self.out_pos = 0;
        }
        Ok(())
    }
}

/// Open loop on one long-lived connection; see the [module docs](self).
pub fn pipelined(c: &mut ClientConn, inputs: &Inputs, sched: Schedule) -> PhaseResult {
    let mut r = PhaseResult::default();
    if let Err(e) = c.stream.set_nonblocking(true) {
        eprintln!("client: {e}");
        r.failed += 1;
        return r;
    }
    let n = inputs.requests.len();
    let mut inflight: VecDeque<(usize, Instant)> = VecDeque::new();
    let mut backlog = Vec::new();
    let mut k = 0u64;
    let mut next_due = sched.due(0);
    let deadline = sched.end + DRAIN_GRACE;
    let outcome: io::Result<()> = loop {
        let now = Instant::now();
        let t_send = now;
        while next_due < sched.end && next_due <= now {
            let i = c.rng.gen_range(0..n);
            c.out.extend_from_slice(&inputs.requests[i]);
            inflight.push_back((i, next_due));
            r.attempted += 1;
            r.late_ns.push((now - next_due).as_nanos() as u64);
            k += 1;
            next_due = sched.due(k);
        }
        if !c.out.is_empty() {
            if let Err(e) = c.flush_some() {
                break Err(e);
            }
            r.send_ns += t_send.elapsed().as_nanos() as u64;
        }
        match read_available(c) {
            Ok(true) => {}
            Ok(false) => break Err(io::ErrorKind::UnexpectedEof.into()),
            Err(e) => break Err(e),
        }
        let now = Instant::now();
        while let Some(frame) = c.fb.pop() {
            let Some((i, due)) = inflight.pop_front() else {
                r.failed += 1; // a reply nobody asked for
                continue;
            };
            r.replies += 1;
            if frame == inputs.expected_reply(i) {
                r.completed += 1;
                r.lat_ns.push((now - due).as_nanos() as u64);
                r.payload_bytes += inputs.payload_bytes(i);
            } else {
                r.failed += 1;
            }
            backlog.push(sched.due_by(now).saturating_sub(r.replies) as u32);
        }
        if next_due >= sched.end && inflight.is_empty() && c.out.is_empty() {
            break Ok(());
        }
        if now >= deadline {
            break Err(io::ErrorKind::TimedOut.into());
        }
        let wake = if next_due < sched.end { next_due } else { deadline };
        if let Err(e) =
            sys::wait(&c.stream, !c.out.is_empty(), Some(wake.saturating_duration_since(now)))
        {
            break Err(e);
        }
    };
    if let Err(e) = outcome {
        eprintln!("client: {e}");
        r.failed += inflight.len() as u64;
    }
    r.backlog_growing = backlog_growing(&backlog, backlog_slack(sched.arrivals()));
    if let Err(e) = c.stream.set_nonblocking(false) {
        eprintln!("client: {e}");
        r.failed += 1;
    }
    r
}

/// Reads whatever the non-blocking socket holds into the frame buffer.
/// `Ok(false)` on EOF.
fn read_available(c: &mut ClientConn) -> io::Result<bool> {
    loop {
        match c.fb.fill(&mut c.stream) {
            Ok(0) => return Ok(false),
            Ok(_) => {}
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(true),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

/// Closed loop on one long-lived connection until `end`.
pub fn closed(c: &mut ClientConn, inputs: &Inputs, end: Instant) -> PhaseResult {
    let mut r = PhaseResult::default();
    let n = inputs.requests.len();
    while Instant::now() < end {
        let i = c.rng.gen_range(0..n);
        r.attempted += 1;
        let t = Instant::now();
        if let Err(e) = c.stream.write_all(&inputs.requests[i]) {
            eprintln!("client: {e}");
            r.failed += 1;
            break;
        }
        r.send_ns += t.elapsed().as_nanos() as u64;
        let ok = match c.fb.read_frame(&mut c.stream) {
            Ok(frame) => frame == inputs.expected_reply(i),
            Err(e) => {
                eprintln!("client: {e}");
                r.failed += 1;
                break;
            }
        };
        r.replies += 1;
        if ok {
            r.completed += 1;
            r.lat_ns.push(t.elapsed().as_nanos() as u64);
            r.payload_bytes += inputs.payload_bytes(i);
        } else {
            r.failed += 1;
        }
    }
    r
}

/// One churn client thread: takes arrivals from the shared counter
/// `next` until the schedule ends. `completed` counts completions over
/// all threads, for the backlog samples.
pub fn churn(
    addr: SocketAddr,
    inputs: &Inputs,
    seed: u64,
    sched: Schedule,
    next: &AtomicU64,
    completed: &AtomicU64,
) -> PhaseResult {
    let mut r = PhaseResult::default();
    let mut fb = FrameBuf::default();
    let mut backlog = Vec::new();
    loop {
        let k = next.fetch_add(1, Ordering::Relaxed);
        let due = sched.due(k);
        if due >= sched.end {
            break;
        }
        if Instant::now() >= sched.end {
            // Overloaded: the arrival was due before the end but both
            // clients were busy until then. It is never sent.
            r.unserved += 1;
            continue;
        }
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
        }
        let i = (splitmix64(seed ^ k) % inputs.requests.len() as u64) as usize;
        r.attempted += 1;
        let t = Instant::now();
        r.late_ns.push((t - due).as_nanos() as u64);
        match churn_once(addr, &inputs.requests[i], inputs.expected_reply(i), &mut fb, &mut r) {
            Ok(right) => {
                let done = Instant::now();
                r.replies += 1;
                if right {
                    r.completed += 1;
                    r.lat_ns.push((done - due).as_nanos() as u64);
                    r.payload_bytes += inputs.payload_bytes(i);
                } else {
                    r.failed += 1;
                }
                let all = completed.fetch_add(1, Ordering::Relaxed) + 1;
                backlog.push(sched.due_by(done).saturating_sub(all) as u32);
            }
            Err(e) => {
                eprintln!("client: {e}");
                r.failed += 1;
            }
        }
    }
    // Each thread samples the one shared backlog at its own completions,
    // in time order, so either thread's samples show a growing backlog.
    r.backlog_growing = backlog_growing(&backlog, backlog_slack(sched.arrivals()));
    r
}

/// One churn operation: connect, send, read the reply, close. Returns
/// whether the reply equals `expected`.
fn churn_once(
    addr: SocketAddr,
    request: &[u8],
    expected: &[u8],
    fb: &mut FrameBuf,
    r: &mut PhaseResult,
) -> io::Result<bool> {
    let t = Instant::now();
    let mut s = TcpStream::connect_timeout(&addr, IO_TIMEOUT)?;
    r.connect_ns.push(t.elapsed().as_nanos() as u64);
    r.connections += 1;
    s.set_nodelay(true)?;
    s.set_read_timeout(Some(IO_TIMEOUT))?;
    let t = Instant::now();
    s.write_all(request)?;
    r.send_ns += t.elapsed().as_nanos() as u64;
    Ok(fb.read_frame(&mut s)? == expected)
}

/// A stateless 64-bit mix: the request index of churn arrival `k`.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}
