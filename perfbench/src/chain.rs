//! The gateway chain on loopback: the benchmark's own length-prefixed
//! server, a decode gateway in front of it and an encode gateway in
//! front of that, all in this process.
//!
//! ```text
//! client ──clear──▶ encode gw ──level-2 obfuscated──▶ decode gw ──clear──▶ server
//! ```
//!
//! Both gateways are built through the public API only: `Profile::parse`
//! → `Profile::build_with` → `Gateway::from_endpoint`, then served with
//! `Gateway::serve` and `LoopConfig::default()`. A traced chain serves
//! the same gateways through `evloop::serve` with a factory that does
//! what `Gateway::serve` does and wraps each `Relay` in a [`Timed`]
//! session.

use std::collections::HashMap;
use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use protoobf_core::telemetry::MetricsSnapshot;
use protoobf_transport::{
    evloop, peer_token, Drive, Gateway, GatewayMode, LoopConfig, Relay, Session, TransportError,
};

use crate::workload::{build_endpoint, FrameBuf, Inputs, Workload};

/// Bound on any single blocking socket operation of the benchmark's own
/// client and server; an operation that takes longer counts as failed.
pub const IO_TIMEOUT: Duration = Duration::from_secs(5);

/// Server threads: one per connection the load keeps open at once.
const SERVER_THREADS: usize = 2;

/// Counters of the benchmark's server.
#[derive(Debug, Default)]
pub struct ServerStats {
    /// Time from a frame being fully read to its reply being written.
    pub busy_ns: AtomicU64,
    /// Requests that matched no prepared request (answered with an
    /// empty frame, which the client then counts as wrong).
    pub unknown: AtomicU64,
}

/// The benchmark's minimal server: echoes each frame, or answers each
/// known request with its prepared reply. Blocking threads, each serving
/// one accepted connection until EOF.
#[derive(Debug)]
struct Server {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
    stats: Arc<ServerStats>,
}

type Replies = Option<(HashMap<Vec<u8>, usize>, Vec<Vec<u8>>)>;

impl Server {
    fn start(inputs: &Inputs) -> io::Result<Server> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let replies: Arc<Replies> = Arc::new(inputs.replies.as_ref().map(|r| {
            let index = inputs.requests.iter().enumerate().map(|(i, f)| (f.clone(), i)).collect();
            (index, r.clone())
        }));
        let stop = Arc::new(AtomicBool::new(false));
        let stats = Arc::new(ServerStats::default());
        let mut threads = Vec::with_capacity(SERVER_THREADS);
        for _ in 0..SERVER_THREADS {
            let listener = listener.try_clone()?;
            let (stop, stats, replies) = (stop.clone(), stats.clone(), replies.clone());
            threads.push(std::thread::Builder::new().name("server".into()).spawn(move || {
                while let Ok((stream, _)) = listener.accept() {
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                    serve_conn(stream, &replies, &stats);
                }
            })?);
        }
        Ok(Server { addr, stop, threads, stats })
    }

    /// Stops the accept loops (one wake-up connection per thread) and
    /// joins them. Connections still open end when their peer closes.
    fn stop(self) -> Result<(), String> {
        self.stop.store(true, Ordering::SeqCst);
        for _ in &self.threads {
            let _ = TcpStream::connect(self.addr);
        }
        for t in self.threads {
            t.join().map_err(|_| "server thread panicked".to_string())?;
        }
        Ok(())
    }
}

fn serve_conn(mut stream: TcpStream, replies: &Replies, stats: &ServerStats) {
    let _ = stream.set_nodelay(true);
    let mut fb = FrameBuf::default();
    let empty = [0u8; 4];
    while let Ok(frame) = fb.read_frame(&mut stream) {
        let t = Instant::now();
        let out: &[u8] = match replies {
            None => frame,
            Some((index, prepared)) => match index.get(frame) {
                Some(&i) => &prepared[i % prepared.len()],
                None => {
                    stats.unknown.fetch_add(1, Ordering::Relaxed);
                    &empty
                }
            },
        };
        if stream.write_all(out).is_err() {
            return;
        }
        stats.busy_ns.fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }
}

/// Per-gateway drive statistics of a traced chain.
#[derive(Debug, Default)]
pub struct DriveStats {
    /// `Session::drive` calls.
    pub drives: AtomicU64,
    /// Drives that returned `Drive::Idle` (a wake with nothing to do).
    pub idle: AtomicU64,
    /// Time inside `Session::drive`.
    pub busy_ns: AtomicU64,
    /// Time in the accept factory (dial + `Relay::new`) per session.
    pub setup_ns: Mutex<Vec<u64>>,
}

/// A session timed around every `drive`.
struct Timed<'a, S> {
    inner: S,
    stats: &'a DriveStats,
}

impl<S: Session> Session for Timed<'_, S> {
    fn drive(&mut self) -> Result<Drive, TransportError> {
        let t = Instant::now();
        let r = self.inner.drive();
        self.stats.busy_ns.fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.stats.drives.fetch_add(1, Ordering::Relaxed);
        if matches!(r, Ok(Drive::Idle)) {
            self.stats.idle.fetch_add(1, Ordering::Relaxed);
        }
        r
    }

    fn sockets<'a>(&'a self, out: &mut Vec<&'a TcpStream>) {
        self.inner.sockets(out);
    }

    fn token(&self) -> u64 {
        self.inner.token()
    }
}

/// Dial bound of the traced factory, as in `Gateway::serve`.
const UPSTREAM_DIAL_TIMEOUT: Duration = Duration::from_secs(10);

/// Serves `gw` as `Gateway::serve` does, with every relay timed.
fn serve_traced(
    gw: &Gateway,
    upstream: SocketAddr,
    listener: TcpListener,
    shutdown: &AtomicBool,
    stats: &DriveStats,
) -> io::Result<()> {
    evloop::serve(listener, &LoopConfig::default(), shutdown, gw.metrics(), |down, peer| {
        let t = Instant::now();
        let up = TcpStream::connect_timeout(&upstream, UPSTREAM_DIAL_TIMEOUT)
            .map_err(TransportError::Io)?;
        up.set_nonblocking(true).map_err(TransportError::Io)?;
        let _ = up.set_nodelay(true);
        let relay = Relay::new(down, up, gw.down_services(), gw.up_services(), gw.metrics())?
            .with_token(peer_token(&peer));
        stats.setup_ns.lock().expect("setup list lock").push(t.elapsed().as_nanos() as u64);
        Ok(Timed { inner: relay, stats })
    })
}

/// A running chain.
#[derive(Debug)]
pub struct Chain {
    /// Where clients connect (the encode gateway).
    pub entry: SocketAddr,
    /// The encode gateway.
    pub enc: Arc<Gateway>,
    /// The decode gateway.
    pub dec: Arc<Gateway>,
    /// Drive statistics `[encode, decode]` of a traced chain.
    pub trace: Option<Arc<[DriveStats; 2]>>,
    server: Server,
    shutdown: Arc<AtomicBool>,
    loops: Vec<JoinHandle<io::Result<()>>>,
    /// Exchanges whose reply reached the client (counter cross-check).
    replies: u64,
    /// Connections the client opened (counter cross-check).
    connections: u64,
}

impl Chain {
    /// Starts the server, then times the set-up: from the profile text
    /// to both endpoints built, both gateways listening and the first
    /// reply verified.
    pub fn start(w: &Workload, inputs: &Inputs, traced: bool) -> Result<(Chain, Duration), String> {
        let server = Server::start(inputs).map_err(|e| format!("server: {e}"))?;
        let text = w.profile_text();
        let t0 = Instant::now();
        // Each side builds its own copy of the profile, as a deployment
        // does, and the two derivations must agree.
        let enc_ep = build_endpoint(&text).map_err(|e| format!("encode profile: {e}"))?;
        let dec_ep = build_endpoint(&text).map_err(|e| format!("decode profile: {e}"))?;
        if enc_ep.fingerprint() != dec_ep.fingerprint() {
            return Err("the two endpoints derived different stacks".into());
        }
        let dec_l = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
        let enc_l = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
        let dec_addr = dec_l.local_addr().map_err(|e| e.to_string())?;
        let entry = enc_l.local_addr().map_err(|e| e.to_string())?;
        let dec = Arc::new(
            Gateway::from_endpoint(&dec_ep, GatewayMode::Decode, server.addr)
                .map_err(|e| e.to_string())?,
        );
        let enc = Arc::new(
            Gateway::from_endpoint(&enc_ep, GatewayMode::Encode, dec_addr)
                .map_err(|e| e.to_string())?,
        );
        let shutdown = Arc::new(AtomicBool::new(false));
        let trace = traced.then(|| Arc::new([DriveStats::default(), DriveStats::default()]));
        let mut loops = Vec::with_capacity(2);
        for (name, gw, listener, upstream, idx) in
            [("gw-dec", &dec, dec_l, server.addr, 1), ("gw-enc", &enc, enc_l, dec_addr, 0)]
        {
            let (gw, shutdown, trace) = (gw.clone(), shutdown.clone(), trace.clone());
            let spawned =
                std::thread::Builder::new().name(name.into()).spawn(move || match &trace {
                    None => gw.serve(listener, &LoopConfig::default(), &shutdown),
                    Some(t) => serve_traced(&gw, upstream, listener, &shutdown, &t[idx]),
                });
            loops.push(spawned.map_err(|e| e.to_string())?);
        }
        let mut chain =
            Chain { entry, enc, dec, trace, server, shutdown, loops, replies: 0, connections: 0 };
        let first = chain.first_exchange(inputs);
        let setup = t0.elapsed();
        if let Err(e) = first {
            let _ = chain.stop();
            return Err(format!("first exchange: {e}"));
        }
        Ok((chain, setup))
    }

    fn first_exchange(&mut self, inputs: &Inputs) -> io::Result<()> {
        let mut s = TcpStream::connect_timeout(&self.entry, IO_TIMEOUT)?;
        self.connections += 1;
        s.set_nodelay(true)?;
        s.set_read_timeout(Some(IO_TIMEOUT))?;
        s.write_all(&inputs.requests[0])?;
        let mut fb = FrameBuf::default();
        let reply = fb.read_frame(&mut s)?;
        self.replies += 1;
        if reply != inputs.expected_reply(0) {
            return Err(io::Error::other("first reply differs from the expected bytes"));
        }
        Ok(())
    }

    /// Notes client-side totals for [`Chain::counter_mismatches`].
    pub fn note_client(&mut self, replies: u64, connections: u64) {
        self.replies += replies;
        self.connections += connections;
    }

    /// The server's counters.
    pub fn server_stats(&self) -> &ServerStats {
        &self.server.stats
    }

    /// Checks each gateway's counters against the client's: no failed
    /// sessions or accept errors, `messages_in == messages_out ==
    /// transcodes ==` twice the replies the client received, and one
    /// accepted session per client connection. Returns how many checks
    /// disagree.
    pub fn counter_mismatches(&self) -> u64 {
        let mut bad = 0;
        for snap in [self.enc.metrics().snapshot(), self.dec.metrics().snapshot()] {
            bad += counter_mismatches(&snap, 2 * self.replies, self.connections);
        }
        bad + self.server.stats.unknown.load(Ordering::Relaxed)
    }

    /// Shuts both gateways down, then the server, and joins every thread.
    pub fn stop(self) -> Result<(), String> {
        self.shutdown.store(true, Ordering::SeqCst);
        let mut result = Ok(());
        for l in self.loops {
            match l.join() {
                Ok(Ok(())) => {}
                Ok(Err(e)) => result = Err(format!("gateway loop: {e}")),
                Err(_) => result = Err("gateway loop panicked".into()),
            }
        }
        self.server.stop().and(result)
    }
}

fn counter_mismatches(s: &MetricsSnapshot, messages: u64, connections: u64) -> u64 {
    [
        s.failed != 0,
        s.accept_errors != 0,
        s.messages_in != messages,
        s.messages_out != messages,
        s.transcodes != messages,
        s.accepted != connections,
    ]
    .iter()
    .filter(|&&bad| bad)
    .count() as u64
}
