//! The obfuscating gateway: the paper's deployment model as a transparent
//! TCP relay pair.
//!
//! An **encode** gateway accepts clear-framed connections (unmodified
//! client software linked against the plain spec), transcodes every
//! message onto the obfuscated codec and relays it upstream; a **decode**
//! gateway does the inverse in front of the real server. Response traffic
//! flows back through the same pair in reverse. Both directions of both
//! legs run over one shared compiled plan per codec ([`CodecService`]),
//! with per-connection pooled sessions ([`Conn`]); the per-message
//! transcode step runs a compiled plan-level copy program shared per leg
//! pairing ([`CodecService::transcode_target`]), so the steady-state
//! relay loop — decode, transcode, re-encode — allocates nothing.
//!
//! ```text
//!        clear frames          obfuscated frames          clear frames
//! client ───────────▶ encode gateway ───────────▶ decode gateway ───────────▶ server
//!        ◀─────────── (Relay per connection)     ◀─────────── (Relay)
//! ```
//!
//! A gateway pair is configured by two copies of one
//! [`protoobf_core::profile::Profile`] file ([`Gateway::from_endpoint`]):
//! each side independently derives the whole stack from the shared key,
//! and the two derivations can be verified equal by comparing
//! [`Gateway::fingerprint`]s before any traffic flows. Profiles with
//! distinct `tx`/`rx` specs run **asymmetric** request/response chains —
//! each relay leg carries a different grammar per direction.
//!
//! Every session here moves messages through one gated
//! decode → step → encode loop (`pump_direction`): a [`Relay`] runs it
//! once per direction with a transcode step, and the single-socket
//! [`Server`] that stands in for the real server runs it back onto the
//! socket it reads, echoing or sampling each reply.

use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Duration;

use protoobf_core::message::Message;
use protoobf_core::profile::{Endpoint, Fingerprint};
use protoobf_core::sample::sample_into;
use protoobf_core::service::CodecService;
use protoobf_core::telemetry::{peer_token, EventKind, Metrics, Telemetry};
use protoobf_core::{Codec, FormatGraph};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::conn::{Conn, ConnState};
use crate::error::TransportError;
use crate::evloop::{self, Drive, LoopConfig, Session};

/// Bound on the per-connection upstream dial. The dial happens on the
/// accepting worker's thread, so an unreachable upstream must stall that
/// worker's other relays for at most this long (a fully non-blocking
/// connect is a ROADMAP item).
const UPSTREAM_DIAL_TIMEOUT: Duration = Duration::from_secs(10);

/// Which side of the obfuscated wire this gateway faces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GatewayMode {
    /// Accept clear traffic, emit obfuscated traffic upstream (client
    /// side).
    Encode,
    /// Accept obfuscated traffic, emit clear traffic upstream (server
    /// side).
    Decode,
}

/// The two codec services of one relay leg: what the leg's socket is
/// parsed with (`rx`) and serialized onto (`tx`). Symmetric protocols
/// pass the same service twice ([`LegServices::symmetric`]).
#[derive(Debug, Clone, Copy)]
pub struct LegServices<'s> {
    /// Codec of the leg's inbound frames.
    pub rx: &'s CodecService,
    /// Codec of the leg's outbound frames.
    pub tx: &'s CodecService,
}

impl<'s> LegServices<'s> {
    /// Both directions of the leg speak `svc`'s codec.
    pub fn symmetric(svc: &'s CodecService) -> LegServices<'s> {
        LegServices { rx: svc, tx: svc }
    }
}

/// One socket of a session and the sans-io [`Conn`] framing it.
#[derive(Debug)]
pub(crate) struct Leg<'s> {
    pub(crate) stream: TcpStream,
    pub(crate) conn: Conn<'s>,
}

impl<'s> Leg<'s> {
    pub(crate) fn new(stream: TcpStream, rx: &'s CodecService, tx: &'s CodecService) -> Leg<'s> {
        Leg { stream, conn: Conn::new(rx, tx) }
    }

    /// Drains the socket's ready bytes into the connection (non-blocking).
    /// Returns whether any byte moved; clean EOF is fed to the connection.
    pub(crate) fn read(
        &mut self,
        buf: &mut [u8],
        metrics: &Metrics,
    ) -> Result<bool, TransportError> {
        if self.conn.state() != ConnState::Open {
            return Ok(false);
        }
        let mut progress = false;
        loop {
            match self.stream.read(buf) {
                Ok(0) => {
                    self.conn.feed_eof();
                    progress = true;
                    break;
                }
                Ok(n) => {
                    self.conn.feed_inbound(&buf[..n])?;
                    Metrics::add(&metrics.bytes_in, n as u64);
                    progress = true;
                    if n < buf.len() {
                        break; // drained the socket's ready bytes
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(TransportError::Io(e)),
            }
        }
        Ok(progress)
    }

    /// Writes the connection's queued outbound bytes to the socket until
    /// it would block or the queue drains, then edge-counts backpressure:
    /// `engaged` says whether the outbound cap paused this pass's
    /// producer, and `gated` remembers the previous pass, so a long stall
    /// counts once in [`Metrics::backpressure_events`], not once per
    /// drive. Returns whether any byte moved.
    pub(crate) fn flush(
        &mut self,
        engaged: bool,
        gated: &mut bool,
        metrics: &Metrics,
        token: u64,
    ) -> Result<bool, TransportError> {
        let mut progress = false;
        while self.conn.has_outbound() {
            match self.stream.write(self.conn.outbound()) {
                Ok(0) => return Err(TransportError::Io(io::Error::from(io::ErrorKind::WriteZero))),
                Ok(n) => {
                    self.conn.consume_outbound(n);
                    Metrics::add(&metrics.bytes_out, n as u64);
                    progress = true;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(TransportError::Io(e)),
            }
        }
        if engaged && !*gated {
            Metrics::add(&metrics.backpressure_events, 1);
            metrics.recorder.record(
                EventKind::Backpressure,
                token,
                self.conn.outbound_len() as u64,
            );
        }
        *gated = engaged;
        Ok(progress)
    }
}

/// Where one pumped direction sends what it decodes.
enum Route<'a, 's> {
    /// To the other leg of a relay.
    Across { src: &'a mut Leg<'s>, dst: &'a mut Leg<'s> },
    /// Back out of the leg it was read from (a server session).
    Back(&'a mut Leg<'s>),
}

impl<'s> Route<'_, 's> {
    fn src(&mut self) -> &mut Leg<'s> {
        match self {
            Route::Across { src, .. } => src,
            Route::Back(leg) => leg,
        }
    }

    fn dst(&mut self) -> &mut Leg<'s> {
        match self {
            Route::Across { dst, .. } => dst,
            Route::Back(leg) => leg,
        }
    }
}

/// The state one direction keeps between pumps: the reusable outbound
/// message each decoded message is stepped into, whether the source's
/// half-close has been passed on, and whether the last pass was paused
/// by the destination's cap (see [`Leg::flush`]).
#[derive(Debug)]
struct Flow<'s> {
    out: Message<'s>,
    eof_relayed: bool,
    gated: bool,
}

impl<'s> Flow<'s> {
    fn new(out: Message<'s>) -> Flow<'s> {
        Flow { out, eof_relayed: false, gated: false }
    }
}

/// The relay and echo step: copies the decoded message into `out` through
/// the compiled copy program armed on it, timed and counted as a
/// transcode.
fn transcode(
    msg: &Message<'_>,
    out: &mut Message<'_>,
    metrics: &Metrics,
) -> Result<(), TransportError> {
    let transcode_t = metrics.stages.transcode.start();
    msg.transcode_into(out)?;
    metrics.stages.transcode.finish(transcode_t);
    Metrics::add(&metrics.transcodes, 1);
    Ok(())
}

/// Pumps one direction of a session: source socket bytes → frames →
/// decoded messages → `step` into `flow.out` → destination frames →
/// destination socket. Every session that answers or forwards messages —
/// a [`Relay`] direction or a [`Server`] — runs this one loop. Returns
/// whether any byte or message moved.
///
/// Ingestion is **gated on the destination's outbound cap**
/// ([`Conn::can_send`]): while its queue is at capacity this direction
/// neither reads the source nor decodes buffered frames, so
/// [`TransportError::Backpressure`] is never hit on this path — the
/// pressure propagates backwards as an unread socket (a closed TCP window
/// to the sender) instead of killing the session or growing its memory.
/// This is safe under edge-triggered readiness: a pass whose queue stays
/// at capacity past the flush has queued bytes behind a write-blocked
/// socket, so the destination's next writability edge re-drives the
/// session and reopens the gate.
///
/// Each stage runs under a sampled timer (an empty poll is neither
/// counted nor sampled), and frame sizes feed
/// the traffic-shape histograms; all of it relaxed atomics, nothing on
/// the allocation-free path changes.
fn pump_direction<'s>(
    mut route: Route<'_, 's>,
    flow: &mut Flow<'s>,
    read_buf: &mut [u8],
    metrics: &Metrics,
    token: u64,
    mut step: impl FnMut(&Message<'s>, &mut Message<'s>, &Metrics) -> Result<(), TransportError>,
) -> Result<bool, TransportError> {
    let mut progress = false;
    let engaged;
    if route.dst().conn.can_send() {
        progress |= route.src().read(read_buf, metrics)?;
        while route.dst().conn.can_send() {
            let parse_t = metrics.stages.parse.start();
            let src = route.src();
            let Some(msg) = src.conn.poll_inbound()? else { break };
            metrics.stages.parse.finish(parse_t);
            Metrics::add(&metrics.messages_in, 1);
            step(msg, &mut flow.out, metrics)?;
            // Recorded after the step releases the decoded message's
            // borrow of the connection.
            metrics.frame_bytes_in.record(src.conn.last_inbound_frame_len() as u64);
            let dst = route.dst();
            let serialize_t = metrics.stages.serialize.start();
            dst.conn.send(&flow.out)?;
            metrics.stages.serialize.finish(serialize_t);
            Metrics::add(&metrics.messages_out, 1);
            metrics.frame_bytes_out.record(dst.conn.last_outbound_frame_len() as u64);
            progress = true;
        }
        engaged = !route.dst().conn.can_send();
    } else {
        engaged = true;
    }
    progress |= route.dst().flush(engaged, &mut flow.gated, metrics, token)?;

    // Propagate the half-close once everything in flight is delivered.
    if !flow.eof_relayed
        && route.src().conn.state() == ConnState::PeerClosed
        && !route.dst().conn.has_outbound()
    {
        let _ = route.dst().stream.shutdown(Shutdown::Write);
        flow.eof_relayed = true;
        progress = true;
    }
    Ok(progress)
}

/// One relayed connection: the accepted ("down") leg and the dialed
/// upstream ("up") leg, each a sans-io [`Conn`], glued together by
/// transcoding every decoded message onto the other leg's codec.
///
/// Buffers and sessions are all reused across messages: decode borrows
/// the parse session's message, transcode refills a long-lived
/// destination message, encode appends to the outbound buffer. The
/// transcode step runs a compiled plan-level **copy program**
/// ([`protoobf_core::plan::CopyProgram`], compiled once per (rx, tx)
/// codec pairing and shared by every connection via
/// [`CodecService::transcode_target`]), so the whole steady-state relay
/// loop — decode, transcode, re-encode — performs zero per-message heap
/// allocation.
#[derive(Debug)]
pub struct Relay<'s> {
    down: Leg<'s>,
    up: Leg<'s>,
    /// Down → up: transcodes onto the up leg's tx codec.
    to_up: Flow<'s>,
    /// Up → down: transcodes onto the down leg's tx codec.
    to_down: Flow<'s>,
    read_buf: Vec<u8>,
    metrics: &'s Metrics,
    token: u64,
}

impl<'s> Relay<'s> {
    /// Builds a relay between an accepted socket (framed with `down`'s
    /// services) and a dialed upstream socket (framed with `up`'s). The
    /// two legs may differ per direction (asymmetric request/response
    /// profiles); `down.rx` must share its plain spec with `up.tx`, and
    /// `up.rx` with `down.tx` (the transcode path — validated here, at
    /// connection setup, by compiling/sharing the copy programs, so no
    /// structural check runs per message). Both sockets must already be
    /// non-blocking.
    ///
    /// # Errors
    ///
    /// [`TransportError::Build`]
    /// ([`protoobf_core::BuildError::GraphMismatch`]) when a
    /// leg pairing does not share its plain specification — a
    /// misconfigured gateway, surfaced before any byte is relayed.
    pub fn new(
        down_stream: TcpStream,
        up_stream: TcpStream,
        down: LegServices<'s>,
        up: LegServices<'s>,
        metrics: &'s Metrics,
    ) -> Result<Relay<'s>, TransportError> {
        let to_up = Flow::new(up.tx.transcode_target(down.rx)?);
        let to_down = Flow::new(down.tx.transcode_target(up.rx)?);
        Ok(Relay {
            down: Leg::new(down_stream, down.rx, down.tx),
            up: Leg::new(up_stream, up.rx, up.tx),
            to_up,
            to_down,
            read_buf: vec![0u8; 16 * 1024],
            metrics,
            token: 0,
        })
    }

    /// Sets the flight-recorder token for this relay's lifecycle events
    /// (builder; conventionally [`peer_token`] of the accepted peer).
    pub fn with_token(mut self, token: u64) -> Relay<'s> {
        self.token = token;
        self
    }

    /// Caps both legs' outbound queues at `cap` bytes (builder; default
    /// [`crate::conn::DEFAULT_OUTBOUND_CAP`]). When one leg's queue
    /// reaches its cap the relay stops *reading* the opposite socket, so
    /// a slow receiver surfaces to the original sender as a closed TCP
    /// window rather than as unbounded gateway memory.
    pub fn outbound_cap(mut self, cap: usize) -> Relay<'s> {
        self.down.conn.set_outbound_cap(cap);
        self.up.conn.set_outbound_cap(cap);
        self
    }
}

impl Session for Relay<'_> {
    fn drive(&mut self) -> Result<Drive, TransportError> {
        let (metrics, token) = (self.metrics, self.token);
        let mut progress = pump_direction(
            Route::Across { src: &mut self.down, dst: &mut self.up },
            &mut self.to_up,
            &mut self.read_buf,
            metrics,
            token,
            transcode,
        )?;
        progress |= pump_direction(
            Route::Across { src: &mut self.up, dst: &mut self.down },
            &mut self.to_down,
            &mut self.read_buf,
            metrics,
            token,
            transcode,
        )?;
        if self.to_up.eof_relayed && self.to_down.eof_relayed {
            return Ok(Drive::Done);
        }
        Ok(if progress { Drive::Progress } else { Drive::Idle })
    }

    fn sockets<'a>(&'a self, out: &mut Vec<&'a TcpStream>) {
        out.push(&self.down.stream);
        out.push(&self.up.stream);
    }

    fn token(&self) -> u64 {
        self.token
    }
}

/// How a [`Server`] answers each request.
#[derive(Debug)]
enum Reply<'s> {
    /// Send the request straight back (a transcode onto the same codec).
    Echo,
    /// Send a fresh random message of `svc`'s codec; the request's
    /// content is not inspected.
    Sample { svc: &'s CodecService, rng: StdRng },
}

/// A framed single-socket server session — the stand-in "real server"
/// behind a decode gateway, used by gateway tests and the `protoobf recv`
/// subcommand. It answers every inbound message on the same connection,
/// through the same gated pump as a [`Relay`] direction:
///
/// * [`Server::echo`] sends each message straight back on the same codec;
/// * [`Server::responder`] answers each message of the request spec with
///   a freshly sampled message of the response spec — for **asymmetric**
///   protocols, where the two directions speak different grammars and an
///   echo therefore cannot apply.
#[derive(Debug)]
pub struct Server<'s> {
    leg: Leg<'s>,
    flow: Flow<'s>,
    reply: Reply<'s>,
    read_buf: Vec<u8>,
    metrics: &'s Metrics,
    token: u64,
}

impl<'s> Server<'s> {
    /// Echoes every message of an accepted (non-blocking) socket speaking
    /// `svc`'s codec in both directions. The decoded message is still
    /// borrowed from the connection's parse session when the reply is
    /// due, so each one is first copied into a reusable reply (same graph
    /// on both sides: transcoding is a plain structural copy).
    pub fn echo(stream: TcpStream, svc: &'s CodecService, metrics: &'s Metrics) -> Server<'s> {
        // A codec always structurally matches itself, so the armed
        // self-pair target cannot fail to build.
        let reply = svc.transcode_target(svc).expect("self-pair transcode target");
        Server::new(Leg::new(stream, svc, svc), reply, Reply::Echo, metrics)
    }

    /// Answers every `request_svc`-framed message of an accepted
    /// (non-blocking) socket with a random message of `reply_svc`'s codec
    /// (deterministic per `seed`). Replies are sampled into one pooled
    /// scratch message ([`sample_into`]), so answering does not allocate
    /// a fresh message store per request; only the sampled values
    /// themselves still allocate.
    pub fn responder(
        stream: TcpStream,
        request_svc: &'s CodecService,
        reply_svc: &'s CodecService,
        seed: u64,
        metrics: &'s Metrics,
    ) -> Server<'s> {
        Server::new(
            Leg::new(stream, request_svc, reply_svc),
            reply_svc.codec().message_seeded(seed),
            Reply::Sample { svc: reply_svc, rng: StdRng::seed_from_u64(seed) },
            metrics,
        )
    }

    fn new(leg: Leg<'s>, out: Message<'s>, reply: Reply<'s>, metrics: &'s Metrics) -> Server<'s> {
        Server {
            leg,
            flow: Flow::new(out),
            reply,
            read_buf: vec![0u8; 16 * 1024],
            metrics,
            token: 0,
        }
    }

    /// Caps the outbound queue at `cap` bytes (builder; default
    /// [`crate::conn::DEFAULT_OUTBOUND_CAP`]). A full queue pauses reads
    /// (the server stops accepting requests it could not answer) instead
    /// of buffering without bound.
    pub fn outbound_cap(mut self, cap: usize) -> Server<'s> {
        self.leg.conn.set_outbound_cap(cap);
        self
    }

    /// Sets the flight-recorder token (builder); see
    /// [`Relay::with_token`].
    pub fn with_token(mut self, token: u64) -> Server<'s> {
        self.token = token;
        self
    }
}

impl Session for Server<'_> {
    fn drive(&mut self) -> Result<Drive, TransportError> {
        let reply = &mut self.reply;
        let progress = pump_direction(
            Route::Back(&mut self.leg),
            &mut self.flow,
            &mut self.read_buf,
            self.metrics,
            self.token,
            |msg, out, metrics| match reply {
                Reply::Echo => transcode(msg, out, metrics),
                Reply::Sample { svc, rng } => {
                    sample_into(svc.codec(), out, rng, &[]);
                    Ok(())
                }
            },
        )?;
        if self.flow.eof_relayed {
            return Ok(Drive::Done);
        }
        Ok(if progress { Drive::Progress } else { Drive::Idle })
    }

    fn sockets<'a>(&'a self, out: &mut Vec<&'a TcpStream>) {
        out.push(&self.leg.stream);
    }

    fn token(&self) -> u64 {
        self.token
    }
}

/// One obfuscation gateway: the four codec services of its two relay legs
/// (accepted "down" side and dialed "up" side, one `rx`/`tx` pair each),
/// plus which side of the obfuscated wire this instance faces.
/// [`Gateway::serve`] relays accepted connections to `upstream` until
/// shut down.
#[derive(Debug)]
pub struct Gateway {
    down_rx: Arc<CodecService>,
    down_tx: Arc<CodecService>,
    up_rx: Arc<CodecService>,
    up_tx: Arc<CodecService>,
    mode: GatewayMode,
    upstream: SocketAddr,
    metrics: Arc<Metrics>,
    /// Per-connection outbound queue cap for both relay legs (`None` =
    /// [`crate::conn::DEFAULT_OUTBOUND_CAP`]).
    outbound_cap: Option<usize>,
    /// Derivation fingerprint when built from a profile endpoint.
    fingerprint: Option<Fingerprint>,
}

impl Gateway {
    /// Legacy symmetric constructor: one plain spec, one obfuscated codec
    /// for both directions (both gateways of a pair must derive it from
    /// the same key / level — the shared secret). `upstream` is the
    /// decode gateway (for [`GatewayMode::Encode`]) or the real server
    /// (for [`GatewayMode::Decode`]). Prefer [`Gateway::from_endpoint`],
    /// which also carries asymmetric profiles and the fingerprint.
    ///
    /// # Errors
    ///
    /// I/O errors resolving `upstream`.
    pub fn new(
        plain: &FormatGraph,
        obf: Codec,
        mode: GatewayMode,
        upstream: impl ToSocketAddrs,
    ) -> io::Result<Gateway> {
        let clear = Arc::new(CodecService::new(Codec::identity(plain)));
        let obf = Arc::new(CodecService::new(obf));
        let (down, up) = match mode {
            GatewayMode::Encode => (&clear, &obf),
            GatewayMode::Decode => (&obf, &clear),
        };
        Ok(Gateway {
            down_rx: Arc::clone(down),
            down_tx: Arc::clone(down),
            up_rx: Arc::clone(up),
            up_tx: Arc::clone(up),
            mode,
            upstream: resolve_upstream(upstream)?,
            metrics: Arc::new(Metrics::new()),
            outbound_cap: None,
            fingerprint: None,
        })
    }

    /// Builds a gateway from a compiled profile [`Endpoint`] — the whole
    /// point of the profile API: both gateways of a pair are configured
    /// by two copies of the same profile file and derive identical
    /// stacks, verifiable via [`Gateway::fingerprint`] before traffic
    /// flows.
    ///
    /// The encode gateway faces the initiator: its clear leg parses the
    /// profile's `tx` spec and emits the `rx` spec, its obfuscated leg
    /// the reverse. The decode gateway mirrors that onto the responder
    /// side. Asymmetric profiles (distinct `tx`/`rx`) thus run a
    /// different grammar per direction on every leg.
    ///
    /// # Errors
    ///
    /// I/O errors resolving `upstream`.
    pub fn from_endpoint(
        endpoint: &Endpoint,
        mode: GatewayMode,
        upstream: impl ToSocketAddrs,
    ) -> io::Result<Gateway> {
        let (down_rx, down_tx, up_rx, up_tx) = match mode {
            GatewayMode::Encode => (
                endpoint.clear_tx_service(),
                endpoint.clear_rx_service(),
                endpoint.rx_service(),
                endpoint.tx_service(),
            ),
            GatewayMode::Decode => (
                endpoint.tx_service(),
                endpoint.rx_service(),
                endpoint.clear_rx_service(),
                endpoint.clear_tx_service(),
            ),
        };
        Ok(Gateway {
            down_rx: Arc::clone(down_rx),
            down_tx: Arc::clone(down_tx),
            up_rx: Arc::clone(up_rx),
            up_tx: Arc::clone(up_tx),
            mode,
            upstream: resolve_upstream(upstream)?,
            metrics: Arc::new(Metrics::new()),
            outbound_cap: None,
            fingerprint: Some(endpoint.fingerprint()),
        })
    }

    /// Caps every relayed connection's outbound queues at `cap` bytes
    /// (builder; default [`crate::conn::DEFAULT_OUTBOUND_CAP`]) — see
    /// [`Relay::outbound_cap`] for the semantics. The `protoobf` binary
    /// exposes this as `--backpressure BYTES`.
    pub fn with_outbound_cap(mut self, cap: usize) -> Gateway {
        self.outbound_cap = Some(cap);
        self
    }

    /// The gateway's live counters.
    pub fn metrics(&self) -> &Metrics {
        self.metrics.as_ref()
    }

    /// The gateway's whole observable state as a [`Telemetry`] registry:
    /// the shared metrics block plus every distinct codec service of the
    /// two relay legs (symmetric gateways collapse to their two unique
    /// services via the registry's `Arc`-identity dedup). This is what
    /// the admin endpoint serves; it stays live while the gateway runs —
    /// scrapes see current counters, not a snapshot.
    pub fn telemetry(&self) -> Telemetry {
        let mut t = Telemetry::new(Arc::clone(&self.metrics));
        t.register_service("down_rx", &self.down_rx);
        t.register_service("down_tx", &self.down_tx);
        t.register_service("up_rx", &self.up_rx);
        t.register_service("up_tx", &self.up_tx);
        t
    }

    /// Which side of the obfuscated wire this gateway faces.
    pub fn mode(&self) -> GatewayMode {
        self.mode
    }

    /// The profile derivation fingerprint (`None` for the legacy
    /// [`Gateway::new`] construction). Operators compare this across the
    /// pair — equal fingerprints mean both sides derived identical
    /// stacks; a key mismatch is caught here, before any traffic flows.
    pub fn fingerprint(&self) -> Option<Fingerprint> {
        self.fingerprint
    }

    /// Services of the accepted ("down") leg, `(rx, tx)`.
    pub fn down_services(&self) -> LegServices<'_> {
        LegServices { rx: &self.down_rx, tx: &self.down_tx }
    }

    /// Services of the dialed upstream ("up") leg, `(rx, tx)`.
    pub fn up_services(&self) -> LegServices<'_> {
        LegServices { rx: &self.up_rx, tx: &self.up_tx }
    }

    /// Accepts and relays connections until `shutdown` is raised (or
    /// `cfg.accept_limit` is reached and the last relay drains). Each
    /// accepted connection dials one upstream connection.
    ///
    /// # Errors
    ///
    /// Listener-level failures only; per-connection errors are counted in
    /// [`Gateway::metrics`].
    pub fn serve(
        &self,
        listener: TcpListener,
        cfg: &LoopConfig,
        shutdown: &AtomicBool,
    ) -> io::Result<()> {
        evloop::serve(listener, cfg, shutdown, self.metrics.as_ref(), |down, peer| {
            let up = TcpStream::connect_timeout(&self.upstream, UPSTREAM_DIAL_TIMEOUT)
                .map_err(TransportError::Io)?;
            up.set_nonblocking(true).map_err(TransportError::Io)?;
            let _ = up.set_nodelay(true);
            let relay =
                Relay::new(down, up, self.down_services(), self.up_services(), &self.metrics)?
                    .with_token(peer_token(&peer));
            Ok(match self.outbound_cap {
                Some(cap) => relay.outbound_cap(cap),
                None => relay,
            })
        })
    }
}

fn resolve_upstream(upstream: impl ToSocketAddrs) -> io::Result<SocketAddr> {
    upstream.to_socket_addrs()?.next().ok_or_else(|| {
        io::Error::new(io::ErrorKind::InvalidInput, "upstream resolves to no address")
    })
}
