//! The concurrent codec service: one compiled plan, N worker sessions.
//!
//! A [`crate::codec::Codec`] compiles its [`crate::plan::CodecPlan`] once;
//! the plan is immutable and every session interprets it with private
//! scratch state. [`CodecService`] owns the codec plus one bounded pool
//! of warmed-up scratch per session kind, so any number of threads can
//! check out a serializer or parser without per-message setup:
//!
//! ```text
//!                      ┌────────────── CodecService ──────────────┐
//!   thread A ── checkout ─▶ serializers [scratch, scratch]   Codec  │
//!   thread B ── checkout ─▶ parsers     [scratch]            └─ CodecPlan (shared, immutable)
//!   thread C ── checkout ─▶ (pool empty) → fresh scratch            │
//!                      └──────────────────────────────────────────┘
//! ```
//!
//! Checkout hands back a [`PooledSerializer`] / [`PooledParser`] guard
//! that derefs to the underlying session; dropping the guard returns the
//! scratch (stores, recovery/distribution buffers, message capacity) to
//! its pool, so the next checkout — on any thread — starts warm. Each
//! pool is a LIFO stack behind a [`Mutex`]: the most recently returned
//! (cache-warm) scratch goes out first, and a checkin into a full pool
//! drops the scratch, so pooled memory stays bounded under bursts. The
//! lock is taken once per checkout and once per checkin — a transport
//! connection holds its sessions for its whole life, so that is once per
//! connection, never once per message. Every checkout reseeds the
//! session's RNG, so no random stream continues across checkouts.
//!
//! Wrap the service in an [`std::sync::Arc`] to share it:
//!
//! ```
//! use std::sync::Arc;
//! use protoobf_core::graph::{Boundary, GraphBuilder};
//! use protoobf_core::{Codec, CodecService};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = GraphBuilder::new("demo");
//! let root = b.root_sequence("msg", Boundary::End);
//! b.uint_be(root, "id", 2);
//! let service = Arc::new(CodecService::new(Codec::identity(&b.build()?)));
//!
//! let handles: Vec<_> = (0..4u64)
//!     .map(|t| {
//!         let svc = Arc::clone(&service);
//!         std::thread::spawn(move || {
//!             let mut serializer = svc.serializer();
//!             let mut parser = svc.parser();
//!             let mut wire = Vec::new();
//!             let mut msg = svc.codec().message_seeded(t);
//!             msg.set_uint("id", t).unwrap();
//!             serializer.serialize_into(&msg, &mut wire).unwrap();
//!             parser.parse_in_place(&wire).unwrap().get_uint("id").unwrap()
//!         })
//!     })
//!     .collect();
//! for (t, h) in handles.into_iter().enumerate() {
//!     assert_eq!(h.join().unwrap(), t as u64);
//! }
//! # Ok(())
//! # }
//! ```

use std::ops::{Deref, DerefMut};
use std::sync::{Mutex, MutexGuard, PoisonError};

use crate::codec::Codec;
use crate::error::BuildError;
use crate::framing::MAX_FRAME;
use crate::message::Message;
use crate::parse::{ParseScratch, ParseSession};
use crate::serialize::{SerializeScratch, SerializeSession};

/// Scratch states each pool may park per available CPU. Checkins beyond
/// the bound drop the scratch instead of growing the pool without bound
/// under bursty checkout patterns.
const POOLED_PER_CPU: usize = 32;

/// A thread-safe codec front end: one shared [`Codec`] (and compiled
/// plan) behind bounded pools of reusable serializer/parser scratch.
///
/// See the [module docs](self) for the concurrency model. All methods
/// take `&self`; share the service across threads with an
/// [`std::sync::Arc`].
#[derive(Debug)]
pub struct CodecService {
    codec: Codec,
    serializers: Pool<SerializeScratch>,
    parsers: Pool<ParseScratch>,
    max_frame: usize,
}

/// A bounded LIFO pool of one scratch kind.
#[derive(Debug)]
struct Pool<T> {
    cap: usize,
    parked: Mutex<Parked<T>>,
}

/// The items a [`Pool`] holds, plus their high-water mark.
#[derive(Debug)]
struct Parked<T> {
    items: Vec<T>,
    peak: usize,
}

impl<T> Pool<T> {
    fn new(cap: usize) -> Pool<T> {
        Pool { cap, parked: Mutex::new(Parked { items: Vec::new(), peak: 0 }) }
    }

    fn lock(&self) -> MutexGuard<'_, Parked<T>> {
        // Push and pop leave the stack consistent at every point, so a
        // panic elsewhere under the lock cannot corrupt it.
        self.parked.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The most recently parked item, or `None` when the pool is empty.
    fn take(&self) -> Option<T> {
        self.lock().items.pop()
    }

    /// Parks `item`, or drops it when the pool already holds `cap` items.
    /// A dropped item is freed after the guard is released: parameters
    /// drop after locals.
    fn put(&self, item: T) {
        let mut parked = self.lock();
        if parked.items.len() < self.cap {
            parked.items.push(item);
            parked.peak = parked.peak.max(parked.items.len());
        }
    }

    /// `(parked now, peak parked)`.
    fn occupancy(&self) -> (usize, usize) {
        let parked = self.lock();
        (parked.items.len(), parked.peak)
    }
}

/// Point-in-time pool occupancy, from [`CodecService::stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceStats {
    /// Serializer scratch states currently parked in the pool.
    pub pooled_serializers: usize,
    /// Parser scratch states currently parked in the pool.
    pub pooled_parsers: usize,
    /// Peak serializer pool occupancy — the gauge that tells whether the
    /// pool bound is sized right for the offered load: a peak pinned at
    /// the bound means scratch is being dropped instead of parked.
    pub pooled_serializer_peak: usize,
    /// Peak parser pool occupancy, as above.
    pub pooled_parser_peak: usize,
}

impl CodecService {
    /// Wraps a codec; each pool parks at most 32 scratch states per
    /// available CPU.
    pub fn new(codec: Codec) -> Self {
        // Compile eagerly: the first request should not pay for it.
        let _ = codec.plan();
        let cpus = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(8);
        let cap = POOLED_PER_CPU * cpus;
        CodecService {
            codec,
            serializers: Pool::new(cap),
            parsers: Pool::new(cap),
            max_frame: MAX_FRAME,
        }
    }

    /// Sets the frame-size limit reported by [`CodecService::frame_limit`]
    /// (default [`MAX_FRAME`]).
    pub fn max_frame(mut self, limit: usize) -> Self {
        self.max_frame = limit;
        self
    }

    /// The underlying codec (for building messages and inspecting the
    /// obfuscation plan).
    pub fn codec(&self) -> &Codec {
        &self.codec
    }

    /// The frame-size limit of this service (set with
    /// [`CodecService::max_frame`]). Transport layers framing this
    /// service's messages adopt it for their
    /// [`crate::framing::FrameBuffer`]s and encoders.
    pub fn frame_limit(&self) -> usize {
        self.max_frame
    }

    /// Checks a serializer session out of the pool (or starts a fresh one
    /// when the pool is empty). Dropping the guard returns the warmed-up
    /// scratch to the pool.
    pub fn serializer(&self) -> PooledSerializer<'_> {
        let session = match self.serializers.take() {
            Some(scratch) => {
                SerializeSession::from_scratch(self.codec.obf_graph(), self.codec.plan(), scratch)
            }
            None => self.codec.serializer(),
        };
        PooledSerializer { svc: self, session: Some(session) }
    }

    /// Checks a parser session out of the pool (or starts a fresh one when
    /// the pool is empty). Dropping the guard returns the warmed-up
    /// scratch to the pool.
    pub fn parser(&self) -> PooledParser<'_> {
        let session = match self.parsers.take() {
            Some(scratch) => {
                ParseSession::from_scratch(self.codec.obf_graph(), self.codec.plan(), scratch)
            }
            None => self.codec.parser(),
        };
        PooledParser { svc: self, session: Some(session) }
    }

    /// An empty message of this service's codec pre-armed as a reusable
    /// transcode destination for messages parsed by `src` — the relay
    /// target of an obfuscating gateway leg. The compiled copy program
    /// for the (src, self) pairing is cached on the codec and shared by
    /// every target (and thus every relay connection), so per-connection
    /// setup is an `Arc` clone, and per-message transcoding runs the
    /// allocation-free compiled path from the first frame on.
    ///
    /// # Errors
    ///
    /// [`BuildError::GraphMismatch`] when the two services do not share a
    /// structurally identical plain specification (a misconfigured
    /// gateway pair — caught here, before any traffic flows).
    pub fn transcode_target(&self, src: &CodecService) -> Result<Message<'_>, BuildError> {
        self.codec.transcode_target(src.codec())
    }

    /// Current pool occupancy.
    pub fn stats(&self) -> ServiceStats {
        let (pooled_serializers, pooled_serializer_peak) = self.serializers.occupancy();
        let (pooled_parsers, pooled_parser_peak) = self.parsers.occupancy();
        ServiceStats {
            pooled_serializers,
            pooled_parsers,
            pooled_serializer_peak,
            pooled_parser_peak,
        }
    }
}

/// A pooled serialization session checked out of a [`CodecService`].
/// Derefs to [`SerializeSession`]; dropping it returns the scratch state
/// to the service.
#[derive(Debug)]
pub struct PooledSerializer<'s> {
    svc: &'s CodecService,
    session: Option<SerializeSession<'s>>,
}

impl<'s> Deref for PooledSerializer<'s> {
    type Target = SerializeSession<'s>;

    fn deref(&self) -> &SerializeSession<'s> {
        self.session.as_ref().expect("present until drop")
    }
}

impl<'s> DerefMut for PooledSerializer<'s> {
    fn deref_mut(&mut self) -> &mut SerializeSession<'s> {
        self.session.as_mut().expect("present until drop")
    }
}

impl Drop for PooledSerializer<'_> {
    fn drop(&mut self) {
        if let Some(session) = self.session.take() {
            self.svc.serializers.put(session.into_scratch());
        }
    }
}

/// A pooled parse session checked out of a [`CodecService`]. Derefs to
/// [`ParseSession`]; dropping it returns the scratch state to the service.
#[derive(Debug)]
pub struct PooledParser<'s> {
    svc: &'s CodecService,
    session: Option<ParseSession<'s>>,
}

impl<'s> Deref for PooledParser<'s> {
    type Target = ParseSession<'s>;

    fn deref(&self) -> &ParseSession<'s> {
        self.session.as_ref().expect("present until drop")
    }
}

impl<'s> DerefMut for PooledParser<'s> {
    fn deref_mut(&mut self) -> &mut ParseSession<'s> {
        self.session.as_mut().expect("present until drop")
    }
}

impl Drop for PooledParser<'_> {
    fn drop(&mut self) {
        if let Some(session) = self.session.take() {
            self.svc.parsers.put(session.into_scratch());
        }
    }
}

/// Compile-time audit that the shared pieces really cross threads: the
/// codec (graph + cached plan) must be shareable, sessions and messages
/// must be movable to worker threads.
#[allow(dead_code)]
fn assert_thread_safety() {
    fn shared<T: Send + Sync>() {}
    fn movable<T: Send>() {}
    shared::<Codec>();
    shared::<crate::plan::CodecPlan>();
    shared::<crate::obf::ObfGraph>();
    shared::<CodecService>();
    movable::<SerializeSession<'_>>();
    movable::<ParseSession<'_>>();
    movable::<Message<'_>>();
    movable::<PooledSerializer<'_>>();
    movable::<PooledParser<'_>>();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Obfuscator;
    use crate::graph::{AutoValue, Boundary, GraphBuilder};
    use crate::value::TerminalKind;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn obfuscated_codec() -> Codec {
        let mut b = GraphBuilder::new("svc");
        let root = b.root_sequence("m", Boundary::End);
        let len = b.uint_be(root, "len", 2);
        let data = b.terminal(root, "data", TerminalKind::Bytes, Boundary::Length(len));
        b.set_auto(len, AutoValue::LengthOf(data));
        b.uint_be(root, "code", 4);
        let g = b.build().unwrap();
        Obfuscator::new(&g).seed(5).max_per_node(2).obfuscate().unwrap()
    }

    #[test]
    fn pooled_sessions_roundtrip_and_are_reused() {
        let svc = CodecService::new(obfuscated_codec());
        for round in 0..5u64 {
            let mut s = svc.serializer();
            let mut p = svc.parser();
            let mut msg = svc.codec().message_seeded(round);
            msg.set("data", b"hello".as_slice()).unwrap();
            msg.set_uint("code", round).unwrap();
            let mut wire = Vec::new();
            s.serialize_into(&msg, &mut wire).unwrap();
            let back = p.parse_in_place(&wire).unwrap();
            assert_eq!(back.get("data").unwrap().as_bytes(), b"hello");
            assert_eq!(back.get_uint("code").unwrap(), round);
        }
        let stats = svc.stats();
        assert_eq!(stats.pooled_serializers, 1, "scratch returned to the pool and reused");
        assert_eq!(stats.pooled_parsers, 1);
    }

    #[test]
    fn pooled_wire_matches_direct_session_wire() {
        let svc = CodecService::new(obfuscated_codec());
        let mut msg = svc.codec().message_seeded(1);
        msg.set("data", b"determinism".as_slice()).unwrap();
        msg.set_uint("code", 9).unwrap();
        let mut pooled = Vec::new();
        svc.serializer().serialize_into_seeded(&msg, &mut pooled, 42).unwrap();
        let direct = svc.codec().serialize_seeded(&msg, 42).unwrap();
        assert_eq!(pooled, direct);
    }

    /// A codec that draws random material at serialize time: the auto
    /// length's holder is split with xor, so materialization generates a
    /// fresh share per message.
    fn random_material_codec() -> Codec {
        let mut b = GraphBuilder::new("svc-rng");
        let root = b.root_sequence("m", Boundary::End);
        let len = b.uint_be(root, "len", 2);
        let data = b.terminal(root, "data", TerminalKind::Bytes, Boundary::Length(len));
        b.set_auto(len, AutoValue::LengthOf(data));
        let mut g = crate::obf::ObfGraph::from_plain(&b.build().unwrap());
        let mut rng = StdRng::seed_from_u64(1);
        let lp = g.plain().resolve_names(&["len"]).unwrap();
        let holder = g.holder_of(lp).unwrap();
        crate::transform::apply(
            &mut g,
            holder,
            crate::transform::TransformKind::SplitXor,
            &mut rng,
        )
        .unwrap();
        Codec::from_parts(g, Vec::new())
    }

    #[test]
    fn pooled_rng_does_not_leak_across_checkouts() {
        let svc = CodecService::new(random_material_codec());
        let mut msg = svc.codec().message_seeded(1);
        msg.set("data", b"rng".as_slice()).unwrap();
        // Precondition: the plan draws random material at serialize time
        // (otherwise this test cannot distinguish RNG streams).
        assert_ne!(
            svc.codec().serialize_seeded(&msg, 1).unwrap(),
            svc.codec().serialize_seeded(&msg, 2).unwrap(),
            "fixture must have serialize-time randomness"
        );
        // Park scratch whose RNG sits at a known position (seed 42).
        {
            let mut s = svc.serializer();
            s.reseed(42);
        }
        // The wire an attacker would predict if the pooled session simply
        // continued the seed-42 stream.
        let mut predicted = Vec::new();
        let mut direct = svc.codec().serializer();
        direct.reseed(42);
        direct.serialize_into(&msg, &mut predicted).unwrap();
        // A fresh checkout must NOT reproduce it: from_scratch reseeds.
        let mut got = Vec::new();
        svc.serializer().serialize_into(&msg, &mut got).unwrap();
        assert_ne!(got, predicted, "pooled session continued a caller-seeded RNG stream");
    }

    /// A burst of returns beyond the bound drops the excess scratch
    /// instead of growing the pool, and the peak gauge stops at the bound.
    #[test]
    fn pool_bound_drops_checkins_beyond_cap() {
        let svc = CodecService::new(obfuscated_codec());
        let cap = svc.serializers.cap;
        assert!(cap >= POOLED_PER_CPU, "at least one CPU's worth of scratch");
        let guards: Vec<_> = (0..cap + 3).map(|_| svc.serializer()).collect();
        drop(guards);
        let stats = svc.stats();
        assert_eq!(stats.pooled_serializers, cap, "checkins beyond the bound are dropped");
        assert_eq!(stats.pooled_serializer_peak, cap);
        assert_eq!(stats.pooled_parsers, 0, "each scratch kind has its own pool");
        assert_eq!(stats.pooled_parser_peak, 0);
        // Checkouts drain the pool LIFO; the peak gauge keeps its mark.
        let held = svc.serializer();
        assert_eq!(svc.stats().pooled_serializers, cap - 1);
        drop(held);
        assert_eq!(svc.stats().pooled_serializer_peak, cap);
    }

    /// 8 threads churn checkout/checkin on one service: at most 8 sessions
    /// of a kind are ever out at once, so the pool never parks more than
    /// 8 scratch states, and at least one comes back warm.
    #[test]
    fn concurrent_churn_parks_at_most_peak_concurrency() {
        const THREADS: usize = 8;
        let svc = std::sync::Arc::new(CodecService::new(obfuscated_codec()));
        std::thread::scope(|scope| {
            for _ in 0..THREADS {
                let svc = std::sync::Arc::clone(&svc);
                scope.spawn(move || {
                    for _ in 0..200 {
                        let s = svc.serializer();
                        let p = svc.parser();
                        drop(p);
                        drop(s);
                    }
                });
            }
        });
        let stats = svc.stats();
        for (kind, parked, peak) in [
            ("serializer", stats.pooled_serializers, stats.pooled_serializer_peak),
            ("parser", stats.pooled_parsers, stats.pooled_parser_peak),
        ] {
            assert!((1..=THREADS).contains(&parked), "{kind}: {parked} parked");
            assert!((parked..=THREADS).contains(&peak), "{kind}: peak {peak}");
        }
    }

    #[test]
    fn transcode_target_runs_the_shared_program() {
        let clear = CodecService::new(Codec::identity(obfuscated_codec().plain()));
        let obf = CodecService::new(obfuscated_codec());
        let mut msg = clear.codec().message_seeded(1);
        msg.set("data", b"via service".as_slice()).unwrap();
        msg.set_uint("code", 4).unwrap();
        let mut target = obf.transcode_target(&clear).unwrap();
        msg.transcode_into(&mut target).unwrap();
        assert_eq!(target.get("data").unwrap().as_bytes(), b"via service");
        assert_eq!(target.get_uint("code").unwrap(), 4);
    }

    #[test]
    fn concurrent_smoke() {
        let svc = std::sync::Arc::new(CodecService::new(obfuscated_codec()));
        let threads: Vec<_> = (0..8u64)
            .map(|t| {
                let svc = std::sync::Arc::clone(&svc);
                std::thread::spawn(move || {
                    let mut s = svc.serializer();
                    let mut p = svc.parser();
                    let mut wire = Vec::new();
                    for round in 0..50u64 {
                        let mut msg = svc.codec().message_seeded(t * 1000 + round);
                        msg.set("data", format!("t{t} r{round}").into_bytes()).unwrap();
                        msg.set_uint("code", t ^ round).unwrap();
                        s.serialize_into(&msg, &mut wire).unwrap();
                        let back = p.parse_in_place(&wire).unwrap();
                        assert_eq!(back.get_uint("code").unwrap(), t ^ round);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
    }
}
