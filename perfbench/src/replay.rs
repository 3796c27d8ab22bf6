//! Replay: a workload's exact frames pushed through the calls a relay
//! makes per message — `Conn::feed_inbound`, `Conn::poll_inbound`,
//! `Message::transcode_into` on a `CodecService::transcode_target`,
//! `Conn::send` and `Conn::consume_outbound` — with each call timed in
//! ns. One operation is four relay passes: the request through the
//! encode then the decode gateway, the reply back through the decode
//! then the encode gateway.

use std::time::{Duration, Instant};

use protoobf_core::Message;
use protoobf_transport::{Conn, Gateway};

use crate::workload::Inputs;

/// Summed call times and byte counts of a replay.
#[derive(Debug, Default, Clone, Copy)]
pub struct Replay {
    /// Operations replayed.
    pub ops: u64,
    /// `Conn::feed_inbound`, all passes.
    pub feed_ns: u64,
    /// `Conn::consume_outbound`, all passes.
    pub consume_ns: u64,
    /// `Conn::poll_inbound` of obfuscated frames.
    pub parse_obf_ns: u64,
    /// `Conn::poll_inbound` of clear frames.
    pub parse_clear_ns: u64,
    /// Transcodes from clear onto the obfuscated codec.
    pub to_obf_ns: u64,
    /// Transcodes from obfuscated onto the clear codec.
    pub to_clear_ns: u64,
    /// `Conn::send` on the obfuscated codec.
    pub serialize_obf_ns: u64,
    /// `Conn::send` on the clear codec.
    pub serialize_clear_ns: u64,
    /// Obfuscated wire bytes, both directions.
    pub obf_bytes: u64,
    /// Clear wire bytes, both directions.
    pub clear_bytes: u64,
    /// Frames that did not come back byte-identical.
    pub mismatches: u64,
}

/// The per-direction state of one gateway: both legs' `Conn`s and
/// transcode targets, as `Relay::new` builds them.
struct Leg<'s> {
    down: Conn<'s>,
    up: Conn<'s>,
    to_up: Message<'s>,
    to_down: Message<'s>,
}

impl<'s> Leg<'s> {
    fn new(gw: &'s Gateway) -> Leg<'s> {
        let (down, up) = (gw.down_services(), gw.up_services());
        Leg {
            down: Conn::new(down.rx, down.tx),
            up: Conn::new(up.rx, up.tx),
            to_up: up.tx.transcode_target(down.rx).expect("gateway legs share their plain spec"),
            to_down: down.tx.transcode_target(up.rx).expect("gateway legs share their plain spec"),
        }
    }
}

/// Which codec a relay pass reads and writes.
#[derive(Clone, Copy)]
enum Wire {
    Clear,
    Obf,
}

/// Replays `inputs` for at least `budget` (and at least one full pass
/// over the requests) through fresh relay state of `enc` and `dec`.
pub fn replay(enc: &Gateway, dec: &Gateway, inputs: &Inputs, budget: Duration) -> Replay {
    let mut r = Replay::default();
    let mut enc = Leg::new(enc);
    let mut dec = Leg::new(dec);
    let (mut a, mut b) = (Vec::new(), Vec::new());
    let t0 = Instant::now();
    let mut i = 0usize;
    while i < inputs.requests.len() || t0.elapsed() < budget {
        let idx = i % inputs.requests.len();
        let request = &inputs.requests[idx];
        let reply = inputs.expected_reply(idx);
        // Request: clear into the encode gateway's down leg, obfuscated
        // out of its up leg; then the reverse at the decode gateway.
        pass(&mut enc.down, &mut enc.up, &mut enc.to_up, request, &mut a, Wire::Clear, &mut r);
        pass(&mut dec.down, &mut dec.up, &mut dec.to_up, &a, &mut b, Wire::Obf, &mut r);
        r.mismatches += u64::from(b != *request);
        // Reply: clear into the decode gateway's up leg, back out of the
        // encode gateway's down leg.
        pass(&mut dec.up, &mut dec.down, &mut dec.to_down, reply, &mut a, Wire::Clear, &mut r);
        pass(&mut enc.up, &mut enc.down, &mut enc.to_down, &a, &mut b, Wire::Obf, &mut r);
        r.mismatches += u64::from(b != reply);
        r.ops += 1;
        i += 1;
    }
    r
}

/// One relay pass: `frame` in through `src`, transcoded into `tmpl`,
/// out through `dst` into `out`. `wire` is the codec `src` reads.
fn pass(
    src: &mut Conn<'_>,
    dst: &mut Conn<'_>,
    tmpl: &mut Message<'_>,
    frame: &[u8],
    out: &mut Vec<u8>,
    wire: Wire,
    r: &mut Replay,
) {
    let t = Instant::now();
    src.feed_inbound(frame).expect("replay connection is open");
    let t1 = Instant::now();
    let msg = src.poll_inbound().expect("replayed frame parses").expect("a whole frame was fed");
    let t2 = Instant::now();
    msg.transcode_into(tmpl).expect("transcode target matches");
    let t3 = Instant::now();
    dst.send(tmpl).expect("transcoded message serializes");
    let t4 = Instant::now();
    out.clear();
    out.extend_from_slice(dst.outbound());
    let t5 = Instant::now();
    dst.consume_outbound(out.len());
    let t6 = Instant::now();
    let ns = |a: Instant, b: Instant| (b - a).as_nanos() as u64;
    r.feed_ns += ns(t, t1);
    r.consume_ns += ns(t5, t6);
    let (in_bytes, out_bytes) = (frame.len() as u64, out.len() as u64);
    match wire {
        Wire::Clear => {
            r.parse_clear_ns += ns(t1, t2);
            r.to_obf_ns += ns(t2, t3);
            r.serialize_obf_ns += ns(t3, t4);
            r.clear_bytes += in_bytes;
            r.obf_bytes += out_bytes;
        }
        Wire::Obf => {
            r.parse_obf_ns += ns(t1, t2);
            r.to_clear_ns += ns(t2, t3);
            r.serialize_clear_ns += ns(t3, t4);
            r.obf_bytes += in_bytes;
            r.clear_bytes += out_bytes;
        }
    }
}
