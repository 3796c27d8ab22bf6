//! The three workloads, their profiles and their seeded inputs.
//!
//! Every workload runs at obfuscation level 2 under one fixed key. The
//! gateways see only the frames generated here; the seed never reaches
//! them.

use std::io::{self, Read};

use protoobf_core::graph::{AutoValue, Boundary, GraphBuilder};
use protoobf_core::profile::{Endpoint, Profile, ProfileError, SpecSource};
use protoobf_core::value::TerminalKind;
use protoobf_core::{Codec, FormatGraph, Message};
use protoobf_protocols::{http, modbus};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// How a workload offers its load.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// Two long-lived connections, frames pipelined on a fixed schedule.
    OpenPipelined,
    /// Two long-lived connections, one message outstanding on each.
    ClosedLoop,
    /// A new connection per operation, arrivals on a fixed schedule, at
    /// most two in flight.
    OpenChurn,
}

/// One workload: profile, load shape and its fixed constants.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name as given to `--workload`.
    pub name: &'static str,
    /// The profile text both gateways parse.
    pub profile: &'static str,
    /// How load is offered.
    pub shape: Shape,
    /// Nominal offered rate (operations per second) of an open loop:
    /// about half the closed-loop capacity measured on the reference
    /// host (see README.md).
    pub rate: f64,
    /// p99 latency limit of a ladder step, in microseconds.
    pub limit_us: u64,
}

/// Ratio between consecutive ladder rates: 5 % steps, so a change of a
/// tenth moves `max_rate_ops` by about two steps.
pub const LADDER_RATIO: f64 = 1.05;

/// The fixed obfuscation key and level of every workload.
const KEY_AND_LEVEL: &str = "key \"perfbench fixed key\"\nlevel 2\n";

/// All workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "modbus-echo",
        profile: "profile protoobf/1\nspec builtin:modbus-request\n",
        shape: Shape::OpenPipelined,
        rate: 3500.0,
        limit_us: 50_000,
    },
    Workload {
        name: "bulk-64k",
        profile: "profile protoobf/1\nspec builtin:bulk\n",
        shape: Shape::ClosedLoop,
        rate: 0.0,
        limit_us: 0,
    },
    Workload {
        name: "http-churn",
        profile: "profile protoobf/1\ntx builtin:http-request\nrx builtin:http-response\n",
        shape: Shape::OpenChurn,
        rate: 1000.0,
        limit_us: 50_000,
    },
];

impl Workload {
    /// Looks a workload up by name.
    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    /// The complete profile text, key and level included.
    pub fn profile_text(&self) -> String {
        format!("{}{KEY_AND_LEVEL}", self.profile)
    }

    /// Whether the workload is an open loop (and so has a rate ladder).
    pub fn is_open(&self) -> bool {
        self.shape != Shape::ClosedLoop
    }

    /// The rate ladder: `rate / 4 * LADDER_RATIO^i` up to sixteen times
    /// the nominal rate. Its bottom is far below any capacity the
    /// workload can have, its top far above.
    pub fn ladder(&self) -> Vec<f64> {
        let steps = (64f64.ln() / LADDER_RATIO.ln()).ceil() as usize + 1;
        crate::stats::ladder(self.rate / 4.0, LADDER_RATIO, steps)
    }
}

/// Resolves the spec sources the workloads name: the bundled Modbus and
/// HTTP grammars, and `builtin:bulk`, the benchmark's bulk-record format.
pub fn resolve(src: &SpecSource) -> Result<FormatGraph, String> {
    match src {
        SpecSource::Builtin(name) => match name.as_str() {
            "modbus-request" => Ok(modbus::request_graph()),
            "http-request" => Ok(http::request_graph()),
            "http-response" => Ok(http::response_graph()),
            "bulk" => Ok(bulk_graph()),
            other => Err(format!("unknown builtin {other:?}")),
        },
        SpecSource::File(path) => Err(format!("spec files are not used here: {path}")),
    }
}

/// Parses and builds one endpoint from profile text.
pub fn build_endpoint(text: &str) -> Result<Endpoint, ProfileError> {
    Profile::parse(text)?.build_with(&resolve)
}

/// The bulk-record format of the codec micro-benchmarks (`bulk_graph` in
/// `crates/bench/benches/codec.rs`): a counted table of 2048 fixed-size
/// records and a free tail.
pub fn bulk_graph() -> FormatGraph {
    let mut b = GraphBuilder::new("bulk");
    let root = b.root_sequence("m", Boundary::End);
    let count = b.uint_be(root, "count", 2);
    let tab = b.tabular(root, "records", count);
    b.set_auto(count, AutoValue::CounterOf(tab));
    let rec = b.sequence(tab, "record", Boundary::Delegated);
    b.uint_be(rec, "key", 4);
    b.uint_be(rec, "flags", 2);
    b.terminal(rec, "payload", TerminalKind::Bytes, Boundary::Fixed(24));
    b.terminal(root, "tail", TerminalKind::Bytes, Boundary::End);
    b.build().expect("bulk graph is valid")
}

/// Clear frames (4-byte big-endian length prefix + clear message) a
/// workload sends and expects back.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// Request frames the client sends.
    pub requests: Vec<Vec<u8>>,
    /// Reply frames the server returns (`None`: it echoes the request).
    pub replies: Option<Vec<Vec<u8>>>,
}

impl Inputs {
    /// The reply the client must receive for request `i`.
    pub fn expected_reply(&self, i: usize) -> &[u8] {
        match &self.replies {
            Some(r) => &r[i % r.len()],
            None => &self.requests[i],
        }
    }

    /// Clear payload bytes (prefixes excluded) of one exchange of
    /// request `i`, both directions.
    pub fn payload_bytes(&self, i: usize) -> u64 {
        (self.requests[i].len() + self.expected_reply(i).len() - 8) as u64
    }
}

/// Number of distinct Modbus requests and HTTP GETs generated per seed.
const REQUESTS: usize = 256;
/// Number of distinct prepared HTTP responses.
const RESPONSES: usize = 16;
/// Body length of a prepared HTTP response (~4 KiB on the wire).
const RESPONSE_BODY: usize = 4000;

/// Generates a workload's frames from `seed` with the endpoint's clear
/// codecs (the ones the client and server speak).
pub fn generate(w: &Workload, ep: &Endpoint, seed: u64) -> Inputs {
    let mut rng = StdRng::seed_from_u64(seed);
    let clear_req = ep.clear_tx_service().codec();
    match w.shape {
        Shape::OpenPipelined => {
            let requests = (0..REQUESTS)
                .map(|_| {
                    let f = modbus::Function::ALL[rng.gen_range(0..modbus::Function::ALL.len())];
                    frame(clear_req, &modbus::build_request(clear_req, f, &mut rng))
                })
                .collect();
            Inputs { requests, replies: None }
        }
        Shape::ClosedLoop => {
            let msg = bulk_message(clear_req, &mut rng);
            Inputs { requests: vec![frame(clear_req, &msg)], replies: None }
        }
        Shape::OpenChurn => {
            let clear_rep = ep.clear_rx_service().codec();
            // Distinct GETs only: the server finds each request's reply by
            // its bytes.
            let mut requests: Vec<Vec<u8>> = Vec::with_capacity(REQUESTS);
            while requests.len() < REQUESTS {
                let msg = http::build_request(clear_req, &mut rng);
                if msg.get_string("method").is_ok_and(|m| m == "GET") {
                    let f = frame(clear_req, &msg);
                    if !requests.contains(&f) {
                        requests.push(f);
                    }
                }
            }
            let replies = (0..RESPONSES)
                .map(|_| {
                    let mut msg = http::build_response(clear_rep, &mut rng);
                    let body: Vec<u8> =
                        (0..RESPONSE_BODY).map(|_| rng.gen_range(0x20u8..0x7f)).collect();
                    msg.set("content", body).expect("HTTP responses carry a body");
                    frame(clear_rep, &msg)
                })
                .collect();
            Inputs { requests, replies: Some(replies) }
        }
    }
}

/// The ≥64 KiB bulk message: 2048 records with seeded payloads and a
/// 4 KiB tail, as in the codec micro-benchmarks.
fn bulk_message<'c>(codec: &'c Codec, rng: &mut StdRng) -> Message<'c> {
    let mut msg = codec.message_seeded(rng.gen());
    for i in 0..2048u64 {
        msg.set_uint(&format!("records[{i}].key"), i).expect("bulk key");
        msg.set_uint(&format!("records[{i}].flags"), i & 0xFFFF).expect("bulk flags");
        let payload: Vec<u8> = (0..24).map(|_| rng.gen::<u8>()).collect();
        msg.set(&format!("records[{i}].payload"), payload).expect("bulk payload");
    }
    msg.set("tail", vec![0xAB; 4096]).expect("bulk tail");
    msg
}

/// One clear message as a length-prefixed frame.
fn frame(codec: &Codec, msg: &Message<'_>) -> Vec<u8> {
    let body = codec.serialize(msg).expect("generated messages serialize");
    let mut out = Vec::with_capacity(body.len() + 4);
    out.extend_from_slice(&(body.len() as u32).to_be_bytes());
    out.extend_from_slice(&body);
    out
}

/// Reassembles length-prefixed frames from a byte stream, reusing one
/// buffer.
#[derive(Debug, Default)]
pub struct FrameBuf {
    buf: Vec<u8>,
    start: usize,
    end: usize,
}

/// Free space [`FrameBuf::fill`] offers each read.
const READ_CHUNK: usize = 64 * 1024;

impl FrameBuf {
    /// Reads once from `r` (whatever is available, up to 64 KiB) into
    /// the buffer. Returns the byte count; 0 means EOF.
    pub fn fill(&mut self, r: &mut impl Read) -> io::Result<usize> {
        if self.start == self.end {
            self.start = 0;
            self.end = 0;
        }
        if self.buf.len() - self.end < READ_CHUNK {
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
            if self.buf.len() - self.end < READ_CHUNK {
                self.buf.resize(self.end + READ_CHUNK, 0);
            }
        }
        let n = r.read(&mut self.buf[self.end..])?;
        self.end += n;
        Ok(n)
    }

    /// Takes the next complete frame (prefix included), if buffered.
    pub fn pop(&mut self) -> Option<&[u8]> {
        let len = self.frame_len()?;
        let frame = &self.buf[self.start..self.start + len];
        self.start += len;
        Some(frame)
    }

    /// Reads (blocking) until one complete frame is buffered and takes
    /// it. `UnexpectedEof` when the stream ends first.
    pub fn read_frame(&mut self, r: &mut impl Read) -> io::Result<&[u8]> {
        while self.frame_len().is_none() {
            if self.fill(r)? == 0 {
                return Err(io::ErrorKind::UnexpectedEof.into());
            }
        }
        Ok(self.pop().expect("a complete frame is buffered"))
    }

    /// Length of the complete frame at the front, if one is buffered.
    fn frame_len(&self) -> Option<usize> {
        let avail = &self.buf[self.start..self.end];
        let prefix: [u8; 4] = avail.get(..4)?.try_into().ok()?;
        let len = u32::from_be_bytes(prefix) as usize + 4;
        (avail.len() >= len).then_some(len)
    }
}
