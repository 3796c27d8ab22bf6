//! Accept-burst fairness: a flood of new connections must not starve
//! established sessions ([`LoopConfig::accept_burst`] caps accepts per
//! wake), and the cap must not lose connections — everyone still gets
//! accepted, just a bounded burst at a time.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use protoobf_core::service::CodecService;
use protoobf_core::Codec;
use protoobf_protocols::modbus::{self, Function};
use protoobf_transport::{evloop, LoopConfig, Metrics, Server};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One framed request and its expected (identical) framed echo.
fn framed_request(clear: &Codec, seed: u64) -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(seed);
    let f = Function::ALL[seed as usize % Function::ALL.len()];
    let body = clear.serialize(&modbus::build_request(clear, f, &mut rng)).unwrap();
    let mut framed = (body.len() as u32).to_be_bytes().to_vec();
    framed.extend_from_slice(&body);
    framed
}

fn roundtrip(stream: &mut TcpStream, framed: &[u8]) {
    stream.write_all(framed).unwrap();
    let mut echoed = vec![0u8; framed.len()];
    stream.read_exact(&mut echoed).unwrap();
    assert_eq!(echoed, framed, "echo diverged");
}

/// A tiny accept burst (2 per wake) against a 48-connection flood, on a
/// single worker: the established client's round trips keep completing
/// *during* the flood (no starvation), and the flood is still fully
/// accepted afterwards (the cap defers accepts, never drops them).
#[test]
fn accept_flood_neither_starves_established_sessions_nor_loses_connections() {
    const FLOOD: usize = 48;

    let graph = modbus::request_graph();
    let clear = Codec::identity(&graph);
    let svc = CodecService::new(Codec::identity(&graph));
    let metrics = Metrics::new();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let shutdown = AtomicBool::new(false);
    let cfg = LoopConfig { workers: 1, accept_burst: 2, ..LoopConfig::default() };

    std::thread::scope(|scope| {
        let served = scope.spawn(|| {
            evloop::serve(listener, &cfg, &shutdown, &metrics, |s, _| {
                Ok(Server::echo(s, &svc, &metrics))
            })
        });

        // Establish a session before the flood and prove it works.
        let mut established = TcpStream::connect(addr).unwrap();
        established.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        let framed = framed_request(&clear, 7);
        roundtrip(&mut established, &framed);

        // Flood: open all connections at once, each eventually does its
        // own round trip (proving it got accepted and served).
        let flood: Vec<TcpStream> = (0..FLOOD).map(|_| TcpStream::connect(addr).unwrap()).collect();

        // While the worker chews through the flood two accepts per wake,
        // the established session must keep making progress.
        let fair_window = Instant::now();
        for round in 0..16 {
            roundtrip(&mut established, &framed);
            assert!(
                fair_window.elapsed() < Duration::from_secs(20),
                "established session starved during accept flood (stuck at round {round})"
            );
        }

        for (i, mut s) in flood.into_iter().enumerate() {
            s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
            let framed = framed_request(&clear, i as u64);
            roundtrip(&mut s, &framed);
        }
        drop(established);

        shutdown.store(true, Ordering::Relaxed);
        served.join().unwrap().unwrap();
    });

    let snap = metrics.snapshot();
    assert_eq!(
        snap.accepted as usize,
        FLOOD + 1,
        "the accept cap must defer accepts, never drop them: {snap}"
    );
    assert_eq!(snap.failed, 0, "{snap}");
    assert!(snap.wake_latency.count() > 0, "wake servicing must be recorded: {snap}");
}

/// `accept_burst` is clamped, not trusted: a zero burst still accepts
/// (one per wake) instead of wedging the listener forever.
#[test]
fn zero_accept_burst_still_accepts() {
    let graph = modbus::request_graph();
    let clear = Codec::identity(&graph);
    let svc = CodecService::new(Codec::identity(&graph));
    let metrics = Metrics::new();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let shutdown = AtomicBool::new(false);
    let cfg = LoopConfig { workers: 1, accept_limit: Some(1), accept_burst: 0 };

    std::thread::scope(|scope| {
        let served = scope.spawn(|| {
            evloop::serve(listener, &cfg, &shutdown, &metrics, |s, _| {
                Ok(Server::echo(s, &svc, &metrics))
            })
        });
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        let framed = framed_request(&clear, 1);
        roundtrip(&mut stream, &framed);
        drop(stream); // accept_limit reached + session drained → serve returns
        served.join().unwrap().unwrap();
    });
    assert_eq!(metrics.snapshot().accepted, 1);
}
