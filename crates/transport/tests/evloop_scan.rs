//! Coverage for the portable **readiness-scan fallback**: every test in
//! this file (its own process) sets `PROTOOBF_EVLOOP=scan` before
//! starting an event loop, forcing the worker the epoll-less targets
//! get. The suite proves the fallback still serves correctly — round
//! trips, accept caps, wake-latency recording, backpressure gating — so
//! the compile-time backend split cannot silently rot.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use protoobf_core::service::CodecService;
use protoobf_core::Codec;
use protoobf_protocols::modbus::{self, Function};
use protoobf_transport::{evloop, LoopConfig, Metrics, Server};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Forces the scan worker for this whole test process. All tests set the
/// same value, so the (process-global) write is race-free in effect.
fn force_scan() {
    // SAFETY: all writers in this process store the same value, and the
    // event loop only reads it.
    unsafe { std::env::set_var("PROTOOBF_EVLOOP", "scan") };
}

fn framed_request(clear: &Codec, seed: u64) -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(seed);
    let f = Function::ALL[seed as usize % Function::ALL.len()];
    let body = clear.serialize(&modbus::build_request(clear, f, &mut rng)).unwrap();
    let mut framed = (body.len() as u32).to_be_bytes().to_vec();
    framed.extend_from_slice(&body);
    framed
}

/// 32 concurrent echo round trips on the scan worker, byte-identical,
/// with wake latency recorded and idle naps observed (the scan path's
/// signature the epoll path never produces while parked).
#[test]
fn scan_fallback_roundtrips_and_records_wake_latency() {
    force_scan();
    const CLIENTS: usize = 32;

    let graph = modbus::request_graph();
    let clear = Codec::identity(&graph);
    let svc = CodecService::new(Codec::identity(&graph));
    let metrics = Metrics::new();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let shutdown = AtomicBool::new(false);
    let cfg = LoopConfig { workers: 2, ..LoopConfig::default() };

    std::thread::scope(|scope| {
        let served = scope.spawn(|| {
            evloop::serve(listener, &cfg, &shutdown, &metrics, |s, _| {
                Ok(Server::echo(s, &svc, &metrics))
            })
        });
        std::thread::scope(|clients| {
            for t in 0..CLIENTS {
                let clear = &clear;
                clients.spawn(move || {
                    let mut stream = TcpStream::connect(addr).unwrap();
                    stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
                    let framed = framed_request(clear, t as u64);
                    for _ in 0..4 {
                        stream.write_all(&framed).unwrap();
                        let mut echoed = vec![0u8; framed.len()];
                        stream.read_exact(&mut echoed).unwrap();
                        assert_eq!(echoed, framed, "client {t}: echo diverged on scan path");
                    }
                });
            }
        });
        // Linger briefly so idle workers demonstrably back off.
        std::thread::sleep(Duration::from_millis(50));
        shutdown.store(true, Ordering::Relaxed);
        served.join().unwrap().unwrap();
    });

    let snap = metrics.snapshot();
    assert_eq!(snap.accepted as usize, CLIENTS);
    assert_eq!(snap.failed, 0, "{snap}");
    assert!(snap.wake_latency.count() > 0, "scan wakes must be recorded: {snap}");
    assert!(snap.idle_naps > 0, "idle scan workers must nap: {snap}");
}

/// Backpressure on the scan worker: a tiny outbound cap against a client
/// that floods requests while not reading replies, for both server
/// modes. The server must gate its reads (backpressure events recorded),
/// survive (no failure, no unbounded queue), and deliver every reply once
/// the client drains. The counters pin the shared pump's bookkeeping:
/// one message in and one out per request, and a transcode per message
/// for the echo only — the responder samples its replies.
#[test]
fn scan_fallback_gates_reads_under_backpressure() {
    force_scan();
    const MSGS: usize = 64;

    let request_graph = modbus::request_graph();
    let response_graph = modbus::response_graph();
    let clear = Codec::identity(&request_graph);
    let request_svc = CodecService::new(Codec::identity(&request_graph));
    let response_svc = CodecService::new(Codec::identity(&response_graph));

    for responder in [false, true] {
        let mode = if responder { "responder" } else { "echo" };
        let reply_svc = if responder { &response_svc } else { &request_svc };
        let metrics = Metrics::new();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let shutdown = AtomicBool::new(false);
        let cfg = LoopConfig { workers: 1, ..LoopConfig::default() };

        std::thread::scope(|scope| {
            let served = scope.spawn(|| {
                evloop::serve(listener, &cfg, &shutdown, &metrics, |s, _| {
                    let server = if responder {
                        Server::responder(s, &request_svc, reply_svc, 7, &metrics)
                    } else {
                        Server::echo(s, &request_svc, &metrics)
                    };
                    // One frame's worth of cap: pressure engages immediately.
                    Ok(server.outbound_cap(1))
                })
            });

            let mut stream = TcpStream::connect(addr).unwrap();
            stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
            let framed = framed_request(&clear, 3);
            // Flood all requests without reading a single reply.
            for _ in 0..MSGS {
                stream.write_all(&framed).unwrap();
            }
            // Now drain: every reply must still arrive, whole and
            // decodable under the reply codec; an echo byte-identical.
            for i in 0..MSGS {
                let mut len = [0u8; 4];
                stream.read_exact(&mut len).unwrap_or_else(|e| panic!("{mode} {i}: {e}"));
                let mut body = vec![0u8; u32::from_be_bytes(len) as usize];
                stream.read_exact(&mut body).unwrap_or_else(|e| panic!("{mode} {i}: {e}"));
                if let Err(e) = reply_svc.codec().parse(&body) {
                    panic!("{mode} reply {i} does not decode: {e}");
                }
                if !responder {
                    assert_eq!(&framed[4..], &body[..], "echo {i} diverged under backpressure");
                }
            }
            drop(stream);

            shutdown.store(true, Ordering::Relaxed);
            served.join().unwrap().unwrap();
        });

        let snap = metrics.snapshot();
        let transcodes = if responder { 0 } else { MSGS as u64 };
        assert_eq!(snap.failed, 0, "{mode}: backpressure must pause, not kill: {snap}");
        assert_eq!(snap.messages_in as usize, MSGS, "{mode}: every request served: {snap}");
        assert_eq!(snap.messages_out as usize, MSGS, "{mode}: every request answered: {snap}");
        assert_eq!(snap.transcodes, transcodes, "{mode}: {snap}");
        assert_eq!(snap.stages.transcode.calls, transcodes, "{mode}: {snap}");
        // A stage call is a completed stage: the empty poll that ends
        // each drive is not a parse.
        assert_eq!(snap.stages.parse.calls, MSGS as u64, "{mode}: one parse per request: {snap}");
        assert_eq!(snap.stages.serialize.calls, MSGS as u64, "{mode}: one per reply: {snap}");
        assert!(
            snap.backpressure_events > 0,
            "{mode}: a 1-byte cap against a flood must record pressure: {snap}"
        );
    }
}
