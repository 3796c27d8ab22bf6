//! The paper's deployment model, end to end on loopback: an unmodified
//! "client" and "server" speak the **clear** protocol, while everything
//! between the two obfuscation gateways crosses the wire obfuscated.
//!
//! ```text
//! client ──clear──▶ encode gw ──obfuscated──▶ decode gw ──clear──▶ echo server
//! ```
//!
//! Everything is configured by **two copies of one profile file** — the
//! single shared secret object. Each gateway independently derives its
//! whole stack from its copy ([`Profile::build`] via the standard
//! resolver) and the two derivations are verified identical by comparing
//! fingerprints *before* any traffic flows; a wrong key is caught right
//! there, not as garbage on the wire.
//!
//! ```sh
//! cargo run --example gateway_pair
//! ```

use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};

use protoobf::core::framing::{FrameReader, FrameWriter};
use protoobf::protocols::modbus::{self, Function};
use protoobf::transport::{evloop, Gateway, GatewayMode, LoopConfig, Metrics, Server};
use protoobf::{Profile, ProfileExt};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// In a real deployment this is a file both sides hold a copy of.
const PROFILE_TEXT: &str = r#"
profile protoobf/1
spec builtin:modbus-request
key "gateway-pair demo secret"
level 2
"#;

const CLIENTS: usize = 8;
const MSGS: usize = 8;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Each side parses and builds its *own copy* of the profile.
    let encode_ep = Profile::parse(PROFILE_TEXT)?.build()?;
    let decode_ep = Profile::parse(PROFILE_TEXT)?.build()?;

    // The handshake a deployment performs out of band: compare the
    // derivation fingerprints before any traffic flows.
    assert_eq!(encode_ep.fingerprint(), decode_ep.fingerprint());
    let imposter = Profile::parse(PROFILE_TEXT)?.key("wrong secret").build()?;
    assert_ne!(
        encode_ep.fingerprint(),
        imposter.fingerprint(),
        "a key mismatch must be detectable by fingerprint comparison"
    );
    println!("fingerprints agree: {}", encode_ep.fingerprint());

    // Three listeners on ephemeral ports: echo server, decode gw, encode gw.
    let server_l = TcpListener::bind("127.0.0.1:0")?;
    let decode_l = TcpListener::bind("127.0.0.1:0")?;
    let encode_l = TcpListener::bind("127.0.0.1:0")?;
    let client_addr = encode_l.local_addr()?;

    let encode_gw =
        Gateway::from_endpoint(&encode_ep, GatewayMode::Encode, decode_l.local_addr()?)?;
    let decode_gw =
        Gateway::from_endpoint(&decode_ep, GatewayMode::Decode, server_l.local_addr()?)?;
    // Client and server never see the key: they use the clear (identity)
    // stack the endpoint derives from the same profile.
    let server_svc = decode_ep.clear_tx_service();
    let server_metrics = Metrics::new();

    let shutdown = AtomicBool::new(false);
    let cfg = LoopConfig::default();
    println!("chain: client → {client_addr} (clear) → obfuscated → echo server");

    std::thread::scope(|scope| -> Result<(), Box<dyn std::error::Error + Send + Sync>> {
        let loops = [
            scope.spawn(|| {
                evloop::serve(server_l, &cfg, &shutdown, &server_metrics, |s, _| {
                    Ok(Server::echo(s, server_svc, &server_metrics))
                })
            }),
            scope.spawn(|| decode_gw.serve(decode_l, &cfg, &shutdown)),
            scope.spawn(|| encode_gw.serve(encode_l, &cfg, &shutdown)),
        ];

        // Concurrent clear-protocol clients, oblivious to the obfuscation.
        std::thread::scope(|clients| {
            for t in 0..CLIENTS {
                let clear = encode_ep.clear_tx_service().codec();
                clients.spawn(move || {
                    let stream = TcpStream::connect(client_addr).expect("connect");
                    let mut writer = FrameWriter::new(clear, &stream);
                    let mut reader = FrameReader::new(clear, &stream);
                    let mut rng = StdRng::seed_from_u64(t as u64);
                    for i in 0..MSGS {
                        let f = Function::ALL[(t + i) % Function::ALL.len()];
                        let msg = modbus::build_request(clear, f, &mut rng);
                        let wire = clear.serialize(&msg).expect("serialize");
                        writer.send_raw(&wire).expect("send");
                        let echo = reader.recv_raw().expect("recv").expect("echo");
                        assert_eq!(echo, wire, "client {t}: echo must be byte-identical");
                    }
                });
            }
        });

        shutdown.store(true, Ordering::Relaxed);
        for l in loops {
            l.join().expect("loop thread")?;
        }
        Ok(())
    })
    .map_err(|e| -> Box<dyn std::error::Error> { e })?;

    let enc = encode_gw.metrics().snapshot();
    let dec = decode_gw.metrics().snapshot();
    println!("encode gateway: {enc}");
    println!("decode gateway: {dec}");
    println!(
        "\n{} clients × {} messages round-tripped byte-identical; the decode gateway \
         relayed {} messages and moved {} bytes across its sockets ✓",
        CLIENTS, MSGS, dec.messages_in, dec.bytes_in
    );
    Ok(())
}
