//! The dependency-free HTTP admin plane: `/metrics`, `/events`,
//! `/health` served by [`AdminConn`] — an ordinary [`Session`] driven by
//! the *same* event loop machinery as the data plane (pure `std::net` +
//! [`crate::sys`] kernel readiness; no HTTP library, no async runtime).
//!
//! The protocol subset is deliberately tiny: read one request head
//! (bounded; everything past the blank line is ignored), answer one
//! `GET`, close. That is exactly what `curl`, Prometheus scrapers and
//! `bash /dev/tcp` probes do, and it keeps the admin plane free of
//! request-parsing attack surface — an oversized or malformed head gets
//! a one-line error response and the socket is closed.
//!
//! [`serve_admin`] runs a single-worker [`evloop::serve`] over a shared
//! [`Telemetry`] registry. The admin plane gets its own [`Metrics`]
//! block (scrapes must not perturb the data-plane counters they report),
//! so `/events` even records the scrapers' own connection lifecycle.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

use protoobf_core::telemetry::{peer_token, Metrics, Telemetry};

use crate::error::TransportError;
use crate::evloop::{self, Drive, LoopConfig, Session};

/// Upper bound on a request head (request line + headers). Anything
/// longer is hostile or lost; the connection gets a 431 and closes.
const MAX_REQUEST_HEAD: usize = 8 * 1024;

/// Read buffer for request heads; heads are tiny, one read usually
/// completes the request.
const READ_CHUNK: usize = 1024;

#[derive(Debug)]
enum AdminState {
    /// Accumulating the request head (until `\r\n\r\n` or the cap).
    Reading,
    /// Writing `response[written..]`, then done.
    Writing,
}

/// One admin-plane HTTP connection; see the [module docs](self).
#[derive(Debug)]
pub struct AdminConn {
    stream: TcpStream,
    telemetry: Arc<Telemetry>,
    request: Vec<u8>,
    response: Vec<u8>,
    written: usize,
    state: AdminState,
    token: u64,
}

impl AdminConn {
    /// Wraps an accepted (non-blocking) socket that will receive one
    /// HTTP request against `telemetry`.
    pub fn new(stream: TcpStream, peer: SocketAddr, telemetry: Arc<Telemetry>) -> AdminConn {
        AdminConn {
            stream,
            telemetry,
            request: Vec::with_capacity(READ_CHUNK),
            response: Vec::new(),
            written: 0,
            state: AdminState::Reading,
            token: peer_token(&peer),
        }
    }

    /// Routes a complete request head to a response. Split from `drive`
    /// so tests can exercise routing without sockets.
    fn respond(&mut self) {
        let head = String::from_utf8_lossy(&self.request);
        let mut parts = head.lines().next().unwrap_or("").split_whitespace();
        let method = parts.next().unwrap_or("");
        // Strip any query string: the endpoints take no parameters.
        let path = parts.next().unwrap_or("").split('?').next().unwrap_or("");
        self.response = if method != "GET" {
            http_response(405, "Method Not Allowed", "text/plain", "only GET is served\n")
        } else {
            match path {
                "/metrics" => http_response(
                    200,
                    "OK",
                    "text/plain; version=0.0.4",
                    &self.telemetry.render_prometheus(),
                ),
                "/events" => {
                    http_response(200, "OK", "text/plain", &self.telemetry.render_events())
                }
                "/health" => http_response(200, "OK", "text/plain", "ok\n"),
                _ => http_response(
                    404,
                    "Not Found",
                    "text/plain",
                    "endpoints: /metrics /events /health\n",
                ),
            }
        };
        self.state = AdminState::Writing;
    }
}

/// Renders a minimal HTTP/1.0-style response (explicit `Content-Length`,
/// `Connection: close` — no keep-alive state to manage on the event
/// loop).
fn http_response(code: u16, reason: &str, content_type: &str, body: &str) -> Vec<u8> {
    let mut out = Vec::with_capacity(128 + body.len());
    let _ = write!(
        out,
        "HTTP/1.0 {code} {reason}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    out.extend_from_slice(body.as_bytes());
    out
}

impl Session for AdminConn {
    fn drive(&mut self) -> Result<Drive, TransportError> {
        let mut progress = false;
        if matches!(self.state, AdminState::Reading) {
            let mut buf = [0u8; READ_CHUNK];
            loop {
                match self.stream.read(&mut buf) {
                    Ok(0) => {
                        // EOF before a complete head: nothing to answer.
                        return Ok(Drive::Done);
                    }
                    Ok(n) => {
                        progress = true;
                        self.request.extend_from_slice(&buf[..n]);
                        if self.request.windows(4).any(|w| w == b"\r\n\r\n")
                            || self.request.windows(2).any(|w| w == b"\n\n")
                        {
                            self.respond();
                            break;
                        }
                        if self.request.len() > MAX_REQUEST_HEAD {
                            self.response = http_response(
                                431,
                                "Request Header Fields Too Large",
                                "text/plain",
                                "request head too large\n",
                            );
                            self.state = AdminState::Writing;
                            break;
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        return Ok(if progress { Drive::Progress } else { Drive::Idle });
                    }
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(e) => return Err(TransportError::Io(e)),
                }
            }
        }
        while self.written < self.response.len() {
            match self.stream.write(&self.response[self.written..]) {
                Ok(0) => return Err(TransportError::Io(io::Error::from(io::ErrorKind::WriteZero))),
                Ok(n) => {
                    self.written += n;
                    progress = true;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    return Ok(if progress { Drive::Progress } else { Drive::Idle });
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(TransportError::Io(e)),
            }
        }
        let _ = self.stream.shutdown(std::net::Shutdown::Write);
        Ok(Drive::Done)
    }

    fn sockets<'a>(&'a self, out: &mut Vec<&'a TcpStream>) {
        out.push(&self.stream);
    }

    fn token(&self) -> u64 {
        self.token
    }
}

/// Serves the admin endpoint on `listener` until `shutdown` is raised:
/// one event-loop worker (scrapes are rare and tiny), sessions built
/// over the shared `telemetry`. Blocks; callers run it on a spare
/// thread next to the data plane, sharing the same shutdown flag.
///
/// # Errors
///
/// Listener-level failures only, as with [`evloop::serve`].
pub fn serve_admin(
    listener: TcpListener,
    telemetry: Arc<Telemetry>,
    shutdown: &AtomicBool,
) -> io::Result<()> {
    let cfg = LoopConfig { workers: 1, ..LoopConfig::default() };
    // The admin plane's own lifecycle metrics, separate from the data
    // plane's — a scrape must not show up in the counters it reports.
    let metrics = Metrics::new();
    evloop::serve(listener, &cfg, shutdown, &metrics, move |stream, peer| {
        Ok(AdminConn::new(stream, peer, Arc::clone(&telemetry)))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn http_response_shape() {
        let r = http_response(200, "OK", "text/plain", "hello\n");
        let text = String::from_utf8(r).unwrap();
        assert!(text.starts_with("HTTP/1.0 200 OK\r\n"), "{text}");
        assert!(text.contains("Content-Length: 6\r\n"), "{text}");
        assert!(text.contains("Connection: close\r\n"), "{text}");
        assert!(text.ends_with("\r\n\r\nhello\n"), "{text}");
    }
}
