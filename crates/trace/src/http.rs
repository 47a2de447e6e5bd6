//! A std-only scrape endpoint over a [`MetricsHub`].
//!
//! No async runtime, no HTTP crate: one accept thread on a
//! [`TcpListener`] answers `GET` requests with freshly rendered hub
//! snapshots. Connections are handled sequentially on the accept thread
//! — each response is a few kilobytes built in microseconds, so a
//! single handler bounds concurrent connections by construction (the
//! kernel backlog absorbs bursts) and the server can never hold more
//! than one hub lock at a time. Routes:
//!
//! - `GET /metrics` — the hub as a Prometheus text exposition
//!   ([`MetricsHub::render`]); [`crate::parse_exposition`] round-trips
//!   every response.
//! - `GET /slo` — live SLO attainment/burn plus active drift alarms as
//!   JSON ([`MetricsHub::slo_json`]).
//! - `GET /series` — the window ring as JSON
//!   ([`MetricsHub::series_json`]).
//! - `GET /healthz` — liveness probe (`ok`).
//!
//! Shutdown is graceful: [`ShutdownHandle::shutdown`] flips a flag and
//! pokes the listener with a loopback connection so the blocking
//! `accept` wakes immediately; [`ScrapeServer::shutdown`] then joins
//! the thread, so no request is abandoned mid-write.

use crate::hub::MetricsHub;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Per-connection socket timeout: a stalled scraper cannot wedge the
/// accept loop for longer than this.
const IO_TIMEOUT: Duration = Duration::from_millis(2000);
/// Maximum request head read before answering 431.
const MAX_REQUEST_BYTES: usize = 8 * 1024;

/// Cloneable handle that stops a running [`ScrapeServer`].
#[derive(Debug, Clone)]
pub struct ShutdownHandle {
    stop: Arc<AtomicBool>,
    addr: SocketAddr,
}

impl ShutdownHandle {
    /// Requests the accept loop to exit; returns once the flag is set
    /// and the listener has been poked awake (idempotent).
    pub fn shutdown(&self) {
        if self.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        // Wake the blocking accept with a throwaway connection; if the
        // connect fails the listener is already gone, which is fine.
        let _ = TcpStream::connect_timeout(&self.addr, IO_TIMEOUT);
    }
}

/// A running scrape server; dropping it without calling
/// [`ScrapeServer::shutdown`] detaches the accept thread (it exits at
/// the next shutdown poke or process end).
#[derive(Debug)]
pub struct ScrapeServer {
    addr: SocketAddr,
    handle: ShutdownHandle,
    thread: Option<JoinHandle<u64>>,
}

impl ScrapeServer {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// starts answering scrapes from `hub` on a background thread.
    pub fn bind(hub: Arc<MetricsHub>, addr: &str) -> io::Result<ScrapeServer> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let handle = ShutdownHandle {
            stop: stop.clone(),
            addr: local,
        };
        let thread = std::thread::Builder::new()
            .name("pit-scrape".to_string())
            .spawn(move || accept_loop(&listener, &hub, &stop))?;
        Ok(ScrapeServer {
            addr: local,
            handle,
            thread: Some(thread),
        })
    }

    /// The bound address (resolves the port for `"…:0"` binds).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// A cloneable handle that can stop this server from any thread.
    pub fn handle(&self) -> ShutdownHandle {
        self.handle.clone()
    }

    /// Stops accepting, joins the accept thread and returns the number
    /// of requests served.
    pub fn shutdown(mut self) -> u64 {
        self.handle.shutdown();
        match self.thread.take() {
            Some(t) => t.join().expect("scrape server thread panicked"),
            None => 0,
        }
    }
}

fn accept_loop(listener: &TcpListener, hub: &MetricsHub, stop: &AtomicBool) -> u64 {
    let mut served = 0u64;
    for conn in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = conn else { continue };
        if handle_connection(stream, hub).is_ok() {
            served += 1;
        }
    }
    served
}

/// Reads the request head (bounded), routes it and writes one response.
fn handle_connection(mut stream: TcpStream, hub: &MetricsHub) -> io::Result<()> {
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    let mut head = Vec::with_capacity(512);
    let mut buf = [0u8; 512];
    loop {
        let n = stream.read(&mut buf)?;
        if n == 0 {
            break;
        }
        head.extend_from_slice(&buf[..n]);
        if head.windows(4).any(|w| w == b"\r\n\r\n") || head.windows(2).any(|w| w == b"\n\n") {
            break;
        }
        if head.len() > MAX_REQUEST_BYTES {
            return respond(
                &mut stream,
                "431 Request Header Fields Too Large",
                "text/plain; charset=utf-8",
                "request head too large\n",
            );
        }
    }
    let head = String::from_utf8_lossy(&head);
    let mut parts = head.lines().next().unwrap_or("").split_whitespace();
    let (method, path) = (parts.next().unwrap_or(""), parts.next().unwrap_or(""));
    if method != "GET" {
        return respond(
            &mut stream,
            "405 Method Not Allowed",
            "text/plain; charset=utf-8",
            "only GET is supported\n",
        );
    }
    // Route on the path alone; query strings are ignored.
    match path.split('?').next().unwrap_or("") {
        "/metrics" => respond(
            &mut stream,
            "200 OK",
            "text/plain; version=0.0.4; charset=utf-8",
            &hub.render(),
        ),
        "/slo" => respond(
            &mut stream,
            "200 OK",
            "application/json; charset=utf-8",
            &hub.slo_json(),
        ),
        "/series" => respond(
            &mut stream,
            "200 OK",
            "application/json; charset=utf-8",
            &hub.series_json(),
        ),
        "/healthz" => respond(&mut stream, "200 OK", "text/plain; charset=utf-8", "ok\n"),
        _ => respond(
            &mut stream,
            "404 Not Found",
            "text/plain; charset=utf-8",
            "unknown path; try /metrics, /slo, /series or /healthz\n",
        ),
    }
}

fn respond(stream: &mut TcpStream, status: &str, content_type: &str, body: &str) -> io::Result<()> {
    let head = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hub::HubConfig;
    use crate::sink::TraceEvent;

    /// Minimal test-side HTTP GET (status line, headers, body).
    fn get(addr: SocketAddr, path: &str) -> (String, String) {
        let mut s = TcpStream::connect(addr).expect("connect");
        write!(s, "GET {path} HTTP/1.1\r\nHost: test\r\n\r\n").expect("write");
        let mut out = String::new();
        s.read_to_string(&mut out).expect("read");
        let (head, body) = out.split_once("\r\n\r\n").expect("header/body split");
        (head.to_string(), body.to_string())
    }

    #[test]
    fn routes_render_and_shut_down_cleanly() {
        let hub = Arc::new(MetricsHub::new(HubConfig::default()));
        hub.on_record(0.1, 5, &TraceEvent::Admitted { arrival_s: 0.0 });
        hub.on_record(0.3, 5, &TraceEvent::FirstToken);
        hub.on_record(0.4, 5, &TraceEvent::Finished);
        let mut report = crate::expo::Exposition::new();
        report.counter("pit_requests_total", "Requests served", 1.0);
        hub.publish_final(report.clone());
        let server = ScrapeServer::bind(hub, "127.0.0.1:0").expect("bind");
        let addr = server.local_addr();

        let (head, body) = get(addr, "/metrics");
        assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
        let parsed = crate::expo::parse_exposition(&body).expect("scrape parses");
        assert_eq!(parsed.render(), body, "render ∘ parse is the identity");
        assert!(body.starts_with(&report.render()), "the report leads");

        let (head, body) = get(addr, "/slo");
        assert!(head.starts_with("HTTP/1.1 200 OK"));
        crate::json::JsonValue::parse(&body).expect("slo is JSON");

        let (head, body) = get(addr, "/series");
        assert!(head.starts_with("HTTP/1.1 200 OK"));
        let series = crate::json::JsonValue::parse(&body).expect("series is JSON");
        assert!(series.as_object().is_some());

        let (head, _) = get(addr, "/nope");
        assert!(head.starts_with("HTTP/1.1 404"));

        let mut s = TcpStream::connect(addr).expect("connect");
        write!(s, "POST /metrics HTTP/1.1\r\n\r\n").expect("write");
        let mut out = String::new();
        s.read_to_string(&mut out).expect("read");
        assert!(out.starts_with("HTTP/1.1 405"));

        let served = server.shutdown();
        assert!(served >= 5, "all requests counted, got {served}");
    }

    #[test]
    fn shutdown_handle_is_idempotent_and_unblocks_accept() {
        let hub = Arc::new(MetricsHub::with_defaults());
        let server = ScrapeServer::bind(hub, "127.0.0.1:0").expect("bind");
        let handle = server.handle();
        handle.shutdown();
        handle.shutdown();
        server.shutdown();
    }
}
