//! Zero-dependency live metrics endpoint.
//!
//! A tiny blocking HTTP/1.1 server on `127.0.0.1:<port>` serving two
//! routes from snapshots the runner publishes at slice boundaries:
//!
//! * `/metrics` — Prometheus exposition of the run's counts so far;
//! * `/timeline.jsonl` — the retained timeline rows as JSONL.
//!
//! Publishing copies pre-rendered strings under a mutex, so the server
//! never touches simulator state and cannot perturb the run: the endpoint
//! is digest-inert by construction. Shutdown sets a flag and self-connects
//! to unblock the accept loop — no async runtime, no extra crates.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// The strings the endpoint serves, refreshed by the publisher (the
/// runner's progress hook or the campaign executor's sink).
#[derive(Debug, Default)]
pub struct LiveState {
    metrics: Mutex<String>,
    timeline: Mutex<String>,
    hits: AtomicU64,
}

/// Lock a snapshot mutex, recovering from poisoning.
///
/// A publisher that panics while holding the lock poisons it; the payload
/// is a fully-replaced `String`, so the last-good snapshot inside is still
/// coherent. Serving stale-but-valid data (and letting the next publish
/// heal the state) beats a permanently dead `/metrics`.
fn lock_recover(m: &Mutex<String>) -> std::sync::MutexGuard<'_, String> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

impl LiveState {
    /// Fresh, empty state.
    pub fn new() -> LiveState {
        LiveState::default()
    }

    /// Replace the `/metrics` payload.
    pub fn publish_metrics(&self, exposition: String) {
        *lock_recover(&self.metrics) = exposition;
    }

    /// Replace the `/timeline.jsonl` payload.
    pub fn publish_timeline(&self, jsonl: String) {
        *lock_recover(&self.timeline) = jsonl;
    }

    /// Requests served so far (any route).
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Current `/metrics` payload.
    pub fn metrics_snapshot(&self) -> String {
        lock_recover(&self.metrics).clone()
    }

    /// Current `/timeline.jsonl` payload.
    pub fn timeline_snapshot(&self) -> String {
        lock_recover(&self.timeline).clone()
    }
}

/// A running endpoint; dropping without [`ServeHandle::stop`] detaches the
/// thread (it dies with the process).
#[derive(Debug)]
pub struct ServeHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl ServeHandle {
    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop the accept loop and join the server thread.
    pub fn stop(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the accept loop; an error just means it already exited.
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_millis(200));
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// Bind `127.0.0.1:<port>` (0 picks a free port) and serve `state` until
/// [`ServeHandle::stop`].
pub fn serve(port: u16, state: Arc<LiveState>) -> std::io::Result<ServeHandle> {
    let listener = TcpListener::bind(("127.0.0.1", port))?;
    let addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let stop_flag = Arc::clone(&stop);
    let thread = std::thread::Builder::new()
        .name("ccsim-serve".into())
        .spawn(move || {
            for conn in listener.incoming() {
                if stop_flag.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(mut stream) = conn else { continue };
                let _ = handle(&mut stream, &state);
                state.hits.fetch_add(1, Ordering::Relaxed);
            }
        })?;
    Ok(ServeHandle {
        addr,
        stop,
        thread: Some(thread),
    })
}

fn handle(stream: &mut TcpStream, state: &LiveState) -> std::io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_millis(500)))?;
    stream.set_write_timeout(Some(Duration::from_secs(2)))?;
    // Read up to the end of the request head; the routes take no body.
    let mut buf = [0u8; 2048];
    let mut head = Vec::new();
    loop {
        let n = stream.read(&mut buf)?;
        if n == 0 {
            break;
        }
        head.extend_from_slice(&buf[..n]);
        if head.windows(4).any(|w| w == b"\r\n\r\n") || head.len() > 16 * 1024 {
            break;
        }
    }
    let request_line = std::str::from_utf8(&head)
        .unwrap_or("")
        .lines()
        .next()
        .unwrap_or("");
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("");
    let (status, content_type, body) = if method != "GET" {
        (
            "405 Method Not Allowed",
            "text/plain",
            "GET only\n".to_string(),
        )
    } else {
        match path {
            "/metrics" => (
                "200 OK",
                "text/plain; version=0.0.4; charset=utf-8",
                state.metrics_snapshot(),
            ),
            "/timeline.jsonl" => (
                "200 OK",
                "application/x-ndjson; charset=utf-8",
                state.timeline_snapshot(),
            ),
            "/" => (
                "200 OK",
                "text/plain; charset=utf-8",
                "ccsim live endpoints:\n  /metrics\n  /timeline.jsonl\n".to_string(),
            ),
            _ => ("404 Not Found", "text/plain", "not found\n".to_string()),
        }
    };
    let response = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(response.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn get(addr: SocketAddr, path: &str) -> (String, String) {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .write_all(format!("GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").as_bytes())
            .unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        let (head, body) = response.split_once("\r\n\r\n").unwrap();
        (head.to_string(), body.to_string())
    }

    #[test]
    fn routes_serve_published_snapshots() {
        let state = Arc::new(LiveState::new());
        state.publish_metrics("ccsim_up 1\n".to_string());
        state.publish_timeline("{\"t\":1.0}\n".to_string());
        let handle = serve(0, Arc::clone(&state)).unwrap();
        let addr = handle.addr();

        let (head, body) = get(addr, "/metrics");
        assert!(head.starts_with("HTTP/1.1 200 OK"));
        assert!(head.contains("text/plain; version=0.0.4"));
        assert_eq!(body, "ccsim_up 1\n");

        let (head, body) = get(addr, "/timeline.jsonl");
        assert!(head.contains("application/x-ndjson"));
        assert_eq!(body, "{\"t\":1.0}\n");

        let (head, _) = get(addr, "/nope");
        assert!(head.starts_with("HTTP/1.1 404"));

        let (head, body) = get(addr, "/");
        assert!(head.starts_with("HTTP/1.1 200"));
        assert!(body.contains("/timeline.jsonl"));

        // Publishing swaps the payload live.
        state.publish_metrics("ccsim_up 2\n".to_string());
        let (_, body) = get(addr, "/metrics");
        assert_eq!(body, "ccsim_up 2\n");

        assert!(state.hits() >= 5);
        handle.stop();
    }

    #[test]
    fn endpoint_survives_a_poisoned_publisher() {
        let state = Arc::new(LiveState::new());
        state.publish_metrics("ccsim_up 1\n".to_string());
        state.publish_timeline("{\"t\":1.0}\n".to_string());

        // Poison both mutexes: a publisher panics while holding the guard.
        for _ in 0..2 {
            let poisoner = Arc::clone(&state);
            let _ = std::thread::spawn(move || {
                let _m = poisoner.metrics.lock().unwrap();
                panic!("publisher died mid-publish");
            })
            .join();
            let poisoner = Arc::clone(&state);
            let _ = std::thread::spawn(move || {
                let _t = poisoner.timeline.lock().unwrap();
                panic!("publisher died mid-publish");
            })
            .join();
        }
        assert!(state.metrics.is_poisoned());
        assert!(state.timeline.is_poisoned());

        // The endpoint still serves the last-good snapshots.
        let handle = serve(0, Arc::clone(&state)).unwrap();
        let addr = handle.addr();
        let (head, body) = get(addr, "/metrics");
        assert!(head.starts_with("HTTP/1.1 200 OK"));
        assert_eq!(body, "ccsim_up 1\n");
        let (head, body) = get(addr, "/timeline.jsonl");
        assert!(head.starts_with("HTTP/1.1 200 OK"));
        assert_eq!(body, "{\"t\":1.0}\n");

        // And a later publish heals the state rather than panicking.
        state.publish_metrics("ccsim_up 2\n".to_string());
        let (_, body) = get(addr, "/metrics");
        assert_eq!(body, "ccsim_up 2\n");
        handle.stop();
    }

    #[test]
    fn stop_joins_the_server_thread() {
        let handle = serve(0, Arc::new(LiveState::new())).unwrap();
        let addr = handle.addr();
        handle.stop();
        // The listener is gone (or refuses) after stop.
        let again = TcpStream::connect_timeout(&addr, Duration::from_millis(200));
        if let Ok(mut s) = again {
            let mut buf = Vec::new();
            let _ = s.write_all(b"GET / HTTP/1.1\r\n\r\n");
            let n = s.read_to_end(&mut buf).unwrap_or(0);
            assert_eq!(n, 0, "no handler behind the socket");
        }
    }
}
