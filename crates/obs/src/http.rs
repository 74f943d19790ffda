//! Minimal HTTP/1.0 `GET /metrics` listener so standard Prometheus
//! scrapers (or plain `curl`) can read a registry without any HTTP
//! dependency. One accept thread handles connections serially — scrapes
//! are rare, tiny, and read-only, so there is nothing to parallelize.
//!
//! With [`MetricsServer::bind_with_health`] the same listener also answers
//! `GET /healthz`: `200 ready` while the supplied readiness flag is set,
//! `503 draining` once it clears — the probe surface a load balancer (or a
//! test) watches while a server drains.

// No panic outside a reasoned `#[expect]` in this module; clippy.toml exempts test code.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Largest request head we will buffer before giving up (no request we
/// serve has meaningful headers, so this is purely a flood guard).
const MAX_REQUEST_BYTES: usize = 8 * 1024;

/// Per-connection socket timeout: a stalled scraper cannot wedge the
/// accept thread for longer than this.
const IO_TIMEOUT: Duration = Duration::from_secs(2);

/// A running metrics endpoint. Shuts down (and joins its thread) on drop.
pub struct MetricsServer {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl MetricsServer {
    /// Bind `addr` (e.g. `127.0.0.1:0`) and serve `render()` as
    /// `text/plain` on `GET /metrics`. Every other path is a 404 and every
    /// other method a 405; connections close after one response.
    pub fn bind<A: ToSocketAddrs>(
        addr: A,
        render: Arc<dyn Fn() -> String + Send + Sync>,
    ) -> std::io::Result<MetricsServer> {
        Self::bind_with_health(addr, render, None)
    }

    /// [`MetricsServer::bind`] plus a readiness probe: `GET /healthz`
    /// answers `200 ready` while `ready` holds `true` and `503 draining`
    /// once it holds `false`. Without a flag (`None`), `/healthz` is
    /// unroutable (404) — exactly the old surface.
    pub fn bind_with_health<A: ToSocketAddrs>(
        addr: A,
        render: Arc<dyn Fn() -> String + Send + Sync>,
        ready: Option<Arc<AtomicBool>>,
    ) -> std::io::Result<MetricsServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&shutdown);
        let thread = std::thread::Builder::new()
            .name("obs-metrics-http".to_string())
            .spawn(move || accept_loop(listener, &flag, &render, ready.as_ref()))?;
        Ok(MetricsServer { addr, shutdown, thread: Some(thread) })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::Relaxed);
        // Wake the blocking accept with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

fn accept_loop(
    listener: TcpListener,
    shutdown: &AtomicBool,
    render: &Arc<dyn Fn() -> String + Send + Sync>,
    ready: Option<&Arc<AtomicBool>>,
) {
    for stream in listener.incoming() {
        if shutdown.load(Ordering::Relaxed) {
            return;
        }
        let Ok(stream) = stream else { continue };
        let _ = handle_connection(stream, render, ready);
    }
}

fn handle_connection(
    mut stream: TcpStream,
    render: &Arc<dyn Fn() -> String + Send + Sync>,
    ready: Option<&Arc<AtomicBool>>,
) -> std::io::Result<()> {
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;

    // Read until the end of the request head (or our size cap).
    let mut head = Vec::with_capacity(256);
    let mut chunk = [0u8; 512];
    loop {
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            break;
        }
        #[expect(
            clippy::indexing_slicing,
            reason = "n is the byte count read() just returned, bounded by chunk.len()"
        )]
        head.extend_from_slice(&chunk[..n]);
        if head.windows(4).any(|w| w == b"\r\n\r\n") || head.len() >= MAX_REQUEST_BYTES {
            break;
        }
    }

    let request_line =
        std::str::from_utf8(&head).ok().and_then(|text| text.lines().next()).unwrap_or("");
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("");

    let (status, body) = if method != "GET" {
        ("405 Method Not Allowed", "method not allowed\n".to_string())
    } else if path == "/metrics" || path.starts_with("/metrics?") {
        ("200 OK", render())
    } else if let ("/healthz", Some(ready)) = (path, ready) {
        // Acquire pairs with the server's Release flip of the readiness flag at drain start.
        if ready.load(Ordering::Acquire) {
            ("200 OK", "ready\n".to_string())
        } else {
            ("503 Service Unavailable", "draining\n".to_string())
        }
    } else {
        ("404 Not Found", "not found; try /metrics\n".to_string())
    };

    let response = format!(
        "HTTP/1.0 {status}\r\n\
         Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n\
         Content-Length: {}\r\n\
         Connection: close\r\n\r\n{body}",
        body.len(),
    );
    stream.write_all(response.as_bytes())?;
    let _ = stream.shutdown(Shutdown::Both);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader, Write};

    fn scrape(addr: SocketAddr, request: &str) -> (String, String) {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(request.as_bytes()).unwrap();
        let mut reader = BufReader::new(stream);
        let mut status = String::new();
        reader.read_line(&mut status).unwrap();
        let mut body = String::new();
        // Skip headers, then read the body to EOF.
        loop {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            if line == "\r\n" || line.is_empty() {
                break;
            }
        }
        std::io::Read::read_to_string(&mut reader, &mut body).unwrap();
        (status.trim_end().to_string(), body)
    }

    #[test]
    fn serves_metrics_and_rejects_other_paths() {
        let server =
            MetricsServer::bind("127.0.0.1:0", Arc::new(|| "g_up 1\n".to_string())).unwrap();
        let addr = server.local_addr();

        let (status, body) = scrape(addr, "GET /metrics HTTP/1.0\r\n\r\n");
        assert_eq!(status, "HTTP/1.0 200 OK");
        assert_eq!(body, "g_up 1\n");

        let (status, _) = scrape(addr, "GET /other HTTP/1.0\r\n\r\n");
        assert_eq!(status, "HTTP/1.0 404 Not Found");

        let (status, _) = scrape(addr, "POST /metrics HTTP/1.0\r\n\r\n");
        assert_eq!(status, "HTTP/1.0 405 Method Not Allowed");
    }

    #[test]
    fn healthz_follows_the_readiness_flag() {
        let ready = Arc::new(AtomicBool::new(true));
        let server = MetricsServer::bind_with_health(
            "127.0.0.1:0",
            Arc::new(|| "g_up 1\n".to_string()),
            Some(Arc::clone(&ready)),
        )
        .unwrap();
        let addr = server.local_addr();

        let (status, body) = scrape(addr, "GET /healthz HTTP/1.0\r\n\r\n");
        assert_eq!(status, "HTTP/1.0 200 OK");
        assert_eq!(body, "ready\n");

        ready.store(false, Ordering::Release);
        let (status, body) = scrape(addr, "GET /healthz HTTP/1.0\r\n\r\n");
        assert_eq!(status, "HTTP/1.0 503 Service Unavailable");
        assert_eq!(body, "draining\n");

        // /metrics keeps serving through a drain (scrapes stay possible).
        let (status, _) = scrape(addr, "GET /metrics HTTP/1.0\r\n\r\n");
        assert_eq!(status, "HTTP/1.0 200 OK");

        // Without a flag the path stays a 404, as before.
        let plain =
            MetricsServer::bind("127.0.0.1:0", Arc::new(|| "g_up 1\n".to_string())).unwrap();
        let (status, _) = scrape(plain.local_addr(), "GET /healthz HTTP/1.0\r\n\r\n");
        assert_eq!(status, "HTTP/1.0 404 Not Found");
    }

    #[test]
    fn drop_shuts_the_listener_down() {
        let server = MetricsServer::bind("127.0.0.1:0", Arc::new(String::new)).unwrap();
        let addr = server.local_addr();
        drop(server);
        // After drop the port should refuse or reset rather than serve.
        match TcpStream::connect(addr) {
            Err(_) => {}
            Ok(mut stream) => {
                let _ = stream.write_all(b"GET /metrics HTTP/1.0\r\n\r\n");
                let mut buf = Vec::new();
                // Either an error or an empty response is acceptable; a
                // full 200 would mean the server is still alive.
                if stream.read_to_end(&mut buf).is_ok() {
                    assert!(buf.is_empty(), "listener survived drop");
                }
            }
        }
    }
}
