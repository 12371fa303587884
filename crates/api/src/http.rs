//! Std-only HTTP/1.1 front-end over [`QueryService`].
//!
//! No async runtime exists in `vendor/`, and none is needed: the
//! server is a blocking accept loop fanning connections out to a
//! fixed thread pool over a bounded crossbeam channel (the same
//! backpressure shape as the MQTT broker). Each worker owns a clone of
//! the service (all state is `Arc`-shared) and serves keep-alive
//! request streams until the peer closes, asks to, or goes quiet for
//! a second.
//!
//! The parser is deliberately paranoid — request lines, header blocks
//! and bodies are all hard-capped, partial reads never panic, and any
//! violation maps to a definite 4xx or a silent drop:
//!
//! | violation | answer |
//! |---|---|
//! | malformed request line / headers | 400, close |
//! | header block over [`ApiServerConfig::max_header_bytes`] | 431, close |
//! | body over [`ApiServerConfig::max_body_bytes`] | 413, close |
//! | truncated body (peer died mid-request) | drop connection |
//! | socket read or write blocked for 1 s (idle or stalled peer) | drop connection |
//! | unknown path | 404 |
//! | known path, wrong method | 405 + `Allow` |

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use davide_telemetry::SeriesRead;

use crate::service::QueryService;
use crate::types::{
    ApiError, JobProfileRequest, JobRollupRequest, QueryRequest, UserRollupRequest, API_VERSION,
};

/// How long one socket read or write may block before the worker drops
/// the connection. An idle keep-alive client therefore holds a worker
/// for at most this long, and [`RunningServer::stop`] waits at most
/// this long for a worker to notice shutdown.
const IO_TIMEOUT: Duration = Duration::from_secs(1);

/// Server limits and sizing.
#[derive(Debug, Clone)]
pub struct ApiServerConfig {
    /// Bind address (`127.0.0.1:0` picks a free port).
    pub addr: String,
    /// Worker threads serving connections.
    pub workers: usize,
    /// Pending-connection queue depth (accept blocks the peer beyond
    /// this).
    pub queue_depth: usize,
    /// Cap on request line + headers, bytes.
    pub max_header_bytes: usize,
    /// Cap on a request body, bytes.
    pub max_body_bytes: usize,
}

impl Default for ApiServerConfig {
    fn default() -> Self {
        ApiServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            queue_depth: 1024,
            max_header_bytes: 8192,
            max_body_bytes: 1 << 20,
        }
    }
}

/// A started server; dropping it (or calling [`RunningServer::stop`])
/// shuts the listener and joins every worker.
pub struct RunningServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
}

impl RunningServer {
    /// The bound address (with the real port when `:0` was requested).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Signal shutdown and join the accept loop and every worker.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        if self.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        // Wake the blocking accept with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for RunningServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl std::fmt::Debug for RunningServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunningServer")
            .field("addr", &self.addr)
            .finish_non_exhaustive()
    }
}

/// The HTTP front-end: binds, spawns the pool, serves until stopped.
pub struct ApiServer;

impl ApiServer {
    /// Bind and start serving `service` on `cfg.addr`.
    pub fn start<S>(service: QueryService<S>, cfg: ApiServerConfig) -> io::Result<RunningServer>
    where
        S: SeriesRead + Send + Sync + 'static,
    {
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let (tx, rx) = crossbeam::channel::bounded::<TcpStream>(cfg.queue_depth.max(1));

        let mut threads = Vec::with_capacity(cfg.workers + 1);
        for _ in 0..cfg.workers.max(1) {
            let rx = rx.clone();
            let svc = service.clone();
            let cfg = cfg.clone();
            let stop = stop.clone();
            threads.push(std::thread::spawn(move || loop {
                match rx.recv_timeout(Duration::from_millis(50)) {
                    Ok(stream) => serve_connection(stream, &svc, &cfg),
                    Err(_) => {
                        if stop.load(Ordering::SeqCst) {
                            break;
                        }
                    }
                }
            }));
        }

        let stop_accept = stop.clone();
        threads.push(std::thread::spawn(move || {
            for conn in listener.incoming() {
                if stop_accept.load(Ordering::SeqCst) {
                    break;
                }
                if let Ok(stream) = conn {
                    // send() blocks when the queue is full: backpressure
                    // lands on the unaccepted-connection backlog.
                    if tx.send(stream).is_err() {
                        break;
                    }
                }
            }
        }));

        Ok(RunningServer {
            addr,
            stop,
            threads,
        })
    }
}

/// Why a request could not be read.
enum ReadError {
    /// Clean end of stream between requests.
    Eof,
    /// I/O failure or peer death mid-request.
    Io,
    /// Protocol violation with the status to answer before closing.
    Bad(u16),
}

struct Request {
    method: String,
    path: String,
    http11: bool,
    close: bool,
    body: Vec<u8>,
}

/// Buffered connection reader surviving across keep-alive requests.
struct ConnReader {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl ConnReader {
    /// Pull more bytes; `Ok(false)` on clean EOF.
    fn fill(&mut self) -> io::Result<bool> {
        let mut chunk = [0u8; 4096];
        let n = self.stream.read(&mut chunk)?;
        if n == 0 {
            return Ok(false);
        }
        self.buf.extend_from_slice(&chunk[..n]);
        Ok(true)
    }

    /// Read one full request (header block + body) off the stream.
    fn read_request(&mut self, cfg: &ApiServerConfig) -> Result<Request, ReadError> {
        // Accumulate until the blank line ending the header block.
        let header_end = loop {
            if let Some(pos) = find_subslice(&self.buf, b"\r\n\r\n") {
                break pos;
            }
            if self.buf.len() > cfg.max_header_bytes {
                return Err(ReadError::Bad(431));
            }
            match self.fill() {
                Ok(true) => {}
                Ok(false) => {
                    return if self.buf.is_empty() {
                        Err(ReadError::Eof)
                    } else {
                        // Peer died mid-header: nothing sane to answer.
                        Err(ReadError::Io)
                    };
                }
                Err(_) => return Err(ReadError::Io),
            }
        };
        if header_end > cfg.max_header_bytes {
            return Err(ReadError::Bad(431));
        }
        let head = self.buf[..header_end].to_vec();
        self.buf.drain(..header_end + 4);
        let head = match std::str::from_utf8(&head) {
            Ok(s) => s,
            Err(_) => return Err(ReadError::Bad(400)),
        };
        let mut lines = head.split("\r\n");
        let request_line = lines.next().unwrap_or("");
        let mut parts = request_line.split(' ');
        let (method, path, version) = match (parts.next(), parts.next(), parts.next(), parts.next())
        {
            (Some(m), Some(p), Some(v), None) if !m.is_empty() && p.starts_with('/') => {
                (m.to_string(), p.to_string(), v)
            }
            _ => return Err(ReadError::Bad(400)),
        };
        let http11 = match version {
            "HTTP/1.1" => true,
            "HTTP/1.0" => false,
            _ => return Err(ReadError::Bad(400)),
        };

        let mut content_length: usize = 0;
        let mut close = !http11;
        for line in lines {
            let Some((name, value)) = line.split_once(':') else {
                return Err(ReadError::Bad(400));
            };
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                content_length = match value.parse::<usize>() {
                    Ok(n) => n,
                    Err(_) => return Err(ReadError::Bad(400)),
                };
            } else if name.eq_ignore_ascii_case("connection") {
                if value.eq_ignore_ascii_case("close") {
                    close = true;
                } else if value.eq_ignore_ascii_case("keep-alive") {
                    close = false;
                }
            }
        }
        if content_length > cfg.max_body_bytes {
            return Err(ReadError::Bad(413));
        }
        while self.buf.len() < content_length {
            match self.fill() {
                Ok(true) => {}
                // Truncated body: the peer died mid-request. There is
                // no answer that helps; drop the connection.
                Ok(false) | Err(_) => return Err(ReadError::Io),
            }
        }
        let body = self.buf[..content_length].to_vec();
        self.buf.drain(..content_length);
        Ok(Request {
            method,
            path,
            http11,
            close,
            body,
        })
    }
}

fn find_subslice(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        _ => "Unknown",
    }
}

struct Reply {
    status: u16,
    body: String,
    content_type: &'static str,
    allow: Option<&'static str>,
}

impl Reply {
    fn json(status: u16, body: String) -> Self {
        Reply {
            status,
            body,
            content_type: "application/json",
            allow: None,
        }
    }

    fn error(err: &ApiError) -> Self {
        Reply::json(err.status(), serde_json::to_string(&err.to_value()))
    }

    fn method_not_allowed(allow: &'static str) -> Self {
        Reply {
            status: 405,
            body: format!(r#"{{"error":"method not allowed","version":"{API_VERSION}"}}"#),
            content_type: "application/json",
            allow: Some(allow),
        }
    }
}

fn write_reply(stream: &mut TcpStream, reply: &Reply, http11: bool, close: bool) -> io::Result<()> {
    let version = if http11 { "HTTP/1.1" } else { "HTTP/1.0" };
    let mut head = format!(
        "{version} {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\n",
        reply.status,
        reason(reply.status),
        reply.content_type,
        reply.body.len()
    );
    if let Some(allow) = reply.allow {
        head.push_str("Allow: ");
        head.push_str(allow);
        head.push_str("\r\n");
    }
    head.push_str(if close {
        "Connection: close\r\n\r\n"
    } else {
        "Connection: keep-alive\r\n\r\n"
    });
    stream.write_all(head.as_bytes())?;
    stream.write_all(reply.body.as_bytes())?;
    stream.flush()
}

fn serve_connection<S: SeriesRead>(
    stream: TcpStream,
    svc: &QueryService<S>,
    cfg: &ApiServerConfig,
) {
    let _ = stream.set_nodelay(true);
    // A timed-out read ends the connection through `ReadError::Io`.
    let _ = stream.set_read_timeout(Some(IO_TIMEOUT));
    let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
    let mut reader = ConnReader {
        stream,
        buf: Vec::with_capacity(1024),
    };
    loop {
        match reader.read_request(cfg) {
            Ok(req) => {
                let reply = dispatch(svc, &req);
                let close = req.close || reply.status >= 400 && reply.status != 404;
                if write_reply(&mut reader.stream, &reply, req.http11, close).is_err() {
                    return;
                }
                if close {
                    return;
                }
            }
            Err(ReadError::Eof) | Err(ReadError::Io) => return,
            Err(ReadError::Bad(status)) => {
                let body = format!(
                    r#"{{"error":"{}","version":"{API_VERSION}"}}"#,
                    reason(status)
                );
                let _ = write_reply(&mut reader.stream, &Reply::json(status, body), true, true);
                return;
            }
        }
    }
}

/// Route one parsed request through the service.
fn dispatch<S: SeriesRead>(svc: &QueryService<S>, req: &Request) -> Reply {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/health") => Reply::json(200, serde_json::to_string(&svc.health().to_value())),
        ("GET", "/v1/trace/grants") => {
            Reply::json(200, serde_json::to_string(&svc.trace_grants().to_value()))
        }
        ("GET", "/v1/obs/metrics") => {
            Reply::json(200, serde_json::to_string(&svc.obs_metrics().to_value()))
        }
        ("GET", "/v1/obs/flight") => {
            Reply::json(200, serde_json::to_string(&svc.obs_flight().to_value()))
        }
        ("GET", "/metrics") => Reply {
            status: 200,
            body: svc.metrics_text(),
            content_type: "text/plain; version=0.0.4",
            allow: None,
        },
        ("POST", "/v1/query") => post_json(req, |v| {
            let q = QueryRequest::from_value(v)?;
            Ok(serde_json::to_string(&svc.query(&q)?.to_value()))
        }),
        ("POST", "/v1/rollup/user") => post_json(req, |v| {
            let q = UserRollupRequest::from_value(v)?;
            Ok(serde_json::to_string(&svc.rollup_user(&q)?.to_value()))
        }),
        ("POST", "/v1/rollup/job") => post_json(req, |v| {
            let q = JobRollupRequest::from_value(v)?;
            Ok(serde_json::to_string(&svc.rollup_job(&q)?.to_value()))
        }),
        ("POST", "/v1/profile/job") => post_json(req, |v| {
            let q = JobProfileRequest::from_value(v)?;
            Ok(serde_json::to_string(&svc.profile_job(&q)?.to_value()))
        }),
        (_, "/health")
        | (_, "/metrics")
        | (_, "/v1/trace/grants")
        | (_, "/v1/obs/metrics")
        | (_, "/v1/obs/flight") => Reply::method_not_allowed("GET"),
        (_, "/v1/query")
        | (_, "/v1/rollup/user")
        | (_, "/v1/rollup/job")
        | (_, "/v1/profile/job") => Reply::method_not_allowed("POST"),
        _ => Reply::json(
            404,
            format!(r#"{{"error":"no such endpoint","version":"{API_VERSION}"}}"#),
        ),
    }
}

fn post_json(
    req: &Request,
    f: impl FnOnce(&serde_json::Value) -> Result<String, ApiError>,
) -> Reply {
    let text = match std::str::from_utf8(&req.body) {
        Ok(t) => t,
        Err(_) => {
            return Reply::error(&ApiError::BadRequest("body must be UTF-8 JSON".into()));
        }
    };
    let value = match serde_json::from_str(text) {
        Ok(v) => v,
        Err(e) => return Reply::error(&ApiError::BadRequest(format!("invalid JSON: {e}"))),
    };
    match f(&value) {
        Ok(body) => Reply::json(200, body),
        Err(e) => Reply::error(&e),
    }
}
