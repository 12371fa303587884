//! Minimal blocking HTTP/1.1 client for tests, E27's HTTP load and the
//! `perfbench` `serve` workload.
//!
//! Speaks exactly the dialect the server emits: `Content-Length`
//! framed bodies over a keep-alive connection. Not a general HTTP
//! client — it exists so the conformance and differential tests need
//! no external tooling.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};

/// A keep-alive connection to one server.
pub struct HttpClient {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl HttpClient {
    /// Connect to `addr`.
    pub fn connect(addr: SocketAddr) -> io::Result<HttpClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(HttpClient {
            stream,
            buf: Vec::with_capacity(1024),
        })
    }

    /// Issue one request and read the full response body.
    ///
    /// Returns `(status, body)`. The connection stays usable for the
    /// next request unless the server answered `Connection: close`.
    pub fn request(&mut self, method: &str, path: &str, body: &str) -> io::Result<(u16, String)> {
        let head = format!(
            "{method} {path} HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\n\r\n",
            body.len()
        );
        self.stream.write_all(head.as_bytes())?;
        self.stream.write_all(body.as_bytes())?;
        self.stream.flush()?;
        self.read_response()
    }

    fn fill(&mut self) -> io::Result<bool> {
        let mut chunk = [0u8; 4096];
        let n = self.stream.read(&mut chunk)?;
        if n == 0 {
            return Ok(false);
        }
        self.buf.extend_from_slice(&chunk[..n]);
        Ok(true)
    }

    fn read_response(&mut self) -> io::Result<(u16, String)> {
        let header_end = loop {
            if let Some(pos) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break pos;
            }
            if !self.fill()? {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed before response headers",
                ));
            }
        };
        let head = String::from_utf8_lossy(&self.buf[..header_end]).into_owned();
        self.buf.drain(..header_end + 4);
        let mut lines = head.split("\r\n");
        let status_line = lines.next().unwrap_or("");
        let status: u16 = status_line
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad status line"))?;
        let mut content_length = 0usize;
        for line in lines {
            if let Some((name, value)) = line.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    content_length = value.trim().parse().unwrap_or(0);
                }
            }
        }
        while self.buf.len() < content_length {
            if !self.fill()? {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed mid-body",
                ));
            }
        }
        let body = String::from_utf8_lossy(&self.buf[..content_length]).into_owned();
        self.buf.drain(..content_length);
        Ok((status, body))
    }
}

impl std::fmt::Debug for HttpClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HttpClient").finish_non_exhaustive()
    }
}
