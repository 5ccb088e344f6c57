//! A minimal keep-alive HTTP/1.1 client for the load generator: it
//! writes pre-rendered request bytes, reads a `Content-Length` or a
//! chunked response, and stamps the clock as each streamed chunk is
//! read. Nothing here is shared with the server under test.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Instant;

/// What the client saw of one completion.
#[derive(Debug, Clone, Default)]
pub struct Reply {
    /// HTTP status code.
    pub status: u16,
    /// Generated tokens in arrival order.
    pub tokens: Vec<usize>,
    /// When the first token was read (streamed replies only).
    pub first_token: Option<Instant>,
    /// Gaps between consecutive streamed token chunks, milliseconds.
    pub gaps_ms: Vec<f32>,
    /// The scheduler's id for this request (`cmpl-<id>`).
    pub server_id: u64,
    /// Server-reported arrival → completion, milliseconds.
    pub server_latency_ms: f64,
}

/// One keep-alive connection.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    line: String,
    buf: Vec<u8>,
}

/// The number that follows `key` in `hay` (digits, optional fraction).
pub fn num_after(hay: &[u8], key: &[u8]) -> Option<f64> {
    let at = hay.windows(key.len()).position(|w| w == key)? + key.len();
    let end = hay[at..]
        .iter()
        .position(|b| !(b.is_ascii_digit() || *b == b'.' || *b == b'-'))
        .map_or(hay.len(), |n| at + n);
    std::str::from_utf8(&hay[at..end]).ok()?.parse().ok()
}

fn bad(msg: &str) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg.to_string())
}

impl Conn {
    /// Connect with `TCP_NODELAY`, as a latency-sensitive client would.
    pub fn open(addr: SocketAddr) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(std::time::Duration::from_secs(60)))?;
        let writer = stream.try_clone()?;
        Ok(Self {
            reader: BufReader::new(stream),
            writer,
            line: String::new(),
            buf: Vec::new(),
        })
    }

    fn read_line(&mut self) -> std::io::Result<&str> {
        self.line.clear();
        if self.reader.read_line(&mut self.line)? == 0 {
            return Err(bad("server closed the connection"));
        }
        Ok(self.line.trim_end())
    }

    /// Send one pre-rendered request and read its whole reply.
    pub fn roundtrip(&mut self, request: &[u8]) -> std::io::Result<Reply> {
        self.writer.write_all(request)?;
        let mut reply = Reply::default();
        let status_line = self.read_line()?;
        reply.status = status_line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("malformed status line"))?;
        let (mut length, mut chunked) = (0usize, false);
        loop {
            let line = self.read_line()?;
            if line.is_empty() {
                break;
            }
            let lower = line.to_ascii_lowercase();
            if let Some(v) = lower.strip_prefix("content-length:") {
                length = v.trim().parse().map_err(|_| bad("bad content-length"))?;
            } else if lower.starts_with("transfer-encoding:") && lower.contains("chunked") {
                chunked = true;
            }
        }
        if !chunked {
            self.buf.resize(length, 0);
            self.reader.read_exact(&mut self.buf)?;
            if reply.status == 200 {
                let body = std::mem::take(&mut self.buf);
                parse_body(&body, &mut reply)?;
                self.buf = body;
            }
            return Ok(reply);
        }
        let mut last: Option<Instant> = None;
        loop {
            let size =
                usize::from_str_radix(self.read_line()?, 16).map_err(|_| bad("bad chunk size"))?;
            // Chunk data is followed by CRLF; the last chunk is empty.
            self.buf.resize(size + 2, 0);
            self.reader.read_exact(&mut self.buf)?;
            if size == 0 {
                return Ok(reply);
            }
            let now = Instant::now();
            let chunk = &self.buf[..size];
            if let Some(tok) = num_after(chunk, b"\"token\":") {
                reply.tokens.push(tok as usize);
                match last {
                    None => reply.first_token = Some(now),
                    Some(prev) => reply
                        .gaps_ms
                        .push(now.duration_since(prev).as_secs_f32() * 1e3),
                }
                last = Some(now);
            } else if chunk.starts_with(b"{\"done\":true,\"id\"") {
                read_done_fields(chunk, &mut reply)?;
            } else {
                // `"reason":"shed" | "expired" | "shutdown"`: not a completion.
                reply.status = 0;
            }
        }
    }
}

fn read_done_fields(json: &[u8], reply: &mut Reply) -> std::io::Result<()> {
    reply.server_id = num_after(json, b"\"id\":\"cmpl-").ok_or_else(|| bad("no id"))? as u64;
    reply.server_latency_ms =
        num_after(json, b"\"latency_ms\":").ok_or_else(|| bad("no latency_ms"))?;
    Ok(())
}

fn parse_body(body: &[u8], reply: &mut Reply) -> std::io::Result<()> {
    read_done_fields(body, reply)?;
    let key = b"\"tokens\":[";
    let at = body
        .windows(key.len())
        .position(|w| w == key)
        .ok_or_else(|| bad("no tokens"))?
        + key.len();
    let end = body[at..]
        .iter()
        .position(|b| *b == b']')
        .ok_or_else(|| bad("open tokens"))?
        + at;
    let list = std::str::from_utf8(&body[at..end]).map_err(|_| bad("tokens not UTF-8"))?;
    for t in list.split(',').filter(|t| !t.is_empty()) {
        reply.tokens.push(t.parse().map_err(|_| bad("bad token"))?);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn number_scanner() {
        assert_eq!(
            num_after(b"{\"index\":3,\"token\":417}\n", b"\"token\":"),
            Some(417.0)
        );
        assert_eq!(
            num_after(b"\"ttft_ms\":12.250,\"x\"", b"\"ttft_ms\":"),
            Some(12.25)
        );
        assert_eq!(num_after(b"{\"a\":1}", b"\"b\":"), None);
    }

    #[test]
    fn body_fields() {
        let body = br#"{"id":"cmpl-42","object":"text_completion","model":"llmpq","tokens":[5,6,7],"usage":{"completion_tokens":3},"ttft_ms":1.500,"latency_ms":9.000}"#;
        let mut r = Reply::default();
        parse_body(body, &mut r).unwrap();
        assert_eq!((r.server_id, r.tokens.clone()), (42, vec![5, 6, 7]));
        assert_eq!(r.server_latency_ms, 9.0);
    }
}
