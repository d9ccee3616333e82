//! The load generator's own HTTP/1.1 response framing, and a blocking
//! one-shot client for control requests.
//!
//! Deliberately independent of `dandelion_http`'s decoders: the generator
//! shares two cores with the server, so its cost per response must not move
//! when a later PR changes the code under test.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Upper bound on a response head; a server that sends more is broken.
const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Upper bound on a body the generator will buffer (the largest workload
/// response is 128 KiB).
const MAX_BODY_BYTES: usize = 64 * 1024 * 1024;

/// The head of one framed response; the body is the `body_len` bytes after
/// `head_len` in the buffer it was framed from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Framed {
    pub status: u16,
    /// The number in an `X-Dandelion-Node: node-N` header, when present.
    pub node: Option<u32>,
    pub head_len: usize,
    pub body_len: usize,
}

impl Framed {
    pub fn total_len(&self) -> usize {
        self.head_len + self.body_len
    }
}

fn malformed(what: &str) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("malformed response: {what}"),
    )
}

/// Frames the first response in `buffer`: `Ok(None)` while it is incomplete.
pub fn frame_response(buffer: &[u8]) -> io::Result<Option<Framed>> {
    let window = &buffer[..buffer.len().min(MAX_HEAD_BYTES)];
    let Some(head_end) = window.windows(4).position(|bytes| bytes == b"\r\n\r\n") else {
        if buffer.len() >= MAX_HEAD_BYTES {
            return Err(malformed("head too large"));
        }
        return Ok(None);
    };
    let head = std::str::from_utf8(&buffer[..head_end]).map_err(|_| malformed("head not UTF-8"))?;
    let mut lines = head.split("\r\n");
    let status = lines
        .next()
        .and_then(|line| line.split(' ').nth(1))
        .and_then(|code| code.parse::<u16>().ok())
        .ok_or_else(|| malformed("status line"))?;
    let mut body_len = 0usize;
    let mut node = None;
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            return Err(malformed("header line"));
        };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            body_len = value.parse().map_err(|_| malformed("content-length"))?;
            if body_len > MAX_BODY_BYTES {
                return Err(malformed("body too large"));
            }
        } else if name.eq_ignore_ascii_case("x-dandelion-node") {
            let digits = value.trim_start_matches(|ch: char| !ch.is_ascii_digit());
            node = Some(digits.parse().map_err(|_| malformed("node id"))?);
        }
    }
    let framed = Framed {
        status,
        node,
        head_len: head_end + 4,
        body_len,
    };
    Ok((buffer.len() >= framed.total_len()).then_some(framed))
}

/// A complete response read by [`request_once`].
pub struct Response {
    pub status: u16,
    pub node: Option<u32>,
    pub body: Vec<u8>,
}

/// Reads from a blocking `stream` into `buffer` (cleared first) until it
/// holds one whole response, and returns its framing.
pub fn read_response(stream: &mut TcpStream, buffer: &mut Vec<u8>) -> io::Result<Framed> {
    buffer.clear();
    let mut chunk = [0u8; 64 * 1024];
    loop {
        if let Some(framed) = frame_response(buffer)? {
            return Ok(framed);
        }
        let read = stream.read(&mut chunk)?;
        if read == 0 {
            return Err(io::ErrorKind::UnexpectedEof.into());
        }
        buffer.extend_from_slice(&chunk[..read]);
    }
}

/// Sends `wire` on a fresh connection and reads one response, bounded by
/// `timeout` on connect, write and every read.
pub fn request_once(addr: SocketAddr, wire: &[u8], timeout: Duration) -> io::Result<Response> {
    let mut stream = TcpStream::connect_timeout(&addr, timeout)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    stream.write_all(wire)?;
    let mut buffer = Vec::with_capacity(4096);
    let framed = read_response(&mut stream, &mut buffer)?;
    Ok(Response {
        status: framed.status,
        node: framed.node,
        body: buffer[framed.head_len..framed.total_len()].to_vec(),
    })
}

/// `GET path` on a fresh connection.
pub fn get(addr: SocketAddr, path: &str, timeout: Duration) -> io::Result<Response> {
    let wire = format!("GET {path} HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n");
    request_once(addr, wire.as_bytes(), timeout)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_partial_complete_and_pipelined_responses() {
        let wire = b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\nX-Dandelion-Node: node-12\r\n\r\nhelloHTTP/1.1 404";
        for cut in 0..68 {
            assert_eq!(frame_response(&wire[..cut]).unwrap(), None, "cut {cut}");
        }
        let framed = frame_response(wire).unwrap().unwrap();
        assert_eq!(
            (framed.status, framed.node, framed.body_len),
            (200, Some(12), 5)
        );
        assert_eq!(&wire[framed.head_len..framed.total_len()], b"hello");
        // No Content-Length means no body.
        let empty = frame_response(b"HTTP/1.1 204 No Content\r\n\r\n")
            .unwrap()
            .unwrap();
        assert_eq!((empty.status, empty.body_len, empty.node), (204, 0, None));
    }

    #[test]
    fn rejects_garbage_instead_of_waiting_forever() {
        assert!(frame_response(b"nonsense\r\n\r\n").is_err());
        assert!(frame_response(b"HTTP/1.1 200 OK\r\nContent-Length: x\r\n\r\n").is_err());
        assert!(frame_response(&vec![b'a'; MAX_HEAD_BYTES]).is_err());
    }
}
