//! A minimal blocking HTTP/1.1 client for loopback benchmarking and tests.
//!
//! This is the in-repo load generator's transport: one keep-alive
//! connection per client, requests serialized with the same vectored
//! [`Rope`](dandelion_common::Rope) writes the server uses, responses
//! decoded incrementally with [`ResponseDecoder`]. It is intentionally not
//! a general HTTP client — no TLS, no chunked bodies, no redirects — just
//! enough to drive the v1 API over a real socket.

use std::io::{self, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::os::fd::AsFd;
use std::time::Duration;

use dandelion_common::KIB;
use dandelion_core::DandelionClient;
use dandelion_http::{HttpRequest, HttpResponse, ParseLimits, ResponseDecoder};
use parking_lot::Mutex;

/// Bytes requested from the kernel per read.
const READ_CHUNK: usize = 64 * KIB;

/// A blocking keep-alive connection to a Dandelion server.
pub struct HttpClientConnection {
    stream: TcpStream,
    decoder: ResponseDecoder,
}

impl HttpClientConnection {
    /// Connects with a read timeout (slow servers surface as errors rather
    /// than hangs).
    pub fn connect(addr: impl ToSocketAddrs, read_timeout: Duration) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(read_timeout))?;
        Ok(Self {
            stream,
            decoder: ResponseDecoder::new(ParseLimits::default()),
        })
    }

    /// Sends a request without waiting for its response (pipelining).
    pub fn send(&mut self, request: &HttpRequest) -> io::Result<()> {
        request.to_rope().write_to(&mut self.stream)?;
        self.stream.flush()
    }

    /// Reads the next response off the connection.
    pub fn receive(&mut self) -> io::Result<HttpResponse> {
        loop {
            match self.decoder.next_response() {
                Ok(Some(response)) => return Ok(response),
                // `read_fd` is one `read(2)`: a signal can interrupt it.
                Ok(None) => match self.decoder.read_fd(self.stream.as_fd(), READ_CHUNK) {
                    Ok(0) => {
                        return Err(io::Error::new(
                            io::ErrorKind::UnexpectedEof,
                            "server closed the connection mid-response",
                        ));
                    }
                    Err(error) if error.kind() != io::ErrorKind::Interrupted => return Err(error),
                    _ => {}
                },
                Err(error) => {
                    return Err(io::Error::new(io::ErrorKind::InvalidData, error));
                }
            }
        }
    }

    /// Sends a request and waits for its response.
    pub fn request(&mut self, request: &HttpRequest) -> io::Result<HttpResponse> {
        self.send(request)?;
        self.receive()
    }
}

/// Connects the typed [`DandelionClient`] to the worker or gateway at
/// `addr`. Its transport is one [`HttpClientConnection`] behind a mutex:
/// no pool and no reconnect — a dead socket is an error to the caller.
pub fn connect(addr: impl ToSocketAddrs, read_timeout: Duration) -> io::Result<DandelionClient> {
    let connection = Mutex::new(HttpClientConnection::connect(addr, read_timeout)?);
    Ok(DandelionClient::with_transport(move |request| {
        connection.lock().request(request)
    }))
}
