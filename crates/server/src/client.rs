//! A minimal blocking HTTP/1.1 client for loopback benchmarking and tests.
//!
//! This is the in-repo load generator's transport: one keep-alive
//! connection per client, requests serialized with the same vectored
//! [`Rope`](dandelion_common::Rope) writes the server uses, responses
//! decoded incrementally with [`ResponseDecoder`]. It is intentionally not
//! a general HTTP client — no TLS, no chunked bodies, no redirects — just
//! enough to drive the v1 API over a real socket.

use std::io::{self, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::os::fd::AsFd;
use std::sync::Mutex;
use std::time::Duration;

use dandelion_common::{JsonValue, NodeId, KIB};
use dandelion_core::DandelionClient;
use dandelion_http::{HttpRequest, HttpResponse, ParseLimits, ResponseDecoder, StatusCode};

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

/// Announces the member at `member` to the gateway at `gateway`
/// (`POST /v1/cluster/members`, what `dandelion-serve --join` sends) and
/// returns the node id the gateway gave it. The gateway answers once it has
/// probed the member, within `timeout` or not at all.
pub fn join_gateway(
    gateway: impl ToSocketAddrs + std::fmt::Display,
    member: SocketAddr,
    timeout: Duration,
) -> Result<NodeId, String> {
    let body = JsonValue::object([("addr", JsonValue::string(member.to_string()))]);
    let request = HttpRequest::post("/v1/cluster/members", body.to_json_string());
    let response = HttpClientConnection::connect(&gateway, timeout)
        .and_then(|mut client| client.request(&request))
        .map_err(|error| format!("gateway {gateway} did not answer the join: {error}"))?;
    let node = JsonValue::parse(&response.body_str())
        .ok()
        .and_then(|document| NodeId::parse(document.get("node")?.as_str()?));
    match node {
        Some(node) if response.status == StatusCode::CREATED => Ok(node),
        _ => Err(format!(
            "gateway {gateway} refused the join ({}): {}",
            response.status.0,
            response.body_str()
        )),
    }
}

/// Connects the typed [`DandelionClient`] to the worker or gateway at
/// `addr`. Its transport is one [`HttpClientConnection`] behind a mutex:
/// no pool and no reconnect — a dead socket is an error to the caller.
pub fn connect(addr: impl ToSocketAddrs, read_timeout: Duration) -> io::Result<DandelionClient> {
    let connection = Mutex::new(HttpClientConnection::connect(addr, read_timeout)?);
    Ok(DandelionClient::with_transport(move |request| {
        // Poisoned: a request panicked with the connection in hand and may
        // have left it half-written, so its stream cannot frame another.
        let mut connection = connection.lock().map_err(|_| {
            io::Error::new(io::ErrorKind::BrokenPipe, "connection poisoned by a panic")
        })?;
        connection.request(request)
    }))
}
