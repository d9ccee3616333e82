//! The load generator: one keep-alive connection per thread, concurrency by
//! HTTP/1.1 pipelining, paced either closed-loop (a fixed window kept full)
//! or open-loop (a precomputed arrival schedule).
//!
//! Each thread sleeps in `ppoll` until its socket is ready or its next send
//! is due; it never spins, because it shares the machine's cores with the
//! server it measures. Open-loop latency is timed from the *scheduled* send
//! time, so a stalled server (or a late generator) shows up as latency
//! instead of as a politely slower client.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

use crate::client::{frame_response, Framed};
use crate::procfs;
use crate::sys;
use crate::workload::{Exchange, RESPONSE_DEADLINE};

/// Pipelined requests one connection keeps in flight at most. The server
/// stops reading a connection past 64 queued responses; staying at half of
/// that keeps the generator from measuring that back-pressure instead.
pub const MAX_WINDOW: usize = 32;

/// Most bytes handed to one `write` call.
const WRITE_CHUNK: usize = 64 * 1024;

/// Longest sleep, so a waiting thread still notices an interrupt promptly.
const MAX_SLEEP: Duration = Duration::from_millis(100);

/// How one connection decides when to send.
#[derive(Debug, Clone)]
pub enum Pace {
    /// Keep `window` requests in flight for `duration`.
    Closed { window: usize, duration: Duration },
    /// Send at these offsets (ns from the window start), at most
    /// [`MAX_WINDOW`] in flight; a request held back by a full window keeps
    /// its scheduled time, so the wait counts against the server.
    Open { schedule: Vec<u64> },
}

/// One request's fate. Times are nanoseconds from the window start (the
/// moment the connection was established).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    pub scheduled_ns: u64,
    pub sent_ns: u64,
    /// When the last response byte was read; `None` for a request that
    /// failed (refused, timed out, connection lost, or never sent).
    pub done_ns: Option<u64>,
    /// Status of the response, 0 when none arrived.
    pub status: u16,
    /// The response arrived and verified.
    pub ok: bool,
    pub node: Option<u32>,
}

impl Sample {
    /// Scheduled send to last response byte, for a verified response.
    pub fn latency_us(&self) -> Option<f64> {
        let done = self.done_ns.filter(|_| self.ok)?;
        Some(done.saturating_sub(self.scheduled_ns) as f64 / 1e3)
    }

    /// Answered 2xx but not what was asked for: a correctness failure, as
    /// opposed to a server that refused or was unreachable.
    pub fn wrong(&self) -> bool {
        !self.ok && (200..300).contains(&self.status)
    }

    pub fn late_us(&self) -> f64 {
        self.sent_ns.saturating_sub(self.scheduled_ns) as f64 / 1e3
    }
}

struct InFlight {
    scheduled_ns: u64,
    sent_ns: u64,
    exchange: usize,
}

/// What one connection did in one window.
pub struct Driven {
    pub samples: Vec<Sample>,
    /// On-CPU time of the generator thread, for `loadgen.cpu_us_per_req`.
    pub cpu_us: f64,
}

/// What a connection has done so far; kept outside [`pump`] so that a
/// transport error midway loses no request from the accounting.
#[derive(Default)]
struct Progress {
    samples: Vec<Sample>,
    in_flight: VecDeque<InFlight>,
    /// Requests queued so far (in open loop, the index into the schedule).
    next_send: usize,
}

/// Drives one connection through one window and returns a sample per request
/// attempted. Transport errors do not abort the window: everything
/// outstanding or unsent is recorded as failed, which is what a user of a
/// broken server would see.
pub fn drive(
    addr: SocketAddr,
    pool: &[Exchange],
    first_exchange: usize,
    pace: &Pace,
    verify: &(dyn Fn(&Framed, &[u8], &Exchange) -> bool + Sync),
) -> Driven {
    let cpu_before = procfs::thread_on_cpu_us().unwrap_or(0.0);
    let mut progress = Progress::default();
    if let Err(error) = pump(addr, pool, first_exchange, pace, verify, &mut progress) {
        eprintln!("load generator connection to {addr} failed: {error}");
        let failed = |scheduled_ns, sent_ns| Sample {
            scheduled_ns,
            sent_ns,
            done_ns: None,
            status: 0,
            ok: false,
            node: None,
        };
        let lost = progress
            .in_flight
            .drain(..)
            .map(|lost| failed(lost.scheduled_ns, lost.sent_ns));
        progress.samples.extend(lost);
        if let Pace::Open { schedule } = pace {
            let unsent = schedule[progress.next_send..]
                .iter()
                .map(|&due| failed(due, due));
            progress.samples.extend(unsent);
        }
    }
    Driven {
        samples: progress.samples,
        cpu_us: procfs::thread_on_cpu_us().unwrap_or(0.0) - cpu_before,
    }
}

fn pump(
    addr: SocketAddr,
    pool: &[Exchange],
    first_exchange: usize,
    pace: &Pace,
    verify: &(dyn Fn(&Framed, &[u8], &Exchange) -> bool + Sync),
    progress: &mut Progress,
) -> io::Result<()> {
    let Progress {
        samples,
        in_flight,
        next_send,
    } = progress;
    sys::tighten_timer_slack();
    let mut stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5))?;
    stream.set_nodelay(true)?;
    stream.set_nonblocking(true)?;
    let fd = stream.as_raw_fd();
    // The window's clock starts once the connection stands, so the first
    // scheduled requests are not late by the time it took to connect.
    let window_start = Instant::now();

    let (window, last_due_ns) = match pace {
        Pace::Closed { window, duration } => {
            ((*window).min(MAX_WINDOW), duration.as_nanos() as u64)
        }
        Pace::Open { schedule } => (MAX_WINDOW, schedule.last().copied().unwrap_or(0)),
    };
    let give_up_ns = last_due_ns + RESPONSE_DEADLINE.as_nanos() as u64;
    let now_ns = || window_start.elapsed().as_nanos() as u64;

    // Unsent request bytes (a large request rarely fits one write).
    let mut outbox: Vec<u8> = Vec::new();
    let mut outbox_sent = 0usize;
    // Received bytes: `inbox[consumed..filled]` is not yet framed.
    let mut inbox = vec![0u8; 1 << 20];
    let (mut consumed, mut filled) = (0usize, 0usize);

    loop {
        // 1. Queue every request that is due and fits the window.
        let mut now = now_ns();
        while in_flight.len() < window {
            let scheduled_ns = match pace {
                Pace::Closed { .. } if now < last_due_ns => now,
                Pace::Open { schedule }
                    if schedule.get(*next_send).is_some_and(|&due| due <= now) =>
                {
                    schedule[*next_send]
                }
                _ => break,
            };
            let exchange = (first_exchange + *next_send) % pool.len();
            *next_send += 1;
            outbox.extend_from_slice(&pool[exchange].wire);
            in_flight.push_back(InFlight {
                scheduled_ns,
                sent_ns: now,
                exchange,
            });
        }

        // 2. Write what the socket takes — one bounded call per turn of the
        // loop. Over loopback the kernel runs the receiving side inside the
        // sender's `write`, about a millisecond for a 256 KiB request; in one
        // piece that would hide requests falling due meanwhile from step 1
        // and keep the other generator thread off the CPU for as long.
        let mut wrote = false;
        if outbox_sent < outbox.len() {
            let chunk_end = outbox.len().min(outbox_sent + WRITE_CHUNK);
            match stream.write(&outbox[outbox_sent..chunk_end]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(written) => {
                    outbox_sent += written;
                    wrote = true;
                }
                Err(error)
                    if matches!(
                        error.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::Interrupted
                    ) => {}
                Err(error) => return Err(error),
            }
            if outbox_sent == outbox.len() {
                outbox.clear();
                outbox_sent = 0;
            }
        }

        // 3. Read what has arrived and settle every complete response.
        let mut received = false;
        let mut closed = false;
        loop {
            if inbox.len() - filled < 64 * 1024 {
                inbox.copy_within(consumed..filled, 0);
                filled -= consumed;
                consumed = 0;
                if inbox.len() - filled < 64 * 1024 {
                    inbox.resize(inbox.len() * 2, 0);
                }
            }
            match stream.read(&mut inbox[filled..]) {
                // Settle what arrived before the close first.
                Ok(0) => {
                    closed = true;
                    break;
                }
                Ok(read) => {
                    filled += read;
                    received = true;
                }
                Err(error) if error.kind() == io::ErrorKind::WouldBlock => break,
                Err(error) if error.kind() == io::ErrorKind::Interrupted => {}
                Err(error) => return Err(error),
            }
        }
        if received {
            now = now_ns();
            while let Some(framed) = frame_response(&inbox[consumed..filled])? {
                let Some(sent) = in_flight.pop_front() else {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        "unsolicited response",
                    ));
                };
                let body = &inbox[consumed + framed.head_len..consumed + framed.total_len()];
                samples.push(Sample {
                    scheduled_ns: sent.scheduled_ns,
                    sent_ns: sent.sent_ns,
                    done_ns: Some(now),
                    status: framed.status,
                    ok: verify(&framed, body, &pool[sent.exchange]),
                    node: framed.node,
                });
                consumed += framed.total_len();
            }
            if consumed == filled {
                (consumed, filled) = (0, 0);
            }
        }
        if closed {
            return Err(io::ErrorKind::UnexpectedEof.into());
        }
        if received || (wrote && outbox_sent < outbox.len()) {
            // A response may have opened the window for a request already
            // due, and an unfinished write may go further at once.
            continue;
        }

        // 4. Done, out of time, or sleep until the socket or the schedule calls.
        let sending_over = match pace {
            Pace::Closed { .. } => now >= last_due_ns,
            Pace::Open { schedule } => *next_send == schedule.len(),
        };
        if sending_over && in_flight.is_empty() {
            return Ok(());
        }
        if now >= give_up_ns {
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                "no response within the read deadline",
            ));
        }
        if sys::interrupted() {
            return Err(io::Error::new(io::ErrorKind::Interrupted, "interrupted"));
        }
        let next_due_ns = match pace {
            Pace::Open { schedule } if in_flight.len() < window => {
                schedule.get(*next_send).copied()
            }
            _ => None,
        };
        let sleep = match next_due_ns {
            Some(due) => Duration::from_nanos(due.saturating_sub(now)),
            None => MAX_SLEEP,
        };
        sys::wait_io(fd, outbox_sent < outbox.len(), sleep.min(MAX_SLEEP))?;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dandelion_http::HttpRequest;
    use std::net::TcpListener;

    /// A server that answers every complete request with `200 ok`, after an
    /// optional delay, and closes after `limit` responses.
    fn echo_server(delay: Duration, limit: usize) -> (SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let mut buffer = Vec::new();
            let mut chunk = [0u8; 4096];
            let mut answered = 0;
            while answered < limit {
                let read = stream.read(&mut chunk).unwrap_or(0);
                if read == 0 {
                    return;
                }
                buffer.extend_from_slice(&chunk[..read]);
                while let Some(end) = buffer.windows(4).position(|bytes| bytes == b"\r\n\r\n") {
                    buffer.drain(..end + 4);
                    std::thread::sleep(delay);
                    stream
                        .write_all(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok")
                        .unwrap();
                    answered += 1;
                }
            }
        });
        (addr, handle)
    }

    fn pool() -> Vec<Exchange> {
        let request = HttpRequest::get("/x");
        vec![Exchange {
            wire: request.to_bytes(),
            request,
            expected: b"ok".to_vec(),
        }]
    }

    fn verify(framed: &Framed, body: &[u8], exchange: &Exchange) -> bool {
        framed.status == 200 && body == exchange.expected
    }

    #[test]
    fn open_loop_times_from_the_scheduled_send_and_counts_every_request() {
        let (addr, server) = echo_server(Duration::from_millis(2), usize::MAX);
        // Ten requests all due at t=0 against a server that takes 2 ms each:
        // the last one waits for the nine before it.
        let pace = Pace::Open {
            schedule: vec![0; 10],
        };
        let samples = drive(addr, &pool(), 0, &pace, &verify).samples;
        assert_eq!(samples.len(), 10);
        assert!(samples
            .iter()
            .all(|sample| sample.ok && sample.scheduled_ns == 0));
        let slowest = samples
            .iter()
            .filter_map(Sample::latency_us)
            .fold(0.0, f64::max);
        assert!(slowest >= 20_000.0, "queueing must count: {slowest}");
        server.join().unwrap();
    }

    #[test]
    fn closed_loop_keeps_the_window_and_stops_after_the_duration() {
        let (addr, server) = echo_server(Duration::ZERO, usize::MAX);
        let pace = Pace::Closed {
            window: 4,
            duration: Duration::from_millis(100),
        };
        let started = Instant::now();
        let samples = drive(addr, &pool(), 0, &pace, &verify).samples;
        assert!(samples.len() > 4 && samples.iter().all(|sample| sample.ok));
        assert!(samples
            .iter()
            .all(|sample| sample.scheduled_ns < 100_000_000));
        assert!(started.elapsed() < Duration::from_secs(5));
        server.join().unwrap();
    }

    #[test]
    fn a_dying_server_turns_outstanding_and_unsent_requests_into_failures() {
        let (addr, server) = echo_server(Duration::ZERO, 3);
        let schedule: Vec<u64> = (0..8).map(|index| index * 5_000_000).collect();
        let samples = drive(addr, &pool(), 0, &Pace::Open { schedule }, &verify).samples;
        assert_eq!(samples.len(), 8, "every scheduled request is accounted for");
        assert_eq!(samples.iter().filter(|sample| sample.ok).count(), 3);
        assert!(samples
            .iter()
            .filter(|sample| !sample.ok)
            .all(|sample| sample.latency_us().is_none()));
        server.join().unwrap();
    }
}
