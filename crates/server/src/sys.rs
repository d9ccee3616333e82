//! The handful of Linux syscalls the event loop needs, declared directly.
//!
//! No async runtime is vendored, and the readiness machinery required for
//! multiplexing thousands of connections over a few threads is tiny: an
//! epoll instance per event loop, an `eventfd` so other threads (the accept
//! path, the dispatcher's completion callbacks) can wake a loop, and
//! `setrlimit` so tests and benches can raise the open-file ceiling before
//! opening thousands of sockets. The `extern "C"` declarations below bind
//! those symbols from the platform libc; everything is wrapped in small
//! RAII types ([`Epoll`], [`EventFd`]) so the rest of the crate never sees
//! a raw file descriptor outside of registration calls.
//!
//! Linux-only by design (matching the runtime's `X86Linux` hardware
//! platform); the constants below are the stable Linux ABI values.

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};
use std::os::raw::{c_int, c_uint, c_void};

/// Readable readiness (`EPOLLIN`).
pub(crate) const EPOLLIN: u32 = 0x001;
/// Writable readiness (`EPOLLOUT`).
pub(crate) const EPOLLOUT: u32 = 0x004;
/// Error condition (`EPOLLERR`); always reported, never registered.
pub(crate) const EPOLLERR: u32 = 0x008;
/// Hangup (`EPOLLHUP`); always reported, never registered.
pub(crate) const EPOLLHUP: u32 = 0x010;
/// Peer closed its write half (`EPOLLRDHUP`).
pub(crate) const EPOLLRDHUP: u32 = 0x2000;
/// Edge-triggered delivery (`EPOLLET`): readiness is reported once per
/// transition instead of once per `epoll_wait` while it persists. The
/// connection pumps drain until `EWOULDBLOCK`, which removes every
/// re-arm `epoll_ctl` call from the hot path.
pub(crate) const EPOLLET: u32 = 1 << 31;

const EPOLL_CTL_ADD: c_int = 1;
const EPOLL_CTL_DEL: c_int = 2;
const EPOLL_CLOEXEC: c_int = 0x80000;
const EFD_CLOEXEC: c_int = 0x80000;
const EFD_NONBLOCK: c_int = 0x800;
const RLIMIT_NOFILE: c_int = 7;
const AF_INET: c_int = 2;
const AF_INET6: c_int = 10;
const SOCK_STREAM: c_int = 1;
const SOCK_NONBLOCK: c_int = 0x800;
const SOCK_CLOEXEC: c_int = 0x80000;
const EINPROGRESS: i32 = 115;
/// Process file-descriptor table exhausted (`EMFILE`): the accept path
/// sheds load through its reserve descriptor instead of spinning.
pub(crate) const EMFILE: i32 = 24;
/// System-wide file table exhausted (`ENFILE`); handled like [`EMFILE`].
pub(crate) const ENFILE: i32 = 23;
const SOL_SOCKET: c_int = 1;
const SO_REUSEADDR: c_int = 2;
const SO_REUSEPORT: c_int = 15;
/// Pending-connection backlog for sharded listeners (clamped by the kernel
/// to `net.core.somaxconn`). Deliberately deeper than the std default of
/// 128: a connection storm aimed at one shard must queue, not drop SYNs.
const LISTEN_BACKLOG: c_int = 4096;

/// One readiness event, in the kernel's wire layout (packed on x86-64).
#[repr(C)]
#[cfg_attr(target_arch = "x86_64", repr(packed))]
#[derive(Debug, Clone, Copy)]
pub(crate) struct EpollEvent {
    /// Bitmask of `EPOLL*` readiness flags.
    pub events: u32,
    /// The caller's token, returned verbatim with each event.
    pub data: u64,
}

#[repr(C)]
struct RLimit {
    rlim_cur: u64,
    rlim_max: u64,
}

/// `struct sockaddr_in`, in the kernel's wire layout (port and address in
/// network byte order).
#[repr(C)]
struct SockAddrIn {
    family: u16,
    port: [u8; 2],
    addr: [u8; 4],
    zero: [u8; 8],
}

/// `struct sockaddr_in6` (`sin6_flowinfo` in network byte order,
/// `sin6_scope_id` in host order, per the Linux ABI).
#[repr(C)]
struct SockAddrIn6 {
    family: u16,
    port: [u8; 2],
    flowinfo: u32,
    addr: [u8; 16],
    scope_id: u32,
}

extern "C" {
    fn epoll_create1(flags: c_int) -> c_int;
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
    fn epoll_wait(epfd: c_int, events: *mut EpollEvent, maxevents: c_int, timeout: c_int) -> c_int;
    fn eventfd(initval: c_uint, flags: c_int) -> c_int;
    fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
    fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
    fn getrlimit(resource: c_int, rlim: *mut RLimit) -> c_int;
    fn setrlimit(resource: c_int, rlim: *const RLimit) -> c_int;
    fn socket(domain: c_int, ty: c_int, protocol: c_int) -> c_int;
    fn connect(sockfd: c_int, addr: *const c_void, addrlen: u32) -> c_int;
    fn setsockopt(
        sockfd: c_int,
        level: c_int,
        optname: c_int,
        optval: *const c_void,
        optlen: u32,
    ) -> c_int;
    fn bind(sockfd: c_int, addr: *const c_void, addrlen: u32) -> c_int;
    fn listen(sockfd: c_int, backlog: c_int) -> c_int;
}

fn check(result: c_int) -> io::Result<c_int> {
    if result < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(result)
    }
}

/// An epoll instance: the readiness multiplexer one event loop blocks on.
#[derive(Debug)]
pub(crate) struct Epoll {
    fd: OwnedFd,
}

impl Epoll {
    /// Creates a close-on-exec epoll instance.
    pub(crate) fn new() -> io::Result<Epoll> {
        // SAFETY: `epoll_create1` reads no memory of ours; it returns a new
        // descriptor or -1.
        let fd = check(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
        Ok(Epoll {
            // SAFETY: `fd` was opened one line up, and nothing else owns it.
            fd: unsafe { OwnedFd::from_raw_fd(fd) },
        })
    }

    fn ctl(&self, op: c_int, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        let mut event = EpollEvent {
            events,
            data: token,
        };
        // SAFETY: `event` is a live `epoll_event` for the call's duration,
        // which the kernel only reads; the epoll descriptor is ours.
        check(unsafe { epoll_ctl(self.fd.as_raw_fd(), op, fd, &mut event) }).map(|_| ())
    }

    /// Registers `fd` for the given readiness `events` under `token`.
    pub(crate) fn add(&self, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, events, token)
    }

    /// Removes `fd` from the interest list (closing the fd does this too,
    /// but an explicit delete keeps already-queued events from referencing
    /// a recycled descriptor).
    pub(crate) fn delete(&self, fd: RawFd) -> io::Result<()> {
        self.ctl(EPOLL_CTL_DEL, fd, 0, 0)
    }

    /// Blocks up to `timeout_ms` (`-1` = forever) and fills `events` with
    /// ready descriptors, returning how many. Interrupted waits report `0`
    /// ready events rather than an error.
    pub(crate) fn wait(&self, events: &mut [EpollEvent], timeout_ms: i32) -> io::Result<usize> {
        // SAFETY: the kernel writes at most `events.len()` entries into the
        // exclusively borrowed slice; `EpollEvent` is plain data, so any bytes
        // it writes are a valid value.
        let count = unsafe {
            epoll_wait(
                self.fd.as_raw_fd(),
                events.as_mut_ptr(),
                events.len() as c_int,
                timeout_ms,
            )
        };
        if count < 0 {
            let error = io::Error::last_os_error();
            if error.kind() == io::ErrorKind::Interrupted {
                return Ok(0);
            }
            return Err(error);
        }
        Ok(count as usize)
    }
}

/// A wakeup channel another thread can signal to interrupt an
/// [`Epoll::wait`]: registered in the loop's epoll set, written by
/// dispatcher completion callbacks, gateway dispatch and shutdown.
#[derive(Debug)]
pub(crate) struct EventFd {
    fd: OwnedFd,
}

impl EventFd {
    /// Creates a non-blocking, close-on-exec eventfd.
    pub(crate) fn new() -> io::Result<EventFd> {
        // SAFETY: `eventfd` reads no memory of ours; it returns a new
        // descriptor or -1.
        let fd = check(unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) })?;
        Ok(EventFd {
            // SAFETY: `fd` was opened one line up, and nothing else owns it.
            fd: unsafe { OwnedFd::from_raw_fd(fd) },
        })
    }

    /// The descriptor to register with an [`Epoll`].
    pub(crate) fn raw_fd(&self) -> RawFd {
        self.fd.as_raw_fd()
    }

    /// Wakes the owning loop. Signalling is best-effort and idempotent: the
    /// counter saturating (or any other failure) still leaves the loop
    /// readable, which is all a wakeup needs.
    pub(crate) fn signal(&self) {
        let one: u64 = 1;
        // SAFETY: the kernel reads the 8 bytes of `one`, which lives across
        // the call; the descriptor is ours.
        unsafe {
            write(
                self.fd.as_raw_fd(),
                (&one as *const u64).cast::<c_void>(),
                8,
            )
        };
    }

    /// Clears pending wakeups so level-triggered polling goes quiet again,
    /// returning how many signals it cleared (0 when none were pending).
    pub(crate) fn drain(&self) -> u64 {
        let mut counter: u64 = 0;
        // SAFETY: the kernel writes at most the 8 bytes of `counter`, which is
        // exclusively borrowed across the call and valid for any bytes.
        unsafe {
            read(
                self.fd.as_raw_fd(),
                (&mut counter as *mut u64).cast::<c_void>(),
                8,
            )
        };
        counter
    }
}

/// Invokes `call` with the kernel wire encoding of `addr` (pointer plus
/// length), covering both address families.
fn with_sockaddr<R>(addr: &SocketAddr, call: impl FnOnce(*const c_void, u32) -> R) -> R {
    match addr {
        SocketAddr::V4(v4) => {
            let sockaddr = SockAddrIn {
                family: AF_INET as u16,
                port: v4.port().to_be_bytes(),
                addr: v4.ip().octets(),
                zero: [0; 8],
            };
            call(
                (&sockaddr as *const SockAddrIn).cast::<c_void>(),
                std::mem::size_of::<SockAddrIn>() as u32,
            )
        }
        SocketAddr::V6(v6) => {
            let sockaddr = SockAddrIn6 {
                family: AF_INET6 as u16,
                port: v6.port().to_be_bytes(),
                flowinfo: v6.flowinfo().to_be(),
                addr: v6.ip().octets(),
                scope_id: v6.scope_id(),
            };
            call(
                (&sockaddr as *const SockAddrIn6).cast::<c_void>(),
                std::mem::size_of::<SockAddrIn6>() as u32,
            )
        }
    }
}

/// Initiates a TCP connect without ever blocking the caller: the socket is
/// created non-blocking and `connect` returns immediately (`EINPROGRESS`).
/// The caller registers the stream with an [`Epoll`]; the kernel reports a
/// successful connect as `EPOLLOUT` readiness and a failed one as
/// `EPOLLERR`/`EPOLLHUP` (and any read or write on the socket surfaces the
/// error). Event loops use this for upstream connections so the data path
/// never stalls on a slow member's handshake.
pub(crate) fn connect_nonblocking(addr: &SocketAddr) -> io::Result<TcpStream> {
    dandelion_common::fail_point!("upstream/connect", |_fault| {
        Err(dandelion_common::failpoint_io_error("upstream/connect"))
    });
    let domain = match addr {
        SocketAddr::V4(_) => AF_INET,
        SocketAddr::V6(_) => AF_INET6,
    };
    // SAFETY: `socket` reads no memory of ours; it returns a new descriptor
    // or -1.
    let fd = check(unsafe { socket(domain, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0) })?;
    // Wrap immediately so an early return cannot leak the descriptor.
    // SAFETY: `fd` is a TCP socket opened one line up, and nothing else owns
    // it.
    let stream = unsafe { TcpStream::from_raw_fd(fd) };
    // SAFETY: `with_sockaddr` hands over a pointer to a socket address of
    // `len` bytes that lives across the call, which the kernel only reads.
    let result = with_sockaddr(addr, |sockaddr, len| unsafe {
        connect(stream.as_raw_fd(), sockaddr, len)
    });
    if result < 0 {
        let error = io::Error::last_os_error();
        if error.raw_os_error() != Some(EINPROGRESS) {
            return Err(error);
        }
    }
    Ok(stream)
}

/// Binds a non-blocking `SO_REUSEPORT` TCP listener on `addr`.
///
/// Several listeners bound to the same address through this function form
/// one kernel-load-balanced accept group: each incoming connection is
/// delivered to exactly one of them (hashed by flow), which is what lets
/// every event loop own a listener of its own instead of funnelling all
/// admissions through loop 0. `SO_REUSEADDR` is set too, matching the std
/// listener's behaviour across restarts.
pub(crate) fn bind_reuseport(addr: &SocketAddr) -> io::Result<TcpListener> {
    let domain = match addr {
        SocketAddr::V4(_) => AF_INET,
        SocketAddr::V6(_) => AF_INET6,
    };
    // SAFETY: `socket` reads no memory of ours; it returns a new descriptor
    // or -1.
    let fd = check(unsafe { socket(domain, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0) })?;
    // Wrap immediately so an early return cannot leak the descriptor.
    // SAFETY: `fd` is a TCP socket opened one line up, and nothing else owns
    // it.
    let listener = unsafe { TcpListener::from_raw_fd(fd) };
    for option in [SO_REUSEADDR, SO_REUSEPORT] {
        let enable: c_int = 1;
        // SAFETY: the kernel reads the `c_int` behind the pointer, which
        // lives across the call, and no more than its size.
        check(unsafe {
            setsockopt(
                listener.as_raw_fd(),
                SOL_SOCKET,
                option,
                (&enable as *const c_int).cast::<c_void>(),
                std::mem::size_of::<c_int>() as u32,
            )
        })?;
    }
    // SAFETY: `with_sockaddr` hands over a pointer to a socket address of
    // `len` bytes that lives across the call, which the kernel only reads.
    let bound = with_sockaddr(addr, |sockaddr, len| unsafe {
        bind(listener.as_raw_fd(), sockaddr, len)
    });
    check(bound)?;
    // SAFETY: `listen` reads no memory of ours; the socket is ours.
    check(unsafe { listen(listener.as_raw_fd(), LISTEN_BACKLOG) })?;
    Ok(listener)
}

/// Raises the process's soft open-file limit to at least `want` descriptors,
/// returning the resulting soft limit. When `want` exceeds even the hard
/// limit, a privileged process (tests run as root in CI containers) gets the
/// hard limit raised too; an unprivileged one is capped at its hard limit —
/// callers that open huge socket herds size them to the returned value.
/// Tests and benches that open thousands of loopback sockets call this first
/// so a conservative default `ulimit -n` does not fail them spuriously.
pub fn raise_nofile_limit(want: u64) -> io::Result<u64> {
    let mut limit = RLimit {
        rlim_cur: 0,
        rlim_max: 0,
    };
    // SAFETY: the kernel writes one `RLimit`, laid out as its `rlimit`, into
    // the exclusively borrowed `limit`.
    check(unsafe { getrlimit(RLIMIT_NOFILE, &mut limit) })?;
    if limit.rlim_cur >= want {
        return Ok(limit.rlim_cur);
    }
    if limit.rlim_max < want {
        // Best effort: raising the hard limit needs CAP_SYS_RESOURCE.
        let raised = RLimit {
            rlim_cur: want,
            rlim_max: want,
        };
        // SAFETY: the kernel reads one `RLimit`, laid out as its `rlimit`,
        // from `raised`, which lives across the call.
        if unsafe { setrlimit(RLIMIT_NOFILE, &raised) } == 0 {
            return Ok(want);
        }
    }
    limit.rlim_cur = want.min(limit.rlim_max);
    // SAFETY: the kernel reads one `RLimit`, laid out as its `rlimit`, from
    // `limit`, which lives across the call.
    check(unsafe { setrlimit(RLIMIT_NOFILE, &limit) })?;
    Ok(limit.rlim_cur)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};

    #[test]
    fn eventfd_wakes_an_epoll_wait_and_drains_quiet() {
        let epoll = Epoll::new().unwrap();
        let waker = EventFd::new().unwrap();
        epoll.add(waker.raw_fd(), EPOLLIN, 7).unwrap();
        let mut events = [EpollEvent { events: 0, data: 0 }; 4];
        // Nothing signalled: the wait times out empty.
        assert_eq!(epoll.wait(&mut events, 0).unwrap(), 0);
        waker.signal();
        waker.signal();
        let ready = epoll.wait(&mut events, 1000).unwrap();
        assert_eq!(ready, 1);
        let data = events[0].data;
        assert_eq!(data, 7);
        assert_eq!(waker.drain(), 2, "two signals, one readiness event");
        assert_eq!(epoll.wait(&mut events, 0).unwrap(), 0);
    }

    #[test]
    fn socket_readiness_flows_through_epoll() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (mut served, _) = listener.accept().unwrap();
        served.set_nonblocking(true).unwrap();

        let epoll = Epoll::new().unwrap();
        epoll
            .add(served.as_raw_fd(), EPOLLIN | EPOLLRDHUP, 42)
            .unwrap();
        let mut events = [EpollEvent { events: 0, data: 0 }; 4];
        assert_eq!(epoll.wait(&mut events, 0).unwrap(), 0, "idle socket");

        client.write_all(b"ping").unwrap();
        let ready = epoll.wait(&mut events, 1000).unwrap();
        assert_eq!(ready, 1);
        let (data, mask) = (events[0].data, events[0].events);
        assert_eq!(data, 42);
        assert_ne!(mask & EPOLLIN, 0);
        let mut buf = [0u8; 8];
        assert_eq!(served.read(&mut buf).unwrap(), 4);

        // Interest can be deleted and registered again, for writability.
        epoll.delete(served.as_raw_fd()).unwrap();
        epoll.add(served.as_raw_fd(), EPOLLOUT, 42).unwrap();
        let ready = epoll.wait(&mut events, 1000).unwrap();
        assert_eq!(ready, 1);
        let mask = events[0].events;
        assert_ne!(mask & EPOLLOUT, 0);
        epoll.delete(served.as_raw_fd()).unwrap();
        assert_eq!(epoll.wait(&mut events, 0).unwrap(), 0);
    }

    #[test]
    fn nonblocking_connect_completes_via_epoll_writability() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let stream = connect_nonblocking(&listener.local_addr().unwrap()).unwrap();
        let epoll = Epoll::new().unwrap();
        epoll.add(stream.as_raw_fd(), EPOLLOUT, 9).unwrap();
        let mut events = [EpollEvent { events: 0, data: 0 }; 4];
        let ready = epoll.wait(&mut events, 1000).unwrap();
        assert_eq!(ready, 1, "loopback connect must complete");
        let mask = events[0].events;
        assert_ne!(mask & EPOLLOUT, 0, "success is reported as writability");
        assert_eq!(mask & (EPOLLERR | EPOLLHUP), 0);
        // The connected socket really works end to end.
        let (mut served, _) = listener.accept().unwrap();
        let mut client = stream;
        client.write_all(b"hello").unwrap();
        let mut buf = [0u8; 8];
        assert_eq!(served.read(&mut buf).unwrap(), 5);
    }

    #[test]
    fn nofile_limit_is_raised_monotonically() {
        let current = raise_nofile_limit(64).unwrap();
        assert!(current >= 64);
        // Asking again for less never lowers it.
        assert!(raise_nofile_limit(1).unwrap() >= current.min(64));
    }

    #[test]
    fn reuseport_listeners_share_one_address_and_both_accept() {
        let first = bind_reuseport(&"127.0.0.1:0".parse().unwrap()).unwrap();
        let addr = first.local_addr().unwrap();
        // A second listener on the *same* bound port succeeds only because
        // both are in the reuseport group.
        let second = bind_reuseport(&addr).unwrap();
        for listener in [&first, &second] {
            listener.set_nonblocking(true).unwrap();
        }
        // Drive enough connections through the pair that the kernel's flow
        // hash spreads them; every one must be accepted by exactly one
        // listener.
        const CONNECTIONS: usize = 64;
        let mut clients = Vec::new();
        for _ in 0..CONNECTIONS {
            clients.push(TcpStream::connect(addr).unwrap());
        }
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        let (mut on_first, mut on_second) = (0usize, 0usize);
        while on_first + on_second < CONNECTIONS {
            assert!(
                std::time::Instant::now() < deadline,
                "only {} of {CONNECTIONS} connections accepted",
                on_first + on_second
            );
            match first.accept() {
                Ok(_) => on_first += 1,
                Err(error) if error.kind() == std::io::ErrorKind::WouldBlock => {}
                Err(error) => panic!("first listener: {error}"),
            }
            match second.accept() {
                Ok(_) => on_second += 1,
                Err(error) if error.kind() == std::io::ErrorKind::WouldBlock => {}
                Err(error) => panic!("second listener: {error}"),
            }
        }
        assert_eq!(on_first + on_second, CONNECTIONS);
    }

    #[test]
    fn edge_triggered_events_fire_once_per_arrival_not_per_wait() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (mut served, _) = listener.accept().unwrap();
        served.set_nonblocking(true).unwrap();

        let epoll = Epoll::new().unwrap();
        epoll
            .add(
                served.as_raw_fd(),
                EPOLLIN | EPOLLOUT | EPOLLRDHUP | EPOLLET,
                5,
            )
            .unwrap();
        let mut events = [EpollEvent { events: 0, data: 0 }; 4];
        // Registration reports current readiness once (the socket is
        // writable); with no new transition, a second wait stays silent —
        // the level-triggered behaviour would report EPOLLOUT forever.
        assert_eq!(epoll.wait(&mut events, 100).unwrap(), 1);
        let mask = events[0].events;
        assert_ne!(mask & EPOLLOUT, 0);
        assert_eq!(epoll.wait(&mut events, 0).unwrap(), 0, "no second edge");

        // New data is a new edge...
        client.write_all(b"ping").unwrap();
        let ready = epoll.wait(&mut events, 1000).unwrap();
        assert_eq!(ready, 1);
        let mask = events[0].events;
        assert_ne!(mask & EPOLLIN, 0);
        // ...and without draining the socket, no further edge arrives even
        // though bytes are still buffered: the pump must read to
        // `EWOULDBLOCK`, exactly what the connection state machines do.
        assert_eq!(epoll.wait(&mut events, 50).unwrap(), 0);
        let mut buf = [0u8; 8];
        assert_eq!(served.read(&mut buf).unwrap(), 4);
        client.write_all(b"pong").unwrap();
        assert_eq!(epoll.wait(&mut events, 1000).unwrap(), 1, "fresh edge");
    }
}
