//! What the benchmark needs from the kernel that `std` does not offer, and
//! the two environment controls built on it.
//!
//! * `ppoll`, so a generator thread can wait for its socket *or* a
//!   sub-millisecond deadline without spinning; `prctl(PR_SET_TIMERSLACK)`
//!   so that deadline is honoured; `signal` for the interrupt flag.
//! * `sched_getaffinity`/`sched_setaffinity`: the server processes are
//!   confined to one CPU and the generator threads to the others, so the two
//!   never compete and the server's threads cannot land in a different
//!   arrangement every run.
//! * `sched_setscheduler(SCHED_IDLE)` and `clock_gettime`, for the
//!   [`Speedometer`].
//!
//! Declared here, like `dandelion_server::sys` does, because the build is
//! offline and no `libc` crate is vendored.

use std::ffi::{c_int, c_long, c_short, c_ulong, c_void};
use std::io;
use std::os::fd::RawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::Duration;

#[repr(C)]
struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

#[repr(C)]
struct SchedParam {
    sched_priority: c_int,
}

const POLLIN: c_short = 0x001;
const POLLOUT: c_short = 0x004;
const PR_SET_TIMERSLACK: c_int = 29;
const SCHED_IDLE: c_int = 5;
const CLOCK_THREAD_CPUTIME_ID: c_int = 3;
const SIGINT: c_int = 2;
const SIGTERM: c_int = 15;

extern "C" {
    fn ppoll(
        fds: *mut PollFd,
        nfds: c_ulong,
        timeout: *const Timespec,
        sigmask: *const c_void,
    ) -> c_int;
    fn prctl(option: c_int, ...) -> c_int;
    fn signal(signum: c_int, handler: extern "C" fn(c_int)) -> usize;
    fn sched_setscheduler(pid: c_int, policy: c_int, param: *const SchedParam) -> c_int;
    fn clock_gettime(clock: c_int, time: *mut Timespec) -> c_int;
    fn sched_getaffinity(pid: c_int, cpusetsize: usize, mask: *mut u64) -> c_int;
    fn sched_setaffinity(pid: c_int, cpusetsize: usize, mask: *const u64) -> c_int;
}

/// Blocks until `fd` is readable (or writable, when `want_write`), or until
/// `timeout` has passed, whichever is first. Spurious returns are fine: the
/// caller re-checks its sockets and its clock.
pub fn wait_io(fd: RawFd, want_write: bool, timeout: Duration) -> io::Result<()> {
    let mut poll_fd = PollFd {
        fd,
        events: POLLIN | if want_write { POLLOUT } else { 0 },
        revents: 0,
    };
    let timespec = Timespec {
        tv_sec: timeout.as_secs() as c_long,
        tv_nsec: timeout.subsec_nanos() as c_long,
    };
    // SAFETY: `poll_fd` and `timespec` are live, correctly laid-out
    // (`repr(C)`, the x86-64/aarch64 Linux field types) stack values for the
    // whole call, `nfds` is 1 to match, and a null signal mask is allowed.
    let result = unsafe { ppoll(&mut poll_fd, 1, &timespec, std::ptr::null()) };
    if result < 0 {
        let error = io::Error::last_os_error();
        // A signal (the interrupt flag below) is not a failure of the wait.
        if error.kind() != io::ErrorKind::Interrupted {
            return Err(error);
        }
    }
    Ok(())
}

/// Lets this thread's timers fire when asked instead of up to 50 µs late
/// (the kernel default slack), so scheduled sends go out on time without a
/// spin loop. Best effort: a refusal only makes the generator a bit later,
/// which `loadgen.late_p99_us` reports.
pub fn tighten_timer_slack() {
    // SAFETY: `PR_SET_TIMERSLACK` takes one integer argument (nanoseconds)
    // and touches no memory of this process.
    unsafe { prctl(PR_SET_TIMERSLACK, 1 as c_ulong) };
}

/// The CPUs this process was given, read once before anything is confined.
/// `std::thread::available_parallelism` will not do: it reads the *calling
/// thread's* mask, so inside a [`Confined`] scope it says 1.
fn original_cpus() -> u64 {
    static ORIGINAL: OnceLock<u64> = OnceLock::new();
    *ORIGINAL.get_or_init(|| {
        let mut mask = 0u64;
        // SAFETY: pid 0 is the calling thread; `mask` is a live 8-byte CPU
        // set the call fills in, and the size passed is its size.
        let filled = unsafe { sched_getaffinity(0, std::mem::size_of::<u64>(), &mut mask) };
        if filled < 0 || mask == 0 {
            // More than 64 CPUs, or a refusal: CPU 0 is always there.
            1
        } else {
            mask
        }
    })
}

/// Records the process's CPU set. `main` calls it first, on the main thread,
/// before any thread is confined or spawned.
pub fn remember_original_cpus() {
    original_cpus();
}

/// CPUs this process may use (at most 64 are told apart).
pub fn cpu_count() -> usize {
    original_cpus().count_ones() as usize
}

/// Restricts the calling thread — and every thread or process it spawns
/// afterwards — to the CPUs in `mask` (bit n = CPU n). Best effort: a
/// refusal leaves the thread where the scheduler puts it.
pub fn set_affinity(mask: u64) {
    // SAFETY: pid 0 is the calling thread; `mask` is a live 8-byte CPU set
    // and the size passed is its size.
    unsafe { sched_setaffinity(0, std::mem::size_of::<u64>(), &mask) };
}

/// Confines the calling thread, and what it spawns, to the server's CPU
/// until dropped; then the thread gets the process's original CPUs back.
pub struct Confined;

impl Confined {
    pub fn to_server_cpu() -> Self {
        set_affinity(server_cpu());
        Confined
    }
}

impl Drop for Confined {
    fn drop(&mut self) {
        set_affinity(original_cpus());
    }
}

/// The `index`-th of the process's CPUs, as a mask; wraps around.
fn nth_cpu(index: usize) -> u64 {
    let cpus = original_cpus();
    (0..64)
        .map(|bit| 1u64 << bit)
        .filter(|bit| cpus & bit != 0)
        .nth(index % cpu_count())
        .expect("the CPU set is never empty")
}

/// The CPU the server processes (and the layer walk) are confined to. One
/// CPU, because what varies between runs on two is which server threads
/// happen to share one; the numbers are those of a one-core server.
pub fn server_cpu() -> u64 {
    nth_cpu(0)
}

/// The CPU generator thread `index` runs on: never the server's, when the
/// machine has another.
pub fn generator_cpu(index: usize) -> u64 {
    match cpu_count() {
        1 => server_cpu(),
        cpus => nth_cpu(1 + index % (cpus - 1)),
    }
}

/// Iterations per millisecond of the [`Speedometer`]'s kernel at a typical
/// speed of the recorded machine under load. Times are reported as if the
/// machine always ran at this speed; the constant only fixes the unit, so
/// parent and change, measured on one machine, are scaled alike.
pub const REFERENCE_SPEED: f64 = 45.0;

/// The calibration kernel: sort, counting and formatting over 16 KB — the
/// mix of memory traffic, branches and arithmetic a request path is made of.
/// It must never change: every reported time is relative to it.
///
/// It never allocates. Its thread is in the idle class, so it can be kept
/// off the CPU for as long as the server is busy; if that happened inside
/// `malloc` or `mmap`, a generator thread of this process needing the same
/// lock would wait just as long.
struct CalibrationKernel {
    base: Vec<u64>,
    values: Vec<u64>,
    counts: [u64; 100],
    text: String,
}

impl CalibrationKernel {
    fn new() -> Self {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let base: Vec<u64> = (0..2_000)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            })
            .collect();
        Self {
            values: base.clone(),
            base,
            counts: [0; 100],
            // 20 values of at most 16 hex digits.
            text: String::with_capacity(20 * 16),
        }
    }

    fn iterate(&mut self) {
        use std::fmt::Write;
        self.values.copy_from_slice(&self.base);
        self.values.sort_unstable();
        self.counts = [0; 100];
        for value in &self.values[..400] {
            self.counts[(value % 100) as usize] += 1;
        }
        self.text.clear();
        for value in &self.values[..20] {
            let _ = write!(self.text, "{value:x}");
        }
        std::hint::black_box((&self.counts, &self.text));
    }
}

fn thread_cpu_ns() -> u64 {
    let mut time = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `time` is a live `repr(C)` timespec the call fills in.
    unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut time) };
    time.tv_sec as u64 * 1_000_000_000 + time.tv_nsec as u64
}

/// A reading of the server CPU's speedometer; two of them give a speed.
#[derive(Debug, Clone, Copy)]
pub struct Mark {
    iterations: u64,
    cpu_ns: u64,
}

/// One `SCHED_IDLE` thread per CPU, running while the benchmark measures.
/// It does two jobs.
///
/// **It keeps the vCPUs from halting.** The recorded machine is a 2-vCPU VM.
/// Every request crosses several threads, and a hand-off to a thread on a
/// *halted* vCPU waits for the host to schedule that vCPU again: hundreds of
/// microseconds that show up as steal time and vary several-fold from run to
/// run with the host's load. A thread in the kernel's idle class gets a CPU
/// only when nothing else wants it and is preempted the instant anything
/// does, so it takes no cycle from the server or the generator (what booting
/// with `idle=poll` does).
///
/// **It measures how fast the machine is right now.** The host slows
/// ordinary code on a vCPU by up to 1.6x for seconds to minutes at a time
/// (a neighbour on the same core). Instead of spinning, the thread runs a
/// fixed calibration kernel and counts iterations against its own CPU time;
/// interleaved with the server at microsecond grain, that count is the
/// machine's speed *during* a window, which is what lets the benchmark
/// report reference time (see `loadrun`). The threads live in the benchmark
/// process, so no server CPU metric includes them.
pub struct Speedometer {
    stop: Arc<AtomicBool>,
    /// `(iterations, cpu_ns)` of the server CPU's thread.
    gauge: Arc<(AtomicU64, AtomicU64)>,
    threads: Vec<JoinHandle<()>>,
}

impl Speedometer {
    /// Starts one thread per available CPU. Where the kernel refuses the
    /// idle class the thread exits at once rather than run at a priority
    /// that would compete with the server; speeds then read as 1.0 and times
    /// are reported as measured.
    pub fn start() -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let gauge = Arc::new((AtomicU64::new(0), AtomicU64::new(0)));
        let threads = (0..cpu_count())
            .map(nth_cpu)
            .map(|cpu| {
                let stop = Arc::clone(&stop);
                let gauge = (cpu == server_cpu()).then(|| Arc::clone(&gauge));
                std::thread::spawn(move || {
                    set_affinity(cpu);
                    // Built before the thread enters the idle class: this
                    // is its only allocation.
                    let mut kernel = CalibrationKernel::new();
                    let param = SchedParam { sched_priority: 0 };
                    // SAFETY: pid 0 is the calling thread and `param` is a
                    // live `repr(C)` struct of the one field the call reads.
                    if unsafe { sched_setscheduler(0, SCHED_IDLE, &param) } != 0 {
                        eprintln!(
                            "speedometer thread not started: {}",
                            io::Error::last_os_error()
                        );
                        return;
                    }
                    let mut iterations = 0u64;
                    // Relaxed throughout: the counters publish nothing but
                    // themselves, and readers tolerate a few iterations' skew.
                    while !stop.load(Ordering::Relaxed) {
                        for _ in 0..4 {
                            kernel.iterate();
                        }
                        iterations += 4;
                        if let Some(gauge) = &gauge {
                            gauge.0.store(iterations, Ordering::Relaxed);
                            gauge.1.store(thread_cpu_ns(), Ordering::Relaxed);
                        }
                    }
                })
            })
            .collect();
        Self {
            stop,
            gauge,
            threads,
        }
    }

    pub fn mark(&self) -> Mark {
        Mark {
            iterations: self.gauge.0.load(Ordering::Relaxed),
            cpu_ns: self.gauge.1.load(Ordering::Relaxed),
        }
    }

    /// Machine speed between two marks as a share of [`REFERENCE_SPEED`].
    /// Less than a millisecond of speedometer CPU in between is too little
    /// to say, and reads as
    /// 1.0 — times as measured — when the speedometer is not running.
    pub fn dilation(&self, from: Mark, to: Mark) -> f64 {
        let cpu_ns = to.cpu_ns.saturating_sub(from.cpu_ns);
        if cpu_ns < 1_000_000 {
            return 1.0;
        }
        let per_ms = (to.iterations - from.iterations) as f64 / (cpu_ns as f64 / 1e6);
        per_ms / REFERENCE_SPEED
    }
}

impl Drop for Speedometer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
    }
}

static INTERRUPTED: AtomicBool = AtomicBool::new(false);

extern "C" fn note_interrupt(_signal: c_int) {
    // Only an atomic store: async-signal-safe.
    INTERRUPTED.store(true, Ordering::SeqCst);
}

/// Turns SIGINT and SIGTERM into a flag the run loops poll, so an
/// interrupted run returns through the normal path and its `Drop`s kill and
/// reap every server child instead of orphaning them.
pub fn install_interrupt_flag() {
    for signum in [SIGINT, SIGTERM] {
        // SAFETY: `note_interrupt` is an `extern "C" fn(c_int)` that stays
        // valid for the life of the process and only stores to an atomic.
        unsafe { signal(signum, note_interrupt) };
    }
}

pub fn interrupted() -> bool {
    INTERRUPTED.load(Ordering::SeqCst)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::os::fd::AsRawFd;
    use std::time::Instant;

    #[test]
    fn wait_io_honours_sub_millisecond_timeouts_and_readiness() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = std::net::TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        tighten_timer_slack();
        let started = Instant::now();
        wait_io(server.as_raw_fd(), false, Duration::from_micros(300)).unwrap();
        let waited = started.elapsed();
        assert!(waited >= Duration::from_micros(300), "{waited:?}");
        // Readable: returns long before the timeout.
        std::io::Write::write_all(&mut client, b"x").unwrap();
        let started = Instant::now();
        wait_io(server.as_raw_fd(), false, Duration::from_secs(5)).unwrap();
        assert!(started.elapsed() < Duration::from_secs(1));
    }

    /// The calling thread's current CPU mask.
    fn current_cpus() -> u64 {
        let mut mask = 0u64;
        // SAFETY: as in `original_cpus`.
        unsafe { sched_getaffinity(0, std::mem::size_of::<u64>(), &mut mask) };
        mask
    }

    #[test]
    fn cpu_masks_keep_generator_and_server_apart() {
        assert_eq!(server_cpu().count_ones(), 1);
        assert_eq!(server_cpu() & original_cpus(), server_cpu());
        for index in 0..4 {
            assert_eq!(generator_cpu(index).count_ones(), 1);
            assert_eq!(generator_cpu(index) & original_cpus(), generator_cpu(index));
            if cpu_count() > 1 {
                assert_eq!(generator_cpu(index) & server_cpu(), 0);
            }
        }
    }

    #[test]
    fn a_confined_scope_gives_the_cpus_back_and_does_not_change_the_count() {
        // On a thread of its own: affinity is per thread, and the test
        // harness's other threads must not inherit a confinement.
        std::thread::spawn(|| {
            let (cpus, count) = (original_cpus(), cpu_count());
            let confined = Confined::to_server_cpu();
            assert_eq!(current_cpus(), server_cpu());
            // What `available_parallelism` would get wrong here.
            assert_eq!(cpu_count(), count);
            let inside = std::thread::spawn(current_cpus).join().unwrap();
            assert_eq!(
                inside,
                server_cpu(),
                "a spawned thread inherits the confinement"
            );
            drop(confined);
            assert_eq!(current_cpus(), cpus);
            assert_eq!(cpu_count(), count);
            let after = std::thread::spawn(current_cpus).join().unwrap();
            assert_eq!(after, cpus, "a thread spawned afterwards is not pinned");
        })
        .join()
        .unwrap();
    }

    #[test]
    fn speedometer_reports_a_plausible_speed_and_stops() {
        let speedometer = Speedometer::start();
        let from = speedometer.mark();
        std::thread::sleep(Duration::from_millis(60));
        let dilation = speedometer.dilation(from, speedometer.mark());
        // Idle machine: the thread ran; whatever the host, speed is finite
        // and within two orders of magnitude of the reference.
        assert!(dilation > 0.01 && dilation < 100.0, "{dilation}");
        assert_eq!(speedometer.dilation(from, from), 1.0);
    }
}
