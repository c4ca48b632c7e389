//! Process-level readings from `/proc` (Linux).

use std::time::Instant;

fn status_kib(field: &str) -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kib| kib.parse().ok())
        .unwrap_or(0)
}

/// Peak resident set size of this process so far, bytes (`VmHWM`).
pub fn peak_rss_bytes() -> u64 {
    status_kib("VmHWM:") * 1024
}

/// Current resident set size, bytes (`VmRSS`).
pub fn rss_bytes() -> u64 {
    status_kib("VmRSS:") * 1024
}

/// CPU time this process has used on all its threads, seconds
/// (`utime + stime` of `/proc/self/stat`, at the kernel's 100 Hz tick).
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th fields of the whole line.
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let fields: Vec<&str> = after.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (ticks(11) + ticks(12)) as f64 / 100.0
}

/// Wall and CPU time of one measured phase.
#[derive(Clone, Copy, Debug, Default)]
pub struct Span {
    /// Wall-clock seconds.
    pub wall_s: f64,
    /// Process CPU seconds (all threads).
    pub cpu_s: f64,
}

/// Runs `f`, returning its result and the wall and CPU time it took.
pub fn measure<T>(f: impl FnOnce() -> T) -> (T, Span) {
    let cpu0 = cpu_seconds();
    let t0 = Instant::now();
    let out = f();
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_s = cpu_seconds() - cpu0;
    (out, Span { wall_s, cpu_s })
}

/// Asks the kernel for a receive buffer of `bytes` on `socket`
/// (`SO_RCVBUF`; the kernel caps it at `net.core.rmem_max`) and returns
/// the size it reports back, which on Linux is twice the grant. The
/// standard library has no setter, so this is a direct
/// `setsockopt(2)`/`getsockopt(2)`.
#[cfg(target_os = "linux")]
pub fn set_rcvbuf(socket: &std::net::UdpSocket, bytes: usize) -> std::io::Result<usize> {
    use std::os::fd::AsRawFd;
    const SOL_SOCKET: i32 = 1;
    const SO_RCVBUF: i32 = 8;
    extern "C" {
        fn setsockopt(fd: i32, level: i32, name: i32, val: *const i32, len: u32) -> i32;
        fn getsockopt(fd: i32, level: i32, name: i32, val: *mut i32, len: *mut u32) -> i32;
    }
    let req = i32::try_from(bytes).unwrap_or(i32::MAX);
    let mut got: i32 = 0;
    let mut len = std::mem::size_of::<i32>() as u32;
    // SAFETY: the descriptor belongs to `socket`, which outlives both
    // calls; `req` and `got` are `i32`s that live across the calls and
    // `len` is their size, which is what SO_RCVBUF reads and writes.
    let ok = unsafe {
        setsockopt(socket.as_raw_fd(), SOL_SOCKET, SO_RCVBUF, &req, len) == 0
            && getsockopt(
                socket.as_raw_fd(),
                SOL_SOCKET,
                SO_RCVBUF,
                &mut got,
                &mut len,
            ) == 0
    };
    if ok {
        Ok(usize::try_from(got).unwrap_or(0))
    } else {
        Err(std::io::Error::last_os_error())
    }
}

/// Receive buffers are only sized on Linux, as the server's are.
#[cfg(not(target_os = "linux"))]
pub fn set_rcvbuf(_socket: &std::net::UdpSocket, _bytes: usize) -> std::io::Result<usize> {
    Err(std::io::Error::new(
        std::io::ErrorKind::Unsupported,
        "SO_RCVBUF is only set on Linux",
    ))
}

/// Blocks until `socket` has a datagram to read or `timeout` passes,
/// whichever is first (`ppoll(2)`, which keeps the sub-millisecond
/// timeout a socket read timeout would round up to a scheduler tick).
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn wait_readable(socket: &std::net::UdpSocket, timeout: std::time::Duration) {
    use std::os::fd::AsRawFd;
    #[repr(C)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn ppoll(
            fds: *mut PollFd,
            nfds: u64,
            timeout: *const Timespec,
            sigmask: *const std::ffi::c_void,
        ) -> i32;
    }
    const POLLIN: i16 = 1;
    let mut fd = PollFd {
        fd: socket.as_raw_fd(),
        events: POLLIN,
        revents: 0,
    };
    let ts = Timespec {
        tv_sec: i64::try_from(timeout.as_secs()).unwrap_or(i64::MAX),
        tv_nsec: i64::from(timeout.subsec_nanos()),
    };
    // SAFETY: `fd` is one valid `struct pollfd` (the layout `#[repr(C)]`
    // reproduces) and `nfds` is 1; `ts` is a valid `struct timespec` on
    // 64-bit Linux; a null signal mask is allowed. The descriptor belongs
    // to `socket`, which outlives the call. The result only says whether
    // the socket became readable, which the caller finds out by reading.
    unsafe {
        ppoll(&mut fd, 1, &ts, std::ptr::null());
    }
}

/// Sleeps for `timeout` where `ppoll` is not wired up.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn wait_readable(_socket: &std::net::UdpSocket, timeout: std::time::Duration) {
    std::thread::sleep(timeout);
}
