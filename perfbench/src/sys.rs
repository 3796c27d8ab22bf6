//! The kernel calls the benchmark needs and `std` lacks: `ppoll` (wait
//! for a socket or a deadline with nanosecond timeouts),
//! `prctl(PR_SET_TIMERSLACK)` (so those deadlines are not rounded up by
//! the default 50 µs timer slack), and `sched_setscheduler(SCHED_IDLE)`
//! and `sched_setaffinity` for the idle spinners of
//! `host::IdleSpinners`. Raw syscalls on Linux x86-64 and aarch64, the
//! targets the transport's own epoll shim supports.

use std::io;
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::time::Duration;

const POLLIN: i16 = 0x001;
const POLLOUT: i16 = 0x004;
const PR_SET_TIMERSLACK: usize = 29;
const SCHED_IDLE: usize = 5;

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

/// Sets the calling thread's timer slack to 1 ns, so `ppoll` and
/// `thread::sleep` wake within microseconds of their deadline.
pub fn tight_timer_slack() -> io::Result<()> {
    // SAFETY: prctl(PR_SET_TIMERSLACK, 1) takes no pointers.
    syscall_result(unsafe { syscall6(nr::PRCTL, PR_SET_TIMERSLACK, 1, 0, 0, 0, 0) }).map(|_| ())
}

/// Moves the calling thread to the `SCHED_IDLE` policy: it then runs only
/// when no other thread wants its CPU, and gives the CPU up as soon as
/// one does.
pub fn idle_priority() -> io::Result<()> {
    // struct sched_param: one int, the static priority, 0 for SCHED_IDLE.
    let param: i32 = 0;
    // SAFETY: pid 0 is the calling thread; `param` is a live
    // sched_param the kernel only reads.
    syscall_result(unsafe {
        syscall6(nr::SCHED_SETSCHEDULER, 0, SCHED_IDLE, &param as *const i32 as usize, 0, 0, 0)
    })
    .map(|_| ())
}

/// Binds the calling thread to CPU `cpu` (below 64).
pub fn pin_to_cpu(cpu: usize) -> io::Result<()> {
    let mask: u64 = 1 << cpu;
    // SAFETY: pid 0 is the calling thread; `mask` is a live 8-byte CPU
    // set the kernel only reads.
    syscall_result(unsafe {
        syscall6(nr::SCHED_SETAFFINITY, 0, 8, &mask as *const u64 as usize, 0, 0, 0)
    })
    .map(|_| ())
}

/// Waits until `stream` is readable (or, with `writable`, writable) or
/// `timeout` passes (`None`: no deadline). Returns whether the socket is
/// ready.
pub fn wait(stream: &TcpStream, writable: bool, timeout: Option<Duration>) -> io::Result<bool> {
    let events = if writable { POLLIN | POLLOUT } else { POLLIN };
    let mut pfd = PollFd { fd: stream.as_raw_fd(), events, revents: 0 };
    let ts =
        timeout.map(|t| Timespec { sec: t.as_secs() as i64, nsec: i64::from(t.subsec_nanos()) });
    let ts_ptr = ts.as_ref().map_or(0, |t| t as *const Timespec as usize);
    loop {
        // SAFETY: `pfd` is one live #[repr(C)] pollfd the kernel reads and
        // writes back; `ts_ptr` is null or a live timespec it only reads;
        // the signal mask pointer is null (mask unchanged).
        let ret = syscall_result(unsafe {
            syscall6(nr::PPOLL, &mut pfd as *mut PollFd as usize, 1, ts_ptr, 0, 8, 0)
        });
        match ret {
            Ok(n) => return Ok(n > 0),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
}

fn syscall_result(ret: isize) -> io::Result<isize> {
    if (-4095..0).contains(&ret) {
        Err(io::Error::from_raw_os_error(-ret as i32))
    } else {
        Ok(ret)
    }
}

#[cfg(target_arch = "x86_64")]
mod nr {
    pub const PRCTL: usize = 157;
    pub const PPOLL: usize = 271;
    pub const SCHED_SETAFFINITY: usize = 203;
    pub const SCHED_SETSCHEDULER: usize = 144;
}

#[cfg(target_arch = "aarch64")]
mod nr {
    pub const PPOLL: usize = 73;
    pub const PRCTL: usize = 167;
    pub const SCHED_SETAFFINITY: usize = 122;
    pub const SCHED_SETSCHEDULER: usize = 119;
}

#[cfg(target_arch = "x86_64")]
unsafe fn syscall6(
    n: usize,
    a0: usize,
    a1: usize,
    a2: usize,
    a3: usize,
    a4: usize,
    a5: usize,
) -> isize {
    let ret: isize;
    // SAFETY: the x86-64 Linux syscall ABI — args in rdi/rsi/rdx/r10/r8/
    // r9, number in rax, rcx/r11 clobbered. The caller guarantees any
    // pointer among the args is valid for syscall `n`.
    unsafe {
        core::arch::asm!(
            "syscall",
            inlateout("rax") n as isize => ret,
            in("rdi") a0,
            in("rsi") a1,
            in("rdx") a2,
            in("r10") a3,
            in("r8") a4,
            in("r9") a5,
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
    }
    ret
}

#[cfg(target_arch = "aarch64")]
unsafe fn syscall6(
    n: usize,
    a0: usize,
    a1: usize,
    a2: usize,
    a3: usize,
    a4: usize,
    a5: usize,
) -> isize {
    let ret: isize;
    // SAFETY: the aarch64 Linux syscall ABI — args in x0..x5, number in
    // x8, result in x0. The caller guarantees any pointer among the args
    // is valid for syscall `n`.
    unsafe {
        core::arch::asm!(
            "svc 0",
            in("x8") n,
            inlateout("x0") a0 => ret,
            in("x1") a1,
            in("x2") a2,
            in("x3") a3,
            in("x4") a4,
            in("x5") a5,
            options(nostack),
        );
    }
    ret
}
