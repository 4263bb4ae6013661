//! Minimal readiness poller for the gateway's event-driven paths.
//!
//! No async runtime and no `libc` crate are vendored, so this module
//! speaks to the platform directly through `extern "C"` declarations
//! against the C library that `std` already links: `epoll` on Linux (the
//! default, O(ready) wakeups) and a portable `poll(2)` fallback that
//! compiles everywhere Unix. Both sit behind the same [`Poller`] handle,
//! and both are *level-triggered*: an fd with unconsumed readiness shows
//! up on every [`Poller::wait`] until it is drained, so callers never
//! need edge-triggered re-arming discipline.
//!
//! A [`Waker`] (the classic self-pipe) lets other threads — the serving
//! runtime's reply sink, `Gateway::shutdown` — nudge a thread blocked in
//! [`Poller::wait`] without any timeout-based polling.

use std::io;
use std::os::unix::io::RawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

mod ffi {
    use std::os::raw::{c_int, c_short, c_ulong, c_void};

    // The kernel packs epoll_event on x86-64 so the 32-bit `events` field
    // is followed immediately by the 64-bit data word.
    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    #[repr(C, packed)]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    #[cfg(all(target_os = "linux", not(target_arch = "x86_64")))]
    #[repr(C)]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    #[repr(C)]
    #[derive(Clone, Copy)]
    pub struct PollFd {
        pub fd: c_int,
        pub events: c_short,
        pub revents: c_short,
    }

    extern "C" {
        #[cfg(target_os = "linux")]
        pub fn epoll_create1(flags: c_int) -> c_int;
        #[cfg(target_os = "linux")]
        pub fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        #[cfg(target_os = "linux")]
        pub fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout: c_int,
        ) -> c_int;
        pub fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
        pub fn close(fd: c_int) -> c_int;
        pub fn pipe(fds: *mut c_int) -> c_int;
        pub fn fcntl(fd: c_int, cmd: c_int, arg: c_int) -> c_int;
        pub fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
        pub fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
    }

    pub const EPOLL_CLOEXEC: c_int = 0o2000000;
    pub const EPOLL_CTL_ADD: c_int = 1;
    pub const EPOLL_CTL_DEL: c_int = 2;
    pub const EPOLL_CTL_MOD: c_int = 3;
    pub const EPOLLIN: u32 = 0x001;
    pub const EPOLLOUT: u32 = 0x004;
    pub const EPOLLERR: u32 = 0x008;
    pub const EPOLLHUP: u32 = 0x010;
    pub const EPOLLRDHUP: u32 = 0x2000;

    pub const POLLIN: c_short = 0x001;
    pub const POLLOUT: c_short = 0x004;
    pub const POLLERR: c_short = 0x008;
    pub const POLLHUP: c_short = 0x010;
    pub const POLLNVAL: c_short = 0x020;

    pub const F_GETFL: c_int = 3;
    pub const F_SETFL: c_int = 4;
    pub const O_NONBLOCK: c_int = 0o4000;
}

fn last_os_error() -> io::Error {
    io::Error::last_os_error()
}

/// Which readiness a registered fd is watched for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Interest {
    pub readable: bool,
    pub writable: bool,
}

impl Interest {
    pub const READ: Interest = Interest {
        readable: true,
        writable: false,
    };
    pub const WRITE: Interest = Interest {
        readable: false,
        writable: true,
    };
    pub const BOTH: Interest = Interest {
        readable: true,
        writable: true,
    };
}

/// One readiness event: the registered token plus what the fd is ready
/// for. `hangup` covers peer close and error conditions; a level-
/// triggered reader will also observe these as an EOF/error on read.
#[derive(Clone, Copy, Debug)]
pub struct Event {
    pub token: usize,
    pub readable: bool,
    pub writable: bool,
    pub hangup: bool,
}

/// A readiness poller over raw fds: `epoll` on Linux, `poll(2)` anywhere
/// else (and on demand, for testing the portable path on Linux too).
pub enum Poller {
    #[cfg(target_os = "linux")]
    Epoll(EpollPoller),
    Poll(PollPoller),
}

impl Poller {
    /// The platform-preferred poller: `epoll` on Linux, `poll(2)` elsewhere.
    pub fn new() -> io::Result<Self> {
        #[cfg(target_os = "linux")]
        {
            Ok(Poller::Epoll(EpollPoller::new()?))
        }
        #[cfg(not(target_os = "linux"))]
        {
            Self::new_portable()
        }
    }

    /// The portable `poll(2)` implementation, regardless of platform.
    pub fn new_portable() -> io::Result<Self> {
        Ok(Poller::Poll(PollPoller::new()))
    }

    /// Starts watching `fd` under `token`. One registration per fd.
    pub fn register(&mut self, fd: RawFd, token: usize, interest: Interest) -> io::Result<()> {
        match self {
            #[cfg(target_os = "linux")]
            Poller::Epoll(p) => p.register(fd, token, interest),
            Poller::Poll(p) => p.register(fd, token, interest),
        }
    }

    /// Changes the interest set of an already registered fd.
    pub fn reregister(&mut self, fd: RawFd, token: usize, interest: Interest) -> io::Result<()> {
        match self {
            #[cfg(target_os = "linux")]
            Poller::Epoll(p) => p.reregister(fd, token, interest),
            Poller::Poll(p) => p.reregister(fd, token, interest),
        }
    }

    /// Stops watching `fd`.
    pub fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
        match self {
            #[cfg(target_os = "linux")]
            Poller::Epoll(p) => p.deregister(fd),
            Poller::Poll(p) => p.deregister(fd),
        }
    }

    /// Blocks until at least one registered fd is ready (or `timeout`
    /// elapses; `None` waits indefinitely), appending events to `events`
    /// after clearing it. Spurious empty returns are allowed.
    pub fn wait(&mut self, events: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()> {
        match self {
            #[cfg(target_os = "linux")]
            Poller::Epoll(p) => p.wait(events, timeout),
            Poller::Poll(p) => p.wait(events, timeout),
        }
    }
}

fn timeout_to_ms(timeout: Option<Duration>) -> i32 {
    match timeout {
        None => -1,
        // Round up so a 100µs timeout does not become a busy-loop of
        // zero-timeout polls.
        Some(t) => t
            .as_millis()
            .saturating_add(u128::from(t.subsec_nanos() % 1_000_000 != 0))
            .min(i32::MAX as u128) as i32,
    }
}

/// The Linux `epoll` poller: O(ready) wakeups, scales to tens of
/// thousands of mostly idle connections.
#[cfg(target_os = "linux")]
pub struct EpollPoller {
    epfd: RawFd,
    /// Scratch buffer reused across waits.
    buf: Vec<ffi::EpollEvent>,
}

#[cfg(target_os = "linux")]
impl EpollPoller {
    pub fn new() -> io::Result<Self> {
        let epfd = unsafe { ffi::epoll_create1(ffi::EPOLL_CLOEXEC) };
        if epfd < 0 {
            return Err(last_os_error());
        }
        Ok(Self {
            epfd,
            buf: vec![ffi::EpollEvent { events: 0, data: 0 }; 1024],
        })
    }

    fn mask(interest: Interest) -> u32 {
        let mut mask = ffi::EPOLLRDHUP;
        if interest.readable {
            mask |= ffi::EPOLLIN;
        }
        if interest.writable {
            mask |= ffi::EPOLLOUT;
        }
        mask
    }

    fn ctl(&self, op: i32, fd: RawFd, token: usize, interest: Interest) -> io::Result<()> {
        let mut event = ffi::EpollEvent {
            events: Self::mask(interest),
            data: token as u64,
        };
        if unsafe { ffi::epoll_ctl(self.epfd, op, fd, &mut event) } < 0 {
            return Err(last_os_error());
        }
        Ok(())
    }

    pub fn register(&mut self, fd: RawFd, token: usize, interest: Interest) -> io::Result<()> {
        self.ctl(ffi::EPOLL_CTL_ADD, fd, token, interest)
    }

    pub fn reregister(&mut self, fd: RawFd, token: usize, interest: Interest) -> io::Result<()> {
        self.ctl(ffi::EPOLL_CTL_MOD, fd, token, interest)
    }

    pub fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
        // Kernels before 2.6.9 demanded a non-null event even for DEL.
        let mut dummy = ffi::EpollEvent { events: 0, data: 0 };
        if unsafe { ffi::epoll_ctl(self.epfd, ffi::EPOLL_CTL_DEL, fd, &mut dummy) } < 0 {
            return Err(last_os_error());
        }
        Ok(())
    }

    pub fn wait(&mut self, events: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()> {
        events.clear();
        let n = loop {
            let n = unsafe {
                ffi::epoll_wait(
                    self.epfd,
                    self.buf.as_mut_ptr(),
                    self.buf.len() as i32,
                    timeout_to_ms(timeout),
                )
            };
            if n >= 0 {
                break n as usize;
            }
            let err = last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
        };
        for slot in &self.buf[..n] {
            // Copy out of the (possibly packed) struct before use.
            let mask = slot.events;
            let token = slot.data as usize;
            events.push(Event {
                token,
                readable: mask & ffi::EPOLLIN != 0,
                writable: mask & ffi::EPOLLOUT != 0,
                hangup: mask & (ffi::EPOLLHUP | ffi::EPOLLERR | ffi::EPOLLRDHUP) != 0,
            });
        }
        Ok(())
    }
}

#[cfg(target_os = "linux")]
impl Drop for EpollPoller {
    fn drop(&mut self) {
        unsafe { ffi::close(self.epfd) };
    }
}

/// The portable `poll(2)` poller: O(registered) per wait, fine for the
/// accept path and small fleets, the fallback where epoll is missing.
pub struct PollPoller {
    entries: Vec<(RawFd, usize, Interest)>,
    scratch: Vec<ffi::PollFd>,
}

impl Default for PollPoller {
    fn default() -> Self {
        Self::new()
    }
}

impl PollPoller {
    pub fn new() -> Self {
        Self {
            entries: Vec::new(),
            scratch: Vec::new(),
        }
    }

    pub fn register(&mut self, fd: RawFd, token: usize, interest: Interest) -> io::Result<()> {
        if self.entries.iter().any(|(f, _, _)| *f == fd) {
            return Err(io::Error::new(
                io::ErrorKind::AlreadyExists,
                "fd already registered",
            ));
        }
        self.entries.push((fd, token, interest));
        Ok(())
    }

    pub fn reregister(&mut self, fd: RawFd, token: usize, interest: Interest) -> io::Result<()> {
        for entry in &mut self.entries {
            if entry.0 == fd {
                *entry = (fd, token, interest);
                return Ok(());
            }
        }
        Err(io::Error::new(io::ErrorKind::NotFound, "fd not registered"))
    }

    pub fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
        let before = self.entries.len();
        self.entries.retain(|(f, _, _)| *f != fd);
        if self.entries.len() == before {
            return Err(io::Error::new(io::ErrorKind::NotFound, "fd not registered"));
        }
        Ok(())
    }

    pub fn wait(&mut self, events: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()> {
        events.clear();
        self.scratch.clear();
        for &(fd, _, interest) in &self.entries {
            let mut mask = 0;
            if interest.readable {
                mask |= ffi::POLLIN;
            }
            if interest.writable {
                mask |= ffi::POLLOUT;
            }
            self.scratch.push(ffi::PollFd {
                fd,
                events: mask,
                revents: 0,
            });
        }
        let n = loop {
            let n = unsafe {
                ffi::poll(
                    self.scratch.as_mut_ptr(),
                    self.scratch.len() as std::os::raw::c_ulong,
                    timeout_to_ms(timeout),
                )
            };
            if n >= 0 {
                break n;
            }
            let err = last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
        };
        if n == 0 {
            return Ok(());
        }
        for (slot, &(_, token, _)) in self.scratch.iter().zip(&self.entries) {
            let revents = slot.revents;
            if revents == 0 {
                continue;
            }
            events.push(Event {
                token,
                readable: revents & ffi::POLLIN != 0,
                writable: revents & ffi::POLLOUT != 0,
                hangup: revents & (ffi::POLLHUP | ffi::POLLERR | ffi::POLLNVAL) != 0,
            });
        }
        Ok(())
    }
}

fn set_nonblocking(fd: RawFd) -> io::Result<()> {
    let flags = unsafe { ffi::fcntl(fd, ffi::F_GETFL, 0) };
    if flags < 0 {
        return Err(last_os_error());
    }
    if unsafe { ffi::fcntl(fd, ffi::F_SETFL, flags | ffi::O_NONBLOCK) } < 0 {
        return Err(last_os_error());
    }
    Ok(())
}

struct WakerInner {
    read_fd: RawFd,
    write_fd: RawFd,
    /// A wake wrote the pipe and no [`Waker::drain`] has cleared it
    /// since: further wakes skip the write.
    pending: AtomicBool,
}

impl Drop for WakerInner {
    fn drop(&mut self) {
        unsafe {
            ffi::close(self.read_fd);
            ffi::close(self.write_fd);
        }
    }
}

/// Self-pipe wakeup handle: cloneable and cheap to signal from any
/// thread. Register [`Waker::read_fd`] with a [`Poller`] (readable
/// interest); [`Waker::wake`] makes the next `wait` return, and the
/// owning loop calls [`Waker::drain`] to clear the pipe before it looks
/// at what the wakers announced. Wakes between two drains cost one pipe
/// write in all.
#[derive(Clone)]
pub struct Waker {
    inner: Arc<WakerInner>,
}

impl Waker {
    pub fn new() -> io::Result<Self> {
        let mut fds = [0i32; 2];
        if unsafe { ffi::pipe(fds.as_mut_ptr()) } < 0 {
            return Err(last_os_error());
        }
        let inner = WakerInner {
            read_fd: fds[0],
            write_fd: fds[1],
            pending: AtomicBool::new(false),
        };
        // Both ends non-blocking: `wake` must never stall its caller (a
        // full pipe already guarantees a pending wakeup), and `drain`
        // must never stall the loop.
        set_nonblocking(inner.read_fd)?;
        set_nonblocking(inner.write_fd)?;
        Ok(Self {
            inner: Arc::new(inner),
        })
    }

    /// The fd to register for readable interest.
    pub fn read_fd(&self) -> RawFd {
        self.inner.read_fd
    }

    /// Nudges the poller. A wake while an earlier one is still pending
    /// (not yet cleared by [`Waker::drain`]) writes nothing: the pipe is
    /// already readable, or the loop is inside `drain` and looks at what
    /// this wake announced after it.
    pub fn wake(&self) {
        if self.inner.pending.swap(true, Ordering::AcqRel) {
            return;
        }
        let byte = 1u8;
        unsafe {
            ffi::write(
                self.inner.write_fd,
                &byte as *const u8 as *const std::os::raw::c_void,
                1,
            );
        }
    }

    /// Empties the pipe after a wakeup so level-triggered polling goes
    /// quiet again, then clears the pending flag, in that order: a wake
    /// that lands after the pipe was read but before the flag cleared
    /// writes nothing, but the caller looks at what it announced next.
    /// The next wake after the flag clears writes the pipe again, so no
    /// wakeup is lost.
    pub fn drain(&self) {
        let mut buf = [0u8; 64];
        loop {
            let n = unsafe {
                ffi::read(
                    self.inner.read_fd,
                    buf.as_mut_ptr() as *mut std::os::raw::c_void,
                    buf.len(),
                )
            };
            if n <= 0 {
                break;
            }
        }
        self.inner.pending.swap(false, Ordering::AcqRel);
    }
}

impl std::fmt::Debug for Waker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Waker")
            .field("read_fd", &self.inner.read_fd)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write as _;
    use std::net::{TcpListener, TcpStream};
    use std::os::unix::io::AsRawFd;
    use std::time::Instant;

    fn pollers() -> Vec<(&'static str, Poller)> {
        let mut all = vec![("poll", Poller::new_portable().unwrap())];
        #[cfg(target_os = "linux")]
        all.push(("epoll", Poller::new().unwrap()));
        all
    }

    #[test]
    fn readable_socket_is_reported_under_its_token() {
        for (name, mut poller) in pollers() {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
            let (server, _) = listener.accept().unwrap();
            poller
                .register(server.as_raw_fd(), 7, Interest::READ)
                .unwrap();

            let mut events = Vec::new();
            poller
                .wait(&mut events, Some(Duration::from_millis(50)))
                .unwrap();
            assert!(events.is_empty(), "{name}: nothing written yet");

            client.write_all(b"x").unwrap();
            poller
                .wait(&mut events, Some(Duration::from_secs(5)))
                .unwrap();
            assert!(
                events.iter().any(|e| e.token == 7 && e.readable),
                "{name}: write must surface as readable, got {events:?}"
            );
            poller.deregister(server.as_raw_fd()).unwrap();
        }
    }

    #[test]
    fn write_interest_toggles_via_reregister() {
        for (name, mut poller) in pollers() {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
            let (_server, _) = listener.accept().unwrap();
            poller
                .register(client.as_raw_fd(), 3, Interest::READ)
                .unwrap();
            let mut events = Vec::new();
            poller
                .wait(&mut events, Some(Duration::from_millis(20)))
                .unwrap();
            assert!(
                events.iter().all(|e| !e.writable),
                "{name}: writable not requested"
            );
            poller
                .reregister(client.as_raw_fd(), 3, Interest::BOTH)
                .unwrap();
            poller
                .wait(&mut events, Some(Duration::from_secs(5)))
                .unwrap();
            assert!(
                events.iter().any(|e| e.token == 3 && e.writable),
                "{name}: an idle socket's send buffer is writable"
            );
        }
    }

    #[test]
    fn hangup_is_reported_when_the_peer_closes() {
        for (name, mut poller) in pollers() {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
            let (server, _) = listener.accept().unwrap();
            poller
                .register(server.as_raw_fd(), 1, Interest::READ)
                .unwrap();
            drop(client);
            let mut events = Vec::new();
            poller
                .wait(&mut events, Some(Duration::from_secs(5)))
                .unwrap();
            assert!(
                events
                    .iter()
                    .any(|e| e.token == 1 && (e.hangup || e.readable)),
                "{name}: peer close must wake the poller, got {events:?}"
            );
        }
    }

    #[test]
    fn waker_wakes_an_indefinite_wait() {
        for (name, mut poller) in pollers() {
            let waker = Waker::new().unwrap();
            poller.register(waker.read_fd(), 0, Interest::READ).unwrap();
            let remote = waker.clone();
            let nudger = std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(30));
                remote.wake();
            });
            let started = Instant::now();
            let mut events = Vec::new();
            poller.wait(&mut events, None).unwrap();
            assert!(
                events.iter().any(|e| e.token == 0 && e.readable),
                "{name}: wake must surface on the pipe"
            );
            assert!(
                started.elapsed() < Duration::from_secs(5),
                "{name}: wait returned promptly"
            );
            waker.drain();
            // Drained pipe goes quiet again (level-triggered).
            poller
                .wait(&mut events, Some(Duration::from_millis(20)))
                .unwrap();
            assert!(events.is_empty(), "{name}: drained waker stays silent");
            nudger.join().unwrap();
        }
    }

    #[test]
    fn timeout_expires_with_no_events() {
        for (name, mut poller) in pollers() {
            let waker = Waker::new().unwrap();
            poller.register(waker.read_fd(), 0, Interest::READ).unwrap();
            let started = Instant::now();
            let mut events = Vec::new();
            poller
                .wait(&mut events, Some(Duration::from_millis(30)))
                .unwrap();
            assert!(events.is_empty(), "{name}");
            assert!(
                started.elapsed() >= Duration::from_millis(25),
                "{name}: timeout honoured"
            );
        }
    }

    /// Bytes readable on `waker`'s pipe, consumed without touching the
    /// pending flag.
    fn pipe_bytes(waker: &Waker) -> usize {
        let mut buf = [0u8; 64];
        let mut total = 0;
        loop {
            let n = unsafe {
                ffi::read(
                    waker.read_fd(),
                    buf.as_mut_ptr() as *mut std::os::raw::c_void,
                    buf.len(),
                )
            };
            if n <= 0 {
                return total;
            }
            total += n as usize;
        }
    }

    #[test]
    fn wakes_before_a_drain_write_the_pipe_once() {
        let waker = Waker::new().unwrap();
        for _ in 0..100 {
            waker.wake();
        }
        assert_eq!(pipe_bytes(&waker), 1, "pending wakes coalesce");
        waker.drain();
        let mut poller = Poller::new().unwrap();
        poller.register(waker.read_fd(), 0, Interest::READ).unwrap();
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_millis(20)))
            .unwrap();
        assert!(events.is_empty(), "drained pipe is quiet");
        // The drain cleared the flag: the next wake writes again.
        waker.wake();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(
            events.iter().any(|e| e.token == 0 && e.readable),
            "a wake after a drain must make the pipe readable"
        );
        assert_eq!(pipe_bytes(&waker), 1);
    }

    #[test]
    fn coalesced_wakes_need_one_drain() {
        let waker = Waker::new().unwrap();
        for _ in 0..10_000 {
            waker.wake(); // never blocks even with the pipe full
        }
        waker.drain();
        let mut poller = Poller::new().unwrap();
        poller.register(waker.read_fd(), 0, Interest::READ).unwrap();
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_millis(20)))
            .unwrap();
        assert!(events.is_empty(), "fully drained after a wake storm");
    }
}
