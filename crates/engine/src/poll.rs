//! A minimal safe wrapper over `poll(2)` — the only readiness
//! primitive the event-driven server needs, and the engine's only FFI
//! (`listkit::pages` declares `madvise` the same way).
//!
//! The crate is `#![deny(unsafe_code)]`; the raw declaration and the
//! two `unsafe` expressions live in the tiny `ffi` module below with a
//! scoped allow, so the rest of the crate stays statically
//! unsafe-free. `poll` is in POSIX.1-2001 and is provided by the same
//! `libc` every Rust std binary on unix already links — no new
//! dependency.
#![cfg(unix)]

use std::io;
use std::os::unix::io::RawFd;

/// Readiness: data available to read (POLLIN).
pub const POLLIN: i16 = 0x001;
/// Readiness: writable without blocking (POLLOUT).
pub const POLLOUT: i16 = 0x004;
/// Condition: error on the fd (POLLERR; revents-only).
pub const POLLERR: i16 = 0x008;
/// Condition: peer hung up (POLLHUP; revents-only).
pub const POLLHUP: i16 = 0x010;
/// Condition: fd not open (POLLNVAL; revents-only).
pub const POLLNVAL: i16 = 0x020;

/// One fd's interest set and, after [`poll`], its readiness. Layout
/// matches `struct pollfd` exactly so the slice can be handed to the
/// kernel as-is.
#[repr(C)]
#[derive(Clone, Copy, Debug)]
pub struct PollFd {
    fd: RawFd,
    events: i16,
    revents: i16,
}

impl PollFd {
    /// Interest in `events` (a bitmask of [`POLLIN`] / [`POLLOUT`])
    /// on `fd`.
    pub fn new(fd: RawFd, events: i16) -> Self {
        PollFd { fd, events, revents: 0 }
    }

    /// The fd this entry watches.
    pub fn fd(&self) -> RawFd {
        self.fd
    }

    /// Readiness reported by the last [`poll`] call.
    pub fn revents(&self) -> i16 {
        self.revents
    }

    /// Whether the fd is readable (or has an error/hangup condition,
    /// which reads surface as `Ok(0)` / `Err` — both must wake the
    /// read path).
    pub fn readable(&self) -> bool {
        self.revents & (POLLIN | POLLERR | POLLHUP | POLLNVAL) != 0
    }

    /// Whether the fd is writable (or in an error state the write
    /// path must observe).
    pub fn writable(&self) -> bool {
        self.revents & (POLLOUT | POLLERR | POLLHUP | POLLNVAL) != 0
    }
}

#[allow(unsafe_code)]
mod ffi {
    use super::PollFd;

    extern "C" {
        fn poll(
            fds: *mut PollFd,
            nfds: std::ffi::c_ulong,
            timeout: std::ffi::c_int,
        ) -> std::ffi::c_int;
    }

    /// Invoke `poll(2)` on the slice. Safety: `PollFd` is
    /// `#[repr(C)]` with the exact `struct pollfd` layout, and the
    /// pointer/length pair comes from a live mutable slice.
    pub(super) fn poll_raw(fds: &mut [PollFd], timeout_ms: i32) -> i32 {
        unsafe { poll(fds.as_mut_ptr(), fds.len() as std::ffi::c_ulong, timeout_ms) }
    }
}

/// Block until at least one fd in `fds` is ready or `timeout_ms`
/// elapses (`-1` = no timeout). Returns the number of ready entries
/// (`0` on timeout); `revents` is updated in place. `EINTR` is
/// retried internally — callers never see it.
pub fn poll(fds: &mut [PollFd], timeout_ms: i32) -> io::Result<usize> {
    loop {
        let rc = ffi::poll_raw(fds, timeout_ms);
        if rc >= 0 {
            return Ok(rc as usize);
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::os::unix::io::AsRawFd;
    use std::os::unix::net::UnixStream;

    #[test]
    fn reports_readable_after_write() {
        let (mut a, b) = UnixStream::pair().expect("socketpair");
        let mut fds = [PollFd::new(b.as_raw_fd(), POLLIN)];
        let ready = poll(&mut fds, 0).expect("poll");
        assert_eq!(ready, 0, "nothing written yet");
        assert!(!fds[0].readable());
        a.write_all(b"x").expect("write");
        let ready = poll(&mut fds, 1000).expect("poll");
        assert_eq!(ready, 1);
        assert!(fds[0].readable());
    }

    #[test]
    fn reports_writable_and_hangup() {
        let (a, b) = UnixStream::pair().expect("socketpair");
        let mut fds = [PollFd::new(a.as_raw_fd(), POLLOUT)];
        let ready = poll(&mut fds, 1000).expect("poll");
        assert_eq!(ready, 1, "fresh socket has send-buffer space");
        assert!(fds[0].writable());
        drop(b);
        let mut fds = [PollFd::new(a.as_raw_fd(), POLLIN)];
        let ready = poll(&mut fds, 1000).expect("poll");
        assert_eq!(ready, 1, "peer close must wake the read interest");
        assert!(fds[0].readable());
    }
}
