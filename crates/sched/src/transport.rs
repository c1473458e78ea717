//! The daemon's two stream transports behind one socket type.
//!
//! The paper's callers are processes on the scheduler's own host
//! (§3.2), and a decide is ~98 % transport: over loopback TCP roughly a
//! third of every round trip is the kernel's TCP stack. So beside its
//! TCP listener the daemon binds a Linux **abstract-namespace Unix
//! stream socket** named after the TCP port ([`local_name`]), and
//! [`crate::V2Client`] — given a *loopback* address — dials that name
//! first and falls back to TCP when the dial fails for any reason (no
//! such name: a proxy, a v1 text server, a TCP-only peer; a full
//! accept backlog; a platform without abstract sockets). The caller
//! names the server, never the transport, and nothing above this
//! module branches on which one it got: [`Stream`] is the only
//! divergence.
//!
//! Trust model: exactly loopback TCP's. Abstract names carry no file
//! permissions — any process in the daemon's network namespace may
//! connect — which is what `127.0.0.1:<port>` already allowed.

use std::io::{self, Read, Write};
use std::net::{IpAddr, Ipv4Addr, SocketAddr, TcpStream};
use std::os::unix::io::{AsRawFd, RawFd};
use std::os::unix::net::{UnixListener, UnixStream};
use std::time::Duration;

/// A local peer's address for everything keyed by peer IP (the
/// quarantine ban list): it *is* a loopback caller, so a ban earned on
/// either transport refuses both.
const LOCAL_PEER: IpAddr = IpAddr::V4(Ipv4Addr::LOCALHOST);

/// The abstract-namespace name of the local listener of the daemon
/// whose TCP listener is on `port`: `xar-sched:<port>` (no leading NUL
/// — that is the namespace marker, not part of the name). One name per
/// port per network namespace.
pub fn local_name(port: u16) -> String {
    format!("xar-sched:{port}")
}

/// One accepted or dialed connection, on either transport.
#[derive(Debug)]
pub(crate) enum Stream {
    Tcp(TcpStream),
    Local(UnixStream),
}

impl Stream {
    pub(crate) fn is_local(&self) -> bool {
        matches!(self, Stream::Local(_))
    }

    /// The peer's address as the quarantine list keys it (`None` if a
    /// TCP socket cannot name its peer — such a peer cannot be banned).
    pub(crate) fn peer_ip(&self) -> Option<IpAddr> {
        match self {
            Stream::Tcp(s) => s.peer_addr().ok().map(|a| a.ip()),
            Stream::Local(_) => Some(LOCAL_PEER),
        }
    }

    pub(crate) fn set_nonblocking(&self, nonblocking: bool) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.set_nonblocking(nonblocking),
            Stream::Local(s) => s.set_nonblocking(nonblocking),
        }
    }

    pub(crate) fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.set_read_timeout(timeout),
            Stream::Local(s) => s.set_read_timeout(timeout),
        }
    }

    pub(crate) fn set_write_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.set_write_timeout(timeout),
            Stream::Local(s) => s.set_write_timeout(timeout),
        }
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.read(buf),
            Stream::Local(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.write(buf),
            Stream::Local(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(()) // neither socket type buffers in userspace
    }
}

impl AsRawFd for Stream {
    fn as_raw_fd(&self) -> RawFd {
        match self {
            Stream::Tcp(s) => s.as_raw_fd(),
            Stream::Local(s) => s.as_raw_fd(),
        }
    }
}

/// Binds the nonblocking local listener for the daemon on `port`;
/// `Ok(None)` where the platform has no abstract namespace.
///
/// # Errors
///
/// `AddrInUse` when another socket holds the name — the daemon treats
/// it like a taken TCP port.
#[cfg(target_os = "linux")]
pub(crate) fn bind_local(port: u16) -> io::Result<Option<UnixListener>> {
    use std::os::linux::net::SocketAddrExt;
    let addr = std::os::unix::net::SocketAddr::from_abstract_name(local_name(port))?;
    let listener = UnixListener::bind_addr(&addr)?;
    listener.set_nonblocking(true)?;
    Ok(Some(listener))
}

#[cfg(not(target_os = "linux"))]
pub(crate) fn bind_local(_port: u16) -> io::Result<Option<UnixListener>> {
    Ok(None)
}

/// The client's whole transport choice: a loopback `addr` names a
/// daemon on this host, so its local name is dialed first; anything
/// else — and any local dial that fails — goes over TCP (bounded by
/// `connect_timeout` if given), exactly as before there was a choice.
///
/// # Errors
///
/// The TCP connect's.
pub(crate) fn dial(addr: SocketAddr, connect_timeout: Option<Duration>) -> io::Result<Stream> {
    if let Some(local) = addr.ip().is_loopback().then(|| dial_local(addr.port())).flatten() {
        return Ok(Stream::Local(local));
    }
    let tcp = match connect_timeout {
        Some(t) => TcpStream::connect_timeout(&addr, t)?,
        None => TcpStream::connect(addr)?,
    };
    tcp.set_nodelay(true)?;
    Ok(Stream::Tcp(tcp))
}

/// Dials the local name of the daemon on `port`, or `None` on any
/// failure.
///
/// The connect is issued on a *nonblocking* socket, which for
/// `AF_UNIX` stream sockets means it completes or fails on the spot —
/// `ECONNREFUSED` without a listener, `EAGAIN` on a full accept
/// backlog, never `EINPROGRESS` — so a local dial cannot outlive any
/// connect timeout, whatever the daemon is doing. std offers no
/// unconnected `UnixStream` to make nonblocking first, hence the two
/// raw libc calls (constants are the generic Linux ABI's, which is
/// what both ISAs below use).
#[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
fn dial_local(port: u16) -> Option<UnixStream> {
    use std::os::unix::io::FromRawFd;

    /// `struct sockaddr_un`.
    #[repr(C)]
    struct SockaddrUn {
        family: u16,
        path: [u8; 108],
    }
    extern "C" {
        fn socket(domain: i32, ty: i32, protocol: i32) -> i32;
        fn connect(fd: i32, addr: *const SockaddrUn, len: u32) -> i32;
    }
    const AF_UNIX: i32 = 1;
    const SOCK_STREAM: i32 = 1;
    const SOCK_NONBLOCK: i32 = 0o4000;
    const SOCK_CLOEXEC: i32 = 0o2_000_000;

    let name = local_name(port);
    // path[0] stays NUL: the abstract-namespace marker.
    let mut addr = SockaddrUn { family: AF_UNIX as u16, path: [0; 108] };
    addr.path[1..=name.len()].copy_from_slice(name.as_bytes());
    let len = (std::mem::size_of::<u16>() + 1 + name.len()) as u32;
    // SAFETY: `socket(2)` takes three integers and touches no memory.
    let fd = unsafe { socket(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0) };
    if fd < 0 {
        return None;
    }
    // SAFETY: `fd` is the open descriptor `socket` just returned and
    // nothing else owns it; the `UnixStream` closes it on every path.
    let stream = unsafe { UnixStream::from_raw_fd(fd) };
    // SAFETY: `addr` is a live, fully initialized `sockaddr_un` and
    // `len` (at most 2 + 1 + 15) is within it; `connect(2)` only reads.
    if unsafe { connect(fd, &addr, len) } != 0 {
        return None;
    }
    stream.set_nonblocking(false).ok()?;
    Some(stream)
}

#[cfg(not(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64"))))]
fn dial_local(_port: u16) -> Option<UnixStream> {
    None
}

#[cfg(all(test, target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
mod tests {
    use super::*;

    #[test]
    fn dial_reaches_the_bound_name_and_fails_fast_without_one() {
        // Holding the TCP port (as a daemon does) keeps its name ours.
        let tcp = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let port = tcp.local_addr().unwrap().port();
        assert!(dial_local(port).is_none(), "no listener: the dial must refuse, not hang");
        let listener = bind_local(port).unwrap().expect("linux has abstract sockets");
        let mut dialed = dial_local(port).expect("listener is bound");
        let (mut accepted, _) = loop {
            match listener.accept() {
                Ok(pair) => break pair,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => std::thread::yield_now(),
                Err(e) => panic!("accept: {e}"),
            }
        };
        // The dialed socket was handed back blocking.
        accepted.set_nonblocking(false).unwrap();
        dialed.write_all(b"ping").unwrap();
        let mut buf = [0u8; 4];
        accepted.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"ping");
        accepted.write_all(b"pong").unwrap();
        dialed.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"pong");
        // A second bind of the name is the daemon's "port taken".
        assert_eq!(bind_local(port).unwrap_err().kind(), io::ErrorKind::AddrInUse);
        // Closing the listener frees the name at once.
        drop(listener);
        assert!(dial_local(port).is_none());
        drop(bind_local(port).unwrap());
    }
}
