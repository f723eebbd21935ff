//! Transport abstraction under the wire protocol: byte streams the
//! frames travel over.
//!
//! The offline build has no HTTP stack, so the shipping transports are
//! `std::net` TCP and (on Unix) `std::os::unix::net` domain sockets.
//! Everything above this module — framing, retry, the tier, the daemon
//! — talks to the [`Conn`]/[`Listener`] traits only, so a future
//! HTTP/object-store backend is a transport swap, not a protocol
//! rewrite.
//!
//! [`Endpoint`] is the one user-facing address type: `host:port` (an
//! optional `tcp:` prefix is accepted) or `unix:/path/to.sock`,
//! round-tripping through `Display`/`FromStr` so addresses travel
//! through CLI flags and environment variables unchanged.

use std::fmt;
use std::io::{self, Read, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::str::FromStr;
use std::time::Duration;

/// One bidirectional byte stream carrying protocol frames. Implemented
/// by [`TcpStream`] and [`UnixStream`]; every read and write is bounded
/// by the timeouts set here (the retry policy's timeout on the client,
/// the poll/io timeouts on the server), so no frame operation can stall
/// an endpoint indefinitely.
pub trait Conn: Read + Write + Send + fmt::Debug {
    /// Bound every subsequent read; `None` removes the bound.
    fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()>;
    /// Bound every subsequent write; `None` removes the bound.
    fn set_write_timeout(&self, timeout: Option<Duration>) -> io::Result<()>;
}

impl Conn for TcpStream {
    fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        TcpStream::set_read_timeout(self, timeout)
    }
    fn set_write_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        TcpStream::set_write_timeout(self, timeout)
    }
}

#[cfg(unix)]
impl Conn for UnixStream {
    fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        UnixStream::set_read_timeout(self, timeout)
    }
    fn set_write_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        UnixStream::set_write_timeout(self, timeout)
    }
}

/// A bound server socket. [`Listener::accept`] blocks until a
/// connection arrives, so a connection is served the moment it lands;
/// an accept loop that must stop is woken by one connection to the
/// listener's own endpoint (the daemon's stop path does this).
pub trait Listener: Send + fmt::Debug {
    /// Block until a connection arrives and return it. Its reads and
    /// writes are bounded by explicit timeouts ([`Conn`]).
    ///
    /// # Errors
    ///
    /// Fatal socket errors (the caller backs off and retries).
    fn accept(&self) -> io::Result<Box<dyn Conn>>;

    /// The endpoint this listener is actually bound to — for TCP with
    /// port 0 this carries the kernel-assigned port, so in-process
    /// servers (tests, benches) can tell clients where to connect.
    fn local_endpoint(&self) -> Endpoint;
}

#[derive(Debug)]
struct TcpTransportListener {
    inner: TcpListener,
    local: SocketAddr,
}

impl Listener for TcpTransportListener {
    fn accept(&self) -> io::Result<Box<dyn Conn>> {
        let (stream, _) = self.inner.accept()?;
        // match the client side: batch replies are written as header +
        // payload, and Nagle holding the short header for a delayed ACK
        // costs ~40ms per response
        stream.set_nodelay(true).ok();
        Ok(Box::new(stream))
    }

    fn local_endpoint(&self) -> Endpoint {
        Endpoint::Tcp(self.local.to_string())
    }
}

#[cfg(unix)]
#[derive(Debug)]
struct UnixTransportListener {
    inner: UnixListener,
    path: PathBuf,
    /// `(dev, ino)` of the socket file *this* listener created. Drop
    /// removes the file only while it is still this inode: a listener
    /// whose file was already replaced (stale-reclaim by a newer bind on
    /// the same path) must not delete the newer listener's live socket.
    owner: Option<(u64, u64)>,
}

#[cfg(unix)]
fn socket_file_id(path: &std::path::Path) -> Option<(u64, u64)> {
    use std::os::unix::fs::MetadataExt;
    std::fs::metadata(path).ok().map(|m| (m.dev(), m.ino()))
}

#[cfg(unix)]
impl Listener for UnixTransportListener {
    fn accept(&self) -> io::Result<Box<dyn Conn>> {
        let (stream, _) = self.inner.accept()?;
        Ok(Box::new(stream))
    }

    fn local_endpoint(&self) -> Endpoint {
        Endpoint::Unix(self.path.clone())
    }
}

#[cfg(unix)]
impl Drop for UnixTransportListener {
    fn drop(&mut self) {
        // Remove the socket file so the address is immediately
        // re-bindable — but only while it is still *our* file. If a
        // newer listener already reclaimed the path (this listener was
        // stale), deleting unconditionally would tear down the live
        // server's endpoint.
        if self.owner.is_some() && socket_file_id(&self.path) == self.owner {
            std::fs::remove_file(&self.path).ok();
        }
    }
}

/// Wakes a thread blocked in [`Listener::accept`] by connecting once to
/// the listener's own endpoint. A TCP listener bound to an unspecified
/// address (`0.0.0.0`, `[::]`) is reached through loopback.
#[derive(Debug)]
pub(crate) struct Waker {
    target: Endpoint,
    /// The Unix socket file the listener created, when it is one: a
    /// wake never connects to a path that another socket has since
    /// reclaimed, since that would reach the other listener instead.
    socket: Option<(u64, u64)>,
}

/// Bound on a wake's connect. A live listener completes a loopback
/// connect at once; this only caps a wake that cannot land.
const WAKE_CONNECT_TIMEOUT: Duration = Duration::from_secs(1);

impl Waker {
    /// A waker for `listener`. Build it right after the bind, while the
    /// socket file on a Unix path is still the listener's own.
    pub(crate) fn new(listener: &dyn Listener) -> Waker {
        let target = match listener.local_endpoint() {
            Endpoint::Tcp(addr) => match addr.parse::<SocketAddr>() {
                Ok(mut addr) if addr.ip().is_unspecified() => {
                    let loopback: IpAddr = if addr.is_ipv4() {
                        Ipv4Addr::LOCALHOST.into()
                    } else {
                        Ipv6Addr::LOCALHOST.into()
                    };
                    addr.set_ip(loopback);
                    Endpoint::Tcp(addr.to_string())
                }
                _ => Endpoint::Tcp(addr),
            },
            unix => unix,
        };
        #[cfg(unix)]
        let socket = match &target {
            Endpoint::Unix(path) => socket_file_id(path),
            Endpoint::Tcp(_) => None,
        };
        #[cfg(not(unix))]
        let socket = None;
        Waker { target, socket }
    }

    /// Connect once to the listener, so a blocked `accept` returns; the
    /// connection is dropped at once. Returns whether the wake reached
    /// the listener: `false` when it cannot (its Unix path now names
    /// another socket, or none) or the connect failed.
    pub(crate) fn wake(&self) -> bool {
        #[cfg(unix)]
        if let Endpoint::Unix(path) = &self.target {
            if socket_file_id(path) != self.socket {
                return false;
            }
        }
        self.target.connect(WAKE_CONNECT_TIMEOUT).is_ok()
    }
}

/// Wrap a connection so it consults a [`FaultPlan`] on every read and
/// write — the transport half of the fault-injection seam (the
/// [`RemoteTier`](crate::remote::RemoteTier) wraps every connection it
/// opens while a plan is armed). At most one fault fires per
/// connection: a faulted stream is doomed anyway (the client drops it
/// and retries on a fresh dial), and firing once keeps the plan's
/// counts reconcilable — one injected transport fault equals exactly
/// one failed request attempt.
pub(crate) fn faulty(
    inner: Box<dyn Conn>,
    plan: std::sync::Arc<crate::fault::FaultPlan>,
) -> Box<dyn Conn> {
    Box::new(FaultConn {
        inner,
        plan,
        fired: false,
    })
}

#[derive(Debug)]
struct FaultConn {
    inner: Box<dyn Conn>,
    plan: std::sync::Arc<crate::fault::FaultPlan>,
    fired: bool,
}

impl Read for FaultConn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        use crate::fault::FaultSite;
        if !self.fired {
            if self.plan.roll(FaultSite::Timeout) {
                self.fired = true;
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "injected fault: read timeout",
                ));
            }
            if self.plan.roll(FaultSite::DropMidFrame) {
                // EOF in the middle of a frame: read_exact sees
                // UnexpectedEof exactly as it would on a died peer.
                self.fired = true;
                return Ok(0);
            }
            if self.plan.roll(FaultSite::GarbageFrame) {
                self.fired = true;
                let n = self.inner.read(buf)?;
                if n > 0 {
                    let i = self.plan.draw(FaultSite::GarbageFrame, n as u64) as usize;
                    buf[i] ^= 0xFF;
                }
                return Ok(n);
            }
        }
        self.inner.read(buf)
    }
}

impl Write for FaultConn {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        use crate::fault::FaultSite;
        if !self.fired && !buf.is_empty() {
            if self.plan.roll(FaultSite::ChecksumTamper) {
                // Flip one byte on the way out: the peer's frame
                // checksum (or magic/length) check must reject it.
                self.fired = true;
                let mut tampered = buf.to_vec();
                let i = self.plan.draw(FaultSite::ChecksumTamper, buf.len() as u64) as usize;
                tampered[i] ^= 0xFF;
                self.inner.write_all(&tampered)?;
                return Ok(buf.len());
            }
            if self.plan.roll(FaultSite::DropMidFrame) {
                // Half the bytes land, then the connection dies.
                self.fired = true;
                let half = buf.len() / 2;
                if half > 0 {
                    self.inner.write_all(&buf[..half]).ok();
                }
                return Err(io::Error::new(
                    io::ErrorKind::BrokenPipe,
                    "injected fault: connection dropped mid-frame",
                ));
            }
        }
        self.inner.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

impl Conn for FaultConn {
    fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        self.inner.set_read_timeout(timeout)
    }
    fn set_write_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        self.inner.set_write_timeout(timeout)
    }
}

/// A remote server address: TCP (`host:port`, optionally prefixed
/// `tcp:`) or a Unix domain socket (`unix:/path/to.sock`).
///
/// ```
/// use asip_explorer::remote::Endpoint;
///
/// let tcp: Endpoint = "127.0.0.1:9317".parse()?;
/// assert_eq!(tcp.to_string(), "127.0.0.1:9317");
/// let unix: Endpoint = "unix:/tmp/asip.sock".parse()?;
/// assert_eq!(unix.to_string(), "unix:/tmp/asip.sock");
/// # Ok::<(), String>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Endpoint {
    /// A TCP address in `host:port` form.
    Tcp(String),
    /// A Unix domain socket path. Parsed everywhere; connect/bind fail
    /// with an unsupported-transport error on non-Unix platforms.
    Unix(PathBuf),
}

impl Endpoint {
    /// Parse an endpoint string (see the type docs for the grammar).
    ///
    /// # Errors
    ///
    /// A human-readable description of why the address is malformed.
    pub fn parse(s: &str) -> Result<Endpoint, String> {
        if let Some(path) = s.strip_prefix("unix:") {
            if path.is_empty() {
                return Err("empty unix socket path".into());
            }
            return Ok(Endpoint::Unix(PathBuf::from(path)));
        }
        let addr = s.strip_prefix("tcp:").unwrap_or(s);
        if addr.is_empty() {
            return Err("empty address".into());
        }
        match addr.rsplit_once(':') {
            Some((host, port)) if !host.is_empty() && port.parse::<u16>().is_ok() => {
                Ok(Endpoint::Tcp(addr.to_string()))
            }
            _ => Err(format!(
                "`{addr}` is not host:port (or unix:/path for a domain socket)"
            )),
        }
    }

    /// Open a connection with a bounded connect time. Read/write
    /// timeouts are the caller's to set ([`Conn`]).
    ///
    /// # Errors
    ///
    /// Connection refusal, resolution failure, connect timeout, or an
    /// unsupported transport on this platform.
    pub fn connect(&self, timeout: Duration) -> io::Result<Box<dyn Conn>> {
        match self {
            Endpoint::Tcp(addr) => {
                let resolved = addr.to_socket_addrs()?.next().ok_or_else(|| {
                    io::Error::new(
                        io::ErrorKind::AddrNotAvailable,
                        format!("`{addr}` resolved to no address"),
                    )
                })?;
                let stream = TcpStream::connect_timeout(&resolved, timeout)?;
                stream.set_nodelay(true).ok();
                Ok(Box::new(stream))
            }
            #[cfg(unix)]
            Endpoint::Unix(path) => {
                // no connect_timeout in std for unix sockets; connects
                // are local and either succeed or fail immediately
                let stream = UnixStream::connect(path)?;
                Ok(Box::new(stream))
            }
            #[cfg(not(unix))]
            Endpoint::Unix(_) => Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "unix domain sockets are not available on this platform",
            )),
        }
    }

    /// Bind a listener on this endpoint. A TCP port of 0
    /// binds an ephemeral port (read it back via
    /// [`Listener::local_endpoint`]); a Unix bind replaces a stale
    /// socket file left by a dead server, refusing only when a live
    /// server still answers on it.
    ///
    /// # Errors
    ///
    /// Bind failures (address in use by a live server, permissions) or
    /// an unsupported transport on this platform.
    pub fn bind(&self) -> io::Result<Box<dyn Listener>> {
        match self {
            Endpoint::Tcp(addr) => {
                let inner = TcpListener::bind(addr.as_str())?;
                let local = inner.local_addr()?;
                Ok(Box::new(TcpTransportListener { inner, local }))
            }
            #[cfg(unix)]
            Endpoint::Unix(path) => {
                let inner = match UnixListener::bind(path) {
                    Ok(l) => l,
                    Err(e) if e.kind() == io::ErrorKind::AddrInUse => {
                        if UnixStream::connect(path).is_ok() {
                            return Err(e); // a live server owns it
                        }
                        std::fs::remove_file(path)?;
                        UnixListener::bind(path)?
                    }
                    Err(e) => return Err(e),
                };
                let owner = socket_file_id(path);
                Ok(Box::new(UnixTransportListener {
                    inner,
                    path: path.clone(),
                    owner,
                }))
            }
            #[cfg(not(unix))]
            Endpoint::Unix(_) => Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "unix domain sockets are not available on this platform",
            )),
        }
    }
}

impl fmt::Display for Endpoint {
    /// The inverse of [`Endpoint::parse`], so addresses round-trip
    /// through CLI flags and environment variables unchanged.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Endpoint::Tcp(addr) => write!(f, "{addr}"),
            Endpoint::Unix(path) => write!(f, "unix:{}", path.display()),
        }
    }
}

impl FromStr for Endpoint {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Endpoint::parse(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn endpoint_grammar_round_trips() {
        for (input, display) in [
            ("127.0.0.1:9317", "127.0.0.1:9317"),
            ("tcp:localhost:80", "localhost:80"),
            ("unix:/tmp/asip.sock", "unix:/tmp/asip.sock"),
        ] {
            let e = Endpoint::parse(input).expect(input);
            assert_eq!(e.to_string(), display);
            assert_eq!(display.parse::<Endpoint>().expect(display), e);
        }
    }

    #[test]
    fn malformed_endpoints_are_rejected() {
        for bad in ["", "unix:", "tcp:", "justahost", "host:notaport", ":80"] {
            assert!(Endpoint::parse(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn tcp_loopback_connect_and_accept() {
        let listener = Endpoint::parse("127.0.0.1:0")
            .unwrap()
            .bind()
            .expect("binds ephemeral port");
        let endpoint = listener.local_endpoint();
        assert!(!endpoint.to_string().ends_with(":0"), "real port resolved");
        let mut client = endpoint.connect(Duration::from_secs(1)).expect("connects");
        let mut server = listener.accept().expect("accepts");
        client.write_all(b"hello").unwrap();
        let mut buf = [0u8; 5];
        server.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"hello");
    }

    #[cfg(unix)]
    #[test]
    fn unix_socket_binds_and_reclaims_stale_files() {
        let path = std::env::temp_dir().join(format!("asip-transport-{}.sock", std::process::id()));
        std::fs::remove_file(&path).ok();
        let endpoint = Endpoint::Unix(path.clone());
        {
            let listener = endpoint.bind().expect("binds");
            let mut client = endpoint.connect(Duration::from_secs(1)).expect("connects");
            let mut server = listener.accept().expect("accepts");
            client.write_all(b"hi").unwrap();
            let mut buf = [0u8; 2];
            server.read_exact(&mut buf).unwrap();
            assert_eq!(&buf, b"hi");
        }
        assert!(!path.exists(), "socket file removed on drop");
        // a crashed server leaves its socket file behind (std's
        // UnixListener does not clean up); the next bind must reclaim it
        drop(UnixListener::bind(&path).expect("raw bind"));
        assert!(path.exists(), "stale socket file left behind");
        let listener = endpoint.bind().expect("stale socket file reclaimed");
        drop(listener);
        assert!(!path.exists(), "socket file removed on drop again");
    }

    #[cfg(unix)]
    #[test]
    fn stale_listener_drop_does_not_remove_a_reclaimed_socket() {
        // The race: listener A's socket file is replaced on the same
        // path by listener B (stale-reclaim), then A is dropped late. A
        // must not delete B's live socket out from under it.
        let path =
            std::env::temp_dir().join(format!("asip-transport-race-{}.sock", std::process::id()));
        std::fs::remove_file(&path).ok();
        let endpoint = Endpoint::Unix(path.clone());

        let stale = endpoint.bind().expect("first bind");
        // Simulate the crashed-daemon cleanup path: the file is removed
        // externally and a second listener binds the same path afresh.
        std::fs::remove_file(&path).expect("external cleanup");
        let live = endpoint.bind().expect("second bind on the same path");

        drop(stale);
        assert!(
            path.exists(),
            "stale listener's late drop must not delete the live socket"
        );
        // The live listener still accepts.
        let mut client = endpoint.connect(Duration::from_secs(1)).expect("connects");
        let mut server = live.accept().expect("accepts");
        client.write_all(b"ok").unwrap();
        let mut buf = [0u8; 2];
        server.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"ok");

        drop(live);
        assert!(!path.exists(), "owner removes its own socket on drop");
    }

    #[test]
    fn a_waker_reaches_a_listener_on_an_unspecified_address_through_loopback() {
        let listener = Endpoint::parse("0.0.0.0:0")
            .unwrap()
            .bind()
            .expect("binds every interface");
        let waker = Waker::new(listener.as_ref());
        assert!(waker.target.to_string().starts_with("127.0.0.1:"));
        assert!(waker.wake(), "loopback reaches the listener");
        listener.accept().expect("the wake connection arrives");
    }

    #[cfg(unix)]
    #[test]
    fn a_waker_never_connects_to_a_reclaimed_unix_path() {
        let path =
            std::env::temp_dir().join(format!("asip-transport-wake-{}.sock", std::process::id()));
        std::fs::remove_file(&path).ok();
        let endpoint = Endpoint::Unix(path.clone());
        let stale = endpoint.bind().expect("first bind");
        let waker = Waker::new(stale.as_ref());
        assert!(waker.wake(), "the path is still the listener's own");
        stale.accept().expect("the wake connection arrives");

        std::fs::remove_file(&path).expect("external cleanup");
        let live = endpoint.bind().expect("second bind on the same path");
        assert!(!waker.wake(), "the path now names another socket");
        drop(stale);
        drop(live);
        assert!(!waker.wake(), "no socket at the path");
    }
}
