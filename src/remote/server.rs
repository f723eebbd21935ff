//! The daemon half of exploration-as-a-service: [`serve`] runs one warm
//! [`Explorer`] session behind a socket and answers artifact operations
//! from its tier stack.
//!
//! The daemon is deliberately thin: it does not compute on behalf of
//! clients (a `get` miss is a miss — the *client* computes and writes
//! the result back through `put`), so a slow client cannot occupy the
//! server with stage work. What the server provides is its resident
//! tier stack — staging memory plus disk store — shared across every
//! client process, and a `stats` op exposing its own session counters
//! so tests can observe single-flight behaviour fleet-wide.
//!
//! Threading model: one accept thread blocks in `accept`, so a new
//! connection is read the moment it lands. Each connection is served by
//! a worker thread until the peer hangs up, the idle timeout passes, or
//! shutdown is requested; the worker then parks, and the next connection
//! goes to a parked worker before any new thread is spawned. A worker
//! parked for the idle timeout exits. Shutdown (the
//! [`Request::Shutdown`](crate::remote::Request) op,
//! [`ServerHandle::request_shutdown`] or dropping the handle) sets the
//! stop flag, releases parked workers and wakes the accept loop with one
//! connection to the daemon's own endpoint; joining then waits bounded
//! for in-flight connections to drain. Every entry is already appended
//! to the store's segment when its `put` is answered, so there is
//! nothing to flush.
//!
//! A `get` that a persistent tier answers also lands in the session's
//! staging memory tier, so the next client reads it from memory instead
//! of the disk (see [`ServeOptions`]).

use crate::artifact::Stage;
use crate::remote::proto::{
    batch_hit_extra_bytes, batch_miss_body_bytes, read_frame_after, write_frame, Request, Response,
    ServeStats, ServerInfo, MAX_BODY_BYTES, PROTO_VERSION,
};
use crate::remote::transport::{Conn, Endpoint, Listener, Waker};
use crate::session::Explorer;
use crate::store::FORMAT_VERSION;
use crate::tier::TierRead;
use std::collections::VecDeque;
use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tunables of a [`serve`] daemon.
///
/// The daemon accepts on arrival: a new connection waits for no timer,
/// whatever the `poll_interval`. Connection threads are reused: a worker
/// whose connection ended parks for up to `idle_timeout` and takes the
/// next connection, and a thread is spawned only when no worker is
/// parked. Entries the daemon reads from a persistent tier (its store)
/// are promoted into the session's staging memory tier, which its byte
/// budget (64 MiB by default, LRU) bounds; keys are content hashes, so a
/// promoted entry never goes stale. The daemon session's own stage
/// requests may then count such entries as prefetch hits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeOptions {
    /// Bound on each read/write once a frame has started. A slow
    /// client that stalls mid-frame (or stops draining responses) is
    /// cut loose after this long rather than pinning its thread.
    pub io_timeout: Duration,
    /// How often idle connections re-check the stop flag, so the upper
    /// bound on shutdown latency per connection, and the step of the
    /// bounded drain wait on shutdown. Not a latency floor: new
    /// connections are accepted on arrival.
    pub poll_interval: Duration,
    /// Bound on *data* requests (`get`/`get_batch`/`put`/`contains`)
    /// being served at once, across all connections. A request landing
    /// at the bound is shed with [`Response::Overloaded`] — a typed,
    /// retryable answer, not an error — so a client stampede degrades
    /// to client-side recompute instead of queueing without bound.
    /// Control ops (`ping`/`stats`/`shutdown`) are exempt: health
    /// probes and drain must work precisely when the daemon is busiest.
    pub max_inflight: usize,
    /// Budget for answering one request. Only `get_batch` can run long
    /// enough to matter: once the deadline passes, remaining keys in
    /// the batch are answered `None` (each counted as
    /// `deadline_truncated`), which the client treats as misses and
    /// recomputes — degraded, never wrong.
    pub request_deadline: Duration,
    /// How long a connection may sit idle (no frame started) before the
    /// daemon reaps it to bound thread count against clients that
    /// connect and forget. Reaps are counted as `idle_reaped`. Also how
    /// long a worker thread stays parked for the next connection before
    /// it exits.
    pub idle_timeout: Duration,
}

impl Default for ServeOptions {
    /// Ten-second I/O bound, 5ms stop-flag poll on idle connections,
    /// 64 in-flight data requests, thirty-second request deadline,
    /// sixty-second idle reap (and worker park).
    fn default() -> Self {
        ServeOptions {
            io_timeout: Duration::from_secs(10),
            poll_interval: Duration::from_millis(5),
            max_inflight: 64,
            request_deadline: Duration::from_secs(30),
            idle_timeout: Duration::from_secs(60),
        }
    }
}

/// How long [`serve`]'s shutdown path waits for connection threads
/// before abandoning them (their threads still exit on their next
/// stop-flag poll; only the *wait* is bounded).
const DRAIN_BOUND: Duration = Duration::from_secs(5);

#[derive(Debug, Default)]
struct ServeCounters {
    requests: AtomicU64,
    gets: AtomicU64,
    batch_keys: AtomicU64,
    puts: AtomicU64,
    contains: AtomicU64,
    pings: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    bytes_in: AtomicU64,
    bytes_out: AtomicU64,
    connections: AtomicU64,
    frame_errors: AtomicU64,
    overloaded: AtomicU64,
    panics: AtomicU64,
    deadline_truncated: AtomicU64,
    size_truncated: AtomicU64,
    idle_reaped: AtomicU64,
}

struct Shared {
    session: Arc<Explorer>,
    counters: ServeCounters,
    stop: AtomicBool,
    active: AtomicUsize,
    inflight: AtomicUsize,
    options: ServeOptions,
    /// Wakes the accept loop out of its blocking accept on stop.
    waker: Waker,
    /// Parked workers and the connections handed to them.
    pool: Mutex<Pool>,
    /// Signals a parked worker that a connection was handed over.
    handoff: Condvar,
    /// Signals a [`ServerHandle::join`] waiting for the stop flag.
    stopped: Condvar,
    /// Live connection threads.
    workers: AtomicUsize,
    /// Connection threads spawned over the daemon's life.
    spawned: AtomicUsize,
}

/// Parked connection threads. Under the lock, `handed.len() <= idle`
/// always holds: a connection is queued only while a parked worker is
/// free to take it, and a parked worker exits only once the queue is
/// empty, so a worker that times out can never strand a connection.
#[derive(Default)]
struct Pool {
    /// Workers parked (or about to take a handed connection).
    idle: usize,
    /// Connections handed over and not yet taken.
    handed: VecDeque<Box<dyn Conn>>,
}

/// RAII claim on one of the daemon's [`ServeOptions::max_inflight`]
/// data-request slots; releases on drop, panic or not.
struct InflightSlot<'a> {
    shared: &'a Shared,
}

impl Drop for InflightSlot<'_> {
    fn drop(&mut self) {
        self.shared.inflight.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Whether a request occupies an in-flight slot. Control ops are
/// exempt so probes and shutdown work under overload.
fn is_data_op(req: &Request) -> bool {
    matches!(
        req,
        Request::Get { .. }
            | Request::GetBatch { .. }
            | Request::Put { .. }
            | Request::Contains { .. }
    )
}

impl Shared {
    fn new(session: Arc<Explorer>, options: ServeOptions, waker: Waker) -> Shared {
        Shared {
            session,
            counters: ServeCounters::default(),
            stop: AtomicBool::new(false),
            active: AtomicUsize::new(0),
            inflight: AtomicUsize::new(0),
            options,
            waker,
            pool: Mutex::new(Pool::default()),
            handoff: Condvar::new(),
            stopped: Condvar::new(),
            workers: AtomicUsize::new(0),
            spawned: AtomicUsize::new(0),
        }
    }

    fn add(&self, cell: &AtomicU64, n: u64) {
        cell.fetch_add(n, Ordering::Relaxed);
    }

    /// Claim an in-flight slot, or `None` at the bound. Optimistic
    /// add-then-check keeps the claim a single atomic in the common
    /// case; the transient overshoot only ever sheds harder, never
    /// admits past the bound.
    fn try_acquire_slot(&self) -> Option<InflightSlot<'_>> {
        let prev = self.inflight.fetch_add(1, Ordering::SeqCst);
        if prev >= self.options.max_inflight {
            self.inflight.fetch_sub(1, Ordering::SeqCst);
            return None;
        }
        Some(InflightSlot { shared: self })
    }

    /// Assemble the stats reply: wire counters from the daemon,
    /// per-stage compute counts and tier totals from the session.
    fn stats(&self) -> ServeStats {
        let cache = self.session.cache_stats();
        let c = &self.counters;
        ServeStats {
            requests: c.requests.load(Ordering::Relaxed),
            gets: c.gets.load(Ordering::Relaxed),
            batch_keys: c.batch_keys.load(Ordering::Relaxed),
            puts: c.puts.load(Ordering::Relaxed),
            contains: c.contains.load(Ordering::Relaxed),
            pings: c.pings.load(Ordering::Relaxed),
            hits: c.hits.load(Ordering::Relaxed),
            misses: c.misses.load(Ordering::Relaxed),
            bytes_in: c.bytes_in.load(Ordering::Relaxed),
            bytes_out: c.bytes_out.load(Ordering::Relaxed),
            connections: c.connections.load(Ordering::Relaxed),
            frame_errors: c.frame_errors.load(Ordering::Relaxed),
            overloaded: c.overloaded.load(Ordering::Relaxed),
            panics: c.panics.load(Ordering::Relaxed),
            deadline_truncated: c.deadline_truncated.load(Ordering::Relaxed),
            size_truncated: c.size_truncated.load(Ordering::Relaxed),
            idle_reaped: c.idle_reaped.load(Ordering::Relaxed),
            stage_computes: Stage::all()
                .into_iter()
                .map(|s| (s.name().to_string(), cache.stage(s).misses))
                .collect(),
            tier_totals: cache
                .tiers
                .iter()
                .map(|t| (t.name.to_string(), t.total()))
                .collect(),
        }
    }

    /// Read `(stage, key)` from the resident stack, top tier down. A
    /// miss everywhere stays a miss — the client computes. A hit in a
    /// persistent tier, whose bytes passed that tier's checksum, is
    /// promoted into the topmost non-persistent tier above it (the
    /// staging memory tier), so the next read of a hot entry skips the
    /// disk. Keys are content hashes, so a promoted entry cannot go
    /// stale, whatever later puts, GC or file deletion do.
    fn find(&self, stage: Stage, key: u64) -> Option<Vec<u8>> {
        let tiers = self.session.tier_stack().tiers();
        for (depth, tier) in tiers.iter().enumerate() {
            if let TierRead::Hit(payload) = tier.get(stage, key) {
                if tier.persistent() {
                    if let Some(hot) = tiers[..depth].iter().find(|t| !t.persistent()) {
                        hot.put(stage, key, &payload);
                    }
                }
                return Some(payload);
            }
        }
        None
    }

    /// Count one answered probe as a hit or a miss.
    fn count_probe(&self, hit: bool) {
        let cell = if hit {
            &self.counters.hits
        } else {
            &self.counters.misses
        };
        self.add(cell, 1);
    }

    /// Serve a `get_batch` probe. Two bounds answer keys `None`, which
    /// the client treats as misses — degraded, never wrong. Once the
    /// request `deadline` passes, every remaining key is
    /// `deadline_truncated`. The first hit that would push the response
    /// body past `body_budget` (the frame cap in production), and every
    /// key after it, are `size_truncated`, so the reply always fits in
    /// a frame the client accepts.
    fn get_batch(
        &self,
        keys: Vec<(Stage, u64)>,
        deadline: Instant,
        body_budget: usize,
    ) -> Vec<Option<Vec<u8>>> {
        self.add(&self.counters.batch_keys, keys.len() as u64);
        let mut body_bytes = batch_miss_body_bytes(keys.len());
        let mut full = false;
        let mut reads = Vec::with_capacity(keys.len());
        for (stage, key) in keys {
            if full {
                self.add(&self.counters.size_truncated, 1);
                reads.push(None);
                continue;
            }
            if Instant::now() >= deadline {
                self.add(&self.counters.deadline_truncated, 1);
                reads.push(None);
                continue;
            }
            let read = self.find(stage, key);
            let extra = read.as_ref().map_or(0, |p| batch_hit_extra_bytes(p.len()));
            if body_bytes + extra > body_budget {
                full = true;
                self.add(&self.counters.size_truncated, 1);
                reads.push(None);
                continue;
            }
            body_bytes += extra;
            self.count_probe(read.is_some());
            reads.push(read);
        }
        reads
    }

    /// Answer one decoded request. `deadline` bounds the work: only
    /// `get_batch` iterates long enough to check it.
    fn handle(&self, req: Request, deadline: Instant) -> Response {
        match req {
            Request::Ping => {
                self.add(&self.counters.pings, 1);
                Response::Pong(ServerInfo {
                    proto_version: PROTO_VERSION,
                    format_version: FORMAT_VERSION,
                    crate_version: env!("CARGO_PKG_VERSION").to_string(),
                })
            }
            Request::Get { stage, key } => {
                self.add(&self.counters.gets, 1);
                let read = self.find(stage, key);
                self.count_probe(read.is_some());
                Response::Value(read)
            }
            Request::GetBatch { keys } => {
                Response::Batch(self.get_batch(keys, deadline, MAX_BODY_BYTES as usize))
            }
            Request::Put {
                stage,
                key,
                payload,
            } => {
                self.add(&self.counters.puts, 1);
                let mut landed = false;
                for tier in self.session.tier_stack().tiers() {
                    if tier.persistent() {
                        landed |= tier.put(stage, key, &payload);
                    } else if tier.contains(stage, key) {
                        // a copy `find` promoted must not outlive the
                        // entry it was read from
                        tier.put(stage, key, &payload);
                    }
                }
                Response::Done(landed)
            }
            Request::Contains { stage, key } => {
                self.add(&self.counters.contains, 1);
                let has = self
                    .session
                    .tier_stack()
                    .tiers()
                    .iter()
                    .any(|t| t.contains(stage, key));
                Response::Has(has)
            }
            Request::Stats => Response::Stats(self.stats()),
            Request::Shutdown => Response::Closing,
        }
    }

    /// Admission control plus panic isolation around [`Shared::handle`].
    ///
    /// Data ops are shed with [`Response::Overloaded`] at the in-flight
    /// bound. A panic while handling (a poisoned artifact, a bug in a
    /// tier) is caught here: the panicking request gets a typed error
    /// response, the counter ticks, and the daemon — and every other
    /// connection — keeps serving.
    fn dispatch(&self, req: Request) -> Response {
        self.add(&self.counters.requests, 1);
        let _slot = if is_data_op(&req) {
            match self.try_acquire_slot() {
                Some(slot) => slot,
                None => {
                    self.add(&self.counters.overloaded, 1);
                    return Response::Overloaded;
                }
            }
        } else {
            // control ops bypass the bound; claim nothing
            return self.handle_isolated(req);
        };
        self.handle_isolated(req)
    }

    /// Stop the daemon: set the flag, release parked workers and a
    /// waiting [`ServerHandle::join`], and wake the accept loop out of
    /// its blocking accept.
    fn request_stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
        // taking the lock orders the flag before every parked thread's
        // next check, so no notification is lost
        drop(crate::tier::lock(&self.pool));
        self.handoff.notify_all();
        self.stopped.notify_all();
        self.waker.wake();
    }

    /// Block until the stop flag is set.
    fn wait_for_stop(&self) {
        let mut pool = crate::tier::lock(&self.pool);
        while !self.stop.load(Ordering::SeqCst) {
            pool = self
                .stopped
                .wait(pool)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Hand `conn` to a parked worker, or give it back when none is
    /// free (see [`Pool`]).
    fn hand_off(&self, conn: Box<dyn Conn>) -> Result<(), Box<dyn Conn>> {
        let mut pool = crate::tier::lock(&self.pool);
        if pool.handed.len() >= pool.idle {
            return Err(conn);
        }
        pool.handed.push_back(conn);
        drop(pool);
        self.handoff.notify_one();
        Ok(())
    }

    /// Park a worker whose connection just ended until another is
    /// handed to it: `None` once `idle_timeout` passes without one, or
    /// the daemon stops. The worker counts as idle before it leaves
    /// `active`, so with no active connection every worker is parked or
    /// gone.
    fn park(&self) -> Option<Box<dyn Conn>> {
        let mut pool = crate::tier::lock(&self.pool);
        pool.idle += 1;
        self.active.fetch_sub(1, Ordering::SeqCst);
        let deadline = Instant::now() + self.options.idle_timeout;
        loop {
            if let Some(conn) = pool.handed.pop_front() {
                pool.idle -= 1;
                return Some(conn);
            }
            let now = Instant::now();
            if self.stop.load(Ordering::SeqCst) || now >= deadline {
                pool.idle -= 1;
                return None;
            }
            pool = self
                .handoff
                .wait_timeout(pool, deadline - now)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
    }

    /// Wait (bounded) for connection threads to exit.
    fn drain(&self) {
        let deadline = Instant::now() + DRAIN_BOUND;
        while self.workers.load(Ordering::SeqCst) > 0 && Instant::now() < deadline {
            std::thread::sleep(self.options.poll_interval);
        }
    }

    fn handle_isolated(&self, req: Request) -> Response {
        let deadline = Instant::now() + self.options.request_deadline;
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| self.handle(req, deadline)))
        {
            Ok(response) => response,
            Err(payload) => {
                self.add(&self.counters.panics, 1);
                let detail = if let Some(s) = payload.downcast_ref::<&str>() {
                    (*s).to_string()
                } else if let Some(s) = payload.downcast_ref::<String>() {
                    s.clone()
                } else {
                    "non-string panic payload".to_string()
                };
                Response::Error(format!("request handler panicked: {detail}"))
            }
        }
    }
}

/// Serve one connection until the peer hangs up, the idle bound
/// elapses, a frame is undecipherable, or shutdown is requested.
fn serve_conn(shared: &Shared, mut conn: Box<dyn Conn>) {
    let opts = shared.options;
    let _ = conn.set_write_timeout(Some(opts.io_timeout));
    let mut idle_since = Instant::now();
    loop {
        if shared.stop.load(Ordering::SeqCst) {
            return;
        }
        // read the first header byte under the poll interval so the
        // stop flag stays responsive on idle connections …
        let _ = conn.set_read_timeout(Some(opts.poll_interval));
        let mut first = [0u8; 1];
        match conn.read(&mut first) {
            Ok(0) => return, // peer closed
            Ok(_) => {}
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                if idle_since.elapsed() > opts.idle_timeout {
                    shared.add(&shared.counters.idle_reaped, 1);
                    return;
                }
                continue;
            }
            Err(_) => return,
        }
        // … then bound the rest of the frame by the real I/O timeout
        let _ = conn.set_read_timeout(Some(opts.io_timeout));
        let frame = match read_frame_after(first[0], conn.as_mut()) {
            Ok(frame) => frame,
            Err(e) => {
                // structural damage: count it, answer best-effort (the
                // peer may already be gone), and drop the connection —
                // after a bad frame the stream cannot be trusted to be
                // on a frame boundary
                shared.add(&shared.counters.frame_errors, 1);
                let body = Response::Error(e.to_string()).encode_body();
                let _ = write_frame(conn.as_mut(), crate::remote::proto::kind::ERROR, 0, &body);
                return;
            }
        };
        shared.add(&shared.counters.bytes_in, frame.wire_bytes);
        let response = match Request::decode(frame.kind, &frame.body) {
            Ok(req) => shared.dispatch(req),
            Err(e) => {
                shared.add(&shared.counters.frame_errors, 1);
                Response::Error(e.to_string())
            }
        };
        let closing = matches!(response, Response::Closing);
        match write_frame(
            conn.as_mut(),
            response.kind(),
            frame.request_id,
            &response.encode_body(),
        ) {
            Ok(sent) => shared.add(&shared.counters.bytes_out, sent),
            Err(_) => return,
        }
        if closing {
            shared.request_stop();
            return;
        }
        idle_since = Instant::now();
    }
}

/// A connection thread: serve `conn`, then each connection handed to it
/// while parked, until it parks for `idle_timeout` or the daemon stops.
fn worker(shared: &Shared, conn: Box<dyn Conn>) {
    let mut next = Some(conn);
    while let Some(conn) = next {
        serve_conn(shared, conn);
        next = shared.park();
    }
    shared.workers.fetch_sub(1, Ordering::SeqCst);
}

/// Accept connections as they arrive and give each to a parked worker,
/// spawning a worker only when none is parked. Returns on the first
/// connection accepted after the stop flag is set: the stop wake (or a
/// client landing with it), which it drops.
fn accept_loop(shared: &Arc<Shared>, listener: Box<dyn Listener>) {
    loop {
        let accepted = listener.accept();
        if shared.stop.load(Ordering::SeqCst) {
            return;
        }
        let Ok(conn) = accepted else {
            // a failing socket (out of descriptors, say): back off
            // rather than spin
            std::thread::sleep(shared.options.poll_interval);
            continue;
        };
        shared.add(&shared.counters.connections, 1);
        shared.active.fetch_add(1, Ordering::SeqCst);
        if let Err(conn) = shared.hand_off(conn) {
            shared.workers.fetch_add(1, Ordering::SeqCst);
            shared.spawned.fetch_add(1, Ordering::Relaxed);
            let shared = Arc::clone(shared);
            std::thread::spawn(move || worker(&shared, conn));
        }
    }
}

/// A running [`serve`] daemon: its resolved endpoint, its counters and
/// the handle to stop and join it.
#[derive(Debug)]
pub struct ServerHandle {
    endpoint: Endpoint,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for Shared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shared")
            .field("stop", &self.stop.load(Ordering::SeqCst))
            .field("active", &self.active.load(Ordering::SeqCst))
            .field("workers", &self.workers.load(Ordering::SeqCst))
            .field("spawned", &self.spawned.load(Ordering::Relaxed))
            .field("options", &self.options)
            .finish_non_exhaustive()
    }
}

impl ServerHandle {
    /// The endpoint the daemon is actually bound to. For `host:0` TCP
    /// binds this carries the kernel-assigned port — connect clients
    /// to *this*, not the address passed to [`serve`].
    pub fn endpoint(&self) -> &Endpoint {
        &self.endpoint
    }

    /// The session the daemon serves from.
    pub fn session(&self) -> &Arc<Explorer> {
        &self.shared.session
    }

    /// Snapshot the daemon's statistics (same assembly as the wire
    /// `stats` op, without a round trip).
    pub fn stats(&self) -> ServeStats {
        self.shared.stats()
    }

    /// Ask the daemon to stop. Returns immediately: parked workers
    /// exit, the accept loop is woken and stops accepting, and idle
    /// connections close within one poll interval. Use
    /// [`ServerHandle::join`] (or [`ServerHandle::shutdown`]) to wait
    /// for the drain.
    pub fn request_shutdown(&self) {
        self.shared.request_stop();
    }

    /// Whether the stop flag is set (by [`ServerHandle::request_shutdown`]
    /// or a wire `shutdown` op).
    pub fn is_stopped(&self) -> bool {
        self.shared.stop.load(Ordering::SeqCst)
    }

    /// Wait for the daemon to exit (after a stop was requested locally
    /// or over the wire): the accept loop ends and connection threads
    /// drain (bounded). Returns the final statistics snapshot.
    pub fn join(mut self) -> ServeStats {
        self.finish();
        self.shared.stats()
    }

    /// Wait for a stop, then for the accept loop, then drain. The accept
    /// loop returns on the stop wake. It never will when no wake can
    /// reach its socket (a Unix path since reclaimed by another daemon);
    /// that thread then holds nothing but a listener no client can
    /// reach, so it is left behind rather than waited on.
    fn finish(&mut self) {
        let Some(accept) = self.accept.take() else {
            return;
        };
        self.shared.wait_for_stop();
        if accept.is_finished() || self.shared.waker.wake() {
            let _ = accept.join();
        }
        self.shared.drain();
    }

    /// [`request_shutdown`](ServerHandle::request_shutdown) followed by
    /// [`join`](ServerHandle::join).
    pub fn shutdown(self) -> ServeStats {
        self.request_shutdown();
        self.join()
    }
}

impl Drop for ServerHandle {
    /// A dropped handle stops the daemon and waits for it, as
    /// [`ServerHandle::shutdown`] does: a forgotten `serve` in a test
    /// must not leak an accept or connection thread past the test body.
    fn drop(&mut self) {
        if self.accept.is_some() {
            self.shared.request_stop();
            self.finish();
        }
    }
}

/// Bind `endpoint` and serve `session`'s tier stack until shutdown.
///
/// The session is shared, not consumed: the caller may keep exploring
/// on it (warming the very stack clients read) while the daemon runs.
///
/// # Errors
///
/// Any [`io::Error`] from binding the endpoint. Runtime failures on
/// individual connections never surface here — they end that
/// connection (and count a frame error when structural).
pub fn serve(
    session: Arc<Explorer>,
    endpoint: &Endpoint,
    options: ServeOptions,
) -> io::Result<ServerHandle> {
    let listener = endpoint.bind()?;
    let resolved = listener.local_endpoint();
    let shared = Arc::new(Shared::new(session, options, Waker::new(listener.as_ref())));
    let accept = {
        let shared = Arc::clone(&shared);
        std::thread::Builder::new()
            .name("asip-serve-accept".into())
            .spawn(move || accept_loop(&shared, listener))?
    };
    Ok(ServerHandle {
        endpoint: resolved,
        shared,
        accept: Some(accept),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::remote::client::{RemoteTier, RetryPolicy};
    use crate::tier::ArtifactTier;
    use crate::Explorer;
    use std::path::PathBuf;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "asip-serve-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn loopback() -> Endpoint {
        Endpoint::Tcp("127.0.0.1:0".into())
    }

    #[test]
    fn daemon_serves_ping_put_get_contains_and_stats() {
        let dir = temp_dir("basic");
        let session = Arc::new(Explorer::new().with_store(&dir));
        let handle = serve(session, &loopback(), ServeOptions::default()).expect("binds");
        let tier = RemoteTier::new(handle.endpoint().clone(), RetryPolicy::default());

        let info = tier.ping().expect("ping answered");
        assert_eq!(info.proto_version, PROTO_VERSION);
        assert_eq!(info.format_version, FORMAT_VERSION);
        assert_eq!(info.crate_version, env!("CARGO_PKG_VERSION"));

        use crate::artifact::Stage;
        use crate::tier::TierRead;
        assert!(matches!(tier.get(Stage::Compile, 7), TierRead::Miss));
        assert!(!tier.contains(Stage::Compile, 7));
        assert!(tier.put(Stage::Compile, 7, b"payload"));
        assert!(tier.contains(Stage::Compile, 7));
        match tier.get(Stage::Compile, 7) {
            TierRead::Hit(p) => assert_eq!(p, b"payload"),
            other => panic!("expected hit, got {other:?}"),
        }

        let stats = tier.server_stats().expect("stats answered");
        assert_eq!(stats.pings, 1);
        assert_eq!(stats.puts, 1);
        assert_eq!(stats.gets, 2);
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.connections, 1, "requests reuse one pooled conn");
        assert!(stats.bytes_in > 0 && stats.bytes_out > 0);

        tier.shutdown_server().expect("closing acknowledged");
        let final_stats = handle.join();
        assert!(final_stats.requests >= stats.requests);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn batch_round_trip_hits_and_misses_in_request_order() {
        let dir = temp_dir("batch");
        let session = Arc::new(Explorer::new().with_store(&dir));
        let handle = serve(session, &loopback(), ServeOptions::default()).expect("binds");
        let tier = RemoteTier::new(handle.endpoint().clone(), RetryPolicy::default());

        use crate::artifact::Stage;
        use crate::tier::TierRead;
        assert!(tier.put(Stage::Profile, 1, b"one"));
        assert!(tier.put(Stage::Profile, 3, b"three"));
        let reads = tier.get_batch(&[
            (Stage::Profile, 1),
            (Stage::Profile, 2),
            (Stage::Profile, 3),
        ]);
        assert!(matches!(&reads[0], TierRead::Hit(p) if p == b"one"));
        assert!(matches!(&reads[1], TierRead::Miss));
        assert!(matches!(&reads[2], TierRead::Hit(p) if p == b"three"));

        let stats = handle.shutdown();
        assert_eq!(stats.batch_keys, 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn batch_replies_stay_inside_the_body_budget() {
        let dir = temp_dir("budget");
        let listener = loopback().bind().expect("binds");
        let shared = Shared::new(
            Arc::new(Explorer::new().with_store(&dir)),
            ServeOptions::default(),
            Waker::new(listener.as_ref()),
        );
        let deadline = Instant::now() + Duration::from_secs(60);
        for key in 1..=4 {
            let put = Request::Put {
                stage: Stage::Profile,
                key,
                payload: vec![key as u8; 100],
            };
            assert!(matches!(shared.handle(put, deadline), Response::Done(true)));
        }
        // key 9 is a miss; the budget fits exactly two 100-byte hits
        let keys: Vec<_> = [1, 9, 2, 3, 4].map(|k| (Stage::Profile, k)).into();
        let budget = batch_miss_body_bytes(keys.len()) + 2 * batch_hit_extra_bytes(100);
        let reads = shared.get_batch(keys.clone(), deadline, budget);
        let hits: Vec<bool> = reads.iter().map(Option::is_some).collect();
        assert_eq!(hits, [true, false, true, false, false]);
        assert_eq!(Response::Batch(reads).encode_body().len(), budget);
        let stats = shared.stats();
        assert_eq!((stats.hits, stats.misses, stats.size_truncated), (2, 1, 2));

        // one byte less: the second hit no longer fits
        let reads = shared.get_batch(keys, deadline, budget - 1);
        let hits: Vec<bool> = reads.iter().map(Option::is_some).collect();
        assert_eq!(hits, [true, false, false, false, false]);
        assert!(Response::Batch(reads).encode_body().len() < budget);
        assert_eq!(shared.stats().size_truncated, 5);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn overload_sheds_data_ops_but_answers_control_ops() {
        let dir = temp_dir("overload");
        let session = Arc::new(Explorer::new().with_store(&dir));
        let options = ServeOptions {
            max_inflight: 0,
            ..ServeOptions::default()
        };
        let handle = serve(session, &loopback(), options).expect("binds");
        let tier = RemoteTier::new(handle.endpoint().clone(), RetryPolicy::fail_fast());

        use crate::artifact::Stage;
        use crate::tier::TierRead;
        // every data op is shed server-side and degrades client-side
        assert!(matches!(tier.get(Stage::Compile, 1), TierRead::Miss));
        assert!(!tier.put(Stage::Compile, 1, b"payload"));
        assert!(!tier.contains(Stage::Compile, 1));
        // control ops bypass the bound: the daemon is saturated, not dead
        assert!(tier.ping().is_ok());
        let stats = tier.server_stats().expect("stats answered under overload");
        assert_eq!(stats.overloaded, 3);
        assert_eq!(
            stats.hits + stats.misses,
            0,
            "shed ops never touch the stack"
        );

        let totals = tier.remote_totals();
        assert_eq!(totals.overloaded, 3);
        assert_eq!(
            totals.skipped, 0,
            "overload is proof of life — it must not trip the health gate"
        );
        let _ = handle.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_panicking_request_is_isolated_and_counted() {
        use crate::cache::MemoryTier;
        use crate::fault::{FaultTier, PANIC_PROBE_KEY};
        let dir = temp_dir("panic");
        let probe = Arc::new(FaultTier::panic_probe(Arc::new(MemoryTier::new())));
        let session = Arc::new(Explorer::new().with_store(&dir).with_tier(probe));
        let handle = serve(session, &loopback(), ServeOptions::default()).expect("binds");
        let tier = RemoteTier::new(handle.endpoint().clone(), RetryPolicy::fail_fast())
            .with_probe_interval(Duration::ZERO);

        use crate::artifact::Stage;
        use crate::tier::TierRead;
        // the poisoned key panics in the handler; the client sees a
        // typed error response and degrades to a miss
        assert!(matches!(
            tier.get(Stage::Compile, PANIC_PROBE_KEY),
            TierRead::Miss
        ));
        // the daemon — and every later request — keeps serving
        assert!(tier.put(Stage::Compile, 7, b"payload"));
        assert!(matches!(
            tier.get(Stage::Compile, 7),
            TierRead::Hit(p) if p == b"payload"
        ));
        let stats = handle.shutdown();
        assert_eq!(stats.panics, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn idle_connections_are_reaped_and_counted() {
        let dir = temp_dir("idle");
        let session = Arc::new(Explorer::new().with_store(&dir));
        let options = ServeOptions {
            idle_timeout: Duration::from_millis(30),
            ..ServeOptions::default()
        };
        let handle = serve(session, &loopback(), options).expect("binds");
        // dial raw and never send a frame
        let conn = handle
            .endpoint()
            .connect(Duration::from_secs(1))
            .expect("dials");
        let deadline = Instant::now() + Duration::from_secs(5);
        while handle.stats().idle_reaped == 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(handle.stats().idle_reaped, 1);
        drop(conn);
        let _ = handle.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn dropped_handle_stops_the_daemon() {
        let dir = temp_dir("drop");
        let session = Arc::new(Explorer::new().with_store(&dir));
        let handle = serve(session, &loopback(), ServeOptions::default()).expect("binds");
        let endpoint = handle.endpoint().clone();
        drop(handle);
        // the listener is gone: a fail-fast client sees a dead server
        let tier = RemoteTier::new(endpoint, RetryPolicy::fail_fast());
        assert!(tier.ping().is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Poll `cond` until it holds, failing after five seconds.
    fn wait_until(what: &str, cond: impl Fn() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(5);
        while !cond() {
            assert!(Instant::now() < deadline, "timed out waiting for {what}");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn sequential_fresh_clients_reuse_parked_workers() {
        let dir = temp_dir("reuse");
        let session = Arc::new(Explorer::new().with_store(&dir));
        let handle = serve(session, &loopback(), ServeOptions::default()).expect("binds");
        let shared = Arc::clone(&handle.shared);
        for _ in 0..20 {
            let tier = RemoteTier::new(handle.endpoint().clone(), RetryPolicy::default());
            tier.ping().expect("ping answered");
            drop(tier);
            // with no active connection, the worker has parked
            wait_until("the connection to end", || {
                shared.active.load(Ordering::SeqCst) == 0
            });
        }
        assert_eq!(handle.stats().connections, 20);
        assert!(
            shared.spawned.load(Ordering::SeqCst) <= 2,
            "twenty fresh clients need at most two worker threads: {shared:?}"
        );
        let _ = handle.shutdown();
        assert_eq!(shared.workers.load(Ordering::SeqCst), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A daemon with two parked workers and a third serving an idle raw
    /// connection (returned: dropping it would end that connection).
    fn daemon_with_parked_workers(tag: &str) -> (ServerHandle, Box<dyn Conn>, PathBuf) {
        let dir = temp_dir(tag);
        let session = Arc::new(Explorer::new().with_store(&dir));
        let handle = serve(session, &loopback(), ServeOptions::default()).expect("binds");
        let dial = || {
            handle
                .endpoint()
                .connect(Duration::from_secs(1))
                .expect("dials")
        };
        let (idle, ended) = (dial(), [dial(), dial()]);
        wait_until("three accepted connections", || {
            handle.shared.active.load(Ordering::SeqCst) == 3
        });
        drop(ended);
        wait_until("two parked workers", || {
            crate::tier::lock(&handle.shared.pool).idle == 2
        });
        assert_eq!(handle.shared.workers.load(Ordering::SeqCst), 3);
        (handle, idle, dir)
    }

    /// Run `stop` on a busy daemon: it must return promptly (long before
    /// the sixty-second idle timeout) with every worker thread gone.
    fn assert_stops_promptly(tag: &str, stop: impl FnOnce(ServerHandle)) {
        let (handle, idle, dir) = daemon_with_parked_workers(tag);
        let shared = Arc::clone(&handle.shared);
        let endpoint = handle.endpoint().clone();
        let started = Instant::now();
        stop(handle);
        let took = started.elapsed();
        assert!(
            took < Duration::from_secs(2),
            "{tag}: stopping took {took:?}"
        );
        assert_eq!(
            shared.workers.load(Ordering::SeqCst),
            0,
            "{tag}: no worker thread outlives the daemon"
        );
        assert!(
            endpoint.connect(Duration::from_secs(1)).is_err(),
            "{tag}: the accept loop ended and closed its listener"
        );
        drop(idle);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn shutdown_returns_promptly_with_parked_workers_and_an_idle_client() {
        assert_stops_promptly("stop-shutdown", |handle| {
            let _ = handle.shutdown();
        });
    }

    #[test]
    fn drop_returns_promptly_with_parked_workers_and_an_idle_client() {
        assert_stops_promptly("stop-drop", drop);
    }

    #[test]
    fn wire_shutdown_returns_promptly_with_parked_workers_and_an_idle_client() {
        assert_stops_promptly("stop-wire", |handle| {
            let tier = RemoteTier::new(handle.endpoint().clone(), RetryPolicy::default());
            tier.shutdown_server().expect("closing acknowledged");
            let _ = handle.join();
        });
    }

    #[cfg(unix)]
    #[test]
    fn stopping_a_daemon_whose_socket_path_was_reclaimed_does_not_hang() {
        let dir = temp_dir("reclaimed");
        let sock = std::env::temp_dir().join(format!(
            "asip-serve-reclaimed-{}-{:?}.sock",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_file(&sock);
        let endpoint = Endpoint::Unix(sock.clone());
        let stale = serve(
            Arc::new(Explorer::new().with_store(&dir)),
            &endpoint,
            ServeOptions::default(),
        )
        .expect("binds");
        std::fs::remove_file(&sock).expect("external cleanup");
        let live = serve(
            Arc::new(Explorer::new().with_store(&dir)),
            &endpoint,
            ServeOptions::default(),
        )
        .expect("rebinds the path");

        let started = Instant::now();
        let _ = stale.shutdown();
        assert!(started.elapsed() < Duration::from_secs(2));
        assert!(sock.exists(), "the live daemon keeps its socket");
        let tier = RemoteTier::new(endpoint, RetryPolicy::fail_fast());
        assert!(tier.ping().is_ok(), "the live daemon still answers");
        assert_eq!(
            live.stats().connections,
            1,
            "stopping the stale daemon never dialled the live one"
        );
        let _ = live.shutdown();
        assert!(!sock.exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn disk_hits_are_promoted_to_memory_and_damaged_entries_never_are() {
        use crate::artifact::Stage;
        use crate::tier::TierRead;
        let dir = temp_dir("promote");
        let session = Arc::new(Explorer::new().with_store(&dir));
        let handle =
            serve(Arc::clone(&session), &loopback(), ServeOptions::default()).expect("binds");
        let tier = RemoteTier::new(handle.endpoint().clone(), RetryPolicy::default());
        assert!(tier.put(Stage::Profile, 1, b"good"));
        assert!(tier.put(Stage::Profile, 2, b"damaged"));
        let store = session.store().expect("store attached");
        let snapshot = store.snapshot();
        let e = snapshot.iter().find(|e| e.key == 2).expect("a record");
        let mut bytes = std::fs::read(&e.segment).expect("readable");
        bytes[(e.offset + e.bytes - 1) as usize] ^= 0xFF;
        std::fs::write(&e.segment, &bytes).expect("writable");

        let staging = &session.tier_stack().tiers()[0];
        assert!(!staging.persistent(), "the staging memory tier");
        assert!(
            !staging.contains(Stage::Profile, 1),
            "puts land on disk only"
        );
        assert!(matches!(tier.get(Stage::Profile, 1), TierRead::Hit(p) if p == b"good"));
        assert!(
            staging.contains(Stage::Profile, 1),
            "a disk hit is promoted"
        );
        assert!(matches!(tier.get(Stage::Profile, 2), TierRead::Miss));
        assert!(
            !staging.contains(Stage::Profile, 2),
            "damage is never promoted"
        );

        // the promoted entry answers from memory once the disk is gone
        std::fs::remove_dir_all(&dir).expect("store removable");
        assert!(matches!(tier.get(Stage::Profile, 1), TierRead::Hit(p) if p == b"good"));
        let totals: std::collections::HashMap<_, _> =
            handle.stats().tier_totals.into_iter().collect();
        assert_eq!(totals["disk"].corrupt, 1, "{totals:?}");
        assert_eq!(totals["disk"].hits, 1, "{totals:?}");
        assert_eq!(totals["memory"].hits, 1, "{totals:?}");
        let _ = handle.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_put_replaces_the_promoted_copy() {
        use crate::artifact::Stage;
        use crate::tier::TierRead;
        let dir = temp_dir("replace");
        let session = Arc::new(Explorer::new().with_store(&dir));
        let handle =
            serve(Arc::clone(&session), &loopback(), ServeOptions::default()).expect("binds");
        let tier = RemoteTier::new(handle.endpoint().clone(), RetryPolicy::default());
        assert!(tier.put(Stage::Profile, 1, b"old"));
        assert!(matches!(tier.get(Stage::Profile, 1), TierRead::Hit(p) if p == b"old"));
        assert!(session.tier_stack().tiers()[0].contains(Stage::Profile, 1));
        assert!(tier.put(Stage::Profile, 1, b"new"));
        assert!(
            matches!(tier.get(Stage::Profile, 1), TierRead::Hit(p) if p == b"new"),
            "the overwritten entry is not served from memory"
        );
        let _ = handle.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
