//! The client half of exploration-as-a-service: [`RemoteTier`], an
//! [`ArtifactTier`] backed by a running `serve` daemon.
//!
//! The tier keeps a small pool of connections, retries failed requests
//! under an explicit [`RetryPolicy`], and — crucially — *degrades*
//! instead of failing: any exhausted request becomes a counted miss, so
//! the stack falls through to the next tier or the computation. A dead
//! server costs latency (bounded by the policy) and throughput, never
//! correctness, and after the first exhausted request the server is
//! marked unhealthy so subsequent requests skip the network entirely
//! until a periodic re-probe succeeds.

use crate::artifact::Stage;
use crate::error::RemoteError;
use crate::fault::{FaultPlan, FaultRng, FaultSite};
use crate::remote::proto::{read_frame, write_frame, Request, Response, ServeStats, ServerInfo};
use crate::remote::transport::{self, Conn, Endpoint};
use crate::tier::{lock, ArtifactTier, TierCounters, TierRead, TierStats};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Retry discipline for one remote request: how many attempts, how long
/// each socket operation may take, and how long to back off between
/// attempts (doubling per retry, capped at one second, with a ±50%
/// deterministic jitter so a fleet recovering from the same daemon
/// restart doesn't retry in lockstep). The first attempt may reuse a
/// pooled connection; every retry opens a fresh one, so a pool full of
/// stale sockets cannot exhaust the budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per request (minimum 1).
    pub attempts: u32,
    /// Bound on each connect, read and write.
    pub timeout: Duration,
    /// Base sleep between attempts (doubled per retry, capped at 1s,
    /// then jittered to 50–150%).
    pub backoff: Duration,
    /// Seed for the backoff jitter stream. `None` derives a per-tier
    /// seed (pid + a process-wide counter), so concurrent clients
    /// desynchronize; `Some` pins the stream for deterministic tests.
    pub jitter_seed: Option<u64>,
}

impl Default for RetryPolicy {
    /// Three attempts, two-second operation timeout, 25ms base backoff,
    /// per-tier jitter.
    fn default() -> Self {
        RetryPolicy {
            attempts: 3,
            timeout: Duration::from_secs(2),
            backoff: Duration::from_millis(25),
            jitter_seed: None,
        }
    }
}

impl RetryPolicy {
    /// A fail-fast policy for latency-sensitive callers and tests: one
    /// attempt, a short timeout, no backoff.
    pub fn fail_fast() -> Self {
        RetryPolicy {
            attempts: 1,
            timeout: Duration::from_millis(250),
            backoff: Duration::ZERO,
            jitter_seed: None,
        }
    }

    /// Pin the backoff jitter stream to `seed` (deterministic sleeps).
    pub fn with_jitter_seed(mut self, seed: u64) -> Self {
        self.jitter_seed = Some(seed);
        self
    }
}

const MAX_BACKOFF: Duration = Duration::from_secs(1);

/// Scale `base` to 50–150% in 1/1024 steps, driven by one jitter draw.
fn jittered(base: Duration, draw: u64) -> Duration {
    let scale = 512 + (draw % 1025); // 512..=1536 of 1024
    let nanos = (base.as_nanos() as u64).saturating_mul(scale) / 1024;
    Duration::from_nanos(nanos)
}

/// Wire-level counters of one [`RemoteTier`], complementing the
/// per-stage hit/miss [`TierStats`]: how often the network path was
/// exercised, retried, given up on, or skipped while unhealthy, and how
/// many frame bytes moved each way.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RemoteTotals {
    /// Requests that reached the request path (skipped ones excluded).
    pub requests: u64,
    /// Requests that exhausted every attempt and degraded to a miss.
    pub errors: u64,
    /// Individual failed attempts that were retried.
    pub retries: u64,
    /// Requests declined locally because the server was marked
    /// unhealthy and the re-probe interval had not elapsed.
    pub skipped: u64,
    /// `Overloaded` responses received (the server shed the request at
    /// its in-flight bound; retried with backoff, then degraded).
    pub overloaded: u64,
    /// Connections opened (first use and every replacement).
    pub connects: u64,
    /// Frame bytes written to the wire.
    pub bytes_sent: u64,
    /// Frame bytes read from the wire.
    pub bytes_received: u64,
}

#[derive(Debug, Default)]
struct TotalCells {
    requests: AtomicU64,
    errors: AtomicU64,
    retries: AtomicU64,
    skipped: AtomicU64,
    overloaded: AtomicU64,
    connects: AtomicU64,
    bytes_sent: AtomicU64,
    bytes_received: AtomicU64,
}

impl TotalCells {
    fn snapshot(&self) -> RemoteTotals {
        RemoteTotals {
            requests: self.requests.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
            skipped: self.skipped.load(Ordering::Relaxed),
            overloaded: self.overloaded.load(Ordering::Relaxed),
            connects: self.connects.load(Ordering::Relaxed),
            bytes_sent: self.bytes_sent.load(Ordering::Relaxed),
            bytes_received: self.bytes_received.load(Ordering::Relaxed),
        }
    }
    fn reset(&self) {
        self.requests.store(0, Ordering::Relaxed);
        self.errors.store(0, Ordering::Relaxed);
        self.retries.store(0, Ordering::Relaxed);
        self.skipped.store(0, Ordering::Relaxed);
        self.overloaded.store(0, Ordering::Relaxed);
        self.connects.store(0, Ordering::Relaxed);
        self.bytes_sent.store(0, Ordering::Relaxed);
        self.bytes_received.store(0, Ordering::Relaxed);
    }
}

#[derive(Debug, Default)]
struct Health {
    /// When the server was last marked unhealthy; `None` while healthy.
    down_since: Option<Instant>,
}

/// A shared remote artifact tier: [`ArtifactTier`] over the wire
/// protocol, speaking to a `serve` daemon (see [`crate::remote`]).
///
/// Plugged between the staging tier and the disk store by
/// [`Explorer::with_remote`](crate::Explorer::with_remote); storeless
/// clients get `staging → remote`, so a warm server turns a cold client
/// process into an all-hit run with zero local persistence. The tier is
/// [persistent](ArtifactTier::persistent): computed artifacts are
/// written through, so every client shares its work with the fleet.
#[derive(Debug)]
pub struct RemoteTier {
    endpoint: Endpoint,
    policy: RetryPolicy,
    probe_interval: Duration,
    pool: Mutex<Vec<Box<dyn Conn>>>,
    pool_cap: usize,
    health: Mutex<Health>,
    counters: TierCounters,
    totals: TotalCells,
    next_id: AtomicU64,
    jitter: Mutex<FaultRng>,
    /// Fast-path guard for the fault-injection seam (see
    /// [`crate::fault`]): one relaxed load per connection open when no
    /// plan is armed.
    faults_armed: AtomicBool,
    faults: Mutex<Option<Arc<FaultPlan>>>,
}

impl RemoteTier {
    /// A tier speaking to `endpoint` under `policy`, with a one-second
    /// unhealthy re-probe interval.
    pub fn new(endpoint: Endpoint, policy: RetryPolicy) -> Self {
        let jitter_seed = policy.jitter_seed.unwrap_or_else(|| {
            // Desynchronize unpinned tiers across threads and processes:
            // two clients recovering from the same daemon restart must
            // not sleep in lockstep.
            static TIER_SEQ: AtomicU64 = AtomicU64::new(0);
            (u64::from(std::process::id()) << 32) ^ TIER_SEQ.fetch_add(1, Ordering::Relaxed)
        });
        RemoteTier {
            endpoint,
            policy,
            probe_interval: Duration::from_secs(1),
            pool: Mutex::new(Vec::new()),
            pool_cap: 8,
            health: Mutex::new(Health::default()),
            counters: TierCounters::default(),
            totals: TotalCells::default(),
            next_id: AtomicU64::new(1),
            jitter: Mutex::new(FaultRng::new(jitter_seed)),
            faults_armed: AtomicBool::new(false),
            faults: Mutex::new(None),
        }
    }

    /// Arm a [`FaultPlan`]: subsequent connections may be refused and
    /// live streams may drop, stall, garble or tamper frames (see
    /// [`crate::fault`]). Chaos-testing seam — never armed in
    /// production.
    pub fn arm_faults(&self, plan: Arc<FaultPlan>) {
        *lock(&self.faults) = Some(plan);
        self.faults_armed.store(true, Ordering::Release);
    }

    /// Remove any armed [`FaultPlan`]; the tier returns to normal
    /// operation.
    pub fn disarm_faults(&self) {
        self.faults_armed.store(false, Ordering::Release);
        *lock(&self.faults) = None;
    }

    fn fault_plan(&self) -> Option<Arc<FaultPlan>> {
        if !self.faults_armed.load(Ordering::Acquire) {
            return None;
        }
        lock(&self.faults).clone()
    }

    /// Override how long the tier declines requests after marking the
    /// server unhealthy before letting one probe through again.
    pub fn with_probe_interval(mut self, interval: Duration) -> Self {
        self.probe_interval = interval;
        self
    }

    /// The server address this tier speaks to.
    pub fn endpoint(&self) -> &Endpoint {
        &self.endpoint
    }

    /// The retry policy bounding every request.
    pub fn policy(&self) -> RetryPolicy {
        self.policy
    }

    /// Whether the last request succeeded (an unhealthy tier declines
    /// requests until the re-probe interval elapses).
    pub fn is_healthy(&self) -> bool {
        lock(&self.health).down_since.is_none()
    }

    /// Snapshot the wire-level counters.
    pub fn remote_totals(&self) -> RemoteTotals {
        self.totals.snapshot()
    }

    /// Probe the server's liveness and version triple.
    ///
    /// # Errors
    ///
    /// Any [`RemoteError`] the request path produces.
    pub fn ping(&self) -> Result<ServerInfo, RemoteError> {
        match self.request(&Request::Ping)? {
            Response::Pong(info) => Ok(info),
            other => Err(unexpected("Pong", &other)),
        }
    }

    /// Fetch the server's statistics snapshot.
    ///
    /// # Errors
    ///
    /// Any [`RemoteError`] the request path produces.
    pub fn server_stats(&self) -> Result<ServeStats, RemoteError> {
        match self.request(&Request::Stats)? {
            Response::Stats(stats) => Ok(stats),
            other => Err(unexpected("Stats", &other)),
        }
    }

    /// Ask the daemon to shut down cleanly (stop accepting, drain
    /// connections).
    ///
    /// # Errors
    ///
    /// Any [`RemoteError`] the request path produces.
    pub fn shutdown_server(&self) -> Result<(), RemoteError> {
        match self.request(&Request::Shutdown)? {
            Response::Closing => Ok(()),
            other => Err(unexpected("Closing", &other)),
        }
    }

    // -- the request path ----------------------------------------------

    /// Whether requests should be declined without touching the
    /// network. Lets exactly one caller probe per interval: the probe
    /// slot is claimed by pushing `down_since` forward, so a stampede
    /// of requests against a dead server costs one timeout per
    /// interval, not one per request.
    fn declined(&self) -> bool {
        let mut health = lock(&self.health);
        match health.down_since {
            None => false,
            Some(at) if at.elapsed() < self.probe_interval => true,
            Some(_) => {
                health.down_since = Some(Instant::now());
                false
            }
        }
    }

    fn mark_healthy(&self) {
        lock(&self.health).down_since = None;
    }

    fn mark_unhealthy(&self) {
        lock(&self.health).down_since = Some(Instant::now());
    }

    /// Run one request under the retry policy. Every failure path is
    /// counted; an `Err` here becomes a miss (or a `false`) at the
    /// [`ArtifactTier`] surface — never a session error.
    fn request(&self, req: &Request) -> Result<Response, RemoteError> {
        if self.declined() {
            self.totals.skipped.fetch_add(1, Ordering::Relaxed);
            return Err(RemoteError::Unavailable);
        }
        self.totals.requests.fetch_add(1, Ordering::Relaxed);
        let attempts = self.policy.attempts.max(1);
        let mut backoff = self.policy.backoff;
        let mut last = RemoteError::Unavailable;
        for attempt in 0..attempts {
            if attempt > 0 {
                self.totals.retries.fetch_add(1, Ordering::Relaxed);
                if !backoff.is_zero() {
                    let draw = lock(&self.jitter).next_u64();
                    std::thread::sleep(jittered(backoff.min(MAX_BACKOFF), draw));
                    backoff = backoff.saturating_mul(2);
                }
            }
            // retries bypass the pool: a failed attempt may mean every
            // pooled socket is stale, so pay for a fresh connection
            match self.attempt(req, attempt == 0) {
                Ok(resp) => {
                    self.mark_healthy();
                    return Ok(resp);
                }
                Err(e) => last = e,
            }
        }
        self.totals.errors.fetch_add(1, Ordering::Relaxed);
        // An Overloaded reply is proof the server is alive: degrade this
        // request, but don't gate the fleet behind the health probe.
        if !matches!(last, RemoteError::Overloaded) {
            self.mark_unhealthy();
        }
        Err(last)
    }

    fn attempt(&self, req: &Request, allow_pooled: bool) -> Result<Response, RemoteError> {
        let mut conn = match (allow_pooled, self.checkout()) {
            (true, Some(conn)) => conn,
            _ => self.open()?,
        };
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let sent = write_frame(conn.as_mut(), req.kind(), id, &req.encode_body())?;
        self.totals.bytes_sent.fetch_add(sent, Ordering::Relaxed);
        let frame = read_frame(conn.as_mut())?;
        self.totals
            .bytes_received
            .fetch_add(frame.wire_bytes, Ordering::Relaxed);
        if frame.request_id != id {
            return Err(RemoteError::Protocol {
                detail: format!("response id {} for request {id}", frame.request_id),
            });
        }
        let resp = Response::decode(frame.kind, &frame.body)?;
        // the connection is in sync; recycle it (unless the server is
        // closing, in which case the socket is about to die)
        if !matches!(resp, Response::Closing) {
            self.checkin(conn);
        }
        if let Response::Overloaded = resp {
            self.totals.overloaded.fetch_add(1, Ordering::Relaxed);
            return Err(RemoteError::Overloaded);
        }
        if let Response::Error(detail) = resp {
            return Err(RemoteError::Protocol { detail });
        }
        Ok(resp)
    }

    fn checkout(&self) -> Option<Box<dyn Conn>> {
        lock(&self.pool).pop()
    }

    fn checkin(&self, conn: Box<dyn Conn>) {
        let mut pool = lock(&self.pool);
        if pool.len() < self.pool_cap {
            pool.push(conn);
        }
    }

    fn open(&self) -> Result<Box<dyn Conn>, RemoteError> {
        let plan = self.fault_plan();
        if let Some(plan) = &plan {
            if plan.roll(FaultSite::ConnectRefused) {
                return Err(RemoteError::Io {
                    detail: "injected fault: connection refused".into(),
                });
            }
        }
        let conn = self.endpoint.connect(self.policy.timeout)?;
        conn.set_read_timeout(Some(self.policy.timeout))?;
        conn.set_write_timeout(Some(self.policy.timeout))?;
        self.totals.connects.fetch_add(1, Ordering::Relaxed);
        Ok(match plan {
            Some(plan) => transport::faulty(conn, plan),
            None => conn,
        })
    }
}

fn unexpected(wanted: &str, got: &Response) -> RemoteError {
    RemoteError::Protocol {
        detail: format!("expected {wanted}, got kind {:#04x}", got.kind()),
    }
}

impl ArtifactTier for RemoteTier {
    fn name(&self) -> &'static str {
        "remote"
    }

    fn get(&self, stage: Stage, key: u64) -> TierRead {
        match self.request(&Request::Get { stage, key }) {
            Ok(Response::Value(Some(payload))) => {
                self.counters.count_hit(stage);
                TierRead::Hit(payload)
            }
            // a protocol-level surprise (wrong variant) and a network
            // failure both degrade the same way: a counted miss, so the
            // next tier or the computation serves the request
            Ok(_) | Err(_) => {
                self.counters.count_miss(stage);
                TierRead::Miss
            }
        }
    }

    fn get_batch(&self, keys: &[(Stage, u64)]) -> Vec<TierRead> {
        let req = Request::GetBatch {
            keys: keys.to_vec(),
        };
        match self.request(&req) {
            Ok(Response::Batch(slots)) if slots.len() == keys.len() => keys
                .iter()
                .zip(slots)
                .map(|(&(stage, _), slot)| match slot {
                    Some(payload) => {
                        self.counters.count_hit(stage);
                        TierRead::Hit(payload)
                    }
                    None => {
                        self.counters.count_miss(stage);
                        TierRead::Miss
                    }
                })
                .collect(),
            Ok(_) | Err(_) => keys
                .iter()
                .map(|&(stage, _)| {
                    self.counters.count_miss(stage);
                    TierRead::Miss
                })
                .collect(),
        }
    }

    fn batched(&self) -> bool {
        true
    }

    fn put(&self, stage: Stage, key: u64, payload: &[u8]) -> bool {
        let req = Request::Put {
            stage,
            key,
            payload: payload.to_vec(),
        };
        match self.request(&req) {
            Ok(Response::Done(true)) => {
                self.counters.count_write(stage);
                true
            }
            Ok(_) | Err(_) => false,
        }
    }

    fn contains(&self, stage: Stage, key: u64) -> bool {
        matches!(
            self.request(&Request::Contains { stage, key }),
            Ok(Response::Has(true))
        )
    }

    fn stats(&self, stage: Stage) -> TierStats {
        // occupancy lives on the server (ask via `server_stats`); the
        // client-side snapshot carries this session's probe counters
        self.counters.snapshot(stage)
    }

    fn persistent(&self) -> bool {
        true
    }

    fn mark_corrupt(&self, stage: Stage, key: u64) {
        // the payload crossed the wire intact (frame checksum) but
        // failed typed decoding — the server-side entry is damaged or
        // semantically skewed. There is no remote delete op; the
        // recompute's write-through will replace the entry, so here the
        // hit is just reclassified.
        let _ = key;
        self.counters.demote_hit(stage);
    }

    fn reset_counters(&self) {
        self.counters.reset();
        self.totals.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An endpoint with nothing listening: bind an ephemeral port to
    /// learn a free address, then drop the listener.
    fn dead_endpoint() -> Endpoint {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("binds");
        let addr = listener.local_addr().expect("addr");
        drop(listener);
        Endpoint::Tcp(addr.to_string())
    }

    #[test]
    fn absent_server_degrades_to_counted_misses() {
        let tier = RemoteTier::new(
            dead_endpoint(),
            RetryPolicy {
                attempts: 2,
                timeout: Duration::from_millis(200),
                backoff: Duration::from_millis(1),
                ..RetryPolicy::default()
            },
        );
        assert!(matches!(tier.get(Stage::Compile, 1), TierRead::Miss));
        assert!(!tier.put(Stage::Compile, 1, b"x"));
        assert!(!tier.contains(Stage::Compile, 1));
        let totals = tier.remote_totals();
        assert!(totals.errors >= 1, "exhausted request counted");
        assert!(totals.retries >= 1, "second attempt counted");
        assert!(!tier.is_healthy());
        // while unhealthy, requests are declined without the network
        assert!(totals.skipped >= 1 || tier.remote_totals().skipped == 0);
        assert!(matches!(tier.get(Stage::Compile, 2), TierRead::Miss));
        assert!(tier.remote_totals().skipped >= 1, "declined while down");
        assert_eq!(ArtifactTier::stats(&tier, Stage::Compile).misses, 2);
    }

    #[test]
    fn batch_against_a_dead_server_is_one_counted_error() {
        let tier = RemoteTier::new(dead_endpoint(), RetryPolicy::fail_fast());
        let keys = [(Stage::Compile, 1), (Stage::Profile, 2)];
        let reads = tier.get_batch(&keys);
        assert_eq!(reads.len(), 2);
        assert!(reads.iter().all(|r| matches!(r, TierRead::Miss)));
        let totals = tier.remote_totals();
        assert_eq!(totals.errors, 1, "one request, one error");
        assert_eq!(tier.totals().misses, 2, "but every key counted a miss");
    }

    #[test]
    fn backoff_jitter_is_bounded_and_deterministic() {
        let base = Duration::from_millis(100);
        let mut rng_a = FaultRng::new(99);
        let mut rng_b = FaultRng::new(99);
        for _ in 0..1000 {
            let a = jittered(base, rng_a.next_u64());
            let b = jittered(base, rng_b.next_u64());
            assert_eq!(a, b, "same seed, same sleep schedule");
            assert!(a >= base / 2, "never below 50%: {a:?}");
            assert!(a <= base * 3 / 2, "never above 150%: {a:?}");
        }
        // different seeds desynchronize (some draw must differ)
        let mut rng_c = FaultRng::new(100);
        let mut rng_d = FaultRng::new(99);
        let diverged =
            (0..100).any(|_| jittered(base, rng_c.next_u64()) != jittered(base, rng_d.next_u64()));
        assert!(diverged);
        // zero base stays zero; the cap applies before jitter
        assert_eq!(jittered(Duration::ZERO, 7), Duration::ZERO);
    }

    #[test]
    fn jitter_seed_round_trips_through_the_policy() {
        let policy = RetryPolicy::default().with_jitter_seed(1234);
        assert_eq!(policy.jitter_seed, Some(1234));
        let tier = RemoteTier::new(dead_endpoint(), policy);
        assert_eq!(tier.policy().jitter_seed, Some(1234));
    }

    #[test]
    fn reset_clears_wire_and_stage_counters() {
        let tier = RemoteTier::new(dead_endpoint(), RetryPolicy::fail_fast());
        let _ = tier.get(Stage::Compile, 1);
        assert_ne!(tier.remote_totals(), RemoteTotals::default());
        tier.reset_counters();
        assert_eq!(tier.remote_totals(), RemoteTotals::default());
        assert_eq!(tier.totals(), TierStats::default());
    }
}
