//! End-to-end tests of the exploration-as-a-service topology: one warm
//! `serve` daemon, storeless clients running the full pipeline off the
//! wire, concurrency, Unix-socket transport, and clean shutdown.

use asip_explorer::prelude::*;
use asip_explorer::remote::{serve, Endpoint, RemoteTier, RetryPolicy, ServeOptions};
use asip_explorer::Explorer;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn store_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("asip-remote-serve-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn loopback() -> Endpoint {
    Endpoint::Tcp("127.0.0.1:0".into())
}

/// A storeless client session against `endpoint`.
fn client(endpoint: &Endpoint) -> Explorer {
    Explorer::new()
        .with_remote(&endpoint.to_string(), RetryPolicy::default())
        .expect("daemon endpoint parses")
}

#[test]
fn warm_server_serves_a_storeless_client_with_zero_recomputes() {
    let dir = store_dir("e2e");
    // the daemon's session: compute one benchmark's full pipeline so
    // the store holds every stage artifact
    let server_session = Arc::new(Explorer::new().with_store(&dir));
    server_session.explore("fir").expect("server warms up");
    let server_computes = server_session.cache_stats().total_misses();
    let handle = serve(server_session, &loopback(), ServeOptions::default()).expect("binds");

    // a brand-new storeless process: everything must come off the wire
    let session = client(handle.endpoint());
    assert!(session.store().is_none(), "client is storeless");
    let exploration = session.explore("fir").expect("pipeline served remotely");
    assert!(exploration.speedup() >= 1.0);
    let stats = session.cache_stats();
    assert_eq!(stats.total_misses(), 0, "zero recomputes: {stats}");
    let remote = stats.tier("remote").total();
    assert!(remote.hits > 0, "served remotely: {stats}");
    assert_eq!(stats.remote.errors, 0, "no wire failures: {stats}");

    // the server computed nothing extra on the client's behalf
    let final_stats = handle.shutdown();
    assert_eq!(final_stats.total_computes(), server_computes);
    assert!(final_stats.hits > 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cold_client_populates_the_daemon_for_the_next_client() {
    let dir = store_dir("populate");
    // daemon starts cold: nothing precomputed
    let server_session = Arc::new(Explorer::new().with_store(&dir));
    let handle = serve(server_session, &loopback(), ServeOptions::default()).expect("binds");

    // client 1 computes (cold everywhere) and writes through the wire
    let first = client(handle.endpoint());
    first.explore("bspline").expect("cold pipeline");
    let stats1 = first.cache_stats();
    assert!(stats1.total_misses() > 0, "client 1 computes");
    let remote = stats1.tier("remote").total();
    assert!(remote.writes > 0, "write-through: {stats1}");

    // client 2 is served entirely by what client 1 pushed
    let second = client(handle.endpoint());
    second.explore("bspline").expect("warm pipeline");
    let stats2 = second.cache_stats();
    assert_eq!(stats2.total_misses(), 0, "client 2 recomputes: {stats2}");
    assert!(stats2.tier("remote").total().hits > 0);

    // the daemon itself never ran a stage
    let final_stats = handle.shutdown();
    assert_eq!(final_stats.total_computes(), 0, "daemon only serves");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn concurrent_clients_share_work_and_read_identical_bytes() {
    let dir = store_dir("concurrent");
    let server_session = Arc::new(Explorer::new().with_store(&dir));
    server_session.explore("fir").expect("server warms up");
    let server_computes = server_session.cache_stats().total_misses();
    let handle = serve(server_session, &loopback(), ServeOptions::default()).expect("binds");

    // N clients hammer the daemon with the same keys concurrently
    let endpoint = handle.endpoint().clone();
    let workers: Vec<_> = (0..4)
        .map(|_| {
            let endpoint = endpoint.clone();
            std::thread::spawn(move || {
                let session = client(&endpoint);
                let exploration = session.explore("fir").expect("served remotely");
                let stats = session.cache_stats();
                (exploration.speedup().to_bits(), stats.total_misses())
            })
        })
        .collect();
    let results: Vec<(u64, u64)> = workers
        .into_iter()
        .map(|w| w.join().expect("client thread completes"))
        .collect();
    // byte-identical artifacts → bit-identical measured speedups
    assert!(results.windows(2).all(|w| w[0].0 == w[1].0));
    assert!(
        results.iter().all(|&(_, misses)| misses == 0),
        "every client served without recompute: {results:?}"
    );
    // single-flight observed fleet-wide: the daemon's stage computes
    // never grew past its own warm-up — no client caused server work,
    // and no artifact was computed more than once anywhere
    let final_stats = handle.shutdown();
    assert_eq!(final_stats.total_computes(), server_computes);
    assert!(final_stats.connections >= 4);
    let _ = std::fs::remove_dir_all(&dir);
}

#[cfg(unix)]
#[test]
fn unix_socket_transport_serves_end_to_end() {
    let dir = store_dir("unix");
    let sock = std::env::temp_dir().join(format!("asip-serve-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&sock);
    let server_session = Arc::new(Explorer::new().with_store(&dir));
    server_session.explore("fir").expect("server warms up");
    let endpoint = Endpoint::Unix(sock.clone());
    let handle = serve(server_session, &endpoint, ServeOptions::default()).expect("binds");

    let session = client(handle.endpoint());
    session.explore("fir").expect("pipeline over unix socket");
    let stats = session.cache_stats();
    assert_eq!(stats.total_misses(), 0, "served over the socket: {stats}");

    handle.shutdown();
    assert!(!sock.exists(), "socket file cleaned up on shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn wire_shutdown_op_stops_and_drains_the_daemon() {
    let dir = store_dir("shutdown");
    let server_session = Arc::new(Explorer::new().with_store(&dir));
    let handle = serve(server_session, &loopback(), ServeOptions::default()).expect("binds");
    let tier = RemoteTier::new(handle.endpoint().clone(), RetryPolicy::default());

    assert!(tier.put(Stage::Compile, 9, b"entry"));
    tier.shutdown_server().expect("daemon acknowledges");
    let final_stats = handle.join();
    assert_eq!(final_stats.puts, 1);

    // the entry the daemon took is in its store directory
    let store = ArtifactStore::open(&dir);
    assert_eq!(store.snapshot().len(), 1);

    // and the endpoint is really closed
    let probe = RemoteTier::new(
        handle_endpoint_clone(&tier),
        RetryPolicy {
            attempts: 1,
            timeout: Duration::from_millis(200),
            backoff: Duration::ZERO,
            ..RetryPolicy::default()
        },
    );
    assert!(probe.ping().is_err(), "daemon no longer answers");
    let _ = std::fs::remove_dir_all(&dir);
}

fn handle_endpoint_clone(tier: &RemoteTier) -> Endpoint {
    tier.endpoint().clone()
}

#[test]
fn client_with_local_store_prefers_the_remote_tier() {
    // ISSUE topology: remote sits BETWEEN staging and disk — a client
    // with its own (cold) store still reads a warm server first, and
    // write-through lands on both
    let server_dir = store_dir("order-server");
    let client_dir = store_dir("order-client");
    let server_session = Arc::new(Explorer::new().with_store(&server_dir));
    server_session.explore("fir").expect("server warms up");
    let handle = serve(server_session, &loopback(), ServeOptions::default()).expect("binds");

    let session = Explorer::new()
        .with_remote(&handle.endpoint().to_string(), RetryPolicy::default())
        .expect("endpoint parses")
        .with_store(&client_dir);
    let names: Vec<&'static str> = session
        .tier_stack()
        .tiers()
        .iter()
        .map(|t| t.name())
        .collect();
    assert_eq!(names, ["memory", "remote", "disk"], "stack order");
    session.explore("fir").expect("pipeline");
    let stats = session.cache_stats();
    assert_eq!(stats.total_misses(), 0, "no recompute: {stats}");
    let remote = stats.tier("remote").total();
    assert!(remote.hits > 0, "remote answered first");
    assert_eq!(
        stats.tier("disk").total().hits,
        0,
        "the local disk tier sits below the remote tier and is never reached: {stats}"
    );
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&server_dir);
    let _ = std::fs::remove_dir_all(&client_dir);
}

#[test]
fn fresh_clients_are_accepted_on_arrival_whatever_the_poll_interval() {
    let dir = store_dir("arrival");
    let options = ServeOptions {
        poll_interval: Duration::from_secs(1),
        ..ServeOptions::default()
    };
    let handle = serve(
        Arc::new(Explorer::new().with_store(&dir)),
        &loopback(),
        options,
    )
    .expect("binds");
    // each client dials afresh; an accept loop that slept between polls
    // could keep each one waiting for up to a whole interval
    let started = Instant::now();
    for _ in 0..5 {
        let tier = RemoteTier::new(handle.endpoint().clone(), RetryPolicy::default());
        tier.ping().expect("ping answered");
    }
    let took = started.elapsed();
    assert!(
        took < Duration::from_secs(1),
        "five fresh pings took {took:?} against a one-second poll interval"
    );
    assert_eq!(handle.shutdown().connections, 5);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn replayed_entries_are_served_from_daemon_memory_after_the_store_is_deleted() {
    let dir = store_dir("hot");
    let server_session = Arc::new(Explorer::new().with_store(&dir));
    server_session.explore("fir").expect("server warms up");
    let server_computes = server_session.cache_stats().total_misses();
    let handle = serve(server_session, &loopback(), ServeOptions::default()).expect("binds");

    // the first replay reads the daemon's store, which promotes every
    // entry it serves into the daemon's staging memory
    let first = client(handle.endpoint());
    let replay = first.explore("fir").expect("served remotely");
    assert_eq!(first.cache_stats().total_misses(), 0);

    // with the store gone, the second replay is served from memory
    std::fs::remove_dir_all(&dir).expect("store removable");
    let second = client(handle.endpoint());
    let again = second.explore("fir").expect("served from daemon memory");
    let stats = second.cache_stats();
    assert_eq!(stats.total_misses(), 0, "zero recomputes: {stats}");
    let remote = stats.tier("remote").total();
    assert!(remote.hits > 0, "served remotely: {stats}");
    assert_eq!(again.speedup().to_bits(), replay.speedup().to_bits());

    let final_stats = handle.shutdown();
    assert_eq!(final_stats.total_computes(), server_computes);
    let _ = std::fs::remove_dir_all(&dir);
}
