//! Fault-injection tests for the remote artifact tier: every failure
//! mode — server absent, server killed mid-request, corrupt frames,
//! protocol-version skew, a silent server — must degrade to a counted
//! recompute with byte-identical results, never a panic, an error, or
//! a hang beyond the retry policy's bounds.

use asip_explorer::prelude::*;
use asip_explorer::remote::proto::{
    self, read_frame, write_frame, write_frame_versioned, PROTO_VERSION,
};
use asip_explorer::remote::{Endpoint, RemoteTier, RetryPolicy};
use asip_explorer::RemoteError;
use std::io::{Read, Write};
use std::net::TcpListener;
use std::time::{Duration, Instant};

/// A fast policy so fault paths resolve in milliseconds: two attempts,
/// short timeout, tiny backoff.
fn fast_policy() -> RetryPolicy {
    RetryPolicy {
        attempts: 2,
        timeout: Duration::from_millis(300),
        backoff: Duration::from_millis(1),
        ..RetryPolicy::default()
    }
}

/// An address with nothing listening (bound, resolved, then dropped).
fn dead_addr() -> String {
    let listener = TcpListener::bind("127.0.0.1:0").expect("binds");
    let addr = listener.local_addr().expect("addr").to_string();
    drop(listener);
    addr
}

#[test]
fn absent_server_degrades_to_clean_recompute() {
    let session = Explorer::new()
        .with_remote(&dead_addr(), fast_policy())
        .expect("valid endpoint");
    // the whole pipeline must run normally — the dead server costs
    // counted errors, not correctness
    let exploration = session.explore("fir").expect("pipeline completes");
    assert!(exploration.speedup() >= 1.0);
    let stats = session.cache_stats();
    assert!(stats.total_misses() > 0, "everything recomputed");
    assert_eq!(stats.tier("remote").total().hits, 0);
    assert!(
        stats.remote.errors >= 1,
        "connect failures counted: {stats}"
    );
    assert!(
        stats.remote.skipped >= 1,
        "unhealthy server skipped after the first failure: {stats}"
    );
    assert!(!session.remote().expect("attached").is_healthy());
}

#[test]
fn absent_server_recompute_is_byte_identical_to_local() {
    let local = Explorer::new();
    let remote = Explorer::new()
        .with_remote(&dead_addr(), fast_policy())
        .expect("valid endpoint");
    let a = local.explore("sewha").expect("local pipeline");
    let b = remote.explore("sewha").expect("degraded pipeline");
    assert_eq!(
        a.speedup().to_bits(),
        b.speedup().to_bits(),
        "bit-identical speedup"
    );
    assert_eq!(
        a.designed.design.extensions.len(),
        b.designed.design.extensions.len()
    );
}

#[test]
fn malformed_address_is_a_loud_configuration_error() {
    let err = Explorer::new()
        .with_remote("not an endpoint", RetryPolicy::default())
        .expect_err("must not build");
    assert!(matches!(
        err,
        asip_explorer::ExplorerError::InvalidEndpoint { .. }
    ));
    assert!(err.to_string().contains("not an endpoint"));
}

/// A rogue server: accepts one connection, runs `script` on it, exits.
fn rogue_server(
    script: impl FnOnce(std::net::TcpStream) + Send + 'static,
) -> (String, std::thread::JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("binds");
    let addr = listener.local_addr().expect("addr").to_string();
    let handle = std::thread::spawn(move || {
        if let Ok((stream, _)) = listener.accept() {
            script(stream);
        }
    });
    (addr, handle)
}

#[test]
fn server_killed_mid_request_is_a_counted_miss() {
    // reads the request header then slams the connection shut
    let (addr, handle) = rogue_server(|mut stream| {
        let mut buf = [0u8; proto::HEADER_BYTES];
        let _ = stream.read_exact(&mut buf);
        drop(stream);
    });
    let tier = RemoteTier::new(
        Endpoint::parse(&addr).expect("valid"),
        RetryPolicy {
            attempts: 1,
            timeout: Duration::from_millis(300),
            backoff: Duration::ZERO,
            ..RetryPolicy::default()
        },
    );
    assert!(matches!(
        tier.get(Stage::Compile, 1),
        asip_explorer::TierRead::Miss
    ));
    assert_eq!(tier.remote_totals().errors, 1);
    handle.join().expect("rogue server exits");
}

#[test]
fn corrupt_response_frame_is_rejected_and_counted() {
    // answers any request with garbage bytes
    let (addr, handle) = rogue_server(|mut stream| {
        let mut buf = [0u8; proto::HEADER_BYTES];
        let _ = stream.read_exact(&mut buf);
        let _ = stream.write_all(b"this is not a frame at all, sorry!!!!!!!!");
        let _ = stream.flush();
    });
    let tier = RemoteTier::new(
        Endpoint::parse(&addr).expect("valid"),
        RetryPolicy {
            attempts: 1,
            timeout: Duration::from_millis(300),
            backoff: Duration::ZERO,
            ..RetryPolicy::default()
        },
    );
    assert!(matches!(
        tier.get(Stage::Compile, 1),
        asip_explorer::TierRead::Miss
    ));
    let totals = tier.remote_totals();
    assert_eq!(totals.errors, 1, "frame damage counted: {totals:?}");
    handle.join().expect("rogue server exits");
}

#[test]
fn protocol_version_skew_is_detected_not_misread() {
    // a well-formed frame from the "future": same layout, version+1
    let (addr, handle) = rogue_server(|mut stream| {
        let frame = {
            let mut first = [0u8; 1];
            stream.read_exact(&mut first).expect("request arrives");
            proto::read_frame_after(first[0], &mut stream).expect("request parses")
        };
        write_frame_versioned(
            &mut stream,
            PROTO_VERSION + 1,
            proto::kind::BATCH,
            frame.request_id,
            &[],
        )
        .expect("skewed reply written");
    });
    let tier = RemoteTier::new(
        Endpoint::parse(&addr).expect("valid"),
        RetryPolicy {
            attempts: 1,
            timeout: Duration::from_millis(500),
            backoff: Duration::ZERO,
            ..RetryPolicy::default()
        },
    );
    // surfaced precisely through the typed API …
    match tier.ping() {
        Err(RemoteError::VersionSkew { peer }) => assert_eq!(peer, PROTO_VERSION + 1),
        other => panic!("expected VersionSkew, got {other:?}"),
    }
    // … and degraded (not propagated) through the tier API
    assert!(matches!(
        tier.get(Stage::Compile, 1),
        asip_explorer::TierRead::Miss
    ));
    handle.join().expect("rogue server exits");
}

#[test]
fn silent_server_times_out_within_policy_bounds() {
    // accepts, reads the request, never answers
    let (addr, handle) = rogue_server(|mut stream| {
        let mut buf = [0u8; 256];
        let _ = stream.read(&mut buf);
        std::thread::sleep(Duration::from_secs(2));
    });
    let policy = RetryPolicy {
        attempts: 1,
        timeout: Duration::from_millis(200),
        backoff: Duration::ZERO,
        ..RetryPolicy::default()
    };
    let tier = RemoteTier::new(Endpoint::parse(&addr).expect("valid"), policy);
    let start = Instant::now();
    assert!(matches!(
        tier.get(Stage::Compile, 1),
        asip_explorer::TierRead::Miss
    ));
    let elapsed = start.elapsed();
    assert!(
        elapsed < Duration::from_secs(1),
        "one attempt with a 200ms timeout must not stall: took {elapsed:?}"
    );
    assert_eq!(tier.remote_totals().errors, 1);
    handle.join().expect("rogue server exits");
}

#[test]
fn frame_codec_rejects_tampering_on_loopback() {
    // round-trip a frame through a real socket pair and tamper with the
    // body: the reader must reject it by checksum, not misread it
    let listener = TcpListener::bind("127.0.0.1:0").expect("binds");
    let addr = listener.local_addr().expect("addr");
    let writer = std::thread::spawn(move || {
        let mut stream = std::net::TcpStream::connect(addr).expect("connects");
        let mut frame = Vec::new();
        write_frame(&mut frame, proto::kind::PING, 42, &[]).expect("encodes");
        // flip one bit in the header checksum field
        let n = frame.len();
        frame[n - 1] ^= 0x01;
        // grow the body so the checksum actually gets exercised
        stream.write_all(&frame).expect("sends");
    });
    let (mut conn, _) = listener.accept().expect("accepts");
    conn.set_read_timeout(Some(Duration::from_secs(2)))
        .expect("timeout set");
    let err = read_frame(&mut conn).expect_err("tampered frame rejected");
    assert!(
        matches!(err, RemoteError::Frame { .. }),
        "got {err:?} instead of a frame rejection"
    );
    writer.join().expect("writer exits");
}
