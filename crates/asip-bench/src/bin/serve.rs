//! Exploration-as-a-service daemon: park one warm [`Explorer`] session
//! (full tier stack resident) behind a socket and serve artifact
//! operations to every client on the network.
//!
//! ```text
//! cargo run --release -p asip-bench --bin serve                  # daemon on 127.0.0.1:4995
//! cargo run --release -p asip-bench --bin serve -- --addr unix:/tmp/asip.sock
//! cargo run --release -p asip-bench --bin serve -- --check ADDR  # end-to-end client check
//! cargo run --release -p asip-bench --bin serve -- --stop ADDR   # clean remote shutdown
//! ```
//!
//! **Daemon mode** (default) opens the shared bench store (`--store
//! PATH` overrides the usual `ASIP_STORE` convention), warms it with a
//! full `explore_all` pass unless `--no-warm` is given, binds `--addr`
//! (default `127.0.0.1:4995`; `host:0` picks an ephemeral port and
//! prints it) and serves until a client sends the `shutdown` op
//! (`serve --stop ADDR`). Shutdown drains in-flight connections; every
//! entry a client wrote is already a file in the store.
//!
//! **Check mode** (`--check ADDR`) is the CI smoke path: it runs
//! `explore_all` on two consecutive *storeless* client sessions against
//! the daemon and requires the second to perform zero recomputes with
//! every artifact served as a remote hit. Exit code 3 when the
//! guarantee does not hold, so CI gates on it.
//!
//! **Stop mode** (`--stop ADDR`) asks the daemon to shut down cleanly;
//! exit code 2 when no daemon answers.
//!
//! **Chaos hooks** (CI's robustness smoke): `--chaos-panic` mounts a
//! [`FaultTier`] panic probe at the bottom of the daemon's stack, so a
//! `get` of the reserved probe key panics inside the request handler;
//! `--panic-probe ADDR` fires that key from a client and requires the
//! daemon to answer it with a typed error, keep serving, and report the
//! panic in its `stats` counters. Exit code 4 when isolation fails.

use asip_explorer::remote::{serve, Endpoint, RemoteTier, RetryPolicy, ServeOptions};
use asip_explorer::{
    ArtifactTier, Explorer, FaultTier, MemoryTier, Stage, TierRead, PANIC_PROBE_KEY,
};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;

/// The default daemon address; the port nods to the paper's year.
const DEFAULT_ADDR: &str = "127.0.0.1:4995";

fn usage() -> ! {
    eprintln!(
        "usage: serve [--addr ADDR] [--store PATH] [--no-warm] [--chaos-panic]\n       serve --check ADDR\n       serve --panic-probe ADDR\n       serve --stop ADDR"
    );
    std::process::exit(1)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut addr = DEFAULT_ADDR.to_string();
    let mut store: Option<PathBuf> = None;
    let mut warm = true;
    let mut chaos_panic = false;
    let mut check: Option<String> = None;
    let mut panic_probe: Option<String> = None;
    let mut stop: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--chaos-panic" => {
                chaos_panic = true;
                i += 1;
            }
            "--panic-probe" => {
                panic_probe = Some(args.get(i + 1).unwrap_or_else(|| usage()).clone());
                i += 2;
            }
            "--addr" => {
                addr = args.get(i + 1).unwrap_or_else(|| usage()).clone();
                i += 2;
            }
            "--store" => {
                store = Some(PathBuf::from(args.get(i + 1).unwrap_or_else(|| usage())));
                i += 2;
            }
            "--no-warm" => {
                warm = false;
                i += 1;
            }
            "--check" => {
                check = Some(args.get(i + 1).unwrap_or_else(|| usage()).clone());
                i += 2;
            }
            "--stop" => {
                stop = Some(args.get(i + 1).unwrap_or_else(|| usage()).clone());
                i += 2;
            }
            _ => usage(),
        }
    }
    if let Some(addr) = check {
        return run_check(&addr);
    }
    if let Some(addr) = panic_probe {
        return run_panic_probe(&addr);
    }
    if let Some(addr) = stop {
        return run_stop(&addr);
    }
    run_daemon(&addr, store, warm, chaos_panic)
}

fn run_daemon(addr: &str, store: Option<PathBuf>, warm: bool, chaos_panic: bool) -> ExitCode {
    let endpoint = match Endpoint::parse(addr) {
        Ok(e) => e,
        Err(detail) => {
            eprintln!("serve: invalid --addr `{addr}`: {detail}");
            return ExitCode::from(1);
        }
    };
    let dir = store.or_else(asip_bench::store_dir);
    let Some(dir) = dir else {
        eprintln!("serve: persistence is disabled via ASIP_STORE; pass --store PATH");
        eprintln!("       (a storeless daemon has no persistent tier to serve from)");
        return ExitCode::from(1);
    };
    let mut session = Explorer::new().with_store(&dir);
    if chaos_panic {
        // a panic probe at the bottom of the stack: Get(Compile,
        // PANIC_PROBE_KEY) panics inside the request handler, which the
        // daemon must survive (see `--panic-probe`)
        session = session.with_tier(Arc::new(FaultTier::panic_probe(
            Arc::new(MemoryTier::new()),
        )));
        println!("chaos: panic probe armed on key {PANIC_PROBE_KEY:#x}");
    }
    let session = Arc::new(session);
    println!("store: {}", dir.display());
    if warm {
        print!("warming the stack with explore_all … ");
        match session.explore_all() {
            Ok(explorations) => println!("{} benchmarks ready", explorations.len()),
            Err(e) => {
                eprintln!("serve: warm-up failed: {e}");
                return ExitCode::from(1);
            }
        }
    }
    let handle = match serve(Arc::clone(&session), &endpoint, ServeOptions::default()) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("serve: cannot bind {endpoint}: {e}");
            return ExitCode::from(1);
        }
    };
    println!(
        "serving on {} (stop with: serve --stop {0})",
        handle.endpoint()
    );
    let stats = handle.join();
    println!(
        "served {} requests over {} connections: {} hits / {} misses, {} in, {} out, {} frame errors",
        stats.requests,
        stats.connections,
        stats.hits,
        stats.misses,
        asip_bench::human_bytes(stats.bytes_in),
        asip_bench::human_bytes(stats.bytes_out),
        stats.frame_errors,
    );
    let hardening = stats.overloaded
        + stats.panics
        + stats.deadline_truncated
        + stats.size_truncated
        + stats.idle_reaped;
    if hardening > 0 {
        println!(
            "hardening: {} shed, {} panics isolated, {} batch keys past deadline, \
             {} batch keys past the body cap, {} idle conns reaped",
            stats.overloaded,
            stats.panics,
            stats.deadline_truncated,
            stats.size_truncated,
            stats.idle_reaped,
        );
    }
    asip_bench::print_cache_report(&session);
    ExitCode::SUCCESS
}

/// One storeless client pass: `explore_all` against the daemon only.
/// Returns the session for counter inspection, or an error string.
fn client_pass(addr: &str) -> Result<Explorer, String> {
    let session = Explorer::new()
        .with_remote(addr, RetryPolicy::default())
        .map_err(|e| e.to_string())?;
    let explorations = session.explore_all().map_err(|e| e.to_string())?;
    if explorations.is_empty() {
        return Err("explore_all returned no benchmarks".into());
    }
    Ok(session)
}

fn run_check(addr: &str) -> ExitCode {
    // pass 1 may compute (a cold server has nothing to serve) — its
    // write-through populates the daemon for everyone
    println!("check pass 1 (may compute; populates the daemon) …");
    let first = match client_pass(addr) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("serve: check pass 1 failed: {e}");
            return ExitCode::from(3);
        }
    };
    asip_bench::print_cache_report(&first);
    // pass 2 is the guarantee: a brand-new storeless session must be
    // served entirely by the daemon — zero recomputes, all remote hits
    println!("check pass 2 (must be all remote hits) …");
    let second = match client_pass(addr) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("serve: check pass 2 failed: {e}");
            return ExitCode::from(3);
        }
    };
    asip_bench::print_cache_report(&second);
    let stats = second.cache_stats();
    let (misses, remote_hits) = (stats.total_misses(), stats.tier("remote").total().hits);
    let wire_errors = stats.remote.errors + stats.remote.skipped;
    if misses > 0 || remote_hits == 0 || wire_errors > 0 {
        eprintln!(
            "serve: check FAILED: {misses} recomputes, {remote_hits} remote hits, {wire_errors} wire errors (want 0 / >0 / 0)"
        );
        return ExitCode::from(3);
    }
    println!("check OK: 0 recomputes, {remote_hits} remote hits, no wire errors");
    ExitCode::SUCCESS
}

/// Fire the reserved panic key at a daemon started with
/// `--chaos-panic` and require panic isolation to hold: the probe
/// degrades to a client-side miss, the daemon answers a follow-up ping,
/// and its `stats` counters report the panic.
fn run_panic_probe(addr: &str) -> ExitCode {
    let endpoint = match Endpoint::parse(addr) {
        Ok(e) => e,
        Err(detail) => {
            eprintln!("serve: invalid address `{addr}`: {detail}");
            return ExitCode::from(1);
        }
    };
    let tier = RemoteTier::new(endpoint, RetryPolicy::fail_fast())
        .with_probe_interval(std::time::Duration::ZERO);
    println!("firing panic probe key {PANIC_PROBE_KEY:#x} …");
    match tier.get(Stage::Compile, PANIC_PROBE_KEY) {
        TierRead::Miss => {}
        other => {
            eprintln!("serve: panic probe FAILED: expected a degraded miss, got {other:?}");
            return ExitCode::from(4);
        }
    }
    if let Err(e) = tier.ping() {
        eprintln!("serve: panic probe FAILED: daemon did not survive the panic: {e}");
        return ExitCode::from(4);
    }
    match tier.server_stats() {
        Ok(stats) if stats.panics >= 1 => {
            println!(
                "panic probe OK: daemon isolated {} panic(s) and kept serving",
                stats.panics
            );
            ExitCode::SUCCESS
        }
        Ok(stats) => {
            eprintln!(
                "serve: panic probe FAILED: daemon reports {} panics (want >= 1 — was it started with --chaos-panic?)",
                stats.panics
            );
            ExitCode::from(4)
        }
        Err(e) => {
            eprintln!("serve: panic probe FAILED: stats unavailable after the panic: {e}");
            ExitCode::from(4)
        }
    }
}

fn run_stop(addr: &str) -> ExitCode {
    let endpoint = match Endpoint::parse(addr) {
        Ok(e) => e,
        Err(detail) => {
            eprintln!("serve: invalid address `{addr}`: {detail}");
            return ExitCode::from(1);
        }
    };
    let tier = RemoteTier::new(endpoint, RetryPolicy::default());
    match tier.shutdown_server() {
        Ok(()) => {
            println!("daemon at {} acknowledged shutdown", tier.endpoint());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("serve: stop {} failed: {e}", tier.endpoint());
            ExitCode::from(2)
        }
    }
}
