//! Maintenance CLI for the shared on-disk artifact store, over the same
//! tier API the sessions use (`asip_explorer::store::ArtifactStore`).
//!
//! ```text
//! cargo run --release -p asip-bench --bin store -- stats
//! cargo run --release -p asip-bench --bin store -- gc [--max-bytes N[K|M|G]] [--max-age SECS]
//! cargo run --release -p asip-bench --bin store -- verify
//! cargo run --release -p asip-bench --bin store -- --remote ADDR ping
//! cargo run --release -p asip-bench --bin store -- --remote ADDR stats
//! ```
//!
//! The store location follows the bench convention (`target/asip-store`
//! under the workspace root, `ASIP_STORE` overrides) or an explicit
//! `--dir PATH`. With `--remote ADDR` (`host:port` or `unix:/path`) the
//! `ping` and `stats` commands run against a live `serve` daemon
//! instead of a local directory: `ping` probes liveness and prints the
//! server's version triple (exit code 2 when unreachable), `stats`
//! prints the daemon's request counters and tier totals.
//!
//! The store is a directory of append-only segment files; every command
//! reads it through a scan of their record headers.
//!
//! - `stats` prints the per-stage entry/byte accounting of the live
//!   records.
//! - `gc` evicts the oldest-written records first (by segment, then
//!   position in it) until the given byte and/or age budgets hold,
//!   copies the rest into one new segment, unlinks the old ones and
//!   prints a report. With no budget it only compacts: superseded,
//!   torn, corrupt and stale records go.
//! - `verify` validates every live record end to end (header, checksum,
//!   full typed decode); exit code 2 when anything is corrupt, so CI
//!   can gate on store health. Corrupt records are left in place —
//!   sessions supersede them on the next request — but `gc` drops them
//!   eagerly. Records from an older format version are counted as
//!   `stale`, not corrupt: a version bump leaves them unread under old
//!   keys, and `gc` drops them.
//!
//! Every operation is safe against concurrent sessions: readers of a
//! GC'd record degrade to a recompute, never to a wrong result.

use asip_explorer::artifact::Stage;
use asip_explorer::remote::{Endpoint, RemoteTier, RetryPolicy};
use asip_explorer::store::{ArtifactStore, StoreGcConfig};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

fn usage() -> ! {
    eprintln!(
        "usage: store [--dir PATH] <stats | gc [--max-bytes N[K|M|G]] [--max-age SECS] | verify>\n       store --remote ADDR <ping | stats>"
    );
    std::process::exit(1)
}

/// Run `ping` or `stats` against a live `serve` daemon.
fn remote_command(addr: &str, command: &str) -> ExitCode {
    let endpoint = match Endpoint::parse(addr) {
        Ok(e) => e,
        Err(detail) => {
            eprintln!("store: invalid --remote address `{addr}`: {detail}");
            return ExitCode::from(1);
        }
    };
    let tier = RemoteTier::new(endpoint, RetryPolicy::default());
    match command {
        "ping" => match tier.ping() {
            Ok(info) => {
                println!(
                    "server at {} is alive: proto v{}, store format v{}, crate v{}",
                    tier.endpoint(),
                    info.proto_version,
                    info.format_version,
                    info.crate_version
                );
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("store: ping {} failed: {e}", tier.endpoint());
                ExitCode::from(2)
            }
        },
        "stats" => match tier.server_stats() {
            Ok(s) => {
                println!("server at {}", tier.endpoint());
                println!(
                    "requests: {} ({} batch keys, {} puts, {} pings)",
                    s.requests, s.batch_keys, s.puts, s.pings
                );
                println!(
                    "served:   {} hits / {} misses, {} in, {} out, {} connections, {} frame errors",
                    s.hits,
                    s.misses,
                    asip_bench::human_bytes(s.bytes_in),
                    asip_bench::human_bytes(s.bytes_out),
                    s.connections,
                    s.frame_errors
                );
                let computes: Vec<String> = s
                    .stage_computes
                    .iter()
                    .filter(|(_, n)| *n > 0)
                    .map(|(name, n)| format!("{name}: {n}"))
                    .collect();
                if !computes.is_empty() {
                    println!("computes: {}", computes.join(", "));
                }
                for (name, t) in &s.tier_totals {
                    println!(
                        "{name:>14}: {}h/{}m/{}w — {} entries, {}",
                        t.hits,
                        t.misses,
                        t.writes,
                        t.entries,
                        asip_bench::human_bytes(t.bytes)
                    );
                }
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("store: stats {} failed: {e}", tier.endpoint());
                ExitCode::from(2)
            }
        },
        _ => {
            eprintln!("store: only `ping` and `stats` work with --remote");
            ExitCode::from(1)
        }
    }
}

/// Parse `N`, `NK`, `NM` or `NG` (binary units) into bytes; `None`
/// when it is malformed or does not fit in 64 bits.
fn parse_bytes(s: &str) -> Option<u64> {
    let (digits, unit) = match s.chars().last()? {
        'K' | 'k' => (&s[..s.len() - 1], 1 << 10),
        'M' | 'm' => (&s[..s.len() - 1], 1 << 20),
        'G' | 'g' => (&s[..s.len() - 1], 1 << 30),
        _ => (s, 1),
    };
    digits.parse::<u64>().ok()?.checked_mul(unit)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut dir: Option<PathBuf> = None;
    let mut remote: Option<String> = None;
    let mut command: Option<String> = None;
    let mut gc_config = StoreGcConfig::default();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--dir" => {
                dir = Some(PathBuf::from(args.get(i + 1).unwrap_or_else(|| usage())));
                i += 2;
            }
            "--remote" => {
                remote = Some(args.get(i + 1).unwrap_or_else(|| usage()).clone());
                i += 2;
            }
            "--max-bytes" => {
                let v = args.get(i + 1).and_then(|s| parse_bytes(s));
                gc_config.max_bytes = Some(v.unwrap_or_else(|| usage()));
                i += 2;
            }
            "--max-age" => {
                let v = args.get(i + 1).and_then(|s| s.parse().ok());
                gc_config.max_age = Some(Duration::from_secs(v.unwrap_or_else(|| usage())));
                i += 2;
            }
            cmd @ ("stats" | "gc" | "verify" | "ping") if command.is_none() => {
                command = Some(cmd.to_string());
                i += 1;
            }
            _ => usage(),
        }
    }
    let Some(command) = command else { usage() };
    if let Some(addr) = remote {
        return remote_command(&addr, &command);
    }
    if command == "ping" {
        eprintln!("store: `ping` requires --remote ADDR");
        return ExitCode::from(1);
    }
    let dir = dir.or_else(asip_bench::store_dir).unwrap_or_else(|| {
        eprintln!("store: persistence is disabled via ASIP_STORE; pass --dir PATH");
        std::process::exit(1)
    });
    let store = ArtifactStore::open(&dir);
    println!("store: {}", dir.display());

    match command.as_str() {
        "stats" => {
            let manifest = store.snapshot();
            println!("{:>15} {:>8} {:>12}", "stage", "entries", "bytes");
            for stage in Stage::all() {
                let (entries, bytes) = (manifest.iter().filter(|e| e.stage == stage))
                    .fold((0, 0), |(n, b), e| (n + 1, b + e.bytes));
                if entries > 0 {
                    println!(
                        "{:>15} {entries:>8} {:>12}",
                        stage.name(),
                        asip_bench::human_bytes(bytes)
                    );
                }
            }
            println!(
                "{:>15} {:>8} {:>12}",
                "total",
                manifest.len(),
                asip_bench::human_bytes(manifest.iter().map(|e| e.bytes).sum())
            );
            ExitCode::SUCCESS
        }
        "gc" => {
            let report = store.gc(&gc_config);
            println!(
                "scanned  {} entries, {}",
                report.scanned_entries,
                asip_bench::human_bytes(report.scanned_bytes)
            );
            println!(
                "evicted  {} entries, {}",
                report.evicted_entries,
                asip_bench::human_bytes(report.evicted_bytes)
            );
            for stage in Stage::all() {
                let n = report.evicted_per_stage[stage as usize];
                if n > 0 {
                    println!("         - {}: {n}", stage.name());
                }
            }
            println!(
                "retained {} entries, {}",
                report.retained_entries,
                asip_bench::human_bytes(report.retained_bytes)
            );
            ExitCode::SUCCESS
        }
        "verify" => {
            let report = store.verify();
            println!(
                "verified {} entries ({}): {} ok, {} corrupt, {} stale",
                report.ok + report.corrupt + report.stale,
                asip_bench::human_bytes(report.bytes),
                report.ok,
                report.corrupt,
                report.stale
            );
            for stage in Stage::all() {
                let bad = report.corrupt_per_stage[stage as usize];
                if bad > 0 {
                    println!("         - {}: {bad} corrupt", stage.name());
                }
            }
            if report.stale > 0 {
                println!(
                    "stale entries are from an older format version and are never read; \
                     `store gc` drops them"
                );
            }
            if report.corrupt > 0 {
                println!("corrupt entries recompute (and heal) on the next session request");
                ExitCode::from(2)
            } else {
                ExitCode::SUCCESS
            }
        }
        _ => usage(),
    }
}

#[cfg(test)]
mod tests {
    use super::parse_bytes;

    #[test]
    fn byte_budgets_parse_and_overflow_is_refused() {
        assert_eq!(parse_bytes("1K"), Some(1024));
        assert_eq!(parse_bytes("1G"), Some(1 << 30));
        assert_eq!(parse_bytes("0"), Some(0));
        // 17179869184 << 30 wraps to exactly 0: a budget that would
        // evict the whole store
        assert_eq!(parse_bytes("17179869184G"), None);
        assert_eq!(parse_bytes(&format!("{}K", u64::MAX)), None);
        assert_eq!(parse_bytes("12Q"), None);
    }
}
