//! The explorer benchmark: one workload, one seed, timed closed-loop
//! passes with every pass's outputs checked.
//!
//! ```text
//! explorer-bench --workload <cold-explore|design-sweep|warm-replay>
//!                --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! An untraced run (`--trace 0`) prints the end-to-end metrics. A
//! traced run (`--trace 1`) alternates untraced passes with passes that
//! record spans around every call the benchmark makes into a layer, and
//! prints the per-layer metrics derived from them. Either way the last
//! line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`; the full results (and, when
//! traced, the spans) are written under `$CARGO_TARGET_DIR/explorer-bench/`
//! (default `.bench_build/explorer-bench/`). See `README.md`.

mod grid;
mod heap;
mod machine;
mod metrics;
mod oracle;
mod stats;
mod timing_tier;
mod trace;
mod workloads;

use metrics::{Pass, Value};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};
use trace::Tracer;
use workloads::{Ctx, Kind};

#[global_allocator]
static ALLOCATOR: heap::Counting = heap::Counting;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// Passes every run makes, however short `--seconds` is: enough for a
/// tail with ten samples beyond it, and for [`metrics::FIXED_PASSES`]
/// traced passes.
const MIN_PASSES: u32 = 2 * metrics::FIXED_PASSES as u32 + 2;

#[derive(Debug)]
struct Args {
    workload: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage() -> String {
    let names: Vec<&str> = Kind::ALL.iter().map(|k| k.name()).collect();
    format!(
        "usage: explorer-bench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        names.join("|")
    )
}

fn parse_args(args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, false);
    let mut args = args;
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))?;
        let bad = |what: &str| format!("bad {what} {value:?}\n{}", usage());
        match flag.as_str() {
            "--workload" => workload = Some(Kind::parse(&value).ok_or_else(|| bad("workload"))?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("seed"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("seconds"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(bad("seconds"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("trace")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}\n{}", usage())),
        }
    }
    Ok(Args {
        workload: workload.ok_or_else(usage)?,
        seed: seed.ok_or_else(usage)?,
        seconds: seconds.ok_or_else(usage)?,
        trace,
    })
}

/// Where results, spans and the workloads' scratch stores go.
fn output_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from(".bench_build"), PathBuf::from)
        .join("explorer-bench")
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    let out = output_dir();
    let work = out.join(format!(
        "work-{}-{}",
        args.workload.name(),
        std::process::id()
    ));
    let result = run(&args, &out, &work);
    let _ = std::fs::remove_dir_all(&work);
    match result {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("explorer-bench: {e}");
            std::process::exit(1);
        }
    }
}

/// What the run knew about its machine.
struct Machine {
    parallelism: usize,
    calibration_before: f64,
    calibration_after: f64,
}

/// Run the workload; returns the result line.
fn run(args: &Args, out: &Path, work: &Path) -> Result<String, String> {
    std::fs::create_dir_all(work).map_err(|e| format!("cannot create {}: {e}", work.display()))?;
    let tracer = Arc::new(Tracer::default());
    let ctx = Ctx {
        seed: args.seed,
        work: work.to_path_buf(),
        tracer: Arc::clone(&tracer),
    };
    let parallelism = machine::available_parallelism();
    let calibration_before = machine::calibration_mops();

    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut workload = None;
    for rep in 0..SETUP_REPS {
        // the previous set-up (and any daemon it started) ends first
        drop(workload.take());
        let start = Instant::now();
        workload = Some(workloads::setup(args.workload, &ctx, rep)?);
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let mut workload = workload.expect("at least one set-up");
    let mut errors = Vec::new();
    if let Err(e) = workload.verify_setup() {
        errors.push(format!("set-up: {e}"));
    }

    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut passes = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut index = 0u32;
    while index < MIN_PASSES || Instant::now() < deadline {
        let traced = args.trace && index % 2 == 1;
        tracer.set_pass(index, traced);
        heap::reset_peak();
        let outcome = catch_unwind(AssertUnwindSafe(|| workload.pass(index, traced)));
        let peak_heap_mb = heap::peak_mb();
        tracer.set_pass(index, false);
        attempted += 1;
        match outcome {
            Ok(Ok(record)) => passes.push(Pass {
                index,
                traced,
                peak_heap_mb,
                record,
            }),
            Ok(Err(e)) => {
                failed += 1;
                errors.push(format!("pass {index}: {e}"));
            }
            Err(_) => {
                failed += 1;
                errors.push(format!("pass {index}: panicked"));
            }
        }
        index += 1;
    }
    drop(workload);
    let machine = Machine {
        parallelism,
        calibration_before,
        calibration_after: machine::calibration_mops(),
    };
    for e in &errors {
        eprintln!("explorer-bench: {e}");
    }

    let name = format!(
        "{}-seed{}-trace{}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    );
    let (metrics, tail) = if args.trace {
        let spans = tracer.spans();
        let path = out.join(format!("{name}.spans.jsonl"));
        Tracer::export(&spans, &path)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        (metrics::per_layer(&passes, &spans, attempted, failed), None)
    } else {
        let (metrics, tail) = metrics::end_to_end(&setup_s, &passes)?;
        (metrics, Some(tail))
    };

    let machine_line = format!(
        "{{\"available_parallelism\": {}, \"calibration_mops_before\": {}, \
         \"calibration_mops_after\": {}}}",
        machine.parallelism,
        metrics::json_number(machine.calibration_before),
        metrics::json_number(machine.calibration_after)
    );
    let tail_line = tail.map_or("null".to_string(), |t| {
        format!(
            "{{\"percentile\": {}, \"beyond\": {}, \"samples\": {}}}",
            metrics::json_number(t.percentile),
            t.beyond,
            t.samples
        )
    });
    let line = metrics::result_line(errors.is_empty(), attempted, failed, &metrics);
    let path = out.join(format!("{name}.json"));
    write_results(
        &path,
        args,
        &machine_line,
        &tail_line,
        &setup_s,
        &passes,
        &line,
    )
    .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("machine {machine_line}");
    if tail.is_some() {
        println!("pass_ms_tail {tail_line}");
    }
    print_metrics(&metrics);
    println!("results {}", path.display());
    Ok(line)
}

fn print_metrics(metrics: &[Value]) {
    for m in metrics {
        println!("  {:<32} {:>16.4} {}", m.name, m.value, m.unit);
    }
}

/// The results file: the run's arguments, machine facts, every set-up
/// and pass time, and the result line.
fn write_results(
    path: &Path,
    args: &Args,
    machine: &str,
    tail: &str,
    setup_s: &[f64],
    passes: &[Pass],
    line: &str,
) -> std::io::Result<()> {
    let setups: Vec<String> = setup_s.iter().map(|&s| metrics::json_number(s)).collect();
    let times: Vec<String> = passes
        .iter()
        .map(|p| {
            format!(
                "[{}, {}, {}]",
                p.index,
                p.traced,
                metrics::json_number(p.record.wall_ms)
            )
        })
        .collect();
    std::fs::write(
        path,
        format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {},\n\
             \"machine\": {machine},\n\"pass_ms_tail\": {tail},\n\
             \"setup_s\": [{}],\n\"passes\": [{}],\n\"result\": {line}}}\n",
            args.workload.name(),
            args.seed,
            metrics::json_number(args.seconds),
            args.trace,
            setups.join(", "),
            times.join(", ")
        ),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args(&[
            "--workload",
            "design-sweep",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .expect("valid");
        assert_eq!(a.workload, Kind::DesignSweep);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, true));
        assert!(args(&["--workload", "nope", "--seed", "1", "--seconds", "1"]).is_err());
        assert!(args(&["--workload", "cold-explore", "--seed", "1"]).is_err());
        assert!(args(&[
            "--workload",
            "cold-explore",
            "--seed",
            "1",
            "--seconds",
            "0"
        ])
        .is_err());
        assert!(args(&["--trace", "2"]).is_err());
    }
}
