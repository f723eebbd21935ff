//! The metrics a run reports, and how they are derived from its passes.

use crate::stats::{median, tail, Tail};
use crate::trace::{coverage_pct, self_times, Span};
use crate::workloads::PassRecord;
use std::collections::BTreeMap;

/// Untraced passes whose speedups make up `speedup_geomean`, and traced
/// passes whose counts make up the per-layer counts. A fixed prefix of
/// passes, so a count repeats exactly for a seed however many passes fit
/// in the measured time.
pub const FIXED_PASSES: usize = 5;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Value {
    /// The metric's name.
    pub name: &'static str,
    /// Its unit.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
}

/// How a per-layer metric is aggregated over a run's passes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Agg {
    /// Median over every traced pass (timings and rates).
    Traced,
    /// Median over the first [`FIXED_PASSES`] traced passes (counts).
    Fixed,
    /// Median of a named per-pass value over the untraced passes.
    Untraced(&'static str),
    /// Traced against untraced median pass time, in percent.
    Overhead,
    /// Failed passes over attempted passes.
    FailedRatio,
}

/// `(name, unit, aggregation)` of every per-layer metric. A `_ms`
/// metric named after a span is the per-pass sum of that span's self
/// time.
const PER_LAYER: &[(&str, &str, Agg)] = &[
    ("frontend.compile_ms", "ms", Agg::Traced),
    ("frontend.insts", "count", Agg::Fixed),
    ("sim.decode_ms", "ms", Agg::Traced),
    ("sim.profile_ms", "ms", Agg::Traced),
    ("sim.profile_mops_per_s", "Mops/s", Agg::Traced),
    ("sim.dynamic_ops", "count", Agg::Fixed),
    ("sim.run_state_creates", "count", Agg::Fixed),
    ("sim.rewritten_mops_per_s", "Mops/s", Agg::Traced),
    ("opt.schedule_ms", "ms", Agg::Traced),
    ("opt.schedules", "count", Agg::Fixed),
    ("opt.nodes", "count", Agg::Fixed),
    ("chains.analyze_ms", "ms", Agg::Traced),
    ("chains.sequences", "count", Agg::Fixed),
    ("synth.design_ms", "ms", Agg::Traced),
    ("synth.rewrite_ms", "ms", Agg::Traced),
    ("synth.evaluate_ms", "ms", Agg::Traced),
    ("synth.fused_chains", "count", Agg::Fixed),
    ("synth.frontier_ms", "ms", Agg::Traced),
    ("synth.frontier_expanded", "count", Agg::Fixed),
    ("synth.frontier_pruned", "count", Agg::Fixed),
    ("synth.frontier_memo_hit_ratio", "ratio", Agg::Fixed),
    ("artifact.encode_ms", "ms", Agg::Traced),
    ("artifact.decode_ms", "ms", Agg::Traced),
    ("artifact.bytes", "bytes", Agg::Fixed),
    ("store.put_ms", "ms", Agg::Traced),
    ("store.puts", "count", Agg::Fixed),
    ("store.put_bytes", "bytes", Agg::Fixed),
    ("store.get_ms", "ms", Agg::Traced),
    ("store.gets", "count", Agg::Fixed),
    ("store.get_bytes", "bytes", Agg::Fixed),
    ("store.corrupt", "count", Agg::Fixed),
    ("session.stage_misses", "count", Agg::Fixed),
    ("session.prefetch_ms", "ms", Agg::Traced),
    ("session.prefetch_hit_ratio", "ratio", Agg::Fixed),
    ("remote.ping_ms", "ms", Agg::Traced),
    ("remote.get_batch_ms", "ms", Agg::Traced),
    ("remote.requests", "count", Agg::Fixed),
    ("remote.bytes_received", "bytes", Agg::Fixed),
    ("remote.retries", "count", Agg::Fixed),
    ("remote.errors", "count", Agg::Fixed),
    ("server.requests", "count", Agg::Fixed),
    ("server.hits", "count", Agg::Fixed),
    ("server.overloaded", "count", Agg::Fixed),
    ("configs_per_s", "1/s", Agg::Untraced("configs_per_s")),
    (
        "remote_replay_ms_p50",
        "ms",
        Agg::Untraced("remote_replay_ms"),
    ),
    (
        "store_replay_ms_p50",
        "ms",
        Agg::Untraced("store_replay_ms"),
    ),
    ("trace.coverage_pct", "%", Agg::Traced),
    ("trace.overhead_pct", "%", Agg::Overhead),
    ("failed_ratio", "ratio", Agg::FailedRatio),
];

/// Names of the end-to-end metrics, with their units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("pass_ms_p50", "ms"),
    ("pass_ms_tail", "ms"),
    ("programs_per_s", "1/s"),
    ("speedup_geomean", "x"),
    ("peak_heap_mb", "MB"),
];

/// One checked pass of a run.
#[derive(Debug)]
pub struct Pass {
    /// The pass's index (its span pass id).
    pub index: u32,
    /// Whether spans were recorded.
    pub traced: bool,
    /// Peak live heap during the pass, what set-up left live included.
    pub peak_heap_mb: f64,
    /// What the pass measured.
    pub record: PassRecord,
}

/// A run's checked passes, in pass order.
pub type Passes = [Pass];

fn untraced(passes: &Passes) -> impl Iterator<Item = &PassRecord> {
    passes.iter().filter(|p| !p.traced).map(|p| &p.record)
}

fn traced(passes: &Passes) -> impl Iterator<Item = &Pass> {
    passes.iter().filter(|p| p.traced)
}

/// Untraced pass times, in pass order.
pub fn untraced_ms(passes: &Passes) -> Vec<f64> {
    untraced(passes).map(|r| r.wall_ms).collect()
}

/// The end-to-end metrics of an untraced run, plus the tail it used.
///
/// # Errors
///
/// When there are too few passes for a tail or no speedup was measured.
pub fn end_to_end(setup_s: &[f64], passes: &Passes) -> Result<(Vec<Value>, Tail), String> {
    let times = untraced_ms(passes);
    // the median pass's peak: the run's single highest peak depends on
    // how the daemon's threads happen to overlap the client's
    let heap: Vec<f64> = passes
        .iter()
        .filter(|p| !p.traced)
        .map(|p| p.peak_heap_mb)
        .collect();
    let tail = tail(&times).ok_or("too few untraced passes for a tail percentile")?;
    let seconds: f64 = times.iter().sum::<f64>() / 1e3;
    let programs: u64 = untraced(passes).map(|r| r.programs).sum();
    let speedups = untraced(passes)
        .take(FIXED_PASSES)
        .flat_map(|r| r.speedups.iter().copied());
    let speedup = asip_explorer::geomean(speedups).ok_or("no speedup was measured")?;
    let values = [
        median(setup_s).ok_or("no set-up was timed")?,
        median(&times).ok_or("no untraced pass")?,
        tail.value,
        programs as f64 / seconds,
        speedup,
        median(&heap).ok_or("no untraced pass")?,
    ];
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| Value { name, unit, value })
        .collect();
    Ok((metrics, tail))
}

/// Per-pass values of each traced pass: its counts, the per-pass sum of
/// every span's self time (as `<span>_ms`), its coverage (over all its
/// `pass` spans, one per round where a pass has rounds) and its profile
/// throughput.
fn traced_values(passes: &Passes, spans: &[Span]) -> Vec<BTreeMap<String, f64>> {
    let selfs = self_times(spans);
    let mut by_pass: BTreeMap<u32, BTreeMap<String, f64>> = BTreeMap::new();
    let mut roots: BTreeMap<u32, Vec<usize>> = BTreeMap::new();
    for (i, (s, self_ns)) in spans.iter().zip(&selfs).enumerate() {
        let values = by_pass.entry(s.pass).or_default();
        *values.entry(format!("{}_ms", s.name)).or_default() += *self_ns as f64 / 1e6;
        if s.name == "pass" {
            roots.entry(s.pass).or_default().push(i);
        }
    }
    for (pass, rounds) in &roots {
        let values = by_pass.entry(*pass).or_default();
        values.insert("trace.coverage_pct".into(), coverage_pct(spans, rounds));
    }
    traced(passes)
        .map(|pass| {
            let mut values = by_pass.remove(&pass.index).unwrap_or_default();
            for &(name, v) in &pass.record.counts {
                values.insert(name.into(), v);
            }
            let ops = values.get("sim.dynamic_ops").copied().unwrap_or(0.0);
            let ms = values.get("sim.profile_ms").copied().unwrap_or(0.0);
            let mops = if ms > 0.0 { ops / ms / 1e3 } else { 0.0 };
            values.insert("sim.profile_mops_per_s".into(), mops);
            values
        })
        .collect()
}

/// The per-layer metrics of a traced run. Metrics a workload does not
/// exercise read 0.
pub fn per_layer(passes: &Passes, spans: &[Span], attempted: u64, failed: u64) -> Vec<Value> {
    let per_pass = traced_values(passes, spans);
    let median_of = |values: Vec<f64>| median(&values).unwrap_or(0.0);
    let traced_ms: Vec<f64> = traced(passes).map(|p| p.record.wall_ms).collect();
    PER_LAYER
        .iter()
        .map(|&(name, unit, agg)| {
            let pick = |v: &BTreeMap<String, f64>| v.get(name).copied().unwrap_or(0.0);
            let value = match agg {
                Agg::Traced => median_of(per_pass.iter().map(pick).collect()),
                Agg::Fixed => median_of(per_pass.iter().take(FIXED_PASSES).map(pick).collect()),
                Agg::Untraced(part) => median_of(
                    untraced(passes)
                        .flat_map(|r| r.parts.iter().filter(|(p, _)| *p == part))
                        .map(|&(_, ms)| ms)
                        .collect(),
                ),
                Agg::Overhead => {
                    let plain = median_of(untraced_ms(passes));
                    if plain > 0.0 {
                        100.0 * (median_of(traced_ms.clone()) / plain - 1.0)
                    } else {
                        0.0
                    }
                }
                Agg::FailedRatio => failed as f64 / attempted.max(1) as f64,
            };
            Value { name, unit, value }
        })
        .collect()
}

/// Render the result line: `correct`, `attempted`, `failed` and the
/// metrics as one JSON object.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Value]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// A JSON number with every digit Rust's shortest round-trip form
/// keeps; non-finite values (never expected) render as 0.
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_names_every_metric() {
        let manifest = include_str!("../../BENCHMARK.json");
        let per_layer = PER_LAYER.iter().map(|&(name, unit, _)| (name, unit));
        for (name, unit) in END_TO_END.iter().copied().chain(per_layer) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(manifest.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let listed = manifest.matches("\"unit\":").count();
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn result_line_is_one_json_object() {
        let line = result_line(
            true,
            3,
            0,
            &[Value {
                name: "pass_ms_p50",
                unit: "ms",
                value: 1.5,
            }],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \
             \"metrics\": {\"pass_ms_p50\": {\"value\": 1.5, \"unit\": \"ms\"}}}"
        );
        assert_eq!(json_number(f64::NAN), "0");
        assert_eq!(json_number(2.0), "2.0");
    }
}
