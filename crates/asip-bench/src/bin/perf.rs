//! The perf gate: explorer-bench results of a change against those of
//! its parent commit, both built and run on one host by
//! `.github/perf-gate.sh`.
//!
//! ```text
//! cargo run --release -p asip-bench --bin perf -- <parent-results-dir> <change-results-dir>
//! ```
//!
//! A run pairs with the results file of the same name on the other
//! side. The gate fails (exit 2) on an incorrect run, on more failed
//! passes than the paired parent run, on a host that drifted during a
//! run, on an unpaired run or a missing metric, and on a change median
//! worse than the parent's by more than the metric's bound; the rules
//! are in `docs/perf.md`, "The perf gate". Directions and bounds come
//! from `BENCHMARK.json`. An input that cannot be read or parsed is an
//! error (exit 1).

use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::str::FromStr;

/// Per-layer metrics gated on traced runs at `pass_ms_p50`'s bound:
/// the successors of series the retired one-shot harness gated.
const LAYER_GATES: [(&str, &str); 3] = [
    ("cold-explore", "sim.profile_mops_per_s"),
    ("warm-replay", "store_replay_ms_p50"),
    ("warm-replay", "remote_replay_ms_p50"),
];

/// The end-to-end metric whose bound also bounds calibration drift.
const PASS_METRIC: &str = "pass_ms_p50";

/// The deepest JSON nesting accepted; results files nest four deep.
const MAX_DEPTH: usize = 32;

/// Why the gate could not read its inputs.
#[derive(Debug)]
enum Error {
    Usage,
    /// A results file or `BENCHMARK.json` that cannot be read or parsed.
    Input(PathBuf, String),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Usage => write!(f, "usage: perf <parent-results-dir> <change-results-dir>"),
            Error::Input(path, e) => write!(f, "{}: {e}", path.display()),
        }
    }
}

/// A JSON document flattened to its scalars, keyed by dotted path
/// (`result.metrics.pass_ms_p50.value`, `workloads.0.name`): strings
/// unquoted, numbers, booleans and `null` as written.
#[derive(Debug, Default)]
struct Doc(BTreeMap<String, String>);

impl Doc {
    fn parse(json: &str) -> Result<Doc, String> {
        let mut p = Parser {
            s: json.as_bytes(),
            i: 0,
            doc: Doc::default(),
        };
        p.value(String::new(), 0)?;
        p.ws();
        if p.i < p.s.len() {
            return Err(format!("trailing bytes at byte {}", p.i));
        }
        Ok(p.doc)
    }

    fn get<T: FromStr>(&self, path: &str) -> Result<T, String> {
        let raw = self
            .0
            .get(path)
            .ok_or_else(|| format!("missing `{path}`"))?;
        raw.parse().map_err(|_| format!("`{path}` is `{raw}`"))
    }

    /// The paths of the leading entries of the list at `path` that
    /// have a `name`.
    fn named(&self, path: &str) -> Vec<String> {
        (0..)
            .map(|i| format!("{path}.{i}"))
            .take_while(|item| self.0.contains_key(&format!("{item}.name")))
            .collect()
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
    doc: Doc,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.s.get(self.i).is_some_and(u8::is_ascii_whitespace) {
            self.i += 1;
        }
    }

    fn eat(&mut self, b: u8) -> bool {
        self.ws();
        let hit = self.s.get(self.i) == Some(&b);
        self.i += usize::from(hit);
        hit
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        let at = self.i;
        (self.eat(b))
            .then_some(())
            .ok_or_else(|| format!("expected `{}` at byte {at}", b as char))
    }

    fn value(&mut self, path: String, depth: usize) -> Result<(), String> {
        let object = self.eat(b'{');
        if object || self.eat(b'[') {
            if depth == MAX_DEPTH {
                return Err(format!("nested deeper than {MAX_DEPTH} at byte {}", self.i));
            }
            let mut n = 0;
            while !self.eat(if object { b'}' } else { b']' }) {
                if n > 0 {
                    self.expect(b',')?;
                }
                let key = if object {
                    let key = self.string()?;
                    self.expect(b':')?;
                    key
                } else {
                    n.to_string()
                };
                let child = if path.is_empty() {
                    key
                } else {
                    format!("{path}.{key}")
                };
                self.value(child, depth + 1)?;
                n += 1;
            }
            return Ok(());
        }
        let scalar = if self.s.get(self.i) == Some(&b'"') {
            self.string()?
        } else {
            let start = self.i;
            while self
                .s
                .get(self.i)
                .is_some_and(|b| b.is_ascii_alphanumeric() || b"+-.".contains(b))
            {
                self.i += 1;
            }
            let word = String::from_utf8_lossy(&self.s[start..self.i]).into_owned();
            let number = word.parse::<f64>().is_ok_and(f64::is_finite);
            if !number && !matches!(&*word, "null" | "true" | "false") {
                return Err(format!("bad value at byte {start}"));
            }
            word
        };
        self.doc.0.insert(path, scalar);
        Ok(())
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = Vec::new();
        loop {
            let b = *self.s.get(self.i).ok_or("unterminated string")?;
            self.i += 1;
            out.push(match b {
                b'"' => return String::from_utf8(out).map_err(|_| "string is not UTF-8".into()),
                b'\\' => match self.s.get(self.i).inspect(|_| self.i += 1) {
                    Some(&e @ (b'"' | b'\\' | b'/')) => e,
                    Some(b'n') => b'\n',
                    _ => return Err(format!("unsupported escape at byte {}", self.i)),
                },
                b => b,
            });
        }
    }
}

/// One gated metric of one workload.
#[derive(Debug, Clone)]
struct Gate {
    workload: String,
    metric: String,
    traced: bool,
    higher_is_better: bool,
    /// Allowed loss, as a fraction of the parent's median.
    bound: f64,
}

/// What `BENCHMARK.json` gates.
#[derive(Debug)]
struct Spec {
    gates: Vec<Gate>,
    /// Allowed calibration drift within one run, as a fraction.
    drift_bound: f64,
}

impl Spec {
    fn parse(json: &str) -> Result<Spec, String> {
        let doc = Doc::parse(json)?;
        let metric = |m: &String| {
            let better: String = doc.get(&format!("{m}.better"))?;
            if better != "higher" && better != "lower" {
                return Err(format!("`{m}.better` is `{better}`"));
            }
            Ok((doc.get::<String>(&format!("{m}.name"))?, better == "higher"))
        };
        let mut end_to_end = Vec::new();
        for m in doc.named("end_to_end") {
            let (metric, higher_is_better) = metric(&m)?;
            let bound = doc.get(&format!("{m}.bound"))?;
            let workload = String::new();
            end_to_end.push(Gate {
                workload,
                metric,
                traced: false,
                higher_is_better,
                bound,
            });
        }
        let per_layer = doc
            .named("per_layer")
            .iter()
            .map(metric)
            .collect::<Result<BTreeMap<_, _>, _>>()?;
        let drift_bound = end_to_end
            .iter()
            .find(|g| g.metric == PASS_METRIC)
            .ok_or(format!("no `{PASS_METRIC}` in `end_to_end`"))?
            .bound;
        let mut gates = Vec::new();
        for w in doc.named("workloads") {
            let workload: String = doc.get(&format!("{w}.name"))?;
            gates.extend(end_to_end.iter().map(|g| Gate {
                workload: workload.clone(),
                ..g.clone()
            }));
            for &(_, metric) in LAYER_GATES.iter().filter(|g| g.0 == workload) {
                let higher = per_layer
                    .get(metric)
                    .ok_or(format!("no `{metric}` in `per_layer`"))?;
                let (workload, metric) = (workload.clone(), metric.to_string());
                gates.push(Gate {
                    workload,
                    metric,
                    traced: true,
                    higher_is_better: *higher,
                    bound: drift_bound,
                });
            }
        }
        if gates.is_empty() {
            return Err("no `workloads`".into());
        }
        Ok(Spec { gates, drift_bound })
    }
}

/// What the gate reads of one explorer-bench results file.
#[derive(Debug)]
struct Run {
    workload: String,
    traced: bool,
    correct: bool,
    failed: f64,
    /// The calibration loop's rate before and after the run, Mops/s.
    calibration: [f64; 2],
    metrics: BTreeMap<String, f64>,
}

impl Run {
    fn parse(json: &str) -> Result<Run, String> {
        let doc = Doc::parse(json)?;
        let mut metrics = BTreeMap::new();
        for path in doc.0.keys() {
            let metric = path.strip_prefix("result.metrics.");
            if let Some(name) = metric.and_then(|m| m.strip_suffix(".value")) {
                metrics.insert(name.to_string(), doc.get(path)?);
            }
        }
        Ok(Run {
            workload: doc.get("workload")?,
            traced: doc.get("trace")?,
            correct: doc.get("result.correct")?,
            failed: doc.get("result.failed")?,
            calibration: [
                doc.get("machine.calibration_mops_before")?,
                doc.get("machine.calibration_mops_after")?,
            ],
            metrics,
        })
    }
}

fn read(path: &Path) -> Result<String, Error> {
    std::fs::read_to_string(path).map_err(|e| Error::Input(path.into(), e.to_string()))
}

/// Every results file in `dir`, by file name.
fn load_runs(dir: &Path) -> Result<BTreeMap<String, Run>, Error> {
    let unreadable = |e: std::io::Error| Error::Input(dir.into(), e.to_string());
    let mut runs = BTreeMap::new();
    for entry in std::fs::read_dir(dir).map_err(unreadable)? {
        let path = entry.map_err(unreadable)?.path();
        if path.extension().is_some_and(|e| e == "json") {
            let run = Run::parse(&read(&path)?).map_err(|e| Error::Input(path.clone(), e))?;
            let name = path.file_name().unwrap_or_default().to_string_lossy();
            runs.insert(name.into_owned(), run);
        }
    }
    Ok(runs)
}

fn median(values: &mut [f64]) -> Option<f64> {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    (n > 0).then(|| (values[(n - 1) / 2] + values[n / 2]) / 2.0)
}

/// Each gated metric's parent and change medians, and every reason
/// the gate fails.
#[derive(Debug)]
struct Verdict {
    rows: Vec<(Gate, f64, f64)>,
    failures: Vec<String>,
}

fn gate(spec: &Spec, parent: &BTreeMap<String, Run>, change: &BTreeMap<String, Run>) -> Verdict {
    let mut failures = Vec::new();
    for (side, runs, other) in [("parent", parent, change), ("change", change, parent)] {
        for (name, run) in runs {
            if !other.contains_key(name) {
                failures.push(format!("{name}: only the {side} has this run"));
            }
            if !run.correct {
                failures.push(format!("{side} {name}: \"correct\": false"));
            }
            let [before, after] = run.calibration;
            if before.max(after) > before.min(after) * (1.0 + spec.drift_bound) {
                failures.push(format!(
                    "{side} {name}: host drifted (calibration {before:.0} -> {after:.0} Mops/s)"
                ));
            }
        }
    }
    let pairs: Vec<_> = parent
        .iter()
        .filter_map(|(name, p)| Some((name, p, change.get(name)?)))
        .collect();
    for &(name, p, c) in &pairs {
        if c.failed > p.failed {
            let (c, p) = (c.failed, p.failed);
            failures.push(format!(
                "{name}: the change failed {c} passes, the parent {p}"
            ));
        }
    }
    let mut rows = Vec::new();
    for g in &spec.gates {
        let mut values = [Vec::new(), Vec::new()];
        for &(name, p, c) in &pairs {
            if p.workload != g.workload || p.traced != g.traced {
                continue;
            }
            for (i, (side, run)) in [("parent", p), ("change", c)].into_iter().enumerate() {
                match run.metrics.get(&g.metric) {
                    Some(&v) => values[i].push(v),
                    None => failures.push(format!("{side} {name}: no `{}`", g.metric)),
                }
            }
        }
        let [p, c] = &mut values;
        let (Some(p), Some(c)) = (median(p), median(c)) else {
            let kind = if g.traced { "traced" } else { "untraced" };
            failures.push(format!(
                "{}: no {kind} runs with `{}`",
                g.workload, g.metric
            ));
            continue;
        };
        let worse = if g.higher_is_better {
            c < p * (1.0 - g.bound)
        } else {
            c > p * (1.0 + g.bound)
        };
        if worse {
            failures.push(format!(
                "{} {}: the change's median {c:.4} is worse than the parent's {p:.4} by more than {:.0} %",
                g.workload,
                g.metric,
                g.bound * 100.0
            ));
        }
        rows.push((g.clone(), p, c));
    }
    Verdict { rows, failures }
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (g, p, c) in &self.rows {
            let change = (c - p) / p * 100.0;
            let (w, m, bound) = (&g.workload, &g.metric, g.bound * 100.0);
            writeln!(
                f,
                "{w:<13} {m:<23} parent {p:>12.4}  change {c:>12.4}  {change:>+6.1} % (bound {bound:.0} %)"
            )?;
        }
        for failure in &self.failures {
            writeln!(f, "FAIL {failure}")?;
        }
        match self.failures.len() {
            0 => writeln!(f, "PASS"),
            n => writeln!(f, "FAIL ({n} finding(s))"),
        }
    }
}

fn run(args: &[String]) -> Result<Verdict, Error> {
    let [parent, change] = args else {
        return Err(Error::Usage);
    };
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCHMARK.json");
    let spec = Spec::parse(&read(&path)?).map_err(|e| Error::Input(path, e))?;
    let (parent, change) = (load_runs(Path::new(parent))?, load_runs(Path::new(change))?);
    Ok(gate(&spec, &parent, &change))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(verdict) => {
            print!("{verdict}");
            ExitCode::from(if verdict.failures.is_empty() { 0 } else { 2 })
        }
        Err(e) => {
            eprintln!("perf: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: &str = include_str!("../../../../BENCHMARK.json");

    /// A results file as explorer-bench writes one, trimmed.
    const RESULTS: &str = r#"{"workload": "cold-explore", "seed": 1, "seconds": 10.0, "trace": false,
"machine": {"available_parallelism": 2, "calibration_mops_before": 393.5, "calibration_mops_after": 410.25},
"pass_ms_tail": {"percentile": 60.0, "beyond": 10, "samples": 25},
"setup_s": [0.45, 0.37], "passes": [[0, false, 112.6], [1, false, 99.6]],
"result": {"correct": true, "attempted": 25, "failed": 0, "metrics": {"pass_ms_p50": {"value": 106.2, "unit": "ms"}, "sim.profile_mops_per_s": {"value": 219.5, "unit": "Mops/s"}}}}"#;

    fn spec() -> Spec {
        Spec::parse(SPEC).expect("BENCHMARK.json parses")
    }

    /// Three seeds of every run the gate reads, each gated metric at
    /// 100 times `scale(metric)`.
    fn side(scale: impl Fn(&str) -> f64) -> BTreeMap<String, Run> {
        let mut runs = BTreeMap::new();
        for g in &spec().gates {
            for seed in 1..=3 {
                let name = format!("{}-seed{seed}-trace{}.json", g.workload, u8::from(g.traced));
                let run = runs.entry(name).or_insert_with(|| Run {
                    workload: g.workload.clone(),
                    traced: g.traced,
                    correct: true,
                    failed: 0.0,
                    calibration: [400.0, 410.0],
                    metrics: BTreeMap::new(),
                });
                let jitter = f64::from(seed) / 100.0;
                run.metrics
                    .insert(g.metric.clone(), 100.0 * scale(&g.metric) + jitter);
            }
        }
        runs
    }

    /// Every gated metric at 100 times `factor`, or only `metric`.
    fn scaled(metric: &'static str, factor: f64) -> impl Fn(&str) -> f64 {
        move |m| {
            if metric.is_empty() || m == metric {
                factor
            } else {
                1.0
            }
        }
    }

    /// An unchanged side with `edit` applied to run `name`.
    fn edited(name: &str, edit: impl FnOnce(&mut Run)) -> BTreeMap<String, Run> {
        let mut runs = side(scaled("", 1.0));
        edit(runs.get_mut(name).expect("run"));
        runs
    }

    /// The gate's failures for `change` against an unchanged parent.
    fn failures(change: &BTreeMap<String, Run>) -> Vec<String> {
        gate(&spec(), &side(scaled("", 1.0)), change).failures
    }

    #[test]
    fn parses_results_and_gates_every_end_to_end_metric_and_the_layer_successors() {
        let run = Run::parse(RESULTS).expect("parses");
        assert_eq!(
            (run.workload.as_str(), run.traced, run.correct),
            ("cold-explore", false, true)
        );
        assert_eq!((run.failed, run.calibration), (0.0, [393.5, 410.25]));
        assert_eq!(run.metrics.len(), 2);
        assert_eq!(run.metrics["sim.profile_mops_per_s"], 219.5);
        assert_eq!(spec().drift_bound, 0.25);
        assert_eq!(spec().gates.len(), 6 * 3 + LAYER_GATES.len());
    }

    #[test]
    fn a_regression_past_the_bound_fails() {
        let slower = failures(&side(scaled("pass_ms_p50", 1.3)));
        assert_eq!(slower.len(), 3, "one per workload: {slower:?}");
        assert!(
            slower[0].starts_with("cold-explore pass_ms_p50:"),
            "{slower:?}"
        );
        let halved = failures(&side(scaled("sim.profile_mops_per_s", 0.5)));
        assert_eq!(halved.len(), 1, "{halved:?}");
        assert!(halved[0].starts_with("cold-explore sim.profile_mops_per_s:"));
    }

    #[test]
    fn a_change_inside_the_bound_passes() {
        assert!(failures(&side(scaled("", 1.1))).is_empty());
        assert!(failures(&side(scaled("speedup_geomean", 0.95))).is_empty());
        let same = side(scaled("", 1.0));
        assert!(gate(&spec(), &same, &same).to_string().ends_with("PASS\n"));
    }

    #[test]
    fn an_improvement_passes() {
        let lower = |m: &str| m.contains("_ms") || m.contains("_mb") || m == "setup_s";
        assert!(failures(&side(|m| if lower(m) { 0.1 } else { 10.0 })).is_empty());
    }

    #[test]
    fn a_gated_metric_missing_on_one_side_fails() {
        let name = "warm-replay-seed2-trace1.json";
        let mut change = edited(name, |r| {
            r.metrics.remove("store_replay_ms_p50");
        });
        assert_eq!(
            failures(&change),
            [format!("change {name}: no `store_replay_ms_p50`")]
        );
        // so does a run the other side lacks, or no runs at all
        change.remove(name);
        assert_eq!(
            failures(&change),
            [format!("{name}: only the parent has this run")]
        );
        let none = gate(&spec(), &BTreeMap::new(), &BTreeMap::new());
        assert_eq!(none.failures.len(), spec().gates.len());
    }

    #[test]
    fn an_incorrect_run_fails() {
        let name = "cold-explore-seed1-trace1.json";
        let change = edited(name, |r| r.correct = false);
        assert_eq!(
            failures(&change),
            [format!("change {name}: \"correct\": false")]
        );
    }

    #[test]
    fn more_failed_passes_than_the_parent_fails() {
        let name = "design-sweep-seed3-trace0.json";
        let parent = edited(name, |r| r.failed = 1.0);
        let same = edited(name, |r| r.failed = 1.0);
        assert!(gate(&spec(), &parent, &same).failures.is_empty());
        let more = edited(name, |r| r.failed = 2.0);
        assert_eq!(gate(&spec(), &parent, &more).failures.len(), 1);
    }

    #[test]
    fn a_drifted_calibration_fails_as_host_drifted() {
        let change = edited("warm-replay-seed1-trace0.json", |r| {
            r.calibration = [400.0, 520.0]
        });
        let drifted = failures(&change);
        assert_eq!(drifted.len(), 1);
        assert!(drifted[0].contains("host drifted"), "{drifted:?}");
    }

    #[test]
    fn truncated_or_malformed_inputs_are_typed_errors() {
        for end in 0..RESULTS.len() {
            assert!(Run::parse(&RESULTS[..end]).is_err(), "results cut at {end}");
        }
        for end in 0..SPEC.trim_end().len() {
            assert!(Spec::parse(&SPEC[..end]).is_err(), "spec cut at {end}");
        }
        assert!(Run::parse(&RESULTS.replace("\"failed\": 0", "\"failed\": \"none\"")).is_err());
        assert!(Run::parse(&RESULTS.replace("\"failed\": 0", "\"failed\": NaN")).is_err());
        assert!(Spec::parse(&SPEC.replace("\"lower\"", "\"less\"")).is_err());
        assert!(Doc::parse(&"[".repeat(100_000)).is_err());
        // through the binary's entry point: an error, hence exit 1
        let dir = std::env::temp_dir().join(format!("perf-gate-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        std::fs::write(dir.join("cold-explore-seed1-trace0.json"), &RESULTS[..200]).expect("write");
        let arg = dir.to_string_lossy().into_owned();
        let result = run(&[arg.clone(), arg]);
        std::fs::remove_dir_all(&dir).expect("clean up");
        assert!(matches!(result, Err(Error::Input(..))), "{result:?}");
        assert!(matches!(run(&[]), Err(Error::Usage)));
    }
}
