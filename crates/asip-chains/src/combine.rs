//! Cross-benchmark pooling (the paper's Section 6.1: "combining the
//! results of all the benchmarks together").

use crate::report::{SeqStats, SequenceReport};
use crate::signature::Signature;
use std::borrow::Borrow;
use std::collections::BTreeMap;

/// A combined report across several benchmarks.
pub type CombinedReport = SequenceReport;

/// Combine per-benchmark reports by *averaging percentages* — every
/// benchmark contributes equally, as a tuning suite should (otherwise a
/// single O(N²) kernel like `dft` would decide the whole ASIP). This is
/// the reading consistent with the magnitudes in the paper's combined
/// figures and Table 2.
///
/// Takes owned reports or references (`&[SequenceReport]` or
/// `&[&SequenceReport]`), so callers holding shared studies need not
/// clone them.
///
/// # Panics
///
/// Panics if `reports` is empty — there is nothing to combine.
pub fn combine<R: Borrow<SequenceReport>>(reports: &[R]) -> CombinedReport {
    assert!(!reports.is_empty(), "cannot combine zero reports");
    let n = reports.len() as f64;
    let suite_total: u64 = reports.iter().map(|r| r.borrow().total_profile_ops).sum();
    let mut avg: BTreeMap<Signature, SeqStats> = BTreeMap::new();
    for r in reports.iter().map(Borrow::borrow) {
        for (sig, stats) in r.entries() {
            // probe by reference first: a map hit (the common case once
            // the first report is in) must not clone the signature
            let e = match avg.get_mut(sig) {
                Some(e) => e,
                None => avg.entry(sig.clone()).or_insert(SeqStats {
                    frequency: 0.0,
                    occurrences: 0,
                }),
            };
            e.frequency += stats.frequency / n;
            e.occurrences += stats.occurrences;
        }
    }
    SequenceReport::from_parts(
        "combined".to_string(),
        avg.into_iter().collect(),
        suite_total,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(name: &str, total: u64, entries: Vec<(&str, f64, usize)>) -> SequenceReport {
        SequenceReport::from_parts(
            name.to_string(),
            entries
                .into_iter()
                .map(|(s, f, n)| {
                    (
                        s.parse::<Signature>().expect("valid signature"),
                        SeqStats {
                            frequency: f,
                            occurrences: n,
                        },
                    )
                })
                .collect(),
            total,
        )
    }

    #[test]
    fn averaging_weights_benchmarks_equally() {
        // bench A: 10% multiply-add; bench B: 1% — mean = 5.5% regardless
        // of how long each benchmark ran
        let a = report("a", 1000, vec![("multiply-add", 10.0, 5)]);
        let b = report("b", 9000, vec![("multiply-add", 1.0, 3)]);
        let c = combine(&[a, b]);
        let mac: Signature = "multiply-add".parse().expect("ok");
        assert!((c.frequency_of(&mac) - 5.5).abs() < 1e-9);
        assert_eq!(c.total_profile_ops, 10000);
        assert_eq!(c.entries()[0].1.occurrences, 8);
    }

    #[test]
    fn distinct_signatures_kept_separate() {
        let a = report("a", 100, vec![("multiply-add", 10.0, 1)]);
        let b = report("b", 100, vec![("add-add", 20.0, 2)]);
        let c = combine(&[a, b]);
        assert_eq!(c.len(), 2);
        // add-add pools to 10%, multiply-add to 5%
        assert!((c.frequency_of(&"add-add".parse().expect("ok")) - 10.0).abs() < 1e-9);
        assert!((c.frequency_of(&"multiply-add".parse().expect("ok")) - 5.0).abs() < 1e-9);
        // sorted: add-add first
        assert_eq!(c.entries()[0].0.to_string(), "add-add");
    }

    #[test]
    fn single_report_is_identity() {
        let a = report(
            "a",
            500,
            vec![("multiply-add", 7.5, 2), ("add-add", 3.0, 1)],
        );
        let c = combine(std::slice::from_ref(&a));
        assert!((c.frequency_of(&"multiply-add".parse().expect("ok")) - 7.5).abs() < 1e-9);
        assert!((c.frequency_of(&"add-add".parse().expect("ok")) - 3.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "cannot combine")]
    fn empty_combination_panics() {
        let _ = combine::<SequenceReport>(&[]);
    }
}
