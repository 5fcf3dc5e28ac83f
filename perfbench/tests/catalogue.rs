//! `BENCHMARK.json` at the repository root lists exactly the metrics the
//! benchmark reports, with the same units.

#![forbid(unsafe_code)]

use perfbench::{END_TO_END, PER_LAYER};

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// The `(name, unit)` pairs of one metric list of `BENCHMARK.json`, in
/// file order (each entry has a `"name"` followed by its `"unit"`).
fn listed(key: &str) -> Vec<(String, String)> {
    let start = BENCHMARK_JSON
        .find(&format!("\"{key}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"));
    let section = &BENCHMARK_JSON[start..];
    let section = &section[..section.find(']').expect("the list closes")];
    let field = |s: &str, name: &str| -> Option<(String, usize)> {
        let at = s.find(&format!("\"{name}\": \""))? + name.len() + 5;
        let len = s[at..].find('"')?;
        Some((s[at..at + len].to_string(), at + len))
    };
    let mut out = Vec::new();
    let mut rest = section;
    while let Some((name, end)) = field(rest, "name") {
        let (unit, end2) = field(&rest[end..], "unit").expect("every metric has a unit");
        out.push((name, unit));
        rest = &rest[end + end2..];
    }
    out
}

fn catalogued(defs: &[perfbench::MetricDef]) -> Vec<(String, String)> {
    defs.iter()
        .map(|d| (d.name.to_string(), d.unit.to_string()))
        .collect()
}

#[test]
fn end_to_end_metrics_match() {
    assert_eq!(listed("end_to_end"), catalogued(END_TO_END));
}

#[test]
fn per_layer_metrics_match() {
    assert_eq!(listed("per_layer"), catalogued(PER_LAYER));
}
