//! The metric catalogue and the one-line JSON result.
//!
//! Every run prints, as the last line of stdout, one object with exactly
//! the keys `correct`, `attempted`, `failed` and `metrics`. An untraced run
//! (`--trace 0`) reports every [`END_TO_END`] metric; a traced run
//! (`--trace 1`) every [`PER_LAYER`] metric. Both lists are mirrored in
//! `BENCHMARK.json`; the schema test keeps them in step.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, memory).
    Lower,
    /// Larger is better (throughput).
    Higher,
}

// Read by the `BENCHMARK.json` schema test.
#[allow(dead_code)]
impl Better {
    /// The `BENCHMARK.json` token.
    pub fn token(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One catalogued metric. `better` and `bound` are read by the
/// `BENCHMARK.json` schema test.
#[derive(Debug, Clone, Copy)]
#[allow(dead_code)]
pub struct Metric {
    /// Metric name (`[A-Za-z0-9_.-]+`, starting with a letter or digit).
    pub name: &'static str,
    /// Unit token.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Regression bound as a share of the parent's median (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// Metrics a user of the system sees, measured with tracing off. What an
/// "operation" and a unit of "work" are depends on the workload (see
/// `perfbench/README.md`).
pub const END_TO_END: &[Metric] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("work_per_s", "1/s", Higher, 0.25),
    e2e("op_p50_ms", "ms", Lower, 0.25),
    e2e("op_p99_ms", "ms", Lower, 0.25),
    e2e("peak_rss_mb", "MB", Lower, 0.2),
];

/// Metrics of single layers, from the traced run. A workload that does not
/// reach a layer reports 0 for that layer's metrics.
pub const PER_LAYER: &[Metric] = &[
    // Cell phases (fig6-smoke: Σ per campaign over the in-process mirror;
    // sim-long: Σ per pass).
    layer("workloads.generate_ms", "ms", Lower),
    layer("workloads.generate_calls", "count", Lower),
    layer("core.build_system_ms", "ms", Lower),
    layer("core.build_system_calls", "count", Lower),
    layer("workloads.apply_ms", "ms", Lower),
    layer("workloads.apply_calls", "count", Lower),
    layer("pipeline.run_ms", "ms", Lower),
    layer("pipeline.run_calls", "count", Lower),
    layer("setup_share", "ratio", Lower),
    layer("run_share", "ratio", Higher),
    // Runner and query (fig6-smoke).
    layer("runner.overhead_ms_per_cell", "ms", Lower),
    layer("runner.attempts_per_cell", "count", Lower),
    layer("query.index_ms", "ms", Lower),
    layer("query.digest_ms", "ms", Lower),
    // Hot loop (sim-long).
    layer("pipeline.kips.505.mcf_r", "kinst/s", Higher),
    layer("pipeline.kips.508.namd_r", "kinst/s", Higher),
    layer("pipeline.kips.520.omnetpp_r", "kinst/s", Higher),
    layer("pipeline.kips.canneal", "kinst/s", Higher),
    layer("pipeline.ns_per_inst.unsafe", "ns", Lower),
    layer("pipeline.ns_per_inst.fence", "ns", Lower),
    layer("pipeline.ns_per_inst.stt", "ns", Lower),
    layer("pipeline.ns_per_inst.ghostminion", "ns", Lower),
    layer("pipeline.ns_per_inst.specasan", "ns", Lower),
    layer("pipeline.ns_per_cycle", "ns", Lower),
    layer("pipeline.commit_ratio", "ratio", Higher),
    layer("core.setup_ms", "ms", Lower),
    // Request path (serve-mixed).
    layer("serve.latency_p50_ms.simulate", "ms", Lower),
    layer("serve.latency_p50_ms.trace", "ms", Lower),
    layer("serve.latency_p50_ms.lint", "ms", Lower),
    layer("serve.latency_p50_ms.query", "ms", Lower),
    layer("serve.latency_p99_ms.simulate", "ms", Lower),
    layer("serve.latency_p99_ms.trace", "ms", Lower),
    layer("serve.latency_p99_ms.lint", "ms", Lower),
    layer("serve.latency_p99_ms.query", "ms", Lower),
    layer("serve.handle_p50_ms", "ms", Lower),
    layer("serve.accept_wait_ms", "ms", Lower),
    layer("serve.accept_wait_share", "ratio", Lower),
    layer("serve.rejected", "count", Lower),
    layer("serve.journal_bytes_per_job", "bytes", Lower),
    layer("serve.query_ms_after_large_trace", "ms", Lower),
    // Analyzer audit (fuzz-audit), per case.
    layer("fuzz.generate_us", "us", Lower),
    layer("analyze.analyze_us", "us", Lower),
    layer("fuzz.dynrun_us", "us", Lower),
    layer("fuzz.classify_us", "us", Lower),
    layer("analyze.case_share", "ratio", Lower),
    layer("analyze.findings_per_case", "count", Lower),
    layer("fuzz.unexplained", "count", Lower),
    // Tracing overhead: traced minus untraced, per end-to-end metric.
    layer("overhead.setup_s", "s", Lower),
    layer("overhead.work_per_s", "1/s", Higher),
    layer("overhead.op_p50_ms", "ms", Lower),
    layer("overhead.op_p99_ms", "ms", Lower),
    layer("overhead.peak_rss_mb", "MB", Lower),
    layer("trace.spans", "count", Higher),
];

/// Whether `name` is a legal metric or workload name: 1–64 characters of
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` is a legal unit token: 1–16 characters of
/// `[A-Za-z0-9_/%.-]`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// The result of one benchmark run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed (see each workload for the definition).
    pub failed: u64,
    /// Failed exactness checks; the run is correct when this is empty.
    pub problems: Vec<String>,
    /// Measured values by metric name.
    pub values: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Records a metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Records a failed exactness check.
    pub fn problem(&mut self, msg: impl Into<String>) {
        self.problems.push(msg.into());
    }
}

/// Renders the result line for `catalogue`. Catalogued metrics the
/// workload did not measure read 0 (it never reaches that layer); a
/// measured value outside the catalogue or a non-finite value is an error.
pub fn render(o: &Outcome, catalogue: &[Metric]) -> Result<String, String> {
    for name in o.values.keys() {
        if !catalogue.iter().any(|m| m.name == *name) {
            return Err(format!("metric {name:?} is not in the catalogue"));
        }
    }
    let mut metrics = String::new();
    for (i, m) in catalogue.iter().enumerate() {
        if !valid_name(m.name) || !valid_unit(m.unit) {
            return Err(format!(
                "metric {:?} has an illegal name or unit {:?}",
                m.name, m.unit
            ));
        }
        let v = o.values.get(m.name).copied().unwrap_or(0.0);
        if !v.is_finite() {
            return Err(format!("metric {} is not finite ({v})", m.name));
        }
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            metrics,
            "{sep}\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        o.problems.is_empty(),
        o.attempted.max(1),
        o.failed
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sas_telemetry::json::{self, Json};

    #[test]
    fn the_name_rule_accepts_exactly_the_allowed_alphabet() {
        for ok in [
            "setup_s",
            "pipeline.kips.505.mcf_r",
            "a",
            "9x",
            "serve.latency_p99_ms.query",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in [
            "",
            "_x",
            ".x",
            "-x",
            "a b",
            "a/b",
            "é",
            "a:b",
            &"x".repeat(65),
        ] {
            assert!(!valid_name(bad), "{bad:?}");
        }
        assert!(valid_name(&"x".repeat(64)));
        for ok in ["ms", "s", "1/s", "count", "kinst/s", "%"] {
            assert!(valid_unit(ok), "{ok}");
        }
        for bad in ["", "m s", "per sec!", &"u".repeat(17)] {
            assert!(!valid_unit(bad), "{bad:?}");
        }
    }

    #[test]
    fn the_catalogue_obeys_the_rules() {
        let mut seen = std::collections::HashSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(m.name) && valid_unit(m.unit), "{m:?}");
            assert!(seen.insert(m.name), "duplicate metric {}", m.name);
        }
        assert!(END_TO_END
            .iter()
            .all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let largest = END_TO_END
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(
            setup.bound,
            Some(largest),
            "setup_s carries the largest bound"
        );
        assert!(!END_TO_END.is_empty() && END_TO_END.len() <= 16);
        assert!(!PER_LAYER.is_empty() && PER_LAYER.len() <= 128);
    }

    #[test]
    fn the_result_line_has_exactly_the_schema_keys() {
        let mut o = Outcome {
            attempted: 10,
            failed: 1,
            ..Outcome::default()
        };
        o.set("setup_s", 0.8127);
        let line = render(&o, END_TO_END).unwrap();
        let doc = json::parse(&line).unwrap();
        let Json::Obj(top) = &doc else {
            panic!("not an object")
        };
        let keys: Vec<&str> = top.keys().map(String::as_str).collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(doc.get("attempted").and_then(Json::as_num), Some(10.0));
        assert_eq!(doc.get("failed").and_then(Json::as_num), Some(1.0));
        let Some(Json::Obj(metrics)) = doc.get("metrics") else {
            panic!("metrics")
        };
        assert_eq!(metrics.len(), END_TO_END.len());
        for m in END_TO_END {
            let v = &metrics[m.name];
            assert_eq!(v.get("unit").and_then(Json::as_str), Some(m.unit));
            assert!(v.get("value").and_then(Json::as_num).is_some());
            let Json::Obj(inner) = v else {
                panic!("metric object")
            };
            assert_eq!(inner.len(), 2);
        }
        assert_eq!(
            metrics["setup_s"].get("value").and_then(Json::as_num),
            Some(0.8127)
        );
    }

    #[test]
    fn failed_checks_and_bad_values_show_in_the_result() {
        let mut o = Outcome::default();
        o.problem("cycles differ");
        let line = render(&o, PER_LAYER).unwrap();
        assert!(
            line.starts_with("{\"correct\": false, \"attempted\": 1,"),
            "{line}"
        );
        o.set("setup_s", f64::NAN);
        assert!(render(&o, END_TO_END).is_err());
        let mut o = Outcome::default();
        o.set("setup_s", 1.0);
        assert!(
            render(&o, PER_LAYER).is_err(),
            "end-to-end name in a traced result"
        );
    }

    /// `BENCHMARK.json` must list exactly this catalogue and the workloads
    /// this binary runs, within the limits of the format.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert!(text.len() <= 64 * 1024);
        let doc = json::parse(&text).expect("BENCHMARK.json parses");
        let Json::Obj(top) = &doc else {
            panic!("not an object")
        };
        let keys: Vec<&str> = top.keys().map(String::as_str).collect();
        assert_eq!(
            keys,
            [
                "command",
                "end_to_end",
                "paths",
                "per_layer",
                "run_seconds",
                "workloads"
            ]
        );

        let strs = |key: &str| -> Vec<String> {
            doc.get(key)
                .and_then(Json::as_arr)
                .unwrap_or_else(|| panic!("{key} is an array"))
                .iter()
                .map(|v| v.as_str().expect("string").to_string())
                .collect()
        };
        let command = strs("command");
        assert!(!command.is_empty() && command.len() <= 32);
        for c in &command {
            assert!(
                c.len() <= 200 && !c.starts_with('/') && !c.contains(".."),
                "{c}"
            );
        }
        let paths = strs("paths");
        assert!(!paths.is_empty() && paths.len() <= 16);
        for p in &paths {
            assert!(
                p.len() <= 200 && !p.starts_with('/') && !p.contains(".."),
                "{p}"
            );
            assert!(
                p.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-/".contains(c)),
                "{p}"
            );
        }
        let seconds = doc
            .get("run_seconds")
            .and_then(Json::as_num)
            .expect("run_seconds");
        assert!(seconds.fract() == 0.0 && (1.0..=60.0).contains(&seconds));

        let workloads = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads");
        let names: Vec<&str> = workloads
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
            .collect();
        assert_eq!(names, crate::WORKLOADS);
        for w in workloads {
            let Json::Obj(o) = w else {
                panic!("workload object")
            };
            assert_eq!(
                o.keys().map(String::as_str).collect::<Vec<_>>(),
                ["name", "why"]
            );
            let why = w.get("why").and_then(Json::as_str).expect("why");
            assert!(why.len() <= 200 && !why.contains('\n'));
        }

        let check = |key: &str, catalogue: &[Metric]| {
            let list = doc
                .get(key)
                .and_then(Json::as_arr)
                .unwrap_or_else(|| panic!("{key}"));
            assert_eq!(list.len(), catalogue.len(), "{key} length");
            for (entry, m) in list.iter().zip(catalogue) {
                let Json::Obj(o) = entry else {
                    panic!("{key} entry")
                };
                let want: &[&str] = if m.bound.is_some() {
                    &["better", "bound", "name", "unit"]
                } else {
                    &["better", "name", "unit"]
                };
                assert_eq!(
                    o.keys().map(String::as_str).collect::<Vec<_>>(),
                    want,
                    "{}",
                    m.name
                );
                assert_eq!(entry.get("name").and_then(Json::as_str), Some(m.name));
                assert_eq!(
                    entry.get("unit").and_then(Json::as_str),
                    Some(m.unit),
                    "{}",
                    m.name
                );
                assert_eq!(
                    entry.get("better").and_then(Json::as_str),
                    Some(m.better.token())
                );
                assert_eq!(
                    entry.get("bound").and_then(Json::as_num),
                    m.bound,
                    "{}",
                    m.name
                );
            }
        };
        check("end_to_end", END_TO_END);
        check("per_layer", PER_LAYER);
    }
}
