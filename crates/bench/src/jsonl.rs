//! JSON-lines result emission.
//!
//! Every bench target prints its human-readable tables *and* emits one JSON
//! object per (benchmark, mitigation) cell so the bench trajectory can be
//! tracked mechanically across commits. Records go to stdout (prefixed with
//! nothing — one object per line) and, when `SAS_BENCH_JSONL` names a file,
//! are appended there too.

use sas_pipeline::RunExit;
use sas_snap::AppendLog;
use std::fmt::Write as _;

/// A JSON scalar for one record field.
#[derive(Debug, Clone, Copy)]
pub enum Value<'a> {
    /// A string field.
    Str(&'a str),
    /// A float field (serialized with full precision; NaN/inf become null).
    F64(f64),
    /// An unsigned integer field.
    U64(u64),
    /// A boolean field.
    Bool(bool),
    /// A pre-serialized JSON fragment spliced in verbatim (e.g. the nested
    /// `cpi` breakdown from `CpiStack::to_json`). The caller guarantees it
    /// is well-formed JSON. Runner manifest rows are flat by format (their
    /// CPI stack is one flat string), so they never carry `Raw` objects.
    Raw(&'a str),
}

impl<'a> From<&'a str> for Value<'a> {
    fn from(v: &'a str) -> Self {
        Value::Str(v)
    }
}
impl From<f64> for Value<'_> {
    fn from(v: f64) -> Self {
        Value::F64(v)
    }
}
impl From<u64> for Value<'_> {
    fn from(v: u64) -> Self {
        Value::U64(v)
    }
}
impl From<bool> for Value<'_> {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

fn push_escaped(out: &mut String, s: &str) {
    out.push('"');
    sas_telemetry::json::escape_into(out, s);
    out.push('"');
}

/// Stable tag naming how a run ended; the `exit` field of result records.
pub fn exit_tag(exit: &RunExit) -> &'static str {
    match exit {
        RunExit::Halted => "halted",
        RunExit::Faulted(_) => "faulted",
        RunExit::CycleLimit => "cycle_limit",
        RunExit::Deadlock(_) => "deadlock",
        RunExit::Divergence(_) => "divergence",
        RunExit::Error(_) => "error",
    }
}

/// Whether a cell's numbers mean anything: only a run that retired its whole
/// program produces a valid perf cell. Cycle-limited, deadlocked, diverged,
/// faulted and errored runs must be tagged as aborted, never averaged in.
pub fn valid_cell(exit: &RunExit) -> bool {
    matches!(exit, RunExit::Halted)
}

/// The `exit`/`valid` field pair for one run, ready to splice into a record.
pub fn exit_fields(exit: &RunExit) -> [(&'static str, Value<'static>); 2] {
    [("exit", Value::Str(exit_tag(exit))), ("valid", Value::Bool(valid_cell(exit)))]
}

/// Renders one record as a single JSON line (no trailing newline).
pub fn render(bench: &str, fields: &[(&str, Value)]) -> String {
    let mut out = String::from("{\"bench\":");
    push_escaped(&mut out, bench);
    for (key, value) in fields {
        out.push(',');
        push_escaped(&mut out, key);
        out.push(':');
        match value {
            Value::Str(s) => push_escaped(&mut out, s),
            Value::F64(v) if v.is_finite() => {
                let _ = write!(out, "{v}");
            }
            Value::F64(_) => out.push_str("null"),
            Value::U64(v) => {
                let _ = write!(out, "{v}");
            }
            Value::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Value::Raw(j) => out.push_str(j),
        }
    }
    out.push('}');
    out
}

/// Emits one result record: prints the JSON line to stdout and appends it to
/// the file named by `SAS_BENCH_JSONL`, if that variable is set.
///
/// The file append goes through `sas_snap::AppendLog`: one write of the
/// record and its newline, then a flush — so concurrent worker processes
/// cannot interleave inside one another's rows, and a child killed
/// mid-record can tear at most its own trailing line (which readers detect
/// and truncate).
pub fn emit(bench: &str, fields: &[(&str, Value)]) {
    let line = render(bench, fields);
    println!("{line}");
    if let Ok(path) = std::env::var("SAS_BENCH_JSONL") {
        if !path.is_empty() {
            let _ = AppendLog::open(path.as_ref()).and_then(|mut log| log.append(&line));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_scalar_types() {
        let line = render(
            "fig6",
            &[
                ("benchmark", Value::Str("505.mcf_r")),
                ("norm", Value::F64(1.25)),
                ("cycles", Value::U64(42)),
                ("leaked", Value::Bool(false)),
            ],
        );
        assert_eq!(
            line,
            "{\"bench\":\"fig6\",\"benchmark\":\"505.mcf_r\",\"norm\":1.25,\"cycles\":42,\"leaked\":false}"
        );
    }

    #[test]
    fn raw_fragments_are_spliced_verbatim() {
        let line = render(
            "fig6",
            &[("norm", Value::F64(1.0)), ("cpi", Value::Raw("{\"base\":7,\"mitigation\":{}}"))],
        );
        assert_eq!(line, "{\"bench\":\"fig6\",\"norm\":1,\"cpi\":{\"base\":7,\"mitigation\":{}}}");
    }

    #[test]
    fn escapes_strings_and_maps_nonfinite_to_null() {
        let line = render("t", &[("s", Value::Str("a\"b\\c\nd")), ("v", Value::F64(f64::NAN))]);
        assert_eq!(line, "{\"bench\":\"t\",\"s\":\"a\\\"b\\\\c\\nd\",\"v\":null}");
    }

    #[test]
    fn aborted_exits_are_tagged_and_invalid() {
        use sas_pipeline::{CrashDump, Divergence, DivergenceKind, SimError};
        let deadlock = RunExit::Deadlock(Box::new(CrashDump {
            cycle: 99,
            cores: Vec::new(),
            mshrs: Vec::new(),
            fault_plan: Some("seed=0x2a".to_string()),
        }));
        let divergence = RunExit::Divergence(Box::new(Divergence {
            core: 0,
            seq: 7,
            cycle: 40,
            pc: 3,
            inst: "ADD x1, x1, #1".to_string(),
            kind: DivergenceKind::RegValue,
            expected: "x1 = 2".to_string(),
            actual: "x1 = 3".to_string(),
        }));
        let error = RunExit::Error(SimError::internal("test invariant"));
        for (exit, tag) in [
            (&RunExit::CycleLimit, "cycle_limit"),
            (&deadlock, "deadlock"),
            (&divergence, "divergence"),
            (&error, "error"),
        ] {
            assert_eq!(exit_tag(exit), tag);
            assert!(!valid_cell(exit), "{tag} must never be a valid cell");
        }
        assert_eq!(exit_tag(&RunExit::Halted), "halted");
        assert!(valid_cell(&RunExit::Halted));
    }

    #[test]
    fn exit_fields_splice_into_records() {
        let line = render(
            "fig6",
            &[("benchmark", Value::Str("505.mcf_r"))]
                .iter()
                .copied()
                .chain(exit_fields(&RunExit::CycleLimit))
                .collect::<Vec<_>>()
                .as_slice(),
        );
        assert_eq!(
            line,
            "{\"bench\":\"fig6\",\"benchmark\":\"505.mcf_r\",\"exit\":\"cycle_limit\",\"valid\":false}"
        );
    }
}
