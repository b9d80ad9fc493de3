//! Crash-safe JSONL campaign manifest.
//!
//! One flat JSON object per line, one line per supervised cell. Rows are
//! flat because that is the row format (`sas-query` reads scalar columns;
//! the CPI stack travels as one flat string), not because of any parser
//! limit: rows are read back through the workspace's one JSON parser,
//! `sas_telemetry::json`. The file discipline is `sas_snap::AppendLog`'s:
//! each record goes down as a **single** write of the row and its newline,
//! then a flush — so concurrent workers never interleave inside a row and
//! a supervisor killed mid-write can tear at most the trailing line.
//!
//! The manifest doubles as the campaign checkpoint: [`load_and_repair`]
//! parses it back, truncates a torn trailing line in place, and returns the
//! valid records so `--resume` can skip every cell that already has a row
//! (failed rows count as completed — a deterministic failure would only
//! reproduce).

use sas_snap::AppendLog;
use sas_telemetry::json::{self, Json};
use std::fmt::Write as _;
use std::io;
use std::path::Path;

/// One supervised cell's outcome — a manifest row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    /// Cell id (`spec/505.mcf_r/stt`, `chaos/0xc4a05eed`, …).
    pub cell: String,
    /// Whether the cell produced valid numbers.
    pub ok: bool,
    /// Stable exit tag (`halted`, `deadlock`, `timeout`, `panic`, …).
    pub exit: String,
    /// Human diagnostic for failures (truncated; full dumps stay in logs).
    pub detail: String,
    /// Spawn attempts consumed (>1 means environmental retries happened).
    pub attempts: u32,
    /// Simulated cycles (0 when the cell never finished).
    pub cycles: u64,
    /// Whether the cell resumed from a checkpoint or warm-forked from a
    /// baseline image instead of starting cold.
    pub restored: bool,
    /// Wall-clock supervision time for the cell, in milliseconds.
    pub duration_ms: u64,
    /// Repro-bundle directory written by the shrinker, if any.
    pub repro: Option<String>,
    /// The child's final commit-time CPI stack, flat-encoded
    /// (`CpiStack::encode_flat`: `base=12;fetch_stall=3;...`) so the row
    /// stays flat.
    pub cpi: Option<String>,
}

impl Record {
    /// Renders the record as one JSON line (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        push_str_field(&mut out, "cell", &self.cell, true);
        push_raw_field(&mut out, "ok", &self.ok.to_string());
        push_str_field(&mut out, "exit", &self.exit, false);
        push_str_field(&mut out, "detail", &self.detail, false);
        push_raw_field(&mut out, "attempts", &self.attempts.to_string());
        push_raw_field(&mut out, "cycles", &self.cycles.to_string());
        if self.restored {
            push_raw_field(&mut out, "restored", "true");
        }
        push_raw_field(&mut out, "duration_ms", &self.duration_ms.to_string());
        if let Some(r) = &self.repro {
            push_str_field(&mut out, "repro", r, false);
        }
        if let Some(c) = &self.cpi {
            push_str_field(&mut out, "cpi", c, false);
        }
        out.push('}');
        out
    }

    /// Parses a record from one manifest line.
    pub fn from_json(line: &str) -> Option<Record> {
        let doc = json::parse(line).ok()?;
        let text = |k: &str| doc.get(k).and_then(Json::as_str).map(str::to_string);
        Some(Record {
            cell: text("cell")?,
            ok: doc.get("ok")?.as_bool()?,
            exit: text("exit")?,
            detail: text("detail")?,
            attempts: u32::try_from(doc.get("attempts")?.as_u64()?).ok()?,
            cycles: doc.get("cycles")?.as_u64()?,
            restored: doc.get("restored").and_then(Json::as_bool).unwrap_or(false),
            duration_ms: doc.get("duration_ms")?.as_u64()?,
            repro: text("repro"),
            cpi: text("cpi"),
        })
    }
}

fn push_str_field(out: &mut String, key: &str, value: &str, first: bool) {
    if !first {
        out.push(',');
    }
    let _ = write!(out, "\"{key}\":\"");
    json::escape_into(out, value);
    out.push('"');
}

fn push_raw_field(out: &mut String, key: &str, raw: &str) {
    let _ = write!(out, ",\"{key}\":{raw}");
}

/// Loads a manifest, repairing torn state in place: a torn trailing line
/// (no newline) is cut off, parsing stops at the first unparsable row, the
/// file is truncated to the end of the last good row, and the good records
/// are returned. A missing manifest is an empty campaign, not an error.
pub fn load_and_repair(path: &Path) -> io::Result<Vec<Record>> {
    let log = AppendLog::recover(path)?;
    let mut records = Vec::new();
    for row in log.rows() {
        match row.text.and_then(Record::from_json) {
            Some(r) => records.push(r),
            None => {
                // Corrupt: stop trusting the rest of the file.
                AppendLog::truncate(path, row.start)?;
                break;
            }
        }
    }
    Ok(records)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("sas-runner-manifest-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("manifest.jsonl")
    }

    fn sample(cell: &str, ok: bool) -> Record {
        Record {
            cell: cell.to_string(),
            ok,
            exit: if ok { "halted".into() } else { "deadlock".into() },
            detail: if ok { String::new() } else { "MSHR wedged \"hard\"\nline2".into() },
            attempts: 2,
            cycles: 123_456,
            restored: ok,
            duration_ms: 78,
            repro: if ok { None } else { Some("target/repro/x".into()) },
            cpi: if ok { Some("base=100;fetch_stall=2;TaintedAddress=9".into()) } else { None },
        }
    }

    #[test]
    fn records_round_trip_through_json() {
        for r in [sample("spec/505.mcf_r/stt", true), sample("chaos/0xc4a05eed", false)] {
            assert_eq!(Record::from_json(&r.to_json()), Some(r));
        }
    }

    #[test]
    fn writer_appends_and_loader_reads_back() {
        let path = tmp("roundtrip");
        let mut w = AppendLog::open(&path).unwrap();
        let a = sample("spec/505.mcf_r/stt", true);
        let b = sample("spec/505.mcf_r/fence", false);
        w.append(&a.to_json()).unwrap();
        w.append(&b.to_json()).unwrap();
        assert_eq!(load_and_repair(&path).unwrap(), vec![a, b]);
    }

    #[test]
    fn torn_trailing_line_is_truncated_in_place() {
        let path = tmp("torn");
        let mut w = AppendLog::open(&path).unwrap();
        let a = sample("spec/505.mcf_r/stt", true);
        w.append(&a.to_json()).unwrap();
        // Simulate a supervisor killed mid-write: a partial row, no newline.
        use std::io::Write as _;
        let mut f = std::fs::OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(b"{\"cell\":\"spec/505.mcf_r/fe").unwrap();
        drop(f);
        let records = load_and_repair(&path).unwrap();
        assert_eq!(records, vec![a.clone()]);
        // The file itself was repaired: loading again sees the same rows and
        // appending continues cleanly.
        let mut w = AppendLog::open(&path).unwrap();
        let b = sample("spec/505.mcf_r/fence", false);
        w.append(&b.to_json()).unwrap();
        assert_eq!(load_and_repair(&path).unwrap(), vec![a, b]);
    }

    #[test]
    fn corrupt_middle_line_stops_the_parse() {
        let path = tmp("corrupt");
        std::fs::write(&path, format!("{}\nnot json\n{}\n", sample("a", true).to_json(), sample("b", true).to_json())).unwrap();
        let records = load_and_repair(&path).unwrap();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].cell, "a");
        // Everything after the corruption was discarded from the file too.
        assert_eq!(std::fs::read_to_string(&path).unwrap().lines().count(), 1);
    }

    #[test]
    fn missing_manifest_is_an_empty_campaign() {
        let path = tmp("missing").with_file_name("never-written.jsonl");
        assert_eq!(load_and_repair(&path).unwrap(), Vec::new());
    }

    #[test]
    fn records_keep_their_pinned_bytes() {
        // The manifest's row format, byte for byte: `--resume`, `sas-query`
        // and the perf harness read manifests that older builds wrote
        // (`{DEL}` stands for U+007F, which is not escaped).
        let failed = Record {
            cell: "spec/505.mcf_r/stt".into(),
            ok: false,
            exit: "panic".into(),
            detail: "boom \"quoted\" back\\slash\nline\ttab\r\u{1}\u{1f} é ✓ \u{7f}".into(),
            attempts: 3,
            cycles: 123_456_789,
            restored: true,
            duration_ms: 4321,
            repro: Some("target/repro/spec-505.mcf_r-stt".into()),
            cpi: Some("base=100;fetch_stall=2;TaintedAddress=9".into()),
        };
        let pinned = r#"{"cell":"spec/505.mcf_r/stt","ok":false,"exit":"panic","detail":"boom \"quoted\" back\\slash\nline\ttab\r\u0001\u001f é ✓ {DEL}","attempts":3,"cycles":123456789,"restored":true,"duration_ms":4321,"repro":"target/repro/spec-505.mcf_r-stt","cpi":"base=100;fetch_stall=2;TaintedAddress=9"}"#;
        assert_eq!(failed.to_json(), pinned.replace("{DEL}", "\u{7f}"));
        let ok = Record {
            ok: true,
            exit: "halted".into(),
            detail: String::new(),
            restored: false,
            repro: None,
            cpi: None,
            ..failed
        };
        assert_eq!(
            ok.to_json(),
            r#"{"cell":"spec/505.mcf_r/stt","ok":true,"exit":"halted","detail":"","attempts":3,"cycles":123456789,"duration_ms":4321}"#
        );
    }

    #[test]
    fn records_round_trip_for_any_text() {
        use sas_ptest::{check, gen};
        let text = gen::text(0..48);
        let opt_text = |rng: &mut sas_ptest::Rng| rng.chance(0.5).then(|| text.sample(rng));
        check("manifest_record_round_trip", 256, |rng| {
            let r = Record {
                cell: text.sample(rng),
                ok: rng.chance(0.5),
                exit: text.sample(rng),
                detail: text.sample(rng),
                attempts: gen::u32s(0..u32::MAX).sample(rng),
                cycles: gen::u64s(0..1 << 53).sample(rng),
                restored: rng.chance(0.5),
                duration_ms: gen::u64s(0..1 << 53).sample(rng),
                repro: opt_text(rng),
                cpi: opt_text(rng),
            };
            let line = r.to_json();
            assert!(!line.contains('\n'), "{line}");
            assert_eq!(Record::from_json(&line), Some(r), "{line}");
        });
    }

    #[test]
    fn counts_must_be_exact_integers_in_range() {
        let line = sample("a", true).to_json();
        for (from, to) in [
            ("\"attempts\":2", "\"attempts\":4294967296"),
            ("\"attempts\":2", "\"attempts\":-2"),
            ("\"cycles\":123456", "\"cycles\":123456.5"),
            ("\"cycles\":123456", "\"cycles\":18446744073709551615"),
        ] {
            let bad = line.replacen(from, to, 1);
            assert_ne!(bad, line);
            assert_eq!(Record::from_json(&bad), None, "{bad}");
        }
    }
}
