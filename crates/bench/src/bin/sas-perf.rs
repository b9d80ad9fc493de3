//! `sas-perf` — the BENCH_fig6.json performance-trajectory recorder.
//!
//! Times every (benchmark, mitigation) cell of the Figure 6 grid at the
//! tier-1 smoke length and writes `BENCH_fig6.json`: per-cell wall time,
//! simulated-instructions/sec and cycles/sec, plus suite totals, the
//! recorded pre-overhaul baseline, and the speedup against it. The tier-1
//! bench stage runs this after every build so PR-to-PR performance deltas
//! are on record (ROADMAP open item 2).
//!
//! Modes:
//!
//! * `sas-perf --out BENCH_fig6.json` — measure, carry the `baseline`
//!   section forward from the existing file, rewrite it, and **warn** (exit
//!   0) when total sim-instructions/sec dropped more than 20% versus the
//!   previous recording's `total`.
//! * `sas-perf --record-baseline LABEL` — measure and store the result as
//!   the baseline too (used once, before the hot-loop overhaul).
//! * `sas-perf --validate PATH` — schema-check an existing trajectory file
//!   without running anything; nonzero exit on a malformed file.

use sas_bench::run_spec;
use sas_telemetry::json::{self, escape, Json};
use sas_workloads::spec_suite;
use specasan::Mitigation;
use std::fmt::Write as _;
use std::time::Instant;

const SCHEMA: &str = "sas-bench-fig6-v3";

#[derive(Clone, Debug)]
struct CellPerf {
    benchmark: String,
    mitigation: String,
    cycles: u64,
    committed: u64,
    wall_ms: f64,
    restored: bool,
}

impl CellPerf {
    fn sim_ips(&self) -> f64 {
        self.committed as f64 / (self.wall_ms / 1000.0).max(1e-9)
    }
    fn cycles_per_sec(&self) -> f64 {
        self.cycles as f64 / (self.wall_ms / 1000.0).max(1e-9)
    }
}

fn main() {
    let mut iters = 2u32;
    let mut out = "BENCH_fig6.json".to_string();
    let mut record_baseline: Option<String> = None;
    let mut validate: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--iters" => iters = req(&mut args, "--iters").parse().expect("--iters: integer"),
            "--out" => out = req(&mut args, "--out"),
            "--record-baseline" => record_baseline = Some(req(&mut args, "--record-baseline")),
            "--validate" => validate = Some(req(&mut args, "--validate")),
            "--help" | "-h" => {
                println!(
                    "usage: sas-perf [--iters N] [--out PATH] \
                     [--record-baseline LABEL] [--validate PATH]"
                );
                return;
            }
            other => {
                eprintln!("sas-perf: unknown argument {other:?}");
                std::process::exit(2);
            }
        }
    }

    if let Some(path) = validate {
        let body = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| fail(&format!("cannot read {path}: {e}")));
        match validate_schema(&body) {
            Ok(n) => println!("sas-perf: {path}: schema OK ({n} cells)"),
            Err(e) => fail(&format!("{path}: schema violation: {e}")),
        }
        return;
    }

    let prior = std::fs::read_to_string(&out).ok().and_then(|p| json::parse(&p).ok());
    let cells = measure(iters);
    let total = totals(&cells);
    println!(
        "sas-perf: {} cells, {:.1} ms wall, {:.0} sim-instructions/sec, {:.0} cycles/sec",
        cells.len(),
        total.wall_ms,
        total.sim_ips(),
        total.cycles_per_sec()
    );
    let prior_section =
        |key: &str| prior.as_ref()?.get(key).and_then(|v| Section::from_json(v, key).ok());

    // Baseline: an explicit re-record wins; otherwise carry forward the one
    // committed in the existing trajectory file; otherwise this first
    // recording becomes its own baseline.
    let baseline = match &record_baseline {
        Some(label) => Section::of(&total, Some(label)),
        None => prior_section("baseline")
            .unwrap_or_else(|| Section::of(&total, Some("first recording"))),
    };
    let speedup = total.sim_ips() / baseline.sim_ips.max(1e-9);
    println!("sas-perf: {speedup:.2}x sim-instructions/sec vs baseline");

    // PR-to-PR delta: compare against the *previous* recording's total,
    // which is what the last green tier-1 committed. First recordings
    // compare against themselves (zero delta). The previous totals are
    // written into the file so the query layer can chart the trajectory
    // without diffing git history.
    let prev_total = prior_section("total");
    let prev_wall_ms = prev_total.as_ref().map_or(total.wall_ms, |t| t.wall_ms);
    let prev_sim_ips = prev_total.as_ref().map_or(total.sim_ips(), |t| t.sim_ips);
    let delta_wall_ms = total.wall_ms - prev_wall_ms;
    let delta_sim_ips_pct = 100.0 * (total.sim_ips() / prev_sim_ips.max(1e-9) - 1.0);
    if delta_sim_ips_pct < -20.0 {
        println!(
            "sas-perf: WARNING: sim-instructions/sec dropped {:.1}% vs previous \
             trajectory ({prev_sim_ips:.0} -> {:.0})",
            -delta_sim_ips_pct,
            total.sim_ips()
        );
    }

    let deltas = Deltas { prev_wall_ms, prev_sim_ips, delta_wall_ms, delta_sim_ips_pct };
    let body = render(iters, &cells, &total, &baseline, speedup, &deltas);
    validate_schema(&body).unwrap_or_else(|e| fail(&format!("generated file fails schema: {e}")));
    std::fs::write(&out, body).unwrap_or_else(|e| fail(&format!("cannot write {out}: {e}")));
    println!("sas-perf: wrote {out}");
}

fn req(args: &mut impl Iterator<Item = String>, flag: &str) -> String {
    args.next().unwrap_or_else(|| fail(&format!("{flag} needs a value")))
}

fn fail(msg: &str) -> ! {
    eprintln!("sas-perf: {msg}");
    std::process::exit(1);
}

/// Times every fig6 cell sequentially (parallel timing would contend for
/// cores and distort per-cell wall numbers).
fn measure(iters: u32) -> Vec<CellPerf> {
    let mut cols = vec![Mitigation::Unsafe];
    cols.extend(Mitigation::figure6_set());
    let mut cells = Vec::new();
    for p in spec_suite() {
        for &m in &cols {
            let t = Instant::now();
            let c = run_spec(&p, m, iters);
            let wall_ms = t.elapsed().as_secs_f64() * 1000.0;
            cells.push(CellPerf {
                benchmark: p.name.to_string(),
                mitigation: m.token().to_string(),
                cycles: c.cycles,
                committed: c.committed,
                wall_ms,
                restored: c.restored,
            });
        }
    }
    cells
}

fn totals(cells: &[CellPerf]) -> CellPerf {
    CellPerf {
        benchmark: "total".into(),
        mitigation: "*".into(),
        cycles: cells.iter().map(|c| c.cycles).sum(),
        committed: cells.iter().map(|c| c.committed).sum(),
        wall_ms: cells.iter().map(|c| c.wall_ms).sum(),
        restored: cells.iter().any(|c| c.restored),
    }
}

/// A `total` or `baseline` section: suite totals and throughput.
#[derive(Debug)]
struct Section {
    label: Option<String>,
    wall_ms: f64,
    committed: u64,
    cycles: u64,
    sim_ips: f64,
    cycles_per_sec: f64,
}

impl Section {
    fn of(t: &CellPerf, label: Option<&str>) -> Section {
        Section {
            label: label.map(str::to_string),
            wall_ms: t.wall_ms,
            committed: t.committed,
            cycles: t.cycles,
            sim_ips: t.sim_ips(),
            cycles_per_sec: t.cycles_per_sec(),
        }
    }

    /// Reads a section back; `what` names it in the error.
    fn from_json(v: &Json, what: &str) -> Result<Section, String> {
        let lacks = |kind: &str, k: &str| format!("{what} lacks {kind} {k:?}");
        let num = |k: &str| v.get(k).and_then(Json::as_num).ok_or_else(|| lacks("numeric", k));
        let int = |k: &str| v.get(k).and_then(Json::as_u64).ok_or_else(|| lacks("integer", k));
        Ok(Section {
            label: v.get("label").and_then(Json::as_str).map(str::to_string),
            wall_ms: num("wall_ms")?,
            committed: int("committed")?,
            cycles: int("cycles")?,
            sim_ips: num("sim_ips")?,
            cycles_per_sec: num("cycles_per_sec")?,
        })
    }

    fn render(&self) -> String {
        let mut s = String::from("{");
        if let Some(l) = &self.label {
            let _ = write!(s, "\"label\":\"{}\",", escape(l));
        }
        let _ = write!(
            s,
            "\"wall_ms\":{:.3},\"committed\":{},\"cycles\":{},\
             \"sim_ips\":{:.1},\"cycles_per_sec\":{:.1}}}",
            self.wall_ms, self.committed, self.cycles, self.sim_ips, self.cycles_per_sec
        );
        s
    }
}

/// PR-to-PR trajectory deltas versus the previous committed recording.
struct Deltas {
    prev_wall_ms: f64,
    prev_sim_ips: f64,
    delta_wall_ms: f64,
    delta_sim_ips_pct: f64,
}

fn render(
    iters: u32,
    cells: &[CellPerf],
    total: &CellPerf,
    baseline: &Section,
    speedup: f64,
    deltas: &Deltas,
) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "{{");
    let _ = writeln!(s, "  \"schema\": \"{SCHEMA}\",");
    let _ = writeln!(s, "  \"bench\": \"fig6\",");
    let _ = writeln!(s, "  \"iters\": {iters},");
    let _ = writeln!(s, "  \"cells\": [");
    for (i, c) in cells.iter().enumerate() {
        let comma = if i + 1 == cells.len() { "" } else { "," };
        let _ = writeln!(
            s,
            "    {{\"benchmark\":\"{}\",\"mitigation\":\"{}\",\"cycles\":{},\
             \"committed\":{},\"wall_ms\":{:.3},\"sim_ips\":{:.1},\
             \"cycles_per_sec\":{:.1},\"restored\":{}}}{comma}",
            escape(&c.benchmark),
            escape(&c.mitigation),
            c.cycles,
            c.committed,
            c.wall_ms,
            c.sim_ips(),
            c.cycles_per_sec(),
            c.restored
        );
    }
    let _ = writeln!(s, "  ],");
    let _ = writeln!(s, "  \"total\": {},", Section::of(total, None).render());
    let _ = writeln!(s, "  \"baseline\": {},", baseline.render());
    let _ = writeln!(s, "  \"speedup_sim_ips\": {speedup:.3},");
    let _ = writeln!(s, "  \"prev_total_wall_ms\": {:.3},", deltas.prev_wall_ms);
    let _ = writeln!(s, "  \"prev_total_sim_ips\": {:.1},", deltas.prev_sim_ips);
    let _ = writeln!(s, "  \"delta_wall_ms\": {:.3},", deltas.delta_wall_ms);
    let _ = writeln!(s, "  \"delta_sim_ips_pct\": {:.2}", deltas.delta_sim_ips_pct);
    let _ = writeln!(s, "}}");
    s
}

/// Structural check of a trajectory file: schema tag, a non-empty `cells`
/// array whose every row carries the per-cell metrics, `total` and
/// `baseline` sections with throughput numbers, and the top-level speedup
/// and trajectory deltas. Returns the cell count.
fn validate_schema(doc: &str) -> Result<usize, String> {
    let doc = json::parse(doc)?;
    if doc.get("schema").and_then(Json::as_str) != Some(SCHEMA) {
        return Err(format!("missing schema tag {SCHEMA:?}"));
    }
    let cells = doc.get("cells").and_then(Json::as_arr).ok_or("missing cells array")?;
    if cells.is_empty() {
        return Err("empty cells array".into());
    }
    for (i, cell) in cells.iter().enumerate() {
        let lacks = |field: &str| format!("cell {i} lacks field {field:?}");
        for field in ["benchmark", "mitigation"] {
            cell.get(field).and_then(Json::as_str).ok_or_else(|| lacks(field))?;
        }
        for field in ["cycles", "committed", "wall_ms", "sim_ips", "cycles_per_sec"] {
            cell.get(field).and_then(Json::as_num).ok_or_else(|| lacks(field))?;
        }
        cell.get("restored").and_then(Json::as_bool).ok_or_else(|| lacks("restored"))?;
    }
    for section in ["total", "baseline"] {
        let v = doc.get(section).ok_or(format!("missing {section} section"))?;
        Section::from_json(v, &format!("{section} section"))?;
    }
    for field in
        ["speedup_sim_ips", "prev_total_wall_ms", "prev_total_sim_ips", "delta_wall_ms", "delta_sim_ips_pct"]
    {
        doc.get(field).and_then(Json::as_num).ok_or(format!("missing {field}"))?;
    }
    Ok(cells.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every key whose removal must fail validation.
    const REQUIRED: [&str; 17] = [
        "schema",
        "cells",
        "benchmark",
        "mitigation",
        "cycles",
        "committed",
        "wall_ms",
        "sim_ips",
        "cycles_per_sec",
        "restored",
        "total",
        "baseline",
        "speedup_sim_ips",
        "prev_total_wall_ms",
        "prev_total_sim_ips",
        "delta_wall_ms",
        "delta_sim_ips_pct",
    ];

    fn committed_trajectory() -> String {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_fig6.json");
        std::fs::read_to_string(path).expect("committed BENCH_fig6.json")
    }

    #[test]
    fn the_committed_trajectory_is_accepted() {
        let doc = committed_trajectory();
        let cells = validate_schema(&doc).unwrap();
        assert_eq!(cells, doc.matches("\"benchmark\":").count());
    }

    #[test]
    fn removing_any_required_field_or_section_fails() {
        // The file puts every cell and section on a line of its own, so
        // renaming a key on one line removes it from exactly one place.
        let doc = committed_trajectory();
        let lines: Vec<&str> = doc.lines().collect();
        let mut removals = 0;
        for (i, line) in lines.iter().enumerate() {
            for key in REQUIRED {
                let pat = format!("\"{key}\":");
                if !line.contains(&pat) {
                    continue;
                }
                let mut mutated = lines.clone();
                let renamed = line.replacen(&pat, &format!("\"{key}_gone\":"), 1);
                mutated[i] = &renamed;
                let err = validate_schema(&mutated.join("\n"));
                assert!(err.is_err(), "line {i} without {key:?} was accepted");
                removals += 1;
            }
        }
        // Every required key was removed at least once.
        assert!(removals > REQUIRED.len(), "{removals}");
    }

    #[test]
    fn a_bracket_inside_a_string_does_not_end_the_cells_array() {
        let doc = committed_trajectory();
        let n = validate_schema(&doc).unwrap();
        let odd = doc.replacen("\"mitigation\":\"unsafe\"", "\"mitigation\":\"odd]name\"", 1);
        assert_ne!(odd, doc);
        assert_eq!(validate_schema(&odd), Ok(n));
        // A defect in the last cell is still seen past the bracket.
        let last = odd.rfind("\"restored\":").unwrap();
        let broken = format!("{}\"restored_gone\":{}", &odd[..last], &odd[last + 11..]);
        assert!(validate_schema(&broken).unwrap_err().contains(&format!("cell {}", n - 1)));
    }

    #[test]
    fn a_wrong_schema_tag_is_rejected() {
        let doc = committed_trajectory().replacen(SCHEMA, "sas-bench-fig6-v2", 1);
        assert!(validate_schema(&doc).unwrap_err().contains("schema"));
    }

    #[test]
    fn the_baseline_carries_forward_byte_for_byte() {
        let doc = committed_trajectory();
        let parsed = json::parse(&doc).unwrap();
        let baseline = Section::from_json(parsed.get("baseline").unwrap(), "baseline").unwrap();
        let line = doc.lines().find(|l| l.contains("\"baseline\":")).unwrap();
        assert_eq!(line, format!("  \"baseline\": {},", baseline.render()));
    }
}
