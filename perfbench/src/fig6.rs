//! `fig6-smoke`: the 75-cell Figure-6 SPEC grid at the tier-1 smoke length,
//! run the way `sas-runner fig6` runs it — `run_campaign` with 2 jobs and
//! one `sas-runner cell` child process per cell, then the manifest index
//! and digest.
//!
//! * Operation: one campaign (run_campaign → index_paths → digest).
//! * Work: cells; `work_per_s` is cells per second of campaign wall time.
//! * Set-up: before each campaign, a fresh state directory and supervision
//!   config, and one probe spawn of the child executable.
//! * Seed: children use the program's fixed `SEED`, so the workload seed
//!   only permutes the cell dispatch order.
//! * Exactness: every manifest row is ok, and its cycles and CPI stack equal
//!   `crates/bench/golden_fig6_cycles.txt`.
//!
//! The traced half mirrors each child's call sequence in-process per cell
//! (generate → build → apply → run) to split cell time by layer.

use crate::report::Outcome;
use crate::stats::{median, Summary};
use crate::trace::{self, Tracer};
use crate::Ctx;
use sas_bench::checkpoint::{run_supervised_with, CheckpointPlan, Interrupt};
use sas_runner::{cell, CellId, Config};
use sas_workloads::{build_workload, spec_suite};
use specasan::{build_system, SimConfig};
use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::process::Command;
use std::time::Instant;

/// Smoke length, as in tier-1's fig6 stage.
const ITERS: u32 = 2;
/// Supervisor worker threads (one child process each).
const JOBS: usize = 2;
/// Cycle-exactness fixture, relative to the checkout root.
const GOLDEN: &str = "crates/bench/golden_fig6_cycles.txt";

/// Expected `(cycles, CPI buckets)` per cell id.
type Golden = HashMap<String, (u64, BTreeMap<String, u64>)>;

fn load_golden() -> Result<Golden, String> {
    let text = std::fs::read_to_string(GOLDEN).map_err(|e| format!("{GOLDEN}: {e}"))?;
    let mut out = Golden::new();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let bad = || format!("{GOLDEN}: malformed line {line:?}");
        let (cell, rest) = line.split_once(' ').ok_or_else(bad)?;
        let cycles = rest
            .split_whitespace()
            .find_map(|f| f.strip_prefix("cycles="))
            .and_then(|v| v.parse().ok())
            .ok_or_else(bad)?;
        let cpi_text = rest.split_once("cpi=").ok_or_else(bad)?.1;
        let doc = sas_telemetry::json::parse(cpi_text).map_err(|_| bad())?;
        let mut cpi = BTreeMap::new();
        flatten_cpi(&doc, &mut cpi);
        out.insert(format!("spec/{cell}"), (cycles, cpi));
    }
    Ok(out)
}

/// Collects the numeric leaves of a golden CPI object (the `mitigation`
/// sub-object's causes included), dropping zeros as the flat encoding does.
fn flatten_cpi(doc: &sas_telemetry::json::Json, out: &mut BTreeMap<String, u64>) {
    if let sas_telemetry::json::Json::Obj(map) = doc {
        for (k, v) in map {
            match v.as_num() {
                Some(n) if n > 0.0 => {
                    out.insert(k.clone(), n as u64);
                }
                Some(_) => {}
                None => flatten_cpi(v, out),
            }
        }
    }
}

/// Parses a manifest row's flat CPI string (`base=189;…;Cause=12`).
fn parse_flat_cpi(flat: &str) -> BTreeMap<String, u64> {
    flat.split(';')
        .filter_map(|kv| kv.split_once('='))
        .filter_map(|(k, v)| Some((k.to_string(), v.parse::<u64>().ok()?)))
        .filter(|(_, v)| *v > 0)
        .collect()
}

fn config(dir: &Path, ctx: &Ctx) -> Config {
    let manifest = dir.join("fig6.jsonl");
    let mut cfg = Config::new(manifest.clone());
    cfg.jobs = JOBS;
    cfg.iters = ITERS;
    cfg.child_exe = ctx.runner_exe.clone();
    cfg.repro_dir = dir.join("repro");
    // `sas-runner fig6` arms the mid-cell checkpoint state dir by default.
    cfg.checkpoint_dir = Some(manifest.with_extension("state"));
    cfg
}

/// Whether the child executable answers a `selftest/ok` cell.
fn probe_child(exe: &Path) -> Result<(), String> {
    let out = Command::new(exe)
        .args(["cell", "selftest/ok", "--iters", "1"])
        .output()
        .map_err(|e| format!("cannot run {}: {e}", exe.display()))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if out.status.success() && stdout.contains(cell::RESULT_MARKER) {
        Ok(())
    } else {
        Err(format!(
            "{} cell selftest/ok failed: {}",
            exe.display(),
            out.status
        ))
    }
}

/// Measures fig6-smoke campaigns for the context's budget.
pub fn measure(ctx: &Ctx, tracer: &Tracer) -> Outcome {
    let mut out = Outcome::default();
    let golden = match load_golden() {
        Ok(g) => g,
        Err(e) => {
            out.problem(e);
            return out;
        }
    };

    let mut cells = cell::fig6_cells(None);
    crate::shuffle(&mut cells, ctx.seed);
    // Each campaign gets a fresh state dir; setting it up is timed apart
    // from the campaign, so set-up samples spread over the whole run.
    let setup = |i: u64| -> Result<Config, String> {
        let dir = ctx.work_dir.join(format!("campaign-{i}"));
        std::fs::create_dir_all(&dir).map_err(|e| format!("state dir: {e}"))?;
        let cfg = config(&dir, ctx);
        probe_child(&ctx.runner_exe)?;
        Ok(cfg)
    };

    let started = Instant::now();
    let mut walls_ms = Vec::new();
    let mut campaign_ms = Vec::new();
    let mut index_ms = Vec::new();
    let mut digest_ms = Vec::new();
    let mut attempts = 0u64;
    let mut mirrors: Vec<MirrorTotals> = Vec::new();
    let mut setups = Vec::new();
    let mut request = 0u64;
    while walls_ms.is_empty() || started.elapsed() < ctx.budget {
        request += 1;
        let t0 = Instant::now();
        let cfg = match setup(request) {
            Ok(cfg) => cfg,
            Err(e) => {
                out.problem(e);
                return out;
            }
        };
        setups.push(t0.elapsed().as_secs_f64());
        let top = tracer.open("fig6.campaign", None, request);
        let t0 = Instant::now();
        let report = tracer.span("runner.run_campaign", top, request, || {
            sas_runner::run_campaign(&cells, &cfg)
        });
        let t1 = Instant::now();
        let indexed = tracer.span("query.index_paths", top, request, || {
            sas_query::load::index_paths(std::slice::from_ref(&cfg.manifest_path))
        });
        let t2 = Instant::now();
        let digest = indexed.as_ref().map(|(idx, _)| {
            tracer.span("query.campaign_digest", top, request, || {
                sas_query::digest::campaign_digest(idx)
            })
        });
        let t3 = Instant::now();
        tracer.close(top);
        walls_ms.push((t3 - t0).as_secs_f64() * 1e3);
        campaign_ms.push((t1 - t0).as_secs_f64() * 1e3);
        index_ms.push((t2 - t1).as_secs_f64() * 1e3);
        digest_ms.push((t3 - t2).as_secs_f64() * 1e3);

        // Exactness, outside the timed region.
        let report = match report {
            Ok(r) => r,
            Err(e) => {
                out.problem(format!("run_campaign: {e}"));
                return out;
            }
        };
        match &digest {
            Ok(d) if !d.is_empty() => {}
            Ok(_) => out.problem("campaign digest is empty"),
            Err(e) => out.problem(format!("index_paths: {e}")),
        }
        out.attempted += cells.len() as u64;
        if report.records.len() != cells.len() {
            out.problem(format!(
                "manifest has {} rows for {} cells",
                report.records.len(),
                cells.len()
            ));
        }
        for r in &report.records {
            attempts += u64::from(r.attempts);
            if !r.ok {
                out.failed += 1;
                out.problem(format!("{} failed [{}] {}", r.cell, r.exit, r.detail));
                continue;
            }
            let Some((cycles, cpi)) = golden.get(&r.cell) else {
                out.problem(format!("{} is not in {GOLDEN}", r.cell));
                continue;
            };
            if r.cycles != *cycles {
                out.problem(format!(
                    "{}: cycles {} != golden {cycles}",
                    r.cell, r.cycles
                ));
            }
            if r.cpi.as_deref().map(parse_flat_cpi).as_ref() != Some(cpi) {
                out.problem(format!(
                    "{}: CPI stack {:?} differs from golden",
                    r.cell, r.cpi
                ));
            }
        }
        if !tracer.enabled() {
            continue;
        }
        match mirror(&cells, tracer, request, &golden) {
            Ok(m) => mirrors.push(m),
            Err(e) => out.problem(e),
        }
    }

    let campaigns = walls_ms.len();
    let wall = Summary::of(&walls_ms).expect("at least one campaign");
    eprintln!(
        "  {campaigns} campaign(s) of {} cells: wall p50 {:.1} ms, p99 {:.1} ms ({} beyond p99)",
        cells.len(),
        wall.p50,
        wall.p99,
        wall.beyond_p99
    );
    out.set("setup_s", median(&setups).expect("set-ups ran"));
    out.set(
        "work_per_s",
        (campaigns * cells.len()) as f64 / (walls_ms.iter().sum::<f64>() / 1e3),
    );
    out.set("op_p50_ms", wall.p50);
    out.set("op_p99_ms", wall.p99);
    out.set("peak_rss_mb", crate::peak_rss_mb());

    if !mirrors.is_empty() {
        let med = |f: fn(&MirrorTotals) -> f64| {
            median(&mirrors.iter().map(f).collect::<Vec<_>>()).expect("mirrors")
        };
        let m0 = &mirrors[0];
        out.set("workloads.generate_ms", med(|m| m.generate_ms));
        out.set("workloads.generate_calls", m0.generate_calls as f64);
        out.set("core.build_system_ms", med(|m| m.build_ms));
        out.set("core.build_system_calls", m0.build_calls as f64);
        out.set("workloads.apply_ms", med(|m| m.apply_ms));
        out.set("workloads.apply_calls", m0.apply_calls as f64);
        out.set("pipeline.run_ms", med(|m| m.run_ms));
        out.set("pipeline.run_calls", m0.run_calls as f64);
        out.set(
            "setup_share",
            med(|m| (m.generate_ms + m.build_ms + m.apply_ms) / m.cell_ms),
        );
        out.set("run_share", med(|m| m.run_ms / m.cell_ms));
        let campaign = median(&campaign_ms).expect("campaigns ran");
        out.set(
            "runner.overhead_ms_per_cell",
            (JOBS as f64 * campaign - med(|m| m.cell_ms)) / cells.len() as f64,
        );
        out.set("query.index_ms", median(&index_ms).expect("campaigns ran"));
        out.set(
            "query.digest_ms",
            median(&digest_ms).expect("campaigns ran"),
        );
        out.set(
            "runner.attempts_per_cell",
            attempts as f64 / out.attempted.max(1) as f64,
        );
    }
    out
}

/// Σ per campaign of the in-process mirror's phases.
struct MirrorTotals {
    generate_ms: f64,
    generate_calls: usize,
    build_ms: f64,
    build_calls: usize,
    apply_ms: f64,
    apply_calls: usize,
    run_ms: f64,
    run_calls: usize,
    cell_ms: f64,
}

/// Replays each child's call sequence in-process under spans, checking the
/// mirrored cycles against the golden file too.
fn mirror(
    cells: &[CellId],
    tracer: &Tracer,
    request: u64,
    golden: &Golden,
) -> Result<MirrorTotals, String> {
    let before = tracer.spans().len();
    let top = tracer.open("fig6.mirror", None, request);
    let suite = spec_suite();
    let sim = SimConfig::table2();
    for c in cells {
        let CellId::Spec {
            benchmark,
            mitigation,
        } = c
        else {
            continue;
        };
        let profile = suite
            .iter()
            .find(|p| p.name == benchmark)
            .ok_or(format!("no profile {benchmark}"))?;
        let cell_span = tracer.open("runner.cell_mirror", top, request);
        let w = tracer.span("workloads.generate", cell_span, request, || {
            build_workload(profile, ITERS, sas_bench::SEED, 0)
        });
        let mut sys = tracer.span("core.build_system", cell_span, request, || {
            build_system(&sim, w.program.clone(), *mitigation)
        });
        tracer.span("workloads.apply", cell_span, request, || {
            w.setup.apply(&mut sys)
        });
        let sr = tracer.span("pipeline.run", cell_span, request, || {
            run_supervised_with(&mut sys, 1_000_000_000, &CheckpointPlan::none(), |_| {
                Interrupt::None
            })
        });
        tracer.close(cell_span);
        let id = c.to_string();
        if golden.get(&id).map(|g| g.0) != Some(sr.run.cycles) {
            return Err(format!(
                "{id}: in-process mirror ran {} cycles, golden differs",
                sr.run.cycles
            ));
        }
    }
    tracer.close(top);
    let spans = tracer.spans().split_off(before);
    // Parent indices refer to the whole log; totals only need names.
    let total = |name| trace::total_ms(&spans, name);
    let (generate_ms, generate_calls) = total("workloads.generate");
    let (build_ms, build_calls) = total("core.build_system");
    let (apply_ms, apply_calls) = total("workloads.apply");
    let (run_ms, run_calls) = total("pipeline.run");
    let (cell_ms, _) = total("runner.cell_mirror");
    Ok(MirrorTotals {
        generate_ms,
        generate_calls,
        build_ms,
        build_calls,
        apply_ms,
        apply_calls,
        run_ms,
        run_calls,
        cell_ms,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn golden_and_flat_cpi_encodings_compare_equal() {
        let doc = sas_telemetry::json::parse(
            r#"{"base":189,"fetch_stall":4,"mispredict_recovery":29,"memory_bound":559,"tsh_unsafe_block":0,"mitigation":{"BarrierSpecLoad":1904}}"#,
        )
        .unwrap();
        let mut golden = BTreeMap::new();
        flatten_cpi(&doc, &mut golden);
        let flat = parse_flat_cpi(
            "base=189;fetch_stall=4;mispredict_recovery=29;memory_bound=559;tsh_unsafe_block=0;BarrierSpecLoad=1904",
        );
        assert_eq!(golden, flat);
        assert_eq!(flat.len(), 5, "zero buckets dropped");
    }
}
