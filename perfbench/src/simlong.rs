//! `sim-long`: the simulator's hot loop on cells long enough (≥300k
//! committed instructions each) that set-up is a small share.
//!
//! Three single-core SPEC profiles with contrasting CPI stacks (505.mcf_r
//! memory-bound, 508.namd_r compute/ILP, 520.omnetpp_r pointer-chasing)
//! and one 4-core PARSEC profile (canneal: the multi-core tick and
//! coherence paths), each under unsafe/fence/stt/ghostminion/specasan,
//! every cell from cold modelled caches. One *pass* runs the 20 cells once.
//!
//! * Operation: simulating one million committed instructions, averaged
//!   over a pass (a pass's timed run scaled by its committed count), so the
//!   latency figures do not depend on how long the seed made each program;
//!   percentiles are over the run's passes.
//! * Work: thousands of committed instructions; `work_per_s` is the
//!   hot-loop throughput in kinst/s over the timed `run_supervised` calls,
//!   each cell's time being its median over the run's passes.
//! * Set-up: per pass, workload generation (seeded) + `build_system` +
//!   `WorkloadSetup::apply` for all 20 cells.
//! * Exactness: every cell halts; the five mitigations of a single-core
//!   profile commit the same instruction count; every pass reproduces the
//!   first bit-for-bit; for the default seed each cell's cycles, committed,
//!   fetched, CPI stack and cache counters equal `perfbench/expect/sim-long.txt`.
//!   (PARSEC threads spin on a start barrier, so their committed count
//!   legitimately depends on timing and is not compared across mitigations.)

use crate::report::Outcome;
use crate::stats::{median, Summary};
use crate::trace::{self, Tracer};
use crate::Ctx;
use sas_bench::checkpoint::{run_supervised_with, CheckpointPlan, Interrupt};
use sas_pipeline::{DelayCause, RunExit, RunResult};
use sas_workloads::{
    build_parsec_workload, build_workload, parsec_suite, spec_suite, Profile, Workload,
};
use specasan::{build_multicore, build_system, Mitigation, SimConfig};
use std::fmt::Write as _;
use std::time::Instant;

/// Expectation file for [`crate::DEFAULT_SEED`], relative to the checkout root.
const EXPECT: &str = "perfbench/expect/sim-long.txt";

/// `(suite, profile, iterations)`: sized for ≥300k committed instructions
/// per cell over every seed tried (≈0.2–0.4 s of host time each).
const CELLS: [(&str, &str, u32); 4] = [
    ("spec", "505.mcf_r", 1900),
    ("spec", "508.namd_r", 1800),
    ("spec", "520.omnetpp_r", 1200),
    ("parsec", "canneal", 380),
];

const PARSEC_THREADS: usize = 4;

fn mitigations() -> Vec<Mitigation> {
    let mut m = vec![Mitigation::Unsafe];
    m.extend(Mitigation::figure6_set());
    m
}

/// One executed cell.
struct CellRun {
    profile: &'static str,
    mitigation: Mitigation,
    run_ns: u64,
    run: RunResult,
}

impl CellRun {
    fn fetched(&self) -> u64 {
        self.run.core_stats.iter().map(|s| s.fetched).sum()
    }

    /// The cell's exactness line: everything simulated that must not move.
    fn signature(&self) -> String {
        let r = &self.run;
        let mut cpi = sas_pipeline::CpiStack::default();
        for s in &r.core_stats {
            cpi.merge(&s.cpi);
        }
        let mut line = format!(
            "{}/{} cycles={} committed={} fetched={} cpi={}",
            self.profile,
            self.mitigation.token(),
            r.cycles,
            r.committed(),
            self.fetched(),
            cpi.encode_flat(&DelayCause::ALL.map(|c| c.name())),
        );
        for (i, c) in r.mem_stats.l1d.iter().enumerate() {
            let _ = write!(line, " l1d{i}={}/{}/{}", c.hits, c.misses, c.fills);
        }
        let l2 = &r.mem_stats.l2;
        let _ = write!(
            line,
            " l2={}/{}/{} coherence_inv={}",
            l2.hits, l2.misses, l2.fills, r.mem_stats.coherence_invalidations
        );
        line
    }
}

fn find(suite: &[Profile], name: &str) -> Profile {
    suite
        .iter()
        .find(|p| p.name == name)
        .cloned()
        .unwrap_or_else(|| panic!("no profile {name}"))
}

/// Runs one pass over every cell, timing set-up and runs separately.
fn pass(ctx: &Ctx, tracer: &Tracer, request: u64) -> (f64, Vec<CellRun>) {
    let sim = SimConfig::table2();
    let (spec, parsec) = (spec_suite(), parsec_suite());
    let mut setup_ns = 0u64;
    let mut cells = Vec::new();
    let top = tracer.open("simlong.pass", None, request);
    for (suite, name, iters) in CELLS {
        let t0 = Instant::now();
        let ws: Vec<Workload> = tracer.span("workloads.generate", top, request, || {
            if suite == "spec" {
                vec![build_workload(&find(&spec, name), iters, ctx.seed, 0)]
            } else {
                build_parsec_workload(&find(&parsec, name), iters, ctx.seed, PARSEC_THREADS)
            }
        });
        setup_ns += t0.elapsed().as_nanos() as u64;
        for m in mitigations() {
            let cell = tracer.open("simlong.cell", top, request);
            let t0 = Instant::now();
            let mut sys = tracer.span("core.build_system", cell, request, || {
                let programs: Vec<_> = ws.iter().map(|w| w.program.clone()).collect();
                if suite == "spec" {
                    build_system(&sim, programs.into_iter().next().expect("one program"), m)
                } else {
                    build_multicore(&sim, programs, m)
                }
            });
            tracer.span("workloads.apply", cell, request, || {
                for w in &ws {
                    w.setup.apply(&mut sys);
                }
            });
            let t1 = Instant::now();
            let sr = tracer.span("pipeline.run", cell, request, || {
                run_supervised_with(&mut sys, 1_000_000_000, &CheckpointPlan::none(), |_| {
                    Interrupt::None
                })
            });
            let t2 = Instant::now();
            tracer.close(cell);
            setup_ns += (t1 - t0).as_nanos() as u64;
            let run_ns = (t2 - t1).as_nanos() as u64;
            cells.push(CellRun {
                profile: name,
                mitigation: m,
                run_ns,
                run: sr.run,
            });
        }
    }
    tracer.close(top);
    (setup_ns as f64 / 1e9, cells)
}

/// Measures whole passes until the budget is spent (at least one).
pub fn measure(ctx: &Ctx, tracer: &Tracer) -> Outcome {
    let mut out = Outcome::default();
    let started = Instant::now();
    let mut setups = Vec::new();
    let mut passes: Vec<Vec<CellRun>> = Vec::new();
    while passes.is_empty() || started.elapsed() < ctx.budget {
        let (setup_s, cells) = pass(ctx, tracer, passes.len() as u64 + 1);
        let run_s: f64 = cells.iter().map(|c| c.run_ns as f64 / 1e9).sum();
        eprintln!(
            "  pass {}: set-up {setup_s:.3} s, timed run {run_s:.3} s",
            passes.len() + 1
        );
        setups.push(setup_s);
        passes.push(cells);
    }
    check(ctx, &passes, &mut out);

    let all: Vec<&CellRun> = passes.iter().flatten().collect();
    // Each cell's timed run is the median over passes, which damps bursts
    // of host interference; every pass simulates the same cells exactly.
    let cell_ns: Vec<f64> = (0..passes[0].len())
        .map(|i| {
            median(
                &passes
                    .iter()
                    .map(|p| p[i].run_ns as f64)
                    .collect::<Vec<_>>(),
            )
            .expect("passes ran")
        })
        .collect();
    let committed: Vec<f64> = passes[0].iter().map(|c| c.run.committed() as f64).collect();
    let run_s = cell_ns.iter().sum::<f64>() / 1e9;
    // A pass's host ns per committed instruction is numerically its ms per
    // million instructions.
    let per_minst: Vec<f64> = passes
        .iter()
        .map(|p| {
            p.iter().map(|c| c.run_ns as f64).sum::<f64>()
                / p.iter().map(|c| c.run.committed() as f64).sum::<f64>()
        })
        .collect();
    let lat = Summary::of(&per_minst).expect("passes ran");
    let min_committed = committed.iter().copied().fold(f64::INFINITY, f64::min);
    eprintln!(
        "  {} pass(es) of {} cells, median-pass timed run {run_s:.2} s, fewest committed in a cell {min_committed}",
        passes.len(),
        cell_ns.len(),
    );
    if min_committed < 300_000.0 {
        eprintln!("  note: a cell committed fewer than 300k instructions under this seed");
    }
    out.set("setup_s", median(&setups).expect("passes ran"));
    out.set("work_per_s", committed.iter().sum::<f64>() / 1e3 / run_s);
    out.set("op_p50_ms", lat.p50);
    out.set("op_p99_ms", lat.p99);
    out.set("peak_rss_mb", crate::peak_rss_mb());

    if tracer.enabled() {
        let spans = tracer.spans();
        let per_pass = |name| {
            let (ms, n) = trace::total_ms(&spans, name);
            (ms / passes.len() as f64, (n / passes.len()) as f64)
        };
        let (generate, generate_calls) = per_pass("workloads.generate");
        let (build, build_calls) = per_pass("core.build_system");
        let (apply, apply_calls) = per_pass("workloads.apply");
        let (run, run_calls) = per_pass("pipeline.run");
        out.set("workloads.generate_ms", generate);
        out.set("workloads.generate_calls", generate_calls);
        out.set("core.build_system_ms", build);
        out.set("core.build_system_calls", build_calls);
        out.set("workloads.apply_ms", apply);
        out.set("workloads.apply_calls", apply_calls);
        out.set("pipeline.run_ms", run);
        out.set("pipeline.run_calls", run_calls);
        out.set("core.setup_ms", build + apply);
        out.set(
            "setup_share",
            (generate + build + apply) / (generate + build + apply + run),
        );
        out.set("run_share", run / (generate + build + apply + run));
        let ratio = |filter: &dyn Fn(&CellRun) -> bool,
                     num: fn(&CellRun) -> f64,
                     den: fn(&CellRun) -> f64| {
            let sel: Vec<&&CellRun> = all.iter().filter(|c| filter(c)).collect();
            sel.iter().map(|c| num(c)).sum::<f64>() / sel.iter().map(|c| den(c)).sum::<f64>()
        };
        let ns = |c: &CellRun| c.run_ns as f64;
        let committed = |c: &CellRun| c.run.committed() as f64;
        for (_, name, _) in CELLS {
            let kips = 1e6 / ratio(&|c| c.profile == name, ns, committed);
            out.set(layer_name("pipeline.kips.", name), kips);
        }
        for m in mitigations() {
            out.set(
                layer_name("pipeline.ns_per_inst.", m.token()),
                ratio(&|c| c.mitigation == m, ns, committed),
            );
        }
        out.set(
            "pipeline.ns_per_cycle",
            ratio(&|_| true, ns, |c| c.run.cycles as f64),
        );
        out.set(
            "pipeline.commit_ratio",
            ratio(&|_| true, committed, |c| c.fetched() as f64),
        );
    }
    out
}

/// The catalogued per-layer name `prefix` + `suffix`.
fn layer_name(prefix: &str, suffix: &str) -> &'static str {
    let want = format!("{prefix}{suffix}");
    crate::report::PER_LAYER
        .iter()
        .find(|m| m.name == want)
        .map(|m| m.name)
        .unwrap_or_else(|| panic!("{want} is not catalogued"))
}

fn check(ctx: &Ctx, passes: &[Vec<CellRun>], out: &mut Outcome) {
    let first: Vec<String> = passes[0].iter().map(CellRun::signature).collect();
    for cells in passes {
        out.attempted += cells.len() as u64;
        for c in cells {
            if !matches!(c.run.exit, RunExit::Halted) {
                out.failed += 1;
                out.problem(format!(
                    "{}/{} did not halt: {:?}",
                    c.profile,
                    c.mitigation.token(),
                    c.run.exit
                ));
            }
        }
        for (_, name, _) in CELLS.iter().filter(|(suite, ..)| *suite == "spec") {
            let counts: Vec<u64> = cells
                .iter()
                .filter(|c| c.profile == *name)
                .map(|c| c.run.committed())
                .collect();
            if counts.windows(2).any(|w| w[0] != w[1]) {
                out.problem(format!(
                    "{name}: mitigations committed different counts {counts:?}"
                ));
            }
        }
        let sigs: Vec<String> = cells.iter().map(CellRun::signature).collect();
        if sigs != first {
            out.problem("a later pass did not reproduce the first pass's simulated statistics");
        }
    }
    let body = first.join("\n") + "\n";
    if ctx.record_expect {
        match std::fs::write(EXPECT, &body) {
            Ok(()) => eprintln!("  recorded {} cells into {EXPECT}", first.len()),
            Err(e) => out.problem(format!("cannot write {EXPECT}: {e}")),
        }
    } else if ctx.seed == crate::DEFAULT_SEED {
        match std::fs::read_to_string(EXPECT) {
            Ok(want) if want == body => {}
            Ok(want) => {
                for (got, want) in first.iter().zip(want.lines()) {
                    if got != want {
                        out.problem(format!("expected {want}\n      got {got}"));
                    }
                }
                if want.lines().count() != first.len() {
                    out.problem(format!(
                        "{EXPECT} lists {} cells, ran {}",
                        want.lines().count(),
                        first.len()
                    ));
                }
            }
            Err(e) => out.problem(format!("{EXPECT}: {e}")),
        }
    }
}
