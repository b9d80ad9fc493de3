//! `sas-perfbench` — the repository's host-time benchmark.
//!
//! ```text
//! sas-perfbench --workload <fig6-smoke|sim-long|serve-mixed|fuzz-audit>
//!               --seed <n> --seconds <s> --trace <0|1>
//!               --runner-exe <path to sas-runner> --work-dir <dir>
//! ```
//!
//! Drives the system from outside, through each layer's public functions,
//! for `--seconds` of measurement; checks every output for exactness
//! outside the timed region; prints human detail on stderr and, as the
//! last stdout line, one JSON result (see [`report`]). Exits 1 when an
//! exactness check fails (after printing the result with
//! `"correct": false`) and 2 on a usage or environment error. Run it
//! through `perfbench/run.sh`, which builds it and `sas-runner` first.
//! `perfbench/README.md` documents the workloads and metrics.

mod fig6;
mod fuzz;
mod report;
mod serve;
mod simlong;
mod stats;
mod trace;

use report::Outcome;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;
use trace::Tracer;

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 4] = ["fig6-smoke", "sim-long", "serve-mixed", "fuzz-audit"];

/// The default workload seed (the held-out seed for claims is 2; see
/// `perfbench/README.md`).
pub const DEFAULT_SEED: u64 = 1;

/// Run parameters shared by every workload.
pub struct Ctx {
    /// Workload seed: the workload's inputs are a function of it alone.
    pub seed: u64,
    /// Measurement budget.
    pub budget: Duration,
    /// The `sas-runner` executable fig6-smoke campaigns spawn per cell.
    pub runner_exe: PathBuf,
    /// Scratch directory for this run (removed at exit).
    pub work_dir: PathBuf,
    /// Rewrite the sim-long expectation file instead of checking it.
    pub record_expect: bool,
}

fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

// struct rusage: two `struct timeval`s, then 14 `long`s, `ru_maxrss` first
// among them — 18 machine words on 64-bit Linux.
type Rusage = [i64; 18];

fn rusage(who: i32) -> Option<Rusage> {
    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
    let mut usage: Rusage = [0; 18];
    // SAFETY: `usage` is a writable buffer the size of `struct rusage` on
    // 64-bit Linux, and every caller passes a documented `who` value.
    (unsafe { getrusage(who, &mut usage) } == 0).then_some(usage)
}

/// Peak resident set (MB) of this process and of its largest waited-for
/// child, from `getrusage(2)` (`ru_maxrss` is in KiB on Linux).
pub fn peak_rss_mb() -> f64 {
    const RUSAGE_SELF: i32 = 0;
    const RUSAGE_CHILDREN: i32 = -1;
    let maxrss = |who| rusage(who).map_or(0.0, |u| u[4] as f64 / 1024.0);
    maxrss(RUSAGE_SELF).max(maxrss(RUSAGE_CHILDREN))
}

/// One workload measured once: its outcome and the value of every
/// end-to-end metric.
type Measure = fn(&Ctx, &Tracer) -> Outcome;

fn measure_fn(workload: &str) -> Option<Measure> {
    Some(match workload {
        "fig6-smoke" => fig6::measure,
        "sim-long" => simlong::measure,
        "serve-mixed" => serve::measure,
        "fuzz-audit" => fuzz::measure,
        _ => return None,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let parsed = (|| -> Result<(String, Ctx, bool), String> {
        let workload = flag(&args, "--workload").ok_or("missing --workload")?;
        let num = |name: &str, default: Option<&str>| -> Result<u64, String> {
            let v = flag(&args, name)
                .or(default.map(str::to_string))
                .ok_or(format!("missing {name}"))?;
            v.parse().map_err(|_| format!("{name}: bad number {v:?}"))
        };
        let seed = num("--seed", Some("1"))?;
        let seconds = num("--seconds", Some("10"))?.max(1);
        let trace = match num("--trace", Some("0"))? {
            0 => false,
            1 => true,
            t => return Err(format!("--trace must be 0 or 1, not {t}")),
        };
        let runner_exe = PathBuf::from(flag(&args, "--runner-exe").ok_or("missing --runner-exe")?);
        let base = PathBuf::from(flag(&args, "--work-dir").ok_or("missing --work-dir")?);
        let work_dir = base.join(format!("{workload}-{}", std::process::id()));
        let record_expect = args.iter().any(|a| a == "--record-expect");
        let budget = Duration::from_secs(seconds);
        Ok((
            workload,
            Ctx {
                seed,
                budget,
                runner_exe,
                work_dir,
                record_expect,
            },
            trace,
        ))
    })();
    let (workload, ctx, traced) = match parsed {
        Ok(p) => p,
        Err(e) => {
            eprintln!("sas-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(measure) = measure_fn(&workload) else {
        eprintln!(
            "sas-perfbench: unknown workload {workload:?} (one of {})",
            WORKLOADS.join(", ")
        );
        return ExitCode::from(2);
    };
    if let Err(e) = std::fs::create_dir_all(&ctx.work_dir) {
        eprintln!(
            "sas-perfbench: cannot create {}: {e}",
            ctx.work_dir.display()
        );
        return ExitCode::from(2);
    }
    eprintln!(
        "sas-perfbench: {workload} seed {} for {} s{}",
        ctx.seed,
        ctx.budget.as_secs(),
        if traced { ", traced" } else { "" }
    );

    let (outcome, catalogue) = if traced {
        // Half the budget untraced, half traced: the per-layer numbers come
        // from the traced half, the overhead is the difference.
        let half = Ctx {
            budget: ctx.budget / 2,
            ..ctx
        };
        let plain = measure(&half, &Tracer::new(false));
        let tracer = Tracer::new(true);
        let mut out = measure(&half, &tracer);
        for m in report::END_TO_END {
            let traced = out.values.remove(m.name).unwrap_or(0.0);
            let untraced = plain.values.get(m.name).copied().unwrap_or(0.0);
            out.values.insert(overhead_name(m.name), traced - untraced);
        }
        let spans = tracer.spans();
        out.set("trace.spans", spans.len() as f64);
        let path = half
            .work_dir
            .with_file_name(format!("{workload}-seed{}.spans.jsonl", half.seed));
        match tracer.write_jsonl(&path) {
            Ok(()) => eprintln!(
                "sas-perfbench: {} spans written to {}",
                spans.len(),
                path.display()
            ),
            Err(e) => eprintln!(
                "sas-perfbench: cannot write spans to {}: {e}",
                path.display()
            ),
        }
        out.attempted += plain.attempted;
        out.failed += plain.failed;
        out.problems.extend(plain.problems);
        let _ = std::fs::remove_dir_all(&half.work_dir);
        (out, report::PER_LAYER)
    } else {
        let out = measure(&ctx, &Tracer::new(false));
        let _ = std::fs::remove_dir_all(&ctx.work_dir);
        (out, report::END_TO_END)
    };

    for (name, v) in &outcome.values {
        eprintln!("  {name:<36} {v:.6}");
    }
    eprintln!(
        "  attempted {} failed {}",
        outcome.attempted, outcome.failed
    );
    for p in outcome.problems.iter().take(20) {
        eprintln!("  EXACTNESS FAILURE: {p}");
    }
    match report::render(&outcome, catalogue) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("sas-perfbench: {e}");
            return ExitCode::from(2);
        }
    }
    if outcome.problems.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The per-layer name carrying an end-to-end metric's tracing overhead.
fn overhead_name(e2e: &str) -> &'static str {
    report::PER_LAYER
        .iter()
        .find(|m| m.name.strip_prefix("overhead.") == Some(e2e))
        .map(|m| m.name)
        .unwrap_or_else(|| panic!("no overhead metric for {e2e}"))
}

/// A deterministic permutation of `items` driven by `seed` (Fisher–Yates
/// over the `sas-ptest` SplitMix64 stream).
pub fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut rng = sas_ptest::Rng::new(seed);
    for i in (1..items.len()).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        items.swap(i, j);
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn every_end_to_end_metric_has_an_overhead_metric() {
        for m in crate::report::END_TO_END {
            let o = super::overhead_name(m.name);
            let layer = crate::report::PER_LAYER
                .iter()
                .find(|l| l.name == o)
                .unwrap();
            assert_eq!(layer.unit, m.unit);
        }
    }

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let mut a: Vec<u32> = (0..75).collect();
        let mut b = a.clone();
        super::shuffle(&mut a, 7);
        super::shuffle(&mut b, 7);
        assert_eq!(a, b);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..75).collect::<Vec<_>>());
        let mut c: Vec<u32> = (0..75).collect();
        super::shuffle(&mut c, 8);
        assert_ne!(a, c);
    }
}
