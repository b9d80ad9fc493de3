//! `fuzz-audit`: a seeded `sas-fuzz` differential campaign. Each case is
//! scenario synthesis → `sas_analyze::analyze` → dynamic leak-oracle run on
//! the simulator → classification — the parts `sas_fuzz::run_campaign`
//! composes, called here one by one so each case can be timed.
//!
//! * Operation: one whole case.
//! * Work: cases; `work_per_s` is cases per second.
//! * Set-up: per batch of 256 cases, the simulator and analysis
//!   configurations plus one fixed warm-up case (lazy tables, first
//!   allocations), not counted as a case.
//! * Failures: a case that panics.
//! * Exactness: zero unexplained static/dynamic disagreements, and the
//!   first cases classify exactly as `sas_fuzz::run_campaign` does.

use crate::report::Outcome;
use crate::stats::{median, Summary};
use crate::trace::{self, Tracer};
use crate::Ctx;
use sas_fuzz::campaign::{case_seed_of, Tally};
use sas_fuzz::dynrun::run_dynamic;
use sas_fuzz::scenario::gen_scenario;
use sas_fuzz::verdict::{classify, StaticSummary};
use sas_fuzz::{fuzz_config, Classification};
use sas_ptest::Rng;
use specasan::SimConfig;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Cases per batch; every batch sets up afresh.
const BATCH: u32 = 256;
/// Seed of the warm-up case each set-up runs: fixed, so set-up time does
/// not depend on which scenario the workload seed would have drawn.
const WARM_UP_CASE: u64 = 0x5EED;
/// Cases re-run through `sas_fuzz::run_campaign` after the timed phase.
const CROSS_CHECK: u32 = 64;

/// Measures whole cases until the budget is spent.
pub fn measure(ctx: &Ctx, tracer: &Tracer) -> Outcome {
    let mut out = Outcome::default();
    let mut setups = Vec::new();
    let mut case_ms = Vec::new();
    let mut tally = Tally::default();
    let mut classes: Vec<Classification> = Vec::new();
    let mut findings = 0usize;
    let started = Instant::now();
    let mut index = 0u32;
    'run: loop {
        // Each batch sets up afresh; timing it apart from the cases spreads
        // the set-up samples over the whole run.
        let t0 = Instant::now();
        let sim = SimConfig::table2();
        let acfg = fuzz_config();
        std::hint::black_box(sas_fuzz::campaign::run_case(&sim, &acfg, 0, WARM_UP_CASE));
        setups.push(t0.elapsed().as_secs_f64());
        for _ in 0..BATCH {
            if !case_ms.is_empty() && started.elapsed() >= ctx.budget {
                break 'run;
            }
            let request = u64::from(index);
            let case_seed = case_seed_of(ctx.seed, index);
            index += 1;
            let t0 = Instant::now();
            let case = catch_unwind(AssertUnwindSafe(|| {
                let top = tracer.open("fuzz.case", None, request);
                let scenario = tracer.span("fuzz.generate", top, request, || {
                    gen_scenario(&sim, &mut Rng::new(case_seed))
                });
                let analysis = tracer.span("analyze.analyze", top, request, || {
                    sas_analyze::analyze(&scenario.program, &acfg)
                });
                let dynamics = tracer.span("fuzz.dynrun", top, request, || {
                    run_dynamic(scenario.kind, &sim, &scenario.program)
                });
                let class = tracer.span("fuzz.classify", top, request, || {
                    classify(scenario.intent, &StaticSummary::of(&analysis), &dynamics)
                });
                tracer.close(top);
                (class, analysis.findings.len())
            }));
            case_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            match case {
                Ok((class, n)) => {
                    tally.add(class);
                    classes.push(class);
                    findings += n;
                }
                Err(_) => {
                    out.failed += 1;
                    out.problem(format!("case {} (seed {case_seed:#x}) panicked", index - 1));
                }
            }
        }
    }
    let cases = case_ms.len();
    out.attempted = cases as u64;

    // Exactness, outside the timed region.
    if tally.unexplained() > 0 {
        out.problem(format!(
            "{} unexplained static/dynamic disagreement(s)",
            tally.unexplained()
        ));
    }
    let n = CROSS_CHECK.min(classes.len() as u32);
    let library = sas_fuzz::run_campaign(&sas_fuzz::Campaign {
        seed: ctx.seed,
        cases: n,
        ..Default::default()
    });
    let mut mine = Tally::default();
    classes.iter().take(n as usize).for_each(|c| mine.add(*c));
    if library.tally != mine {
        out.problem(format!(
            "first {n} cases: run_campaign tallies {:?}, mirror {mine:?}",
            library.tally
        ));
    }

    let lat = Summary::of(&case_ms).expect("cases ran");
    let total_s: f64 = case_ms.iter().sum::<f64>() / 1e3;
    eprintln!(
        "  {cases} cases: p50 {:.3} ms, p99 {:.3} ms ({} beyond p99); {tally:?}",
        lat.p50, lat.p99, lat.beyond_p99
    );
    out.set("setup_s", median(&setups).expect("set-ups ran"));
    out.set("work_per_s", cases as f64 / total_s);
    out.set("op_p50_ms", lat.p50);
    out.set("op_p99_ms", lat.p99);
    out.set("peak_rss_mb", crate::peak_rss_mb());

    if tracer.enabled() {
        let spans = tracer.spans();
        let per_case_us = |name| trace::total_ms(&spans, name).0 * 1e3 / cases as f64;
        let analyze = per_case_us("analyze.analyze");
        out.set("fuzz.generate_us", per_case_us("fuzz.generate"));
        out.set("analyze.analyze_us", analyze);
        out.set("fuzz.dynrun_us", per_case_us("fuzz.dynrun"));
        out.set("fuzz.classify_us", per_case_us("fuzz.classify"));
        out.set("analyze.case_share", analyze / per_case_us("fuzz.case"));
        out.set("analyze.findings_per_case", findings as f64 / cases as f64);
        out.set("fuzz.unexplained", tally.unexplained() as f64);
        eprintln!(
            "  case glue (self time outside the four parts): {:.1} us/case",
            trace::self_total_ms(&spans, "fuzz.case") * 1e3 / cases as f64
        );
    }
    out
}
