//! The seeded differential campaign: generate, analyze, execute, classify,
//! shrink, report.
//!
//! A campaign is fully determined by `(seed, cases)`: case `i` draws its own
//! sub-seed from a `SplitMix64` stream over the campaign seed, so any single
//! case replays in isolation with `sas-fuzz one --seed <case-seed>` without
//! re-running the cases before it.

use crate::corpus::CorpusCase;
use crate::dynrun::{run_dynamic, DynOutcome};
use crate::scenario::{gen_scenario, Scenario};
use crate::verdict::{classify, Classification, Imprecision, StaticSummary};
use sas_analyze::{analyze, AnalysisConfig};
use sas_isa::{Inst, Program, Reg};
use sas_ptest::shrink::ddmin_mask;
use sas_ptest::Rng;
use sas_telemetry::json::{self, Json};
use specasan::SimConfig;
use std::time::Instant;

/// Schema tag stamped into `BENCH_lint.json`.
pub const BENCH_SCHEMA: &str = "sas-bench-lint-v1";

/// The analysis configuration the differential runs under: the shared
/// victim memory map plus `X0` as the attacker-controlled input, which is
/// what every generated shape uses as its untrusted index.
pub fn fuzz_config() -> AnalysisConfig {
    AnalysisConfig {
        attacker_regs: vec![Reg::X0],
        ..sas_analyze::xval::victim_config()
    }
}

/// Campaign parameters.
#[derive(Debug, Clone)]
pub struct Campaign {
    /// Master seed; every case seed derives from it.
    pub seed: u64,
    /// Number of cases to run.
    pub cases: u32,
    /// ddmin probe budget per disagreement (each probe re-analyzes and
    /// re-executes a candidate).
    pub shrink_budget: u32,
}

impl Default for Campaign {
    fn default() -> Campaign {
        Campaign { seed: 0xC0FFEE, cases: 500, shrink_budget: 400 }
    }
}

/// Derives the self-contained seed for case `index`.
pub fn case_seed_of(seed: u64, index: u32) -> u64 {
    // Golden-ratio stride keeps neighbouring indices in distant SplitMix64
    // streams, so truncating `cases` never changes earlier cases.
    Rng::new(seed ^ (index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)).next_u64()
}

/// One executed differential case.
#[derive(Debug, Clone)]
pub struct CaseResult {
    /// Position in the campaign.
    pub index: u32,
    /// The case's own replay seed.
    pub case_seed: u64,
    /// The generated scenario.
    pub scenario: Scenario,
    /// Static half of the differential.
    pub statics: StaticSummary,
    /// Dynamic half of the differential.
    pub dynamics: DynOutcome,
    /// Where the pair landed.
    pub classification: Classification,
}

/// Generates and runs a single case from its seed.
pub fn run_case(sim: &SimConfig, acfg: &AnalysisConfig, index: u32, case_seed: u64) -> CaseResult {
    let mut rng = Rng::new(case_seed);
    let scenario = gen_scenario(sim, &mut rng);
    let statics = StaticSummary::of(&analyze(&scenario.program, acfg));
    let dynamics = run_dynamic(scenario.kind, sim, &scenario.program);
    let classification = classify(scenario.intent, &statics, &dynamics);
    CaseResult { index, case_seed, scenario, statics, dynamics, classification }
}

/// Per-bucket counters over a whole campaign.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Both sides clean.
    pub agree_clean: u64,
    /// Both sides leak.
    pub agree_leak: u64,
    /// ◑ latent-input cases.
    pub latent_input: u64,
    /// ◑ non-cache-channel cases.
    pub non_cache_channel: u64,
    /// ◑ no-misspeculation cases.
    pub no_misspeculation: u64,
    /// ◑ window-timing cases.
    pub window_timing: u64,
    /// Leak-but-unflagged cases (campaign failures).
    pub soundness_bugs: u64,
    /// Flagged-but-safe cases (campaign failures).
    pub precision_bugs: u64,
}

impl Tally {
    /// Adds one classification.
    pub fn add(&mut self, c: Classification) {
        match c {
            Classification::AgreeClean => self.agree_clean += 1,
            Classification::AgreeLeak => self.agree_leak += 1,
            Classification::Known(Imprecision::LatentInput) => self.latent_input += 1,
            Classification::Known(Imprecision::NonCacheChannel) => self.non_cache_channel += 1,
            Classification::Known(Imprecision::NoMisspeculation) => self.no_misspeculation += 1,
            Classification::Known(Imprecision::WindowTiming) => self.window_timing += 1,
            Classification::SoundnessBug => self.soundness_bugs += 1,
            Classification::PrecisionBug => self.precision_bugs += 1,
        }
    }

    /// Exact agreements.
    pub fn agree(&self) -> u64 {
        self.agree_clean + self.agree_leak
    }

    /// Documented ◑ imprecisions.
    pub fn known(&self) -> u64 {
        self.latent_input + self.non_cache_channel + self.no_misspeculation + self.window_timing
    }

    /// Campaign-failing disagreements.
    pub fn unexplained(&self) -> u64 {
        self.soundness_bugs + self.precision_bugs
    }
}

/// One campaign-failing case, minimized and ready for the corpus.
#[derive(Debug, Clone)]
pub struct Disagreement {
    /// The offending case (original, un-minimized program inside).
    pub case: CaseResult,
    /// ddmin-minimized program preserving the classification.
    pub minimized: Program,
}

impl Disagreement {
    /// Converts the finding into a corpus entry pinning the *current*
    /// (dis)agreeing verdicts, so it fails replay until the analyzer is
    /// fixed and the expectations are re-pinned.
    pub fn to_corpus_case(&self, note: &str) -> CorpusCase {
        CorpusCase {
            shape: self.case.scenario.kind,
            intent: self.case.scenario.intent,
            case_seed: Some(self.case.case_seed),
            expect_static_flagged: self.case.statics.flagged(),
            expect_dynamic_leak: self.case.dynamics.leaked,
            note: Some(format!("{} [{}]", note, self.case.classification.token())),
            program: self.minimized.clone(),
        }
    }
}

/// Full campaign outcome.
#[derive(Debug, Clone)]
pub struct Report {
    /// Master seed.
    pub seed: u64,
    /// Cases run.
    pub cases: u32,
    /// Bucket counters.
    pub tally: Tally,
    /// Minimized campaign failures, in case order.
    pub disagreements: Vec<Disagreement>,
    /// Wall time spent inside `analyze()` only.
    pub analyze_secs: f64,
    /// Wall time for the whole campaign.
    pub total_secs: f64,
}

impl Report {
    /// Static-analysis throughput over the campaign.
    pub fn programs_per_sec(&self) -> f64 {
        if self.analyze_secs > 0.0 {
            self.cases as f64 / self.analyze_secs
        } else {
            0.0
        }
    }

    /// Human-readable summary with replay hints for every failure.
    pub fn render_text(&self) -> String {
        let t = &self.tally;
        let mut s = format!(
            "sas-fuzz campaign: seed={:#x} cases={}\n\
             agreements\n\
             agree-clean          {:>7}\n\
             agree-leak           {:>7}\n\
             known imprecisions (\u{25d1})\n\
             latent-input         {:>7}\n\
             non-cache-channel    {:>7}\n\
             no-misspeculation    {:>7}\n\
             window-timing        {:>7}\n\
             unexplained\n\
             SOUNDNESS-BUG        {:>7}\n\
             PRECISION-BUG        {:>7}\n\
             analyze throughput   {:>11.0} programs/sec\n",
            self.seed,
            self.cases,
            t.agree_clean,
            t.agree_leak,
            t.latent_input,
            t.non_cache_channel,
            t.no_misspeculation,
            t.window_timing,
            t.soundness_bugs,
            t.precision_bugs,
            self.programs_per_sec(),
        );
        for d in &self.disagreements {
            s.push_str(&format!(
                "  {} case {} shape={} intent={} static={} dynamic={} ({} insts minimized)\n\
                 \x20   replay: sas-fuzz one --seed {:#x}\n",
                d.case.classification.token(),
                d.case.index,
                d.case.scenario.kind.token(),
                d.case.scenario.intent.token(),
                if d.case.statics.flagged() { "flagged" } else { "clean" },
                if d.case.dynamics.leaked { "leak" } else { "clean" },
                d.minimized.insts().iter().filter(|i| !matches!(i, Inst::Nop)).count(),
                d.case.case_seed,
            ));
        }
        if self.tally.unexplained() == 0 {
            s.push_str("  zero unexplained disagreements\n");
        }
        s
    }

    /// Serializes the machine-readable benchmark artifact.
    pub fn bench_json(&self) -> String {
        let t = &self.tally;
        format!(
            "{{\n  \"schema\": \"{BENCH_SCHEMA}\",\n  \"seed\": \"{:#x}\",\n  \"cases\": {},\n  \
             \"agree_clean\": {},\n  \"agree_leak\": {},\n  \"known_latent_input\": {},\n  \
             \"known_non_cache_channel\": {},\n  \"known_no_misspeculation\": {},\n  \
             \"known_window_timing\": {},\n  \"soundness_bugs\": {},\n  \"precision_bugs\": {},\n  \
             \"analyze_secs\": {:.6},\n  \"total_secs\": {:.6},\n  \
             \"analyze_programs_per_sec\": {:.1}\n}}\n",
            self.seed,
            self.cases,
            t.agree_clean,
            t.agree_leak,
            t.latent_input,
            t.non_cache_channel,
            t.no_misspeculation,
            t.window_timing,
            t.soundness_bugs,
            t.precision_bugs,
            self.analyze_secs,
            self.total_secs,
            self.programs_per_sec(),
        )
    }
}

/// Validates a `BENCH_lint.json` body: schema tag, seed, and every counter
/// as a number.
pub fn validate_bench(body: &str) -> Result<(), String> {
    let doc = json::parse(body)?;
    if doc.get("schema").and_then(Json::as_str) != Some(BENCH_SCHEMA) {
        return Err(format!("missing or wrong schema tag (want {BENCH_SCHEMA})"));
    }
    doc.get("seed").and_then(Json::as_str).ok_or("missing key \"seed\"")?;
    for key in [
        "cases",
        "agree_clean",
        "agree_leak",
        "known_latent_input",
        "known_non_cache_channel",
        "known_no_misspeculation",
        "known_window_timing",
        "soundness_bugs",
        "precision_bugs",
        "analyze_programs_per_sec",
    ] {
        doc.get(key).and_then(Json::as_num).ok_or(format!("missing key \"{key}\""))?;
    }
    Ok(())
}

/// Shrinks a disagreeing case: NOPs out every instruction that is not
/// needed to reproduce the same classification. `HALT`s are pinned so the
/// candidate always terminates, and the generator's safety skeleton is
/// pinned so a safe shape stays safe-by-construction while shrinking.
pub fn shrink_case(sim: &SimConfig, acfg: &AnalysisConfig, r: &CaseResult, budget: u32) -> Program {
    let program = &r.scenario.program;
    let mut protected: Vec<usize> = program
        .insts()
        .iter()
        .enumerate()
        .filter(|(_, i)| matches!(i, Inst::Halt))
        .map(|(i, _)| i)
        .collect();
    protected.extend_from_slice(&r.scenario.pinned);
    let mut probes = 0u32;
    let mask = ddmin_mask(program.len(), &protected, |cand| {
        if probes >= budget {
            return None;
        }
        probes += 1;
        let p = program.with_nops(cand);
        let statics = StaticSummary::of(&analyze(&p, acfg));
        let dynamics = run_dynamic(r.scenario.kind, sim, &p);
        Some(classify(r.scenario.intent, &statics, &dynamics) == r.classification)
    });
    program.with_nops(&mask)
}

/// Runs the full campaign.
pub fn run_campaign(c: &Campaign) -> Report {
    let sim = SimConfig::table2();
    let acfg = fuzz_config();
    let started = Instant::now();
    let mut analyze_secs = 0.0f64;
    let mut tally = Tally::default();
    let mut disagreements = Vec::new();
    for index in 0..c.cases {
        let case_seed = case_seed_of(c.seed, index);
        // Re-time the analyze half here so the throughput figure excludes
        // generation and simulation.
        let mut rng = Rng::new(case_seed);
        let scenario = gen_scenario(&sim, &mut rng);
        let t0 = Instant::now();
        let analysis = analyze(&scenario.program, &acfg);
        analyze_secs += t0.elapsed().as_secs_f64();
        let statics = StaticSummary::of(&analysis);
        let dynamics = run_dynamic(scenario.kind, &sim, &scenario.program);
        let classification = classify(scenario.intent, &statics, &dynamics);
        tally.add(classification);
        let r = CaseResult { index, case_seed, scenario, statics, dynamics, classification };
        if classification.unexplained() {
            let minimized = shrink_case(&sim, &acfg, &r, c.shrink_budget);
            disagreements.push(Disagreement { case: r, minimized });
        }
    }
    Report {
        seed: c.seed,
        cases: c.cases,
        tally,
        disagreements,
        analyze_secs,
        total_secs: started.elapsed().as_secs_f64(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn case_seeds_are_stable_and_independent_of_case_count() {
        assert_eq!(case_seed_of(7, 0), case_seed_of(7, 0));
        assert_ne!(case_seed_of(7, 0), case_seed_of(7, 1));
        assert_ne!(case_seed_of(7, 0), case_seed_of(8, 0));
    }

    #[test]
    fn a_case_replays_identically_from_its_seed() {
        let sim = SimConfig::table2();
        let acfg = fuzz_config();
        let seed = case_seed_of(0xC0FFEE, 3);
        let a = run_case(&sim, &acfg, 3, seed);
        let b = run_case(&sim, &acfg, 3, seed);
        assert_eq!(a.scenario.program.insts(), b.scenario.program.insts());
        assert_eq!(a.classification, b.classification);
        assert_eq!(a.dynamics.leaked, b.dynamics.leaked);
    }

    #[test]
    fn bench_json_round_trips_the_validator() {
        let rep = Report {
            seed: 0xC0FFEE,
            cases: 10,
            tally: Tally { agree_clean: 6, agree_leak: 4, ..Tally::default() },
            disagreements: Vec::new(),
            analyze_secs: 0.01,
            total_secs: 0.5,
        };
        validate_bench(&rep.bench_json()).unwrap();
        assert!(validate_bench("{}").is_err());
    }

    #[test]
    fn tally_buckets_partition_the_cases() {
        let mut t = Tally::default();
        for c in [
            Classification::AgreeClean,
            Classification::AgreeLeak,
            Classification::Known(Imprecision::LatentInput),
            Classification::SoundnessBug,
            Classification::PrecisionBug,
        ] {
            t.add(c);
        }
        assert_eq!(t.agree(), 2);
        assert_eq!(t.known(), 1);
        assert_eq!(t.unexplained(), 2);
        assert_eq!(t.agree() + t.known() + t.unexplained(), 5);
    }
}
