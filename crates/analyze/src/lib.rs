//! # Static speculative-taint and MTE tag-discipline analysis for SAS-IR
//!
//! The dynamic side of this repo (pipeline + lockstep oracle) proves
//! leak/no-leak per mitigation by *running* a program. This crate closes the
//! loop from the other direction: the paper's premise is that transmit
//! gadgets reachable under speculation are a *statically recognizable
//! pattern* — an untrusted or transiently-obtained value flowing into the
//! address operand of a speculatively-issued access — which is exactly what
//! compiler-level defenses detect in order to place fences.
//!
//! The analysis has four parts:
//!
//! 1. **CFG construction** ([`cfg`]) — basic blocks, successors and
//!    dominators over `sas_isa::Program`, used to attribute findings to the
//!    guarding branch.
//! 2. **Speculative taint dataflow** ([`taint`]) — a forward worklist pass
//!    with constant propagation, a bounded speculative-window model covering
//!    branch-direction, fault and store-bypass (STL) mis-speculation, and a
//!    BTB/RSB scan for gadgets only reachable through indirect-branch
//!    target injection. Reports [`report::Severity::Gadget`] findings.
//! 3. **MTE tag-discipline lint** ([`mte`]) — base-pointer provenance
//!    (derived from `IRG`/`ADDG`/`SUBG`), `STG`/`ST2G` granule alignment,
//!    and key-mismatch constants vs. the granule's lock.
//! 4. **Fence suggestion** ([`harden`]) — computes an irredundant cut set
//!    of `CSDB` insertion points that kills every reported gadget.
//!
//! The `sas-lint` binary fronts all of this, and [`xval`] cross-validates
//! static verdicts against the dynamic attack suite attack-by-attack.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cfg;
pub mod harden;
pub mod mte;
pub mod report;
pub mod taint;
pub mod xval;

pub use harden::{harden, insert_barriers, HardenError, Hardened};
pub use report::{Finding, FindingKind, Severity};

use sas_isa::{Program, Reg};

/// Tuning knobs and environment facts for one analysis run.
#[derive(Debug, Clone)]
pub struct AnalysisConfig {
    /// Maximum number of instructions a mis-speculated path may execute
    /// before squash — the bounded speculative-window expansion.
    pub spec_window: u32,
    /// Fuel for the dataflow worklist (defense against pathological
    /// programs; the analysis stops early rather than spinning).
    pub max_steps: usize,
    /// Privileged address ranges `[lo, hi)`: a constant-resolved load of one
    /// of these faults, and its transiently-forwarded result is secret.
    pub protected: Vec<(u64, u64)>,
    /// Externally-installed MTE locks, as `(base, len, key)` granule
    /// ranges — the static mirror of `mem.tags.set_range` harness calls.
    pub granule_tags: Vec<(u64, u64, u8)>,
    /// Registers holding attacker-controlled values at entry.
    pub attacker_regs: Vec<Reg>,
}

impl Default for AnalysisConfig {
    fn default() -> Self {
        AnalysisConfig {
            spec_window: 64,
            max_steps: 1 << 20,
            protected: Vec::new(),
            granule_tags: Vec::new(),
            attacker_regs: Vec::new(),
        }
    }
}

impl AnalysisConfig {
    /// The MTE lock colour of the granule containing untagged address
    /// `addr`, per [`AnalysisConfig::granule_tags`] (0 when untagged).
    pub fn lock_of(&self, addr: u64) -> u8 {
        let granule = addr & !0xF;
        for &(base, len, key) in &self.granule_tags {
            if granule >= (base & !0xF) && granule < base.saturating_add(len) {
                return key;
            }
        }
        0
    }

    /// Whether every granule from `lo & !0xF` up to `hi` (exclusive) has
    /// lock `key` — exactly `lock_of(g) == key` for each such granule `g`,
    /// checked one run of equal locks at a time. Between two consecutive
    /// range edges (a granule-aligned base, or an end rounded up to the
    /// next granule) every range either covers all granules or none, so
    /// [`AnalysisConfig::lock_of`]'s first match is the same throughout.
    /// The cost is one scan of `granule_tags` per run, not per granule.
    pub fn lock_covers(&self, lo: u64, hi: u64, key: u8) -> bool {
        let mut g = lo & !0xF;
        while g < hi {
            let mut lock = None;
            // The next edge above `g`; `None` = none below 2^64.
            let mut next: Option<u64> = None;
            for &(base, len, k) in &self.granule_tags {
                let start = base & !0xF;
                let end = base.saturating_add(len);
                if lock.is_none() && g >= start && g < end {
                    lock = Some(k);
                }
                // Granule `g` is inside iff `start <= g < end`, i.e. below
                // `end` rounded up to a granule (past 2^64: no edge).
                let stop = end.checked_add(0xF).map(|e| e & !0xF);
                for edge in [Some(start), stop].into_iter().flatten() {
                    if edge > g && next.is_none_or(|n| edge < n) {
                        next = Some(edge);
                    }
                }
            }
            if lock.unwrap_or(0) != key {
                return false;
            }
            match next {
                Some(n) => g = n,
                None => return true,
            }
        }
        true
    }

    /// Whether untagged address `addr` lies in a protected range.
    pub fn is_protected(&self, addr: u64) -> bool {
        self.protected.iter().any(|&(lo, hi)| addr >= lo && addr < hi)
    }
}

/// The outcome of one [`analyze`] run.
#[derive(Debug, Clone)]
pub struct Analysis {
    /// All findings, sorted by program counter then kind.
    pub findings: Vec<Finding>,
}

impl Analysis {
    /// Findings with [`Severity::Gadget`] — the ones cross-validated
    /// against the dynamic oracle and killed by [`harden`].
    pub fn gadgets(&self) -> impl Iterator<Item = &Finding> {
        self.findings.iter().filter(|f| f.kind.severity() == Severity::Gadget)
    }

    /// Number of gadget-severity findings.
    pub fn gadget_count(&self) -> usize {
        self.gadgets().count()
    }

    /// Findings with [`Severity::Lint`] (tag-discipline diagnostics).
    pub fn lints(&self) -> impl Iterator<Item = &Finding> {
        self.findings.iter().filter(|f| f.kind.severity() == Severity::Lint)
    }
}

/// Runs the full static analysis (taint dataflow + BTB scan + MTE lints)
/// over `program` and returns every finding. Never panics on well-formed
/// programs; malformed branch targets are treated as dead edges.
pub fn analyze(program: &Program, acfg: &AnalysisConfig) -> Analysis {
    let graph = cfg::Cfg::build(program);
    let flow = taint::run(program, acfg);
    let mut findings = taint::findings(program, acfg, &flow, &graph);
    findings.extend(taint::btb_window_scan(program, acfg));
    findings.extend(mte::lint(program, acfg, &flow));
    findings.sort_by_key(|f| (f.pc, f.kind as u8));
    findings.dedup_by_key(|f| (f.pc, f.kind));
    Analysis { findings }
}
