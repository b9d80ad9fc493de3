//! Property tests for the static analyzer, driven by the internal
//! `sas-ptest` harness.

use sas_analyze::{analyze, harden, insert_barriers, AnalysisConfig};
use sas_isa::{Program, ProgramBuilder, Reg};
use sas_ptest::{check, gens};

fn acfg() -> AnalysisConfig {
    AnalysisConfig {
        protected: vec![(0x9000, 0xA000)],
        granule_tags: vec![(0x2000, 16, 3), (0x2100, 16, 9)],
        attacker_regs: vec![Reg::X1],
        ..AnalysisConfig::default()
    }
}

/// Replaces every memory access (and cache flush) with a NOP, keeping the
/// program's length and branch structure intact.
fn without_memory_ops(program: &Program) -> Program {
    let mut asm = ProgramBuilder::new();
    for pc in 0..program.len() {
        let inst = program.fetch(pc).expect("in range");
        if inst.is_load() || inst.is_store() || inst.addr_operands().is_some() {
            asm.nop();
        } else {
            asm.push(inst);
        }
    }
    asm.entry(program.entry());
    asm.build().expect("same-shape rebuild")
}

#[test]
fn analyzer_never_panics_and_covers_the_entry() {
    check("analyzer_never_panics", 96, |rng| {
        let program = gens::terminating_program(8..40).sample(rng);
        let analysis = analyze(&program, &acfg());
        // Findings must anchor to real instructions.
        for f in &analysis.findings {
            assert!(f.pc < program.len(), "finding at {} out of range", f.pc);
        }
    });
}

#[test]
fn programs_without_memory_accesses_have_no_findings() {
    check("no_memory_no_findings", 96, |rng| {
        let program = without_memory_ops(&gens::terminating_program(8..40).sample(rng));
        let analysis = analyze(&program, &acfg());
        assert!(
            analysis.findings.is_empty(),
            "memory-free program produced {:?}",
            analysis.findings
        );
    });
}

#[test]
fn suggested_cut_set_is_a_fixpoint() {
    check("harden_fixpoint", 48, |rng| {
        let program = gens::terminating_program(8..32).sample(rng);
        let hardened = harden(&program, &acfg()).expect("harden converges");
        assert_eq!(
            analyze(&hardened.program, &acfg()).gadget_count(),
            0,
            "hardened program still has gadgets (cuts {:?})",
            hardened.cuts
        );
        // Re-applying the same cut set to the original program reproduces a
        // gadget-free result: the suggestion is stable, not run-dependent.
        let (again, _) = insert_barriers(&program, &hardened.cuts);
        assert_eq!(analyze(&again, &acfg()).gadget_count(), 0);
    });
}

/// Blocks reachable from the CFG entry, optionally pretending `avoid` has
/// been deleted from the graph (the brute-force dominance oracle).
fn reachable_blocks(cfg: &sas_analyze::cfg::Cfg, entry: usize, avoid: Option<usize>) -> Vec<bool> {
    let mut seen = vec![false; cfg.blocks.len()];
    if Some(entry) == avoid {
        return seen;
    }
    let mut stack = vec![entry];
    seen[entry] = true;
    while let Some(b) = stack.pop() {
        for &s in &cfg.succs[b] {
            if Some(s) != avoid && !seen[s] {
                seen[s] = true;
                stack.push(s);
            }
        }
    }
    seen
}

#[test]
fn dominators_match_the_path_cutting_oracle() {
    check("dominator_soundness", 64, |rng| {
        let program = gens::terminating_program(8..40).sample(rng);
        let cfg = sas_analyze::cfg::Cfg::build(&program);
        let entry = cfg.block_of(program.entry().min(program.len() - 1)).unwrap();
        let reach = reachable_blocks(&cfg, entry, None);
        for a in 0..cfg.blocks.len() {
            if !reach[a] {
                continue;
            }
            let without_a = reachable_blocks(&cfg, entry, Some(a));
            for b in 0..cfg.blocks.len() {
                if !reach[b] {
                    continue;
                }
                // `a dom b` ⟺ removing `a` cuts every entry→b path.
                let oracle = a == b || !without_a[b];
                assert_eq!(
                    cfg.dominates(a, b),
                    oracle,
                    "dominates({a}, {b}) disagrees with the path oracle\n{}",
                    program.listing()
                );
            }
        }
    });
}

#[test]
fn rpo_is_a_total_order_on_reachable_blocks() {
    check("rpo_totality", 64, |rng| {
        let program = gens::terminating_program(8..40).sample(rng);
        let cfg = sas_analyze::cfg::Cfg::build(&program);
        let entry = cfg.block_of(program.entry().min(program.len() - 1)).unwrap();
        let reach = reachable_blocks(&cfg, entry, None);
        let expected: Vec<usize> = (0..cfg.blocks.len()).filter(|&b| reach[b]).collect();
        let mut seen = cfg.rpo.clone();
        seen.sort_unstable();
        assert_eq!(seen, expected, "rpo must list each reachable block exactly once");
        assert_eq!(cfg.rpo.first().copied(), Some(entry), "rpo starts at the entry block");
        // Tree edges respect the order: every reachable non-entry block's
        // immediate dominator precedes it in RPO.
        let pos: std::collections::HashMap<usize, usize> =
            cfg.rpo.iter().enumerate().map(|(i, &b)| (b, i)).collect();
        for &b in &cfg.rpo {
            if b == entry {
                continue;
            }
            let d = cfg.idom[b];
            assert!(pos[&d] < pos[&b], "idom[{b}]={d} must precede {b} in RPO");
        }
    });
}

/// `lock_of` one granule at a time: the definition `lock_covers` must
/// reproduce (stepping with `checked_add`, so ranges ending near
/// `u64::MAX` terminate).
fn granule_walk(acfg: &AnalysisConfig, lo: u64, hi: u64, key: u8) -> bool {
    let mut g = lo & !0xF;
    while g < hi {
        if acfg.lock_of(g) != key {
            return false;
        }
        match g.checked_add(16) {
            Some(next) => g = next,
            None => break,
        }
    }
    true
}

#[test]
fn interval_lock_check_matches_the_granule_walk() {
    let outcomes = std::cell::Cell::new([0u32; 2]);
    check("lock_covers_matches_granule_walk", 3000, |rng| {
        // Everything lives in one 2 KiB window, low in the address space or
        // flush against `u64::MAX`, so ranges overlap, nest and saturate.
        let anchor = if rng.chance(0.5) { 0x2000 } else { u64::MAX - 0x7FF };
        let near = |rng: &mut sas_ptest::Rng| anchor + rng.below(0x800);
        let granule_tags = (0..rng.below(7))
            .map(|_| {
                let base = if rng.chance(0.5) { near(rng) & !0xF } else { near(rng) };
                let len = match rng.below(8) {
                    0 => 0,
                    1 => u64::MAX,
                    _ => rng.below(0x200),
                };
                (base, len, rng.below(16) as u8)
            })
            .collect();
        let acfg = AnalysisConfig { granule_tags, ..AnalysisConfig::default() };
        let lo = near(rng);
        // (The reference walk is linear, so only the high window may run
        // its range all the way to the top.)
        let hi = match rng.below(6) {
            0 if anchor > 0x2000 => u64::MAX,
            1 => lo.saturating_sub(rng.below(0x40)),
            _ => lo.saturating_add(rng.below(0x400)),
        };
        // Mostly ask for the first granule's own lock, so the check has to
        // walk the whole range rather than fail at its start.
        let key = if rng.chance(0.75) { acfg.lock_of(lo) } else { rng.below(16) as u8 };
        let want = granule_walk(&acfg, lo, hi, key);
        assert_eq!(
            acfg.lock_covers(lo, hi, key),
            want,
            "lo={lo:#x} hi={hi:#x} key={key} tags={:x?}",
            acfg.granule_tags
        );
        let mut seen = outcomes.get();
        seen[usize::from(want)] += 1;
        outcomes.set(seen);
    });
    let [covered_not, covered] = outcomes.get();
    assert!(covered_not > 100 && covered > 100, "outcomes {:?}", outcomes.get());
}
