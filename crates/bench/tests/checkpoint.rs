//! The bench-layer checkpoint/warm-fork protocol, end to end in-process:
//! resume is bit-identical, torn temp files are cleaned, corrupt
//! checkpoints degrade to replay-from-start, and warmed-baseline images are
//! created by the baseline cell and forked by every other mitigation.
//!
//! The protocol is driven by process-global environment variables, so every
//! test serializes on one lock and clears its variables before releasing it.

use sas_bench::checkpoint::{
    self, CHECKPOINT_ENV, CHECKPOINT_EVERY_ENV, WARM_BASE_ENV, WARM_CYCLES_ENV,
};
use sas_pipeline::{RunExit, RunResult, System};
use specasan::{build_system, chaos, Mitigation, SimConfig};
use std::path::PathBuf;
use std::sync::{Mutex, OnceLock};

const BUDGET: u64 = 1_000_000_000;

fn env_lock() -> &'static Mutex<()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
}

/// Clears every checkpoint-protocol variable (panic-safe via Drop).
struct EnvGuard;
impl Drop for EnvGuard {
    fn drop(&mut self) {
        for var in [CHECKPOINT_ENV, CHECKPOINT_EVERY_ENV, WARM_BASE_ENV, WARM_CYCLES_ENV] {
            std::env::remove_var(var);
        }
    }
}

/// A deterministic chaos-schedule program that runs long enough to cross
/// several checkpoint/warmup boundaries (picked once, reused everywhere).
fn subject_seed() -> u64 {
    static SEED: OnceLock<u64> = OnceLock::new();
    *SEED.get_or_init(|| {
        (0..64)
            .map(chaos::campaign_seed)
            .find(|&s| {
                // The tests run it under several mitigations: it must halt
                // cleanly (and slowly enough) under all of them.
                [Mitigation::Unsafe, Mitigation::SpecAsan, Mitigation::Fence].iter().all(|&m| {
                    let mut sys = subject(s, m);
                    let run = sys.run(BUDGET);
                    matches!(run.exit, RunExit::Halted) && run.cycles > 400
                })
            })
            .expect("some chaos program must halt after 400+ cycles under every mitigation")
    })
}

fn subject(seed: u64, m: Mitigation) -> System {
    build_system(&SimConfig::table2(), chaos::campaign_program(seed), m)
}

/// Everything a run's outcome is compared on: exit, absolute cycles, and
/// the cumulative core/memory statistics.
fn digest(run: &RunResult) -> (String, u64, String, String) {
    (
        format!("{:?}", run.exit),
        run.cycles,
        format!("{:?}", run.core_stats),
        format!("{:?}", run.mem_stats),
    )
}

fn state_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sas-bench-ckpt-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn resume_from_a_mid_run_checkpoint_is_bit_identical() {
    let _g = env_lock().lock().unwrap();
    let _env = EnvGuard;
    let seed = subject_seed();
    let reference = subject(seed, Mitigation::Unsafe).run(BUDGET);
    let ckpt = state_dir("resume").join("cell.ckpt.snap");

    // Simulate the crashed first attempt: run partway, checkpoint, drop.
    let mut first = subject(seed, Mitigation::Unsafe);
    first.run(reference.cycles / 2);
    specasan::snapshot::write_system_snapshot(&first, &ckpt, false).unwrap();
    drop(first);

    // The retry resumes from the checkpoint and must finish identically.
    std::env::set_var(CHECKPOINT_ENV, &ckpt);
    std::env::set_var(CHECKPOINT_EVERY_ENV, "50");
    let mut retry = subject(seed, Mitigation::Unsafe);
    let sr = checkpoint::run_supervised(&mut retry, BUDGET);
    assert!(sr.restored, "the retry must restore the checkpoint");
    assert_eq!(digest(&sr.run), digest(&reference), "resumed run must be bit-identical");
    assert!(!ckpt.exists(), "a completed cell must drop its checkpoint");
}

#[test]
fn torn_tmp_only_snapshot_falls_back_to_cold_start_and_cleans_it() {
    let _g = env_lock().lock().unwrap();
    let _env = EnvGuard;
    let seed = subject_seed();
    let reference = subject(seed, Mitigation::Unsafe).run(BUDGET);
    let ckpt = state_dir("torn").join("cell.ckpt.snap");
    // The kill landed mid-write: only the staging temp exists, half-written.
    let tmp = sas_snap::temp_path(&ckpt);
    std::fs::write(&tmp, b"SASNAP\x00\x01 torn mid-write").unwrap();

    std::env::set_var(CHECKPOINT_ENV, &ckpt);
    std::env::set_var(CHECKPOINT_EVERY_ENV, "100");
    let mut sys = subject(seed, Mitigation::Unsafe);
    let sr = checkpoint::run_supervised(&mut sys, BUDGET);
    assert!(!sr.restored, "a torn temp is not a checkpoint — cold start");
    assert!(!tmp.exists(), "the stale temp must be cleaned up");
    assert_eq!(digest(&sr.run), digest(&reference), "fallback must replay from the start");
}

#[test]
fn corrupt_checkpoint_degrades_to_replay_from_start() {
    let _g = env_lock().lock().unwrap();
    let _env = EnvGuard;
    let seed = subject_seed();
    let reference = subject(seed, Mitigation::Unsafe).run(BUDGET);
    let ckpt = state_dir("corrupt").join("cell.ckpt.snap");

    let mut partial = subject(seed, Mitigation::Unsafe);
    partial.run(reference.cycles / 2);
    specasan::snapshot::write_system_snapshot(&partial, &ckpt, false).unwrap();
    // Flip one payload byte: the CRC check must reject the whole image.
    let mut bytes = std::fs::read(&ckpt).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&ckpt, bytes).unwrap();

    std::env::set_var(CHECKPOINT_ENV, &ckpt);
    std::env::set_var(CHECKPOINT_EVERY_ENV, "100");
    let mut sys = subject(seed, Mitigation::Unsafe);
    let sr = checkpoint::run_supervised(&mut sys, BUDGET);
    assert!(!sr.restored, "a corrupt checkpoint must never be resumed");
    assert!(!ckpt.exists(), "the rejected checkpoint must be deleted");
    assert_eq!(digest(&sr.run), digest(&reference), "degraded run must replay from the start");
}

#[test]
fn warm_baseline_image_is_created_once_and_forked_by_mitigations() {
    let _g = env_lock().lock().unwrap();
    let _env = EnvGuard;
    let seed = subject_seed();
    let warm = state_dir("warm").join("warm-subject.snap");
    std::env::set_var(WARM_BASE_ENV, &warm);
    std::env::set_var(WARM_CYCLES_ENV, "100");

    // The baseline cell runs warmup cold and writes the shared image.
    let mut base = subject(seed, Mitigation::Unsafe);
    let base_run = checkpoint::run_supervised(&mut base, BUDGET);
    assert!(!base_run.restored, "the baseline itself starts cold");
    assert!(matches!(base_run.run.exit, RunExit::Halted), "{:?}", base_run.run.exit);
    assert!(warm.exists(), "the baseline must leave a warm image behind");

    // Every mitigation cell forks from it — and still computes the same
    // architectural result as its own cold run.
    for m in [Mitigation::SpecAsan, Mitigation::Fence] {
        let mut forked = subject(seed, m);
        let sr = checkpoint::run_supervised(&mut forked, BUDGET);
        assert!(sr.restored, "{m:?} must fork from the warm image");
        assert!(matches!(sr.run.exit, RunExit::Halted), "{:?}", sr.run.exit);
        // The fork changes microarchitectural history, never architecture:
        // the forked run computes exactly what the cold run computes.
        for r in [sas_isa::Reg::X0, sas_isa::Reg::X1, sas_isa::Reg::X2, sas_isa::Reg::X3] {
            assert_eq!(forked.core(0).reg(r), subject_final_reg(seed, m, r), "{m:?} {r:?}");
        }
    }
    assert!(warm.exists(), "warm images are shared — mitigation cells must not delete them");
}

/// The final value of `r` after a cold uninterrupted run under `m`.
fn subject_final_reg(seed: u64, m: Mitigation, r: sas_isa::Reg) -> u64 {
    let mut sys = subject(seed, m);
    sys.run(BUDGET);
    sys.core(0).reg(r)
}

/// Snapshots carry only the pages a run materialised, never the program's
/// initial image: a freshly built multi-MiB SPEC system snapshots small,
/// and restores onto a fresh build to the same continuation.
#[test]
fn workload_snapshots_carry_only_materialised_pages() {
    let profile = sas_workloads::spec_suite()
        .into_iter()
        .find(|p| p.name == "505.mcf_r")
        .expect("mcf profile");
    let mut a = sas_bench::build_spec_system(&profile, Mitigation::SpecAsan, 2);
    let image: u64 = a.core(0).program().data().iter().map(|s| s.len()).sum();
    a.run(2_000);
    let bytes = specasan::snapshot::snapshot_system(&a, false).to_bytes();
    assert!(
        (bytes.len() as u64) < image / 16,
        "snapshot {} bytes for a {image}-byte image",
        bytes.len()
    );
    let mut b = sas_bench::build_spec_system(&profile, Mitigation::SpecAsan, 2);
    let snap = sas_snap::Snapshot::parse(bytes).unwrap();
    specasan::snapshot::restore_system(&mut b, &snap).unwrap();
    assert_eq!(b.mem().arch.resident_pages(), a.mem().arch.resident_pages());
    assert_eq!(digest(&a.run(u64::MAX / 2)), digest(&b.run(u64::MAX / 2)));
}
