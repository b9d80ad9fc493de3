//! The lazily described data image of every SPEC and PARSEC workload must
//! materialise to exactly the bytes the eager generator used to draw: same
//! SplitMix64 stream, same chase ring, same guard masking. The eager
//! generator is kept here, verbatim in behaviour, as the reference.

use sas_isa::{TagNibble, VirtAddr};
use sas_mem::MainMemory;
use sas_mte::SplitMix64;
use sas_workloads::{build_parsec_workload, build_workload, parsec_suite, spec_suite, Profile};

/// Iterations do not influence the data image; keep the programs short.
const ITERS: u32 = 2;
const SEED: u64 = 0x5EED;

/// The eager reference: `(base, bytes)` per segment, drawn one generator
/// call per byte, exactly as the generator did before images became lazy.
fn eager_image(profile: &Profile, seed: u64, core: usize) -> Vec<(u64, Vec<u8>)> {
    const ARRAYS: usize = 4;
    let mut rng = SplitMix64::new(seed ^ 0x5A5A_0000 ^ core as u64);
    let array_size = (profile.footprint / ARRAYS as u64).next_power_of_two();
    let data_base = 0x100_0000 + (core as u64) * 0x1000_0000;
    let mut image = Vec::new();
    for k in 0..ARRAYS {
        let base = data_base + k as u64 * array_size;
        let tag = if rng.chance(profile.tagged_frac) {
            Some(1 + rng.below(15) as u8)
        } else {
            None
        };
        let mut bytes = vec![0u8; array_size.min(1 << 20) as usize];
        for b in bytes.iter_mut() {
            *b = rng.next_u64() as u8;
        }
        if k == 0 {
            let entries = (bytes.len() / 8).max(2);
            let mut perm: Vec<usize> = (0..entries).collect();
            for i in (1..entries).rev() {
                perm.swap(i, rng.below(i as u64 + 1) as usize);
            }
            let mut pos = vec![0usize; entries];
            for (j, &p) in perm.iter().enumerate() {
                pos[p] = j;
            }
            for i in 0..entries {
                let next = perm[(pos[i] + 1) % entries];
                let mut ptr = VirtAddr::new(base + next as u64 * 8);
                if let Some(t) = tag {
                    ptr = ptr.with_key(TagNibble::new(t));
                }
                bytes[i * 8..i * 8 + 8].copy_from_slice(&ptr.raw().to_le_bytes());
            }
        }
        image.push((base, bytes));
    }
    let guard_base = data_base + ARRAYS as u64 * array_size;
    let guard: Vec<u8> = (0..1 << 21).map(|_| (rng.next_u64() as u8) % 0x80).collect();
    image.push((guard_base, guard));
    image
}

fn assert_image_matches(name: &str, program: &sas_isa::Program, eager: &[(u64, Vec<u8>)]) {
    let segs = program.data();
    assert_eq!(segs.len(), eager.len(), "{name}: segment count");
    let mem = MainMemory::with_image(segs);
    for (seg, (base, bytes)) in segs.iter().zip(eager) {
        assert_eq!(seg.base, *base, "{name}: segment base");
        assert_eq!(seg.len(), bytes.len() as u64, "{name}: segment {base:#x} length");
        assert!(
            mem.read_bytes(VirtAddr::new(*base), bytes.len()) == *bytes,
            "{name}: segment {base:#x} differs from the eager generator"
        );
    }
    assert_eq!(mem.resident_pages(), 0, "{name}: reading materialised pages");
}

#[test]
fn spec_images_equal_the_eager_generator() {
    for p in spec_suite() {
        let w = build_workload(&p, ITERS, SEED, 0);
        assert_image_matches(p.name, &w.program, &eager_image(&p, SEED, 0));
    }
}

#[test]
fn parsec_images_equal_the_eager_generator() {
    for p in parsec_suite() {
        for (t, w) in build_parsec_workload(&p, ITERS, SEED, 4).iter().enumerate() {
            let eager = eager_image(&p, SEED ^ (t as u64) << 32, t);
            assert_image_matches(&format!("{}[{t}]", p.name), &w.program, &eager);
        }
    }
}
