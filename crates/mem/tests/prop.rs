//! Property tests of the memory hierarchy's invariants.

use sas_isa::{TagNibble, VirtAddr};
use sas_mem::{Cache, CacheConfig, FillMode, MemConfig, MemSystem, MshrFile};
use sas_mte::TagCheckOutcome;
use sas_ptest::{check, gen, gens};

fn tiny_cache() -> Cache {
    Cache::new(CacheConfig { size_bytes: 1024, ways: 2, hit_latency: 1, tagged: true })
}

#[test]
fn cache_residency_never_exceeds_capacity() {
    check("cache_residency_never_exceeds_capacity", 192, |rng| {
        let lines = gen::vec_of(&gen::u64s(0..256), 1..200).sample(rng);
        let mut c = tiny_cache();
        for l in lines {
            c.install(VirtAddr::new(l * 64), [TagNibble::ZERO; 4], 0, false);
            assert!(c.resident_lines() <= 16, "1 KiB / 64 B = 16 lines max");
        }
    });
}

#[test]
fn installed_line_probes_until_evicted_or_invalidated() {
    check("installed_line_probes_until_evicted_or_invalidated", 256, |rng| {
        let line = gen::u64s(0..64).sample(rng);
        let extra = gen::vec_of(&gen::u64s(0..64), 0..8).sample(rng);
        let mut c = tiny_cache();
        let a = VirtAddr::new(line * 64);
        c.install(a, [TagNibble::new(3); 4], 0, false);
        assert!(c.probe(a).is_some());
        c.invalidate(a);
        assert!(c.probe(a).is_none());
        // Invalidation of other lines never resurrects it.
        for e in extra {
            c.invalidate(VirtAddr::new(e * 64));
            assert!(c.probe(a).is_none());
        }
    });
}

#[test]
fn mshr_never_exceeds_capacity_and_always_retires() {
    check("mshr_never_exceeds_capacity_and_always_retires", 192, |rng| {
        let ops = gen::vec_of(&gen::u64s(0..64).zip(&gen::u64s(1..200)), 1..64).sample(rng);
        let mut m = MshrFile::new(4);
        let mut cycle = 0u64;
        for (line, lat) in ops {
            let delay =
                m.allocate(VirtAddr::new(line * 64), cycle, lat, TagCheckOutcome::Unchecked)
                    .unwrap();
            assert!(m.in_flight(cycle) <= 4);
            cycle += 1 + delay / 4;
        }
        m.settle(cycle + 500);
        assert_eq!(m.in_flight(cycle + 500), 0);
    });
}

#[test]
fn memsystem_second_access_is_never_slower() {
    check("memsystem_second_access_is_never_slower", 128, |rng| {
        let a = gens::aligned_addr_in(0..(1 << 20), 8).sample(rng);
        let mut m = MemSystem::new(1, MemConfig::default());
        let r1 = m.load(0, a, 8, 0, FillMode::Install, false).unwrap();
        let r2 = m.load(0, a, 8, r1.latency + 1, FillMode::Install, false).unwrap();
        assert!(r2.latency <= r1.latency, "{} then {}", r1.latency, r2.latency);
    });
}

#[test]
fn suppressed_unsafe_loads_leave_no_state_anywhere() {
    check("suppressed_unsafe_loads_leave_no_state_anywhere", 192, |rng| {
        let addr = gen::u64s(0..(1 << 20)).sample(rng) & !0x3F;
        let lock = gens::nonzero_tag().sample(rng);
        let key = gens::nonzero_tag_not(lock).sample(rng);
        let repeats = gen::usizes(1..4).sample(rng);
        let mut m = MemSystem::new(1, MemConfig::default());
        m.tags.set_range(VirtAddr::new(addr), 64, lock);
        let bad = VirtAddr::new(addr).with_key(key);
        let mut cycle = 0;
        for _ in 0..repeats {
            let r = m.load(0, bad, 8, cycle, FillMode::SuppressIfUnsafe, false).unwrap();
            assert_eq!(r.outcome, TagCheckOutcome::Unsafe);
            assert!(!r.data_returned);
            cycle += r.latency + 1;
        }
        assert!(!m.is_cached(0, VirtAddr::new(addr)), "no trace after {repeats} tries");
    });
}

#[test]
fn store_tag_makes_exactly_that_key_safe() {
    check("store_tag_makes_exactly_that_key_safe", 128, |rng| {
        let addr = gen::u64s(0..(1 << 20)).sample(rng) & !0xF;
        let tag = gens::nonzero_tag().sample(rng);
        let mut m = MemSystem::new(1, MemConfig::default());
        m.store_tag(VirtAddr::new(addr), tag);
        for key in 1u8..16 {
            let p = VirtAddr::new(addr).with_key(TagNibble::new(key));
            let r = m.load(0, p, 8, 0, FillMode::Install, false).unwrap();
            assert_eq!(
                r.outcome,
                if key == tag.value() { TagCheckOutcome::Safe } else { TagCheckOutcome::Unsafe }
            );
        }
    });
}

#[test]
fn coherent_write_read_across_cores() {
    check("coherent_write_read_across_cores", 192, |rng| {
        let a = gens::aligned_addr_in(0..(1 << 16), 8).sample(rng);
        let value = gen::u64_any().sample(rng);
        let mut m = MemSystem::new(2, MemConfig::default());
        // Core 1 caches the line, core 0 writes it, core 1 re-reads.
        let r = m.load(1, a, 8, 0, FillMode::Install, false).unwrap();
        m.write_arch(a, 8, value);
        m.store(0, a, 8, r.latency + 1, FillMode::Install).unwrap();
        assert_eq!(m.read_arch(a, 8), value);
        // The remote copy was invalidated: next load may miss but must not
        // be a stale L1 hit serviced at hit latency *and* wrong — functional
        // reads always come from arch memory, so check the timing state.
        assert!(m.load(1, a, 8, r.latency + 2, FillMode::Install, false).unwrap().latency > 2);
    });
}

// ---- segment-backed architectural memory ------------------------------------

mod image {
    use sas_isa::{DataSegment, SegmentSource, VirtAddr};
    use sas_mem::MainMemory;
    use sas_mte::SplitMix64;
    use sas_ptest::{check, Rng};

    const BASE: u64 = 0x7_0000;
    /// The memory's page size (its materialisation granule).
    const PAGE: u64 = 1024;
    /// The window every segment and access stays in.
    const SPAN: u64 = 32 * PAGE;

    /// Random explicit and generated segments, overlapping freely.
    fn segments(rng: &mut Rng) -> Vec<DataSegment> {
        (0..rng.range(0, 7))
            .map(|_| {
                let len = rng.range(1, 12 * PAGE);
                let base = BASE + rng.below(SPAN - len);
                if rng.chance(0.5) {
                    let bytes: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
                    DataSegment::bytes(base, bytes)
                } else {
                    let mask = [0xFF, 0x7F, 0x0F][rng.below(3) as usize];
                    DataSegment::splitmix(base, rng.next_u64(), len, mask)
                }
            })
            .collect()
    }

    /// The eagerly materialised image: every segment's bytes drawn in
    /// order and copied in declaration order, as a full byte array.
    fn eager(segs: &[DataSegment]) -> Vec<u8> {
        let mut out = vec![0u8; SPAN as usize];
        for seg in segs {
            let bytes: Vec<u8> = match &seg.source {
                SegmentSource::Bytes(b) => b.to_vec(),
                SegmentSource::SplitMix(g) => {
                    let mut rng = SplitMix64::new(g.state());
                    (0..g.len()).map(|_| rng.next_u64() as u8 & g.mask()).collect()
                }
            };
            let off = (seg.base - BASE) as usize;
            out[off..off + bytes.len()].copy_from_slice(&bytes);
        }
        out
    }

    fn whole(m: &MainMemory) -> Vec<u8> {
        m.read_bytes(VirtAddr::new(BASE), SPAN as usize)
    }

    fn le(bytes: &[u8]) -> u64 {
        bytes.iter().rev().fold(0, |v, &b| (v << 8) | b as u64)
    }

    #[test]
    fn segment_backed_memory_matches_an_eager_image() {
        check("segment_backed_memory_matches_an_eager_image", 96, |rng| {
            let segs = segments(rng);
            let mut reference = eager(&segs);
            let mut m = MainMemory::with_image(&segs);
            assert_eq!(whole(&m), reference, "initial image");
            let mut forked: Option<(MainMemory, Vec<u8>)> = None;
            for _ in 0..rng.range(1, 120) {
                let width = rng.range(1, 9);
                let off = rng.below(SPAN - 8);
                let a = VirtAddr::new(BASE + off);
                let at = off as usize;
                match rng.below(6) {
                    0 | 1 => {
                        let want = le(&reference[at..at + width as usize]);
                        assert_eq!(m.read(a, width), want, "read {width} at {off:#x}");
                    }
                    2 | 3 => {
                        let v = rng.next_u64();
                        m.write(a, width, v);
                        for i in 0..width as usize {
                            reference[at + i] = (v >> (8 * i)) as u8;
                        }
                    }
                    4 => {
                        // Slices that straddle page edges.
                        let edge = (rng.range(1, SPAN / PAGE) * PAGE) as usize;
                        let lo = edge.saturating_sub(rng.range(0, 2 * PAGE) as usize);
                        let hi = (edge + rng.range(0, 2 * PAGE) as usize).min(SPAN as usize);
                        let mut out = vec![0u8; hi - lo];
                        m.read_slice(VirtAddr::new(BASE + lo as u64), &mut out);
                        assert_eq!(out, reference[lo..hi], "slice {lo:#x}..{hi:#x}");
                    }
                    _ => forked = Some((m.clone(), reference.clone())),
                }
            }
            assert_eq!(whole(&m), reference, "final image");
            // A clone is independent of every later write to the original.
            if let Some((c, r)) = forked {
                assert_eq!(whole(&c), r, "clone");
            }
            // Snapshots carry only materialised pages; restored onto a fresh
            // build over the same image, they reproduce every byte.
            let mut e = sas_snap::Enc::new();
            m.encode(&mut e);
            let bytes = e.into_bytes();
            let mut fresh = MainMemory::with_image(&segs);
            let mut d = sas_snap::Dec::new(&bytes, "mem");
            fresh.restore(&mut d).unwrap();
            d.finish().unwrap();
            assert_eq!(fresh.resident_pages(), m.resident_pages());
            assert_eq!(whole(&fresh), reference, "restored image");
        });
    }
}
