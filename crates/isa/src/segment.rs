//! Initial data memory as byte *sources*.
//!
//! A [`DataSegment`] describes the bytes a program's memory starts with
//! without necessarily holding them: explicit bytes are shared through an
//! [`Arc`] (cloning a program never copies its image), and a seeded
//! SplitMix64 stream is a descriptor whose bytes are drawn on demand. The
//! memory model reads absent pages straight from these sources, so a run
//! pays only for the memory it touches.

use std::fmt;
use std::sync::{Arc, OnceLock};

/// SplitMix64's state increment (the golden-ratio "gamma").
pub const SPLITMIX64_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// SplitMix64's output function: the mixer applied to each successive
/// state. The generator is counter-based — draw `n` (1-based) from state
/// `s` is `splitmix64_mix(s + n·γ)` — which is what lets a generated
/// segment produce any byte without drawing the ones before it.
#[inline]
pub fn splitmix64_mix(state: u64) -> u64 {
    let mut z = state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Bytes a [`Generated`] segment draws at a time: four cache lines, so a
/// short run that touches scattered lines draws little it does not read.
const CHUNK: usize = 256;

/// A seeded SplitMix64 byte stream: byte `i` is the low byte of the
/// generator's draw `i + 1` from `state`, ANDed with `mask` —
/// `splitmix64_mix(state + (i + 1)·γ) as u8 & mask`.
///
/// Bytes are drawn a 256-byte chunk at a time, on first read, and kept:
/// the segment is shared (through [`Arc`]) by every clone of its program,
/// so the systems built from one workload draw each chunk they touch once.
pub struct Generated {
    state: u64,
    len: u64,
    mask: u8,
    chunks: Box<[OnceLock<Box<[u8; CHUNK]>>]>,
}

impl Generated {
    /// The stream of `len` bytes drawn from generator state `state`.
    fn new(state: u64, len: u64, mask: u8) -> Generated {
        let chunks = (0..len.div_ceil(CHUNK as u64)).map(|_| OnceLock::new()).collect();
        Generated { state, len, mask, chunks }
    }

    /// Generator state before the first draw.
    pub fn state(&self) -> u64 {
        self.state
    }

    /// Length in bytes.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the stream is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Mask applied to every byte.
    pub fn mask(&self) -> u8 {
        self.mask
    }

    fn chunk(&self, i: usize) -> &[u8; CHUNK] {
        self.chunks[i].get_or_init(|| {
            let mut c = Box::new([0u8; CHUNK]);
            let start = (i * CHUNK) as u64;
            let n = (self.len - start).min(CHUNK as u64) as usize;
            let mut s = self.state.wrapping_add(start.wrapping_mul(SPLITMIX64_GAMMA));
            for b in &mut c[..n] {
                // `black_box` keeps the loop scalar: without it LLVM
                // vectorises the mixer with SSE2 emulations of the 64-bit
                // multiply, which draw ~1.5x slower than plain `imul`.
                s = std::hint::black_box(s.wrapping_add(SPLITMIX64_GAMMA));
                *b = splitmix64_mix(s) as u8 & self.mask;
            }
            c
        })
    }

    fn read(&self, offset: u64, out: &mut [u8]) {
        let mut at = offset as usize;
        let mut rest = out;
        while !rest.is_empty() {
            let off = at % CHUNK;
            let n = (CHUNK - off).min(rest.len());
            rest[..n].copy_from_slice(&self.chunk(at / CHUNK)[off..off + n]);
            at += n;
            rest = &mut rest[n..];
        }
    }
}

impl PartialEq for Generated {
    /// Streams are equal when their descriptors are; drawn chunks are a
    /// cache.
    fn eq(&self, other: &Generated) -> bool {
        (self.state, self.len, self.mask) == (other.state, other.len, other.mask)
    }
}

impl Eq for Generated {}

impl fmt::Debug for Generated {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Generated")
            .field("state", &self.state)
            .field("len", &self.len)
            .field("mask", &self.mask)
            .finish()
    }
}

/// Where a segment's bytes come from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SegmentSource {
    /// Explicit bytes, shared between clones.
    Bytes(Arc<[u8]>),
    /// A seeded SplitMix64 stream, shared between clones.
    SplitMix(Arc<Generated>),
}

/// A chunk of initialised data memory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DataSegment {
    /// Untagged base virtual address.
    pub base: u64,
    /// Initial contents.
    pub source: SegmentSource,
}

impl DataSegment {
    /// A segment of explicit bytes.
    pub fn bytes(base: u64, bytes: impl Into<Arc<[u8]>>) -> DataSegment {
        DataSegment { base, source: SegmentSource::Bytes(bytes.into()) }
    }

    /// A segment of `len` SplitMix64 bytes (see [`Generated`]).
    pub fn splitmix(base: u64, state: u64, len: u64, mask: u8) -> DataSegment {
        let stream = Generated::new(state, len, mask);
        DataSegment { base, source: SegmentSource::SplitMix(Arc::new(stream)) }
    }

    /// Length in bytes.
    pub fn len(&self) -> u64 {
        match &self.source {
            SegmentSource::Bytes(b) => b.len() as u64,
            SegmentSource::SplitMix(g) => g.len(),
        }
    }

    /// Whether the segment covers no bytes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Fills `out` with the segment's bytes starting at `offset`.
    ///
    /// # Panics
    ///
    /// Panics if the range runs past the end of the segment.
    pub fn read(&self, offset: u64, out: &mut [u8]) {
        assert!(
            offset.checked_add(out.len() as u64).is_some_and(|end| end <= self.len()),
            "read of {} bytes at offset {offset} past a {}-byte segment",
            out.len(),
            self.len()
        );
        match &self.source {
            SegmentSource::Bytes(b) => {
                let o = offset as usize;
                out.copy_from_slice(&b[o..o + out.len()]);
            }
            SegmentSource::SplitMix(g) => g.read(offset, out),
        }
    }

    /// The whole segment as a byte vector.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = vec![0u8; self.len() as usize];
        self.read(0, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_bytes_match_sequential_draws() {
        let (state, mask) = (0x1234_5678, 0x7F);
        let len = 3 * CHUNK as u64 + 300;
        let seg = DataSegment::splitmix(0, state, len, mask);
        let mut s = state;
        let eager: Vec<u8> = (0..len)
            .map(|_| {
                s = s.wrapping_add(SPLITMIX64_GAMMA);
                splitmix64_mix(s) as u8 & mask
            })
            .collect();
        let mut mid = [0u8; 2 * CHUNK];
        seg.read(101, &mut mid);
        assert_eq!(&mid[..], &eager[101..101 + 2 * CHUNK], "straddles chunk edges");
        assert_eq!(seg.to_bytes(), eager);
        assert_eq!(seg, seg.clone());
        assert_ne!(seg, DataSegment::splitmix(0, state + 1, len, mask));
    }

    #[test]
    fn explicit_bytes_read_back() {
        let seg = DataSegment::bytes(0x40, vec![1, 2, 3, 4]);
        let mut out = [0u8; 2];
        seg.read(1, &mut out);
        assert_eq!(out, [2, 3]);
        assert_eq!(seg.len(), 4);
    }

    #[test]
    #[should_panic(expected = "past a 4-byte segment")]
    fn read_past_end_panics() {
        DataSegment::bytes(0, vec![0; 4]).read(3, &mut [0u8; 2]);
    }
}
