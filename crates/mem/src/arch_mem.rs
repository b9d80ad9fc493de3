//! Architectural (functional) memory.

use sas_isa::{DataSegment, VirtAddr};
use std::collections::HashMap;
use std::sync::Arc;

/// Pages are the materialisation granule: 1 KiB, not a 4 KiB host page,
/// because the first write to a page draws the whole page from the image,
/// and short runs write a few bytes into each of several generated pages.
const PAGE_SHIFT: u32 = 10;
const PAGE_BYTES: usize = 1 << PAGE_SHIFT;

/// Sparse byte-addressable architectural memory over a lazy initial image.
///
/// The initial image is the program's [`DataSegment`]s, kept as sources
/// rather than copied in: a page nobody has written reads straight from
/// them (the last-declared segment wins where segments overlap; bytes no
/// segment covers read as 0). The first write to a page materialises just
/// that page, so a run pays only for the memory it touches. Addresses are
/// indexed by their translated (untagged) part, so tagged pointers can be
/// passed directly.
///
/// ```
/// use sas_mem::MainMemory;
/// use sas_isa::{DataSegment, VirtAddr};
///
/// let mut m = MainMemory::with_image(&[DataSegment::bytes(0x2000, vec![7; 16])]);
/// assert_eq!(m.read(VirtAddr::new(0x2000), 2), 0x0707);
/// m.write(VirtAddr::new(0x1000), 8, 0xDEAD_BEEF);
/// assert_eq!(m.read(VirtAddr::new(0x1000), 8), 0xDEAD_BEEF);
/// assert_eq!(m.read(VirtAddr::new(0x1002), 2), 0xDEAD);
/// assert_eq!(m.resident_pages(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct MainMemory {
    /// Pages written since construction (or restored from a snapshot).
    pages: HashMap<u64, Box<[u8; PAGE_BYTES]>>,
    /// The initial image, in declaration order; shared between clones.
    image: Arc<[Span]>,
}

/// An image segment with its untagged address range precomputed: a read
/// of an unwritten page checks every span.
#[derive(Debug)]
struct Span {
    start: u64,
    end: u64,
    seg: DataSegment,
}

/// The untagged address `n` bytes past untagged address `a`, wrapping
/// within the untagged address space as per-byte pointer arithmetic does.
fn advance(a: u64, n: usize) -> u64 {
    VirtAddr::new(a.wrapping_add(n as u64)).untagged().raw()
}

impl MainMemory {
    /// Creates an empty (all-zero) memory.
    pub fn new() -> MainMemory {
        MainMemory::default()
    }

    /// Creates a memory whose initial contents are `image` (later segments
    /// win where they overlap earlier ones). No bytes are copied: segments
    /// share their sources.
    pub fn with_image<'a>(image: impl IntoIterator<Item = &'a DataSegment>) -> MainMemory {
        let image = image
            .into_iter()
            .map(|seg| {
                let start = VirtAddr::new(seg.base).untagged().raw();
                Span { start, end: start.saturating_add(seg.len()), seg: seg.clone() }
            })
            .collect();
        MainMemory { pages: HashMap::new(), image }
    }

    /// Fills `out` with the initial-image bytes at untagged address `a`;
    /// the range lies within one page.
    fn read_image(&self, a: u64, out: &mut [u8]) {
        out.fill(0);
        let end = a + out.len() as u64;
        for span in self.image.iter() {
            let lo = span.start.max(a);
            let hi = span.end.min(end);
            if lo < hi {
                span.seg.read(lo - span.start, &mut out[(lo - a) as usize..(hi - a) as usize]);
            }
        }
    }

    fn page_mut(&mut self, page: u64) -> &mut [u8; PAGE_BYTES] {
        if !self.pages.contains_key(&page) {
            let mut fresh = Box::new([0u8; PAGE_BYTES]);
            self.read_image(page << PAGE_SHIFT, &mut fresh[..]);
            self.pages.insert(page, fresh);
        }
        self.pages.get_mut(&page).expect("page just materialised")
    }

    /// Reads one byte.
    pub fn read_byte(&self, addr: VirtAddr) -> u8 {
        let mut b = [0u8];
        self.read_slice(addr, &mut b);
        b[0]
    }

    /// Writes one byte.
    pub fn write_byte(&mut self, addr: VirtAddr, value: u8) {
        self.write_bytes(addr, &[value]);
    }

    /// Reads `width` bytes little-endian, zero-extended to 64 bits.
    ///
    /// # Panics
    ///
    /// Panics if `width` is 0 or greater than 8.
    pub fn read(&self, addr: VirtAddr, width: u64) -> u64 {
        assert!((1..=8).contains(&width), "width must be 1..=8, got {width}");
        let mut buf = [0u8; 8];
        self.read_slice(addr, &mut buf[..width as usize]);
        u64::from_le_bytes(buf)
    }

    /// Writes the low `width` bytes of `value` little-endian.
    ///
    /// # Panics
    ///
    /// Panics if `width` is 0 or greater than 8.
    pub fn write(&mut self, addr: VirtAddr, width: u64, value: u64) {
        assert!((1..=8).contains(&width), "width must be 1..=8, got {width}");
        self.write_bytes(addr, &value.to_le_bytes()[..width as usize]);
    }

    /// Copies a byte slice into memory at `base`, resolving each page once
    /// (and materialising it on its first write).
    pub fn write_bytes(&mut self, base: VirtAddr, bytes: &[u8]) {
        let mut a = base.untagged().raw();
        let mut rest = bytes;
        while !rest.is_empty() {
            let off = (a as usize) & (PAGE_BYTES - 1);
            let n = (PAGE_BYTES - off).min(rest.len());
            self.page_mut(a >> PAGE_SHIFT)[off..off + n].copy_from_slice(&rest[..n]);
            a = advance(a, n);
            rest = &rest[n..];
        }
    }

    /// Reads `len` bytes starting at `base`.
    pub fn read_bytes(&self, base: VirtAddr, len: usize) -> Vec<u8> {
        let mut out = vec![0u8; len];
        self.read_slice(base, &mut out);
        out
    }

    /// Fills `out` with the bytes starting at `base`, resolving each page
    /// once: a written page is copied, any other is read from the initial
    /// image. The per-line snapshot the cache-fill path takes on every miss
    /// goes through here.
    pub fn read_slice(&self, base: VirtAddr, out: &mut [u8]) {
        let mut a = base.untagged().raw();
        let mut rest = &mut out[..];
        while !rest.is_empty() {
            let off = (a as usize) & (PAGE_BYTES - 1);
            let n = (PAGE_BYTES - off).min(rest.len());
            match self.pages.get(&(a >> PAGE_SHIFT)) {
                Some(p) => rest[..n].copy_from_slice(&p[off..off + n]),
                None => self.read_image(a, &mut rest[..n]),
            }
            a = advance(a, n);
            rest = &mut rest[n..];
        }
    }

    /// Number of 1 KiB pages materialised (written, or restored).
    pub fn resident_pages(&self) -> usize {
        self.pages.len()
    }

    /// Serializes every materialised page, sorted by page number so the
    /// byte stream is deterministic regardless of hash-map iteration order.
    /// The initial image is not encoded: it belongs to the program, which
    /// the snapshot identifies by fingerprint.
    pub fn encode(&self, e: &mut sas_snap::Enc) {
        let mut keys: Vec<u64> = self.pages.keys().copied().collect();
        keys.sort_unstable();
        e.usz(keys.len());
        for k in keys {
            e.uv(k);
            e.bytes(&self.pages[&k][..]);
        }
    }

    /// Restores pages serialized by [`MainMemory::encode`], replacing the
    /// materialised pages (the initial image is kept).
    ///
    /// # Errors
    ///
    /// Truncated input or a page payload that is not exactly one page.
    pub fn restore(&mut self, d: &mut sas_snap::Dec) -> Result<(), sas_snap::SnapError> {
        let n = d.usz_max(1 << 24)?;
        let mut pages = HashMap::with_capacity(n);
        for _ in 0..n {
            let k = d.uv()?;
            let bytes = d.bytes()?;
            if bytes.len() != PAGE_BYTES {
                return Err(sas_snap::SnapError::BadValue {
                    what: "memory page size",
                    value: bytes.len() as u64,
                });
            }
            let mut page = Box::new([0u8; PAGE_BYTES]);
            page.copy_from_slice(bytes);
            pages.insert(k, page);
        }
        self.pages = pages;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_fill_semantics() {
        let m = MainMemory::new();
        assert_eq!(m.read(VirtAddr::new(0xABCD), 8), 0);
        assert_eq!(m.resident_pages(), 0);
    }

    #[test]
    fn little_endian_layout() {
        let mut m = MainMemory::new();
        m.write(VirtAddr::new(0x100), 4, 0x0403_0201);
        assert_eq!(m.read_byte(VirtAddr::new(0x100)), 1);
        assert_eq!(m.read_byte(VirtAddr::new(0x103)), 4);
    }

    #[test]
    fn cross_page_access() {
        let mut m = MainMemory::new();
        m.write(VirtAddr::new(0xFFC), 8, 0x1122_3344_5566_7788);
        assert_eq!(m.read(VirtAddr::new(0xFFC), 8), 0x1122_3344_5566_7788);
        assert_eq!(m.resident_pages(), 2);
    }

    #[test]
    fn partial_width_masks_value() {
        let mut m = MainMemory::new();
        m.write(VirtAddr::new(0), 1, 0xFFFF_FFFF_FFFF_FFAA);
        assert_eq!(m.read(VirtAddr::new(0), 8), 0xAA);
    }

    #[test]
    fn tagged_pointer_is_transparent() {
        let mut m = MainMemory::new();
        let tagged = VirtAddr::new(0x2000).with_key(sas_isa::TagNibble::new(0xb));
        m.write(tagged, 8, 42);
        assert_eq!(m.read(VirtAddr::new(0x2000), 8), 42);
    }

    #[test]
    fn bytes_roundtrip() {
        let mut m = MainMemory::new();
        m.write_bytes(VirtAddr::new(0x3000), &[9, 8, 7]);
        assert_eq!(m.read_bytes(VirtAddr::new(0x3000), 3), vec![9, 8, 7]);
    }

    #[test]
    fn image_reads_are_lazy_and_writes_materialise_one_page() {
        let image = [
            DataSegment::bytes(0x1FFE, vec![1, 2, 3, 4]),
            DataSegment::bytes(0x2001, vec![9]),
        ];
        let mut m = MainMemory::with_image(&image);
        assert_eq!(m.read(VirtAddr::new(0x1FFE), 4), 0x0903_0201, "later segment wins");
        assert_eq!(m.resident_pages(), 0, "reads materialise nothing");
        m.write_byte(VirtAddr::new(0x2003), 5);
        assert_eq!(m.resident_pages(), 1);
        assert_eq!(m.read(VirtAddr::new(0x1FFE), 8), 0x0000_0500_0903_0201);
    }

    #[test]
    fn access_wraps_within_the_untagged_space() {
        let mut m = MainMemory::new();
        let top = VirtAddr::new(0x00FF_FFFF_FFFF_FFFE);
        m.write(top, 4, 0x0403_0201);
        assert_eq!(m.read(VirtAddr::new(0), 2), 0x0403);
        assert_eq!(m.read(top, 4), 0x0403_0201);
    }

    #[test]
    #[should_panic(expected = "width must be")]
    fn invalid_width_panics() {
        MainMemory::new().read(VirtAddr::new(0), 9);
    }
}
