//! Properties of the HTTP request reader, driven through `std::io::Read`
//! sources instead of sockets: arbitrary bytes never panic, every cut of a
//! valid request is refused cleanly, and oversized heads or bodies are
//! `TooLarge` without the reader consuming or allocating past the caps.

use sas_ptest::{check, gen, Rng};
use sas_serve::http::{read_request, ReadError, Request, MAX_BODY, MAX_HEAD};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::Read;

/// The system allocator, recording the largest single request made by
/// each thread, so a property can bound what one `read_request` call asks
/// for.
struct PeakAlloc;

thread_local! {
    static PEAK: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    let _ = PEAK.try_with(|p| p.set(p.get().max(size)));
}

// SAFETY: every call forwards unchanged to `System`; the bookkeeping only
// touches a const-initialised thread-local, which never allocates.
unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: PeakAlloc = PeakAlloc;

/// Runs `f`, returning its value and the largest single allocation it made
/// on this thread.
fn peak_of<T>(f: impl FnOnce() -> T) -> (T, usize) {
    PEAK.with(|p| p.set(0));
    let out = f();
    (out, PEAK.with(Cell::get))
}

/// Serves `data` in reads of at most `chunk` bytes, then either EOF or,
/// with `fail`, a timeout error (a peer that went quiet mid-request).
struct Trickle<'a> {
    data: &'a [u8],
    chunk: usize,
    fail: bool,
}

impl Read for Trickle<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if self.data.is_empty() && self.fail {
            return Err(std::io::ErrorKind::TimedOut.into());
        }
        let n = buf.len().min(self.chunk).min(self.data.len());
        buf[..n].copy_from_slice(&self.data[..n]);
        self.data = &self.data[n..];
        Ok(n)
    }
}

/// `prefix`, then the byte `fill` forever; counts what was consumed.
struct Endless<'a> {
    prefix: &'a [u8],
    fill: u8,
    consumed: usize,
}

impl Read for Endless<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = if self.prefix.is_empty() {
            buf.fill(self.fill);
            buf.len()
        } else {
            let n = buf.len().min(self.prefix.len());
            buf[..n].copy_from_slice(&self.prefix[..n]);
            self.prefix = &self.prefix[n..];
            n
        };
        self.consumed += n;
        Ok(n)
    }
}

fn token(rng: &mut Rng, alphabet: &[u8], len: std::ops::Range<usize>) -> String {
    let n = rng.range(len.start as u64, len.end as u64) as usize;
    (0..n).map(|_| alphabet[rng.below(alphabet.len() as u64) as usize] as char).collect()
}

const TCHAR: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789-_";
const VCHAR: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789 /;=,.:{}\"";

/// A well-formed request's bytes and the request they must parse back to.
fn valid_request(rng: &mut Rng) -> (Vec<u8>, Request) {
    let method = ["GET", "POST", "PUT"][rng.below(3) as usize].to_string();
    let path = format!("/{}", token(rng, TCHAR, 0..24));
    let body: Vec<u8> = if rng.chance(0.7) {
        gen::vec_of(&gen::u8_any(), 0..300).sample(rng)
    } else {
        Vec::new()
    };
    let mut headers = Vec::new();
    for _ in 0..rng.below(5) {
        let name = format!("x-{}", token(rng, TCHAR, 1..12)).to_ascii_lowercase();
        headers.push((name, token(rng, VCHAR, 0..40).trim().to_string()));
    }
    if !body.is_empty() || rng.chance(0.5) {
        headers.push(("content-length".to_string(), body.len().to_string()));
    }
    let mut raw = format!("{method} {path} HTTP/1.1\r\n");
    for (n, v) in &headers {
        raw.push_str(&format!("{n}: {v}\r\n"));
    }
    raw.push_str("\r\n");
    let mut raw = raw.into_bytes();
    raw.extend_from_slice(&body);
    (raw, Request { method, path, headers, body })
}

fn read_all(data: &[u8], chunk: usize, fail: bool) -> Result<Request, ReadError> {
    read_request(&mut Trickle { data, chunk, fail })
}

#[test]
fn random_bytes_never_panic() {
    check("http_random_bytes", 3000, |rng| {
        let mut bytes: Vec<u8> = gen::vec_of(&gen::u8_any(), 0..600).sample(rng);
        // Half the cases start like a request, so the header and body code
        // sees the noise too, not only the request-line check.
        if rng.chance(0.5) {
            let mut framed = b"POST /rpc HTTP/1.1\r\ncontent-length: ".to_vec();
            framed.extend_from_slice(rng.below(400).to_string().as_bytes());
            framed.extend_from_slice(b"\r\n");
            if rng.chance(0.5) {
                framed.extend_from_slice(b"\r\n");
            }
            framed.extend_from_slice(&bytes);
            bytes = framed;
        }
        let chunk = rng.range(1, 64) as usize;
        let _ = read_all(&bytes, chunk, rng.chance(0.5));
    });
}

#[test]
fn valid_requests_parse_back_and_every_cut_is_refused() {
    check("http_truncations", 200, |rng| {
        let (raw, want) = valid_request(rng);
        let chunk = rng.range(1, 512) as usize;
        let got = read_all(&raw, chunk, false).expect("a valid request parses");
        assert_eq!(
            (got.method, got.path, got.headers, got.body),
            (want.method, want.path, want.headers, want.body)
        );
        for cut in 0..raw.len() {
            for fail in [false, true] {
                match read_all(&raw[..cut], chunk, fail) {
                    Err(ReadError::Closed | ReadError::Bad(_) | ReadError::Io(_)) => {}
                    other => panic!("cut at {cut}/{} (fail={fail}) gave {other:?}", raw.len()),
                }
            }
        }
    });
}

#[test]
fn an_oversized_head_is_too_large_within_the_cap() {
    check("http_head_cap", 50, |rng| {
        let prefix = format!("GET /{} HTTP/1.1\r\nx-pad: ", token(rng, TCHAR, 0..64));
        let fill = VCHAR[rng.below(VCHAR.len() as u64) as usize];
        let mut endless = Endless { prefix: prefix.as_bytes(), fill, consumed: 0 };
        let (res, peak) = peak_of(|| read_request(&mut endless));
        assert!(matches!(res, Err(ReadError::TooLarge)), "{res:?}");
        assert!(endless.consumed <= MAX_HEAD, "read {} bytes", endless.consumed);
        assert!(peak <= MAX_HEAD, "allocated {peak} bytes");

        // A complete head one byte past the cap is refused too.
        let mut raw = b"GET / HTTP/1.1\r\nx-pad: ".to_vec();
        raw.resize(MAX_HEAD + 1 - 4, b'a');
        raw.extend_from_slice(b"\r\n\r\n");
        let chunk = rng.range(1, 4096) as usize;
        assert!(matches!(read_all(&raw, chunk, false), Err(ReadError::TooLarge)));
    });
}

#[test]
fn an_oversized_body_is_too_large_before_it_is_read() {
    check("http_body_cap", 200, |rng| {
        let length = match rng.below(3) {
            0 => MAX_BODY as u64 + 1,
            1 => rng.range(MAX_BODY as u64 + 1, 1 << 40),
            _ => u64::MAX,
        };
        let prefix = format!("POST /rpc HTTP/1.1\r\ncontent-length: {length}\r\n\r\n");
        let mut endless = Endless { prefix: prefix.as_bytes(), fill: b'{', consumed: 0 };
        let (res, peak) = peak_of(|| read_request(&mut endless));
        assert!(matches!(res, Err(ReadError::TooLarge)), "{res:?}");
        assert!(endless.consumed <= MAX_HEAD, "read {} bytes", endless.consumed);
        assert!(peak <= MAX_HEAD, "allocated {peak} bytes");
    });
    // A body exactly at the cap is read, and allocated once at its size.
    let prefix = format!("POST /rpc HTTP/1.1\r\ncontent-length: {MAX_BODY}\r\n\r\n");
    let mut endless = Endless { prefix: prefix.as_bytes(), fill: b' ', consumed: 0 };
    let (res, peak) = peak_of(|| read_request(&mut endless));
    assert_eq!(res.expect("a body at the cap is accepted").body.len(), MAX_BODY);
    assert!(peak <= MAX_BODY, "allocated {peak} bytes");
}
