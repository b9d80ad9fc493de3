//! Generator combinators.
//!
//! A [`Gen<T>`] is a reusable recipe for drawing values of `T` from an
//! [`Rng`]: build one from the primitive constructors (`u64s`, `select`,
//! `vec_of`, …), refine it with [`Gen::map`] / [`Gen::flat_map`], and sample
//! it inside a property. Because a generator is a pure function of the RNG
//! state, the whole case is replayable from the runner's reported seed.

use crate::rng::Rng;
use std::rc::Rc;

/// A composable value generator.
///
/// ```
/// use sas_ptest::{gen, Rng};
/// let even = gen::u64s(0..100).map(|v| v * 2);
/// let mut rng = Rng::new(1);
/// for _ in 0..50 {
///     assert_eq!(even.sample(&mut rng) % 2, 0);
/// }
/// ```
pub struct Gen<T> {
    f: Rc<dyn Fn(&mut Rng) -> T>,
}

impl<T> Clone for Gen<T> {
    fn clone(&self) -> Self {
        Gen { f: Rc::clone(&self.f) }
    }
}

impl<T: 'static> Gen<T> {
    /// Wraps an arbitrary sampling function.
    pub fn from_fn(f: impl Fn(&mut Rng) -> T + 'static) -> Gen<T> {
        Gen { f: Rc::new(f) }
    }

    /// A generator that always yields `value`.
    pub fn constant(value: T) -> Gen<T>
    where
        T: Clone,
    {
        Gen::from_fn(move |_| value.clone())
    }

    /// Draws one value.
    pub fn sample(&self, rng: &mut Rng) -> T {
        (self.f)(rng)
    }

    /// Applies `f` to every sampled value.
    pub fn map<U: 'static>(&self, f: impl Fn(T) -> U + 'static) -> Gen<U> {
        let g = self.clone();
        Gen::from_fn(move |rng| f(g.sample(rng)))
    }

    /// Builds a dependent generator from every sampled value.
    pub fn flat_map<U: 'static>(&self, f: impl Fn(T) -> Gen<U> + 'static) -> Gen<U> {
        let g = self.clone();
        Gen::from_fn(move |rng| f(g.sample(rng)).sample(rng))
    }

    /// Pairs this generator with another.
    ///
    /// ```
    /// use sas_ptest::{gen, Rng};
    /// let g = gen::u64s(0..4).zip(&gen::u64s(10..14));
    /// let (a, b) = g.sample(&mut Rng::new(3));
    /// assert!(a < 4 && (10..14).contains(&b));
    /// ```
    pub fn zip<U: 'static>(&self, other: &Gen<U>) -> Gen<(T, U)> {
        let a = self.clone();
        let b = other.clone();
        Gen::from_fn(move |rng| (a.sample(rng), b.sample(rng)))
    }
}

/// Any 64-bit value (the harness analogue of `any::<u64>()`).
pub fn u64_any() -> Gen<u64> {
    Gen::from_fn(|rng| rng.next_u64())
}

/// Any 16-bit value.
pub fn u16_any() -> Gen<u16> {
    Gen::from_fn(|rng| rng.next_u64() as u16)
}

/// Any 8-bit value.
pub fn u8_any() -> Gen<u8> {
    Gen::from_fn(|rng| rng.next_u64() as u8)
}

/// Uniform `u64` in a half-open range.
pub fn u64s(range: std::ops::Range<u64>) -> Gen<u64> {
    Gen::from_fn(move |rng| rng.range(range.start, range.end))
}

/// Uniform `u8` in a half-open range.
pub fn u8s(range: std::ops::Range<u8>) -> Gen<u8> {
    let (lo, hi) = (range.start as u64, range.end as u64);
    Gen::from_fn(move |rng| rng.range(lo, hi) as u8)
}

/// Uniform `u32` in a half-open range.
pub fn u32s(range: std::ops::Range<u32>) -> Gen<u32> {
    let (lo, hi) = (range.start as u64, range.end as u64);
    Gen::from_fn(move |rng| rng.range(lo, hi) as u32)
}

/// Uniform `usize` in a half-open range.
pub fn usizes(range: std::ops::Range<usize>) -> Gen<usize> {
    let (lo, hi) = (range.start as u64, range.end as u64);
    Gen::from_fn(move |rng| rng.range(lo, hi) as usize)
}

/// Uniform `i64` in a half-open range.
pub fn i64s(range: std::ops::Range<i64>) -> Gen<i64> {
    Gen::from_fn(move |rng| rng.range_i64(range.start, range.end))
}

/// Uniform `f64` in a half-open range.
pub fn f64s(range: std::ops::Range<f64>) -> Gen<f64> {
    Gen::from_fn(move |rng| rng.range_f64(range.start, range.end))
}

/// One of the listed values, uniformly.
///
/// ```
/// use sas_ptest::{gen, Rng};
/// let g = gen::select(vec!['a', 'b', 'c']);
/// assert!(['a', 'b', 'c'].contains(&g.sample(&mut Rng::new(7))));
/// ```
///
/// # Panics
///
/// Panics if `choices` is empty.
pub fn select<T: Clone + 'static>(choices: Vec<T>) -> Gen<T> {
    assert!(!choices.is_empty(), "select() needs at least one choice");
    Gen::from_fn(move |rng| choices[rng.below(choices.len() as u64) as usize].clone())
}

/// One of the listed generators, uniformly.
///
/// # Panics
///
/// Panics if `gens` is empty.
pub fn one_of<T: 'static>(gens: Vec<Gen<T>>) -> Gen<T> {
    assert!(!gens.is_empty(), "one_of() needs at least one generator");
    Gen::from_fn(move |rng| gens[rng.below(gens.len() as u64) as usize].sample(rng))
}

/// One of the listed generators, with the given relative weights (the
/// harness analogue of `prop_oneof![w => g, …]`).
///
/// # Panics
///
/// Panics if `weighted` is empty or all weights are zero.
pub fn frequency<T: 'static>(weighted: Vec<(u32, Gen<T>)>) -> Gen<T> {
    let total: u64 = weighted.iter().map(|(w, _)| *w as u64).sum();
    assert!(total > 0, "frequency() needs a positive total weight");
    Gen::from_fn(move |rng| {
        let mut roll = rng.below(total);
        for (w, g) in &weighted {
            if roll < *w as u64 {
                return g.sample(rng);
            }
            roll -= *w as u64;
        }
        unreachable!("roll < total")
    })
}

/// A vector of `elem` draws whose length is drawn from `len`.
///
/// ```
/// use sas_ptest::{gen, Rng};
/// let g = gen::vec_of(&gen::u64s(0..10), 2..5);
/// let v = g.sample(&mut Rng::new(5));
/// assert!((2..5).contains(&v.len()));
/// assert!(v.iter().all(|&x| x < 10));
/// ```
pub fn vec_of<T: 'static>(elem: &Gen<T>, len: std::ops::Range<usize>) -> Gen<Vec<T>> {
    let elem = elem.clone();
    let lens = usizes(len);
    Gen::from_fn(move |rng| {
        let n = lens.sample(rng);
        (0..n).map(|_| elem.sample(rng)).collect()
    })
}

/// A string of `len` characters drawn to stress text codecs: every ASCII
/// control character, `"` and `\`, printable ASCII, DEL, and two- to
/// four-byte UTF-8 characters.
///
/// ```
/// use sas_ptest::{gen, Rng};
/// let s = gen::text(0..40).sample(&mut Rng::new(3));
/// assert!(s.chars().count() < 40);
/// ```
pub fn text(len: std::ops::Range<usize>) -> Gen<String> {
    let chars = frequency(vec![
        (3, u32s(0..0x20)),
        (2, select(vec!['"' as u32, '\\' as u32, 0x7f])),
        (6, u32s(0x20..0x7f)),
        (2, u32s(0x80..0x800)),
        (1, u32s(0x800..0xD800)),
        (1, u32s(0x1_0000..0x11_0000)),
    ])
    .map(|c| char::from_u32(c).expect("ranges skip the surrogates"));
    vec_of(&chars, len).map(|cs| cs.into_iter().collect())
}

/// Four independent draws (the harness analogue of `uniform4`).
pub fn array4<T: 'static>(elem: &Gen<T>) -> Gen<[T; 4]> {
    let elem = elem.clone();
    Gen::from_fn(move |rng| std::array::from_fn(|_| elem.sample(rng)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frequency_respects_zero_weight() {
        let g = frequency(vec![(0, Gen::constant(1u8)), (5, Gen::constant(2u8))]);
        let mut rng = Rng::new(2);
        for _ in 0..100 {
            assert_eq!(g.sample(&mut rng), 2);
        }
    }

    #[test]
    fn flat_map_threads_state() {
        // Length drawn first, then that many elements.
        let g = usizes(1..4).flat_map(|n| vec_of(&u64s(0..100), n..n + 1));
        let mut rng = Rng::new(8);
        for _ in 0..50 {
            let v = g.sample(&mut rng);
            assert!((1..4).contains(&v.len()));
        }
    }

    #[test]
    fn one_of_covers_all_branches() {
        let g = one_of(vec![Gen::constant(0u8), Gen::constant(1u8)]);
        let mut rng = Rng::new(3);
        let draws: Vec<u8> = (0..200).map(|_| g.sample(&mut rng)).collect();
        assert!(draws.contains(&0) && draws.contains(&1));
    }
}
