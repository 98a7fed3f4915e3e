//! Offline drop-in for the subset of `proptest` this workspace uses.
//!
//! The container building this repository has no crates.io access, so
//! this crate reimplements exactly what the test suite needs: the
//! [`Strategy`] trait with `prop_map` / `prop_flat_map`, range / tuple /
//! [`Just`] / [`collection::vec`] / [`bool::ANY`] strategies, a tiny
//! [`string::string_regex`] (single character-class patterns only), the
//! [`proptest!`] / `prop_assert*` / [`prop_assume!`] / [`prop_oneof!`]
//! macros, and [`ProptestConfig::with_cases`].
//!
//! Differences from the real crate, by design: no shrinking (a failing
//! case panics with its inputs' debug rendering), and the per-test RNG
//! seed is derived deterministically from the test's name, so failures
//! reproduce across runs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use rand::rngs::StdRng;
use rand::RngExt;
use std::ops::{Range, RangeInclusive};

#[doc(hidden)]
pub use rand as __rand;

/// Why a single generated case did not pass.
#[derive(Debug)]
pub enum TestCaseError {
    /// The case was vetoed by [`prop_assume!`]; draw another.
    Reject(String),
    /// A `prop_assert*` failed; the test fails.
    Fail(String),
}

/// Outcome of one generated case.
pub type TestCaseResult = Result<(), TestCaseError>;

/// Runner configuration; only `cases` is honoured.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of successful (non-rejected) cases to run.
    pub cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        Self { cases: 256 }
    }
}

impl ProptestConfig {
    /// Config running `cases` cases.
    pub fn with_cases(cases: u32) -> Self {
        Self { cases }
    }
}

/// A recipe for generating random values of one type.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Draws one value.
    fn new_value(&self, rng: &mut StdRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }

    /// Generates a value, then generates from the strategy `f` builds
    /// out of it.
    fn prop_flat_map<S: Strategy, F: Fn(Self::Value) -> S>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
    {
        FlatMap { inner: self, f }
    }
}

impl<S: Strategy + ?Sized> Strategy for &S {
    type Value = S::Value;
    fn new_value(&self, rng: &mut StdRng) -> Self::Value {
        (**self).new_value(rng)
    }
}

impl Strategy for str {
    type Value = String;
    /// Regex-shorthand strategy: `"[a-z]{0,9}" `-style patterns generate
    /// matching strings, as in the real proptest. Panics on patterns the
    /// tiny [`string::string_regex`] parser does not support.
    fn new_value(&self, rng: &mut StdRng) -> String {
        string::string_regex(self)
            .unwrap_or_else(|e| panic!("{}", e.0))
            .new_value(rng)
    }
}

impl<S: Strategy + ?Sized> Strategy for Box<S> {
    type Value = S::Value;
    fn new_value(&self, rng: &mut StdRng) -> Self::Value {
        (**self).new_value(rng)
    }
}

/// See [`Strategy::prop_map`].
#[derive(Debug, Clone)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;
    fn new_value(&self, rng: &mut StdRng) -> O {
        (self.f)(self.inner.new_value(rng))
    }
}

/// See [`Strategy::prop_flat_map`].
#[derive(Debug, Clone)]
pub struct FlatMap<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, T: Strategy, F: Fn(S::Value) -> T> Strategy for FlatMap<S, F> {
    type Value = T::Value;
    fn new_value(&self, rng: &mut StdRng) -> T::Value {
        (self.f)(self.inner.new_value(rng)).new_value(rng)
    }
}

/// Always generates a clone of the wrapped value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn new_value(&self, _: &mut StdRng) -> T {
        self.0.clone()
    }
}

macro_rules! range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn new_value(&self, rng: &mut StdRng) -> $t {
                rng.random_range(self.clone())
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn new_value(&self, rng: &mut StdRng) -> $t {
                rng.random_range(self.clone())
            }
        }
    )*};
}

range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! float_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn new_value(&self, rng: &mut StdRng) -> $t {
                rng.random_range(self.clone())
            }
        }
    )*};
}

float_range_strategy!(f32, f64);

macro_rules! tuple_strategy {
    ($(($($s:ident . $idx:tt),+))*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn new_value(&self, rng: &mut StdRng) -> Self::Value {
                ($(self.$idx.new_value(rng),)+)
            }
        }
    )*};
}

tuple_strategy! {
    (A.0)
    (A.0, B.1)
    (A.0, B.1, C.2)
    (A.0, B.1, C.2, D.3)
    (A.0, B.1, C.2, D.3, E.4)
    (A.0, B.1, C.2, D.3, E.4, F.5)
}

/// Types with a canonical "any value" strategy.
pub trait Arbitrary: Sized {
    /// Draws an arbitrary value.
    fn arbitrary(rng: &mut StdRng) -> Self;
}

macro_rules! arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut StdRng) -> $t {
                rng.random_range(<$t>::MIN..=<$t>::MAX)
            }
        }
    )*};
}

arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut StdRng) -> bool {
        rng.random_bool(0.5)
    }
}

/// Strategy produced by [`any`].
#[derive(Debug, Clone, Copy)]
pub struct Any<T>(std::marker::PhantomData<T>);

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn new_value(&self, rng: &mut StdRng) -> T {
        T::arbitrary(rng)
    }
}

/// The "any value of `T`" strategy.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(std::marker::PhantomData)
}

/// Uniform choice between boxed alternative strategies; built by
/// [`prop_oneof!`].
pub struct Union<V> {
    alternatives: Vec<Box<dyn Strategy<Value = V>>>,
}

impl<V> Union<V> {
    /// Wraps the alternatives; panics if empty.
    pub fn new(alternatives: Vec<Box<dyn Strategy<Value = V>>>) -> Self {
        assert!(!alternatives.is_empty(), "prop_oneof! needs an alternative");
        Self { alternatives }
    }
}

impl<V> Strategy for Union<V> {
    type Value = V;
    fn new_value(&self, rng: &mut StdRng) -> V {
        let i = rng.random_range(0..self.alternatives.len());
        self.alternatives[i].new_value(rng)
    }
}

/// Boxes a strategy for [`Union`]; used by the [`prop_oneof!`] expansion.
pub fn boxed_strategy<S: Strategy + 'static>(s: S) -> Box<dyn Strategy<Value = S::Value>> {
    Box::new(s)
}

/// Bounds on generated collection sizes.
#[derive(Debug, Clone)]
pub struct SizeRange {
    lo: usize,
    hi_inclusive: usize,
}

impl From<usize> for SizeRange {
    fn from(n: usize) -> Self {
        Self {
            lo: n,
            hi_inclusive: n,
        }
    }
}

impl From<Range<usize>> for SizeRange {
    fn from(r: Range<usize>) -> Self {
        assert!(r.start < r.end, "empty size range");
        Self {
            lo: r.start,
            hi_inclusive: r.end - 1,
        }
    }
}

impl From<RangeInclusive<usize>> for SizeRange {
    fn from(r: RangeInclusive<usize>) -> Self {
        Self {
            lo: *r.start(),
            hi_inclusive: *r.end(),
        }
    }
}

/// Collection strategies.
pub mod collection {
    use super::{SizeRange, Strategy};
    use rand::rngs::StdRng;
    use rand::RngExt;

    /// Strategy for `Vec`s of values from `element`, with a length drawn
    /// from `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    /// See [`vec()`].
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn new_value(&self, rng: &mut StdRng) -> Vec<S::Value> {
            let len = rng.random_range(self.size.lo..=self.size.hi_inclusive);
            (0..len).map(|_| self.element.new_value(rng)).collect()
        }
    }
}

/// Boolean strategies.
pub mod bool {
    use super::Strategy;
    use rand::rngs::StdRng;
    use rand::RngExt;

    /// Fair coin.
    #[derive(Debug, Clone, Copy)]
    pub struct AnyBool;

    /// The "any bool" strategy value.
    pub const ANY: AnyBool = AnyBool;

    impl Strategy for AnyBool {
        type Value = bool;
        fn new_value(&self, rng: &mut StdRng) -> bool {
            rng.random_bool(0.5)
        }
    }
}

/// String strategies.
pub mod string {
    use super::Strategy;
    use rand::rngs::StdRng;
    use rand::RngExt;

    /// Error for unsupported patterns.
    #[derive(Debug)]
    pub struct Error(pub String);

    /// Strategy generating strings for one `[class]{a,b}` pattern.
    #[derive(Debug, Clone)]
    pub struct RegexString {
        /// Inclusive character ranges (a literal is a one-char range).
        ranges: Vec<(char, char)>,
        min: usize,
        max: usize,
    }

    impl RegexString {
        fn draw_char(&self, rng: &mut StdRng) -> char {
            let total: u32 = self
                .ranges
                .iter()
                .map(|&(a, b)| b as u32 - a as u32 + 1)
                .sum();
            let mut pick = rng.random_range(0..total);
            for &(a, b) in &self.ranges {
                let width = b as u32 - a as u32 + 1;
                if pick < width {
                    return char::from_u32(a as u32 + pick).expect("class stays in ASCII");
                }
                pick -= width;
            }
            unreachable!("pick bounded by total width")
        }
    }

    impl Strategy for RegexString {
        type Value = String;
        fn new_value(&self, rng: &mut StdRng) -> String {
            let len = rng.random_range(self.min..=self.max);
            (0..len).map(|_| self.draw_char(rng)).collect()
        }
    }

    /// Tiny `string_regex`: supports the shape `[<class>]{<min>,<max>}`
    /// where the class is literals and `x-y` ranges with `\n \t \r \\
    /// \- \] \[` escapes — which covers every pattern this workspace's
    /// tests use.
    pub fn string_regex(pattern: &str) -> Result<RegexString, Error> {
        let err = || {
            Error(format!(
                "unsupported pattern {pattern:?} (need [class]{{a,b}})"
            ))
        };
        let rest = pattern.strip_prefix('[').ok_or_else(err)?;
        let mut chars = rest.chars();
        let mut class: Vec<char> = Vec::new();
        loop {
            match chars.next().ok_or_else(err)? {
                ']' => break,
                '\\' => class.push(match chars.next().ok_or_else(err)? {
                    'n' => '\n',
                    't' => '\t',
                    'r' => '\r',
                    c @ ('\\' | '-' | ']' | '[') => c,
                    _ => return Err(err()),
                }),
                c => class.push(c),
            }
        }
        let mut ranges: Vec<(char, char)> = Vec::new();
        let mut i = 0;
        while i < class.len() {
            // `x-y` only when `-` sits between two chars; edge dashes
            // are literals, matching regex character-class rules.
            if i + 2 < class.len() && class[i + 1] == '-' {
                if class[i] > class[i + 2] {
                    return Err(err());
                }
                ranges.push((class[i], class[i + 2]));
                i += 3;
            } else {
                ranges.push((class[i], class[i]));
                i += 1;
            }
        }
        if ranges.is_empty() {
            return Err(err());
        }
        let quant = chars.as_str();
        let inner = quant
            .strip_prefix('{')
            .and_then(|q| q.strip_suffix('}'))
            .ok_or_else(err)?;
        let (min, max) = inner.split_once(',').ok_or_else(err)?;
        let min: usize = min.parse().map_err(|_| err())?;
        let max: usize = max.parse().map_err(|_| err())?;
        if min > max {
            return Err(err());
        }
        Ok(RegexString { ranges, min, max })
    }
}

/// Deterministic per-test RNG seed: FNV-1a over the test's full name,
/// so failures reproduce run to run but differ test to test.
pub fn seed_for(test_name: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in test_name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Everything a `proptest!`-using test module needs in scope.
pub mod prelude {
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest, Just,
        ProptestConfig, Strategy,
    };
    /// The `prop` module alias the real prelude exports.
    pub mod prop {
        pub use crate::{bool, collection, string};
    }
}

/// Defines property tests: each `fn name(pat in strategy, …) { body }`
/// becomes a `#[test]` running `cases` random cases (no shrinking).
#[macro_export]
macro_rules! proptest {
    (
        #![proptest_config($cfg:expr)]
        $($rest:tt)*
    ) => {
        $crate::proptest!(@with_config ($cfg) $($rest)*);
    };
    (
        $(#[$meta:meta])*
        fn $($rest:tt)*
    ) => {
        $crate::proptest!(
            @with_config ($crate::ProptestConfig::default())
            $(#[$meta])* fn $($rest)*
        );
    };
    (
        @with_config ($cfg:expr)
        $(
            $(#[$meta:meta])*
            fn $name:ident($($pat:pat in $strat:expr),+ $(,)?) $body:block
        )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::ProptestConfig = $cfg;
                let mut rng = <$crate::__rand::rngs::StdRng as $crate::__rand::SeedableRng>::seed_from_u64(
                    $crate::seed_for(concat!(module_path!(), "::", stringify!($name))),
                );
                let mut accepted = 0u32;
                let mut attempts = 0u32;
                while accepted < config.cases {
                    attempts += 1;
                    assert!(
                        attempts <= config.cases.saturating_mul(20).max(100),
                        "too many prop_assume! rejections in {}",
                        stringify!($name),
                    );
                    $(let $pat = $crate::Strategy::new_value(&($strat), &mut rng);)+
                    let outcome: $crate::TestCaseResult = (|| { $body Ok(()) })();
                    match outcome {
                        Ok(()) => accepted += 1,
                        Err($crate::TestCaseError::Reject(_)) => continue,
                        Err($crate::TestCaseError::Fail(msg)) => {
                            panic!("property {} failed on case {}: {}", stringify!($name), accepted, msg)
                        }
                    }
                }
            }
        )*
    };
}

/// `assert!` that fails the surrounding property case.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return Err($crate::TestCaseError::Fail(format!($($fmt)+)));
        }
    };
}

/// `assert_eq!` that fails the surrounding property case.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l == *r,
            "assertion failed: {} == {}\n  left: {:?}\n right: {:?}",
            stringify!($left), stringify!($right), l, r
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(*l == *r, $($fmt)+);
    }};
}

/// `assert_ne!` that fails the surrounding property case.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l != *r,
            "assertion failed: {} != {}\n  both: {:?}",
            stringify!($left),
            stringify!($right),
            l
        );
    }};
}

/// Vetoes the current case (drawn again) instead of failing.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return Err($crate::TestCaseError::Reject(stringify!($cond).to_string()));
        }
    };
}

/// Uniform choice among strategies with a common value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::Union::new(vec![$($crate::boxed_strategy($strat)),+])
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;
    use rand::SeedableRng;

    #[test]
    fn ranges_tuples_and_vecs_generate_in_bounds() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let strat = (0u32..10, crate::collection::vec(5usize..8, 2..5));
        for _ in 0..100 {
            let (x, v) = crate::Strategy::new_value(&strat, &mut rng);
            assert!(x < 10);
            assert!((2..5).contains(&v.len()));
            assert!(v.iter().all(|&e| (5..8).contains(&e)));
        }
    }

    #[test]
    fn string_regex_supports_class_repeat() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let strat = crate::string::string_regex("[ -~]{0,30}").unwrap();
        for _ in 0..100 {
            let s = crate::Strategy::new_value(&strat, &mut rng);
            assert!(s.len() <= 30);
            assert!(s.chars().all(|c| (' '..='~').contains(&c)));
        }
        assert!(crate::string::string_regex("[a-z]+").is_err());
    }

    #[test]
    fn oneof_map_and_flat_map_compose() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let strat = prop_oneof![
            (0usize..4).prop_map(|x| x * 2),
            Just(99usize),
            (1usize..3).prop_flat_map(|n| n..n + 1),
        ];
        for _ in 0..200 {
            let v = crate::Strategy::new_value(&strat, &mut rng);
            assert!(v == 99 || v < 8);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn the_macro_itself_runs(a in 0u64..100, (b, c) in (0u32..5, any::<bool>())) {
            prop_assume!(a != 13);
            prop_assert!(a < 100);
            prop_assert_eq!(b as u64 + a, a + b as u64);
            let _ = c;
        }
    }
}
