//! Minimal, dependency-free stand-in for `proptest`.
//!
//! Implements the strategy combinators and macros this workspace's
//! property tests use — `proptest! { #![proptest_config(...)] ... }`,
//! integer-range strategies, tuples, `prop_map`, `boxed`, `prop_oneof!`
//! (weighted and unweighted), `prop::collection::vec`, `any::<T>()`, and
//! the `prop_assert*` macros. Cases are generated from a per-test
//! deterministic seed (an FNV hash of the test name), so failures
//! reproduce; there is no shrinking — instead, a failing case reports its
//! case number and the `Debug` rendering of every generated input
//! alongside the assertion message.

#![forbid(unsafe_code)]

pub mod strategy;
pub mod test_runner;

/// Value-generation entry points (`any::<T>()`).
pub mod arbitrary {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use rand::Rng as _;
    use std::marker::PhantomData;

    /// Types with a canonical random generator.
    pub trait Arbitrary: Sized {
        /// Draws one value.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> bool {
            rng.rng.random_bool(0.5)
        }
    }

    macro_rules! impl_arbitrary_int {
        ($($t:ty),* $(,)?) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> $t {
                    use rand::Rng as _;
                    rng.rng.next_u64() as $t
                }
            }
        )*};
    }
    impl_arbitrary_int!(u8, u16, u32, u64, usize);

    /// Strategy producing arbitrary values of `T`.
    pub struct Any<T>(PhantomData<fn() -> T>);

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }

    /// The strategy for any `T: Arbitrary` (subset of `proptest::arbitrary::any`).
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(PhantomData)
    }
}

/// Collection strategies (`prop::collection::vec`).
pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use rand::Rng as _;
    use std::ops::Range;

    /// Strategy for `Vec`s of values from an element strategy.
    pub struct VecStrategy<S> {
        element: S,
        size: Range<usize>,
    }

    /// Vectors with a length drawn from `size` (subset of
    /// `proptest::collection::vec`).
    pub fn vec<S: Strategy>(element: S, size: Range<usize>) -> VecStrategy<S> {
        assert!(size.start < size.end, "empty size range");
        VecStrategy { element, size }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = rng.rng.random_range(self.size.clone());
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Everything a property-test file needs in scope.
pub mod prelude {
    pub use crate::arbitrary::any;
    pub use crate::strategy::{BoxedStrategy, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};

    /// Namespace mirror of `proptest::prelude::prop`.
    pub mod prop {
        pub use crate::collection;
    }
}

/// Asserts a condition inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert {
    ($($arg:tt)*) => { assert!($($arg)*) };
}

/// Asserts equality inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($arg:tt)*) => { assert_eq!($($arg)*) };
}

/// Asserts inequality inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($arg:tt)*) => { assert_ne!($($arg)*) };
}

/// Weighted or unweighted choice between strategies of one value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:expr => $strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $(($weight as u32, $crate::strategy::Strategy::boxed($strat))),+
        ])
    };
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $((1u32, $crate::strategy::Strategy::boxed($strat))),+
        ])
    };
}

/// Defines `#[test]` functions whose arguments are drawn from strategies.
///
/// Each test runs `config.cases` generated cases; the RNG seed is derived
/// from the test's name, so runs are deterministic. Each body runs as a
/// closure, so a `return` ends its case and the next one runs.
#[macro_export]
macro_rules! proptest {
    (
        #![proptest_config($config:expr)]
        $(
            $(#[$meta:meta])*
            fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
        )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::test_runner::ProptestConfig = $config;
                let mut rng = $crate::test_runner::TestRng::for_test(stringify!($name));
                // Build each strategy once (binding it to the argument
                // name, which the generated value then shadows per case).
                $(let $arg = $strat;)+
                for _case in 0..config.cases {
                    $(let $arg = $crate::strategy::Strategy::generate(&$arg, &mut rng);)+
                    // On panic, the guard reports the case number and the
                    // generated inputs so the failure is reconstructible.
                    let _guard = $crate::test_runner::CaseGuard::new(
                        _case,
                        format!(
                            concat!($(stringify!($arg), " = {:?}; "),+),
                            $(&$arg),+
                        ),
                    );
                    // A closure per case: `return` ends this case only.
                    (|| $body)();
                }
            }
        )*
    };
    (
        $(
            $(#[$meta:meta])*
            fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
        )*
    ) => {
        $crate::proptest! {
            #![proptest_config($crate::test_runner::ProptestConfig::default())]
            $($(#[$meta])* fn $name($($arg in $strat),+) $body)*
        }
    };
}
