//! # speedllm-testkit
//!
//! A deterministic, seedable, `std`-only property-testing harness — the
//! in-repo replacement for the subset of `proptest` this workspace uses,
//! so the whole test suite builds and runs offline.
//!
//! Four pieces:
//!
//! * [`fixture`] — a process-wide `(name, type)`-keyed cache so expensive
//!   fixtures (synthesized or parsed model weights) build once per test
//!   binary even when several tests — or several models in one test —
//!   need them.
//! * [`strategy`] — generators with shrinking: numeric ranges are
//!   strategies themselves (`0u64..200`, `-1.0f32..1.0`), tuples compose,
//!   and [`vec_of`]/[`printable_ascii`]/[`lowercase`]/[`unicode`] cover
//!   collections and text. [`StrategyExt::prop_map`] maps generated
//!   values.
//! * [`runner`] — seeded case generation (`TESTKIT_SEED` or a fixed
//!   default; every property derives its own stream from the base seed, so
//!   runs are reproducible end to end) and greedy shrinking to a minimal
//!   counterexample on failure.
//! * The [`props!`] macro — declares `#[test]` property functions in a
//!   `proptest!`-like shape:
//!
//! ```
//! use speedllm_testkit::prelude::*;
//!
//! props! {
//!     #![config(cases = 64)]
//!
//!     fn addition_commutes(a in 0u64..1000, b in 0u64..1000) {
//!         prop_assert_eq!(a + b, b + a);
//!     }
//! }
//! # fn main() {}
//! ```
//!
//! Inside a property body, [`prop_assert!`] / [`prop_assert_eq!`] record a
//! failure (triggering shrinking) instead of panicking, and `?` works on
//! any `Result<_, TestCaseError>`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod fixture;
pub mod rng;
pub mod runner;
pub mod strategy;

pub use rng::TestRng;
pub use runner::{check, run, Config, Failure, TestCaseError, DEFAULT_SEED};
pub use strategy::{
    any_bool, any_u64, lowercase, printable_ascii, unicode, vec_of, Strategy, StrategyExt,
};

/// Everything a property-test file needs.
pub mod prelude {
    pub use crate::runner::{Config, TestCaseError};
    pub use crate::strategy::{
        any_bool, any_u64, lowercase, printable_ascii, unicode, vec_of, Strategy, StrategyExt,
    };
    pub use crate::{prop_assert, prop_assert_eq, props};
}

/// Records a property failure (and starts shrinking) when the condition is
/// false. With extra arguments, they format the failure message.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return Err($crate::TestCaseError::fail(concat!(
                "assertion failed: ",
                stringify!($cond)
            )));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return Err($crate::TestCaseError::fail(format!($($fmt)+)));
        }
    };
}

/// [`prop_assert!`] for equality, printing both sides on failure.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {{
        let (left, right) = (&$left, &$right);
        if left != right {
            return Err($crate::TestCaseError::fail(format!(
                "assertion failed: `{:?}` != `{:?}`",
                left, right
            )));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (left, right) = (&$left, &$right);
        if left != right {
            return Err($crate::TestCaseError::fail(format!($($fmt)+)));
        }
    }};
}

/// Declares property tests. Each `fn name(arg in strategy, ...) { body }`
/// becomes a `#[test]` running `cases` generated cases (default 256), with
/// shrinking and a replayable seed on failure.
#[macro_export]
macro_rules! props {
    (
        #![config(cases = $cases:expr)]
        $($rest:tt)*
    ) => {
        $crate::props! { @cfg ($cases) $($rest)* }
    };
    (@cfg ($cases:expr)
        $(
            $(#[$meta:meta])*
            fn $name:ident( $( $arg:ident in $strat:expr ),+ $(,)? ) $body:block
        )*
    ) => {
        $(
            $(#[$meta])*
            #[test]
            fn $name() {
                let cfg = $crate::Config { cases: $cases, ..$crate::Config::default() };
                let strat = ( $( $strat, )+ );
                $crate::check(&cfg, stringify!($name), &strat, |( $( $arg, )+ )| {
                    $body
                    Ok(())
                });
            }
        )*
    };
    // No `#![config]` header: run with the default 256 cases. This
    // catch-all must stay last so `@cfg` invocations match above.
    (
        $($rest:tt)*
    ) => {
        $crate::props! { @cfg (256u32) $($rest)* }
    };
}
