//! The harness tested by itself: seed determinism, name-keyed streams,
//! shrinking convergence, and `TESTKIT_SEED` replay.

use speedllm_testkit::prelude::*;
use speedllm_testkit::{run, Config, TestRng};

fn cfg(seed: u64) -> Config {
    Config {
        cases: 128,
        seed: Some(seed),
        ..Config::default()
    }
}

#[test]
fn same_seed_same_generated_sequence() {
    let strat = (
        0u64..1_000_000,
        vec_of(-1.0f32..1.0, 0..8),
        printable_ascii(0..16),
    );
    let gen_with = |seed: u64| {
        let mut rng = TestRng::new(seed);
        (0..64)
            .map(|_| strat.generate(&mut rng))
            .collect::<Vec<_>>()
    };
    assert_eq!(gen_with(42), gen_with(42));
    assert_ne!(gen_with(42), gen_with(43));
}

#[test]
fn same_seed_same_failure_report() {
    let prop = |v: u64| {
        if v >= 700 {
            Err(TestCaseError::fail("too big"))
        } else {
            Ok(())
        }
    };
    let a = run(&cfg(7), "det", &(0u64..100_000), prop).expect_err("must fail");
    let b = run(&cfg(7), "det", &(0u64..100_000), prop).expect_err("must fail");
    assert_eq!(a.case, b.case);
    assert_eq!(a.original, b.original);
    assert_eq!(a.minimal, b.minimal);
}

#[test]
fn property_name_keys_the_stream() {
    // Two properties with the same base seed see different case sequences,
    // so one property's fix can't mask another's failure.
    let seen = |name: &str| {
        let out = std::cell::RefCell::new(Vec::new());
        run(&cfg(1), name, &(0u64..u64::MAX >> 1), |v| {
            out.borrow_mut().push(v);
            Ok(())
        })
        .unwrap();
        out.into_inner()
    };
    assert_ne!(seen("alpha"), seen("beta"));
}

#[test]
fn integer_shrinking_converges_to_the_boundary() {
    let f = run(&cfg(3), "boundary", &(0u64..100_000), |v| {
        if v >= 10 {
            Err(TestCaseError::fail("v >= 10"))
        } else {
            Ok(())
        }
    })
    .expect_err("must fail");
    assert_eq!(f.minimal, 10, "minimal counterexample must be the boundary");
    assert!(f.original >= f.minimal);
    assert!(f.shrink_steps > 0 || f.original == 10);
}

#[test]
fn vec_shrinking_converges_to_a_single_minimal_element() {
    let f = run(
        &cfg(5),
        "vec_min",
        &vec_of(0u64..1000, 0..20),
        |v: Vec<u64>| {
            if v.iter().any(|&x| x >= 500) {
                Err(TestCaseError::fail("contains big"))
            } else {
                Ok(())
            }
        },
    )
    .expect_err("must fail");
    assert_eq!(
        f.minimal,
        vec![500],
        "minimal counterexample must be a single boundary element"
    );
}

#[test]
fn string_shrinking_only_simplifies() {
    let f = run(&cfg(11), "str_min", &printable_ascii(0..40), |s: String| {
        if s.len() >= 5 {
            Err(TestCaseError::fail("too long"))
        } else {
            Ok(())
        }
    })
    .expect_err("must fail");
    assert_eq!(f.minimal.chars().count(), 5);
    assert!(
        f.minimal.chars().all(|c| c == ' '),
        "chars simplify to space: {:?}",
        f.minimal
    );
}

#[test]
fn testkit_seed_env_is_honored() {
    // This test owns the env var for its own process-global moment; every
    // other test in this file pins Config::seed and never reads the env.
    std::env::set_var("TESTKIT_SEED", "12345");
    let resolved = Config::default().resolved_seed();
    std::env::remove_var("TESTKIT_SEED");
    assert_eq!(resolved, 12345);
    assert_eq!(
        Config::default().resolved_seed(),
        speedllm_testkit::DEFAULT_SEED
    );
}

#[test]
fn passing_property_touches_every_case() {
    let n = std::cell::Cell::new(0u32);
    run(&cfg(2), "count", &any_bool(), |_| {
        n.set(n.get() + 1);
        Ok(())
    })
    .unwrap();
    assert_eq!(n.get(), 128);
}

props! {
    #![config(cases = 64)]

    // The macro surface itself, exercised end to end.
    fn macro_tuple_args_work(a in 0u64..100, b in any_bool(), s in lowercase(1..5)) {
        prop_assert!(a < 100);
        let _: bool = b;
        prop_assert!(!s.is_empty() && s.len() < 5);
        prop_assert!(s.bytes().all(|c| c.is_ascii_lowercase()));
    }

    fn macro_mapped_strategy_works(even in (0u64..50).prop_map(|x| x * 2)) {
        prop_assert_eq!(even % 2, 0);
    }

    fn unicode_strategy_emits_no_control_chars(s in unicode(0..30)) {
        prop_assert!(s.chars().all(|c| !c.is_control()), "control char in {:?}", s);
    }
}
