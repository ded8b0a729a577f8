//! A `return` in a `proptest!` body ends that case, not the test.

use std::sync::atomic::{AtomicU32, Ordering};

use proptest::prelude::*;

static CASES_RUN: AtomicU32 = AtomicU32::new(0);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    // No `#[test]`: the test below runs it and then counts its cases.
    fn every_case_returns_early(bytes in prop::collection::vec(any::<u8>(), 0..4)) {
        CASES_RUN.fetch_add(1, Ordering::SeqCst);
        if bytes.len() < 4 {
            return;
        }
        unreachable!("every case returns before this");
    }
}

#[test]
fn an_early_return_ends_only_its_case() {
    every_case_returns_early();
    assert_eq!(CASES_RUN.load(Ordering::SeqCst), 16);
}
