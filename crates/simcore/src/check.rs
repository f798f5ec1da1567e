//! Seeded case loop for property tests.
//!
//! [`check`] runs a test body over `cases` random cases, each with its
//! own [`Rng`]: case `i` of the test named `name` draws from
//! `Rng::new(fnv1a(name)).fork(i)`. The body draws its inputs from that
//! generator with the ordinary `Rng` methods and asserts with `assert!`;
//! returning early skips a case. There is no shrinking: a failing case
//! is re-raised with the test name, its index and the seed, which is
//! enough to replay it alone.
//!
//! ```
//! outran_simcore::check("sum_commutes", 32, |rng| {
//!     let (a, b) = (rng.below(1000), rng.below(1000));
//!     assert_eq!(a + b, b + a);
//! });
//! ```

use crate::{fnv1a, Rng};
use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Run `body` on `cases` seeded cases of the property `name`. Panics,
/// naming the case and how to rebuild its generator, if any case does.
#[expect(
    clippy::panic,
    reason = "re-raises a failing test case with the context to replay it"
)]
pub fn check(name: &str, cases: u32, mut body: impl FnMut(&mut Rng)) {
    let seed = fnv1a(name.as_bytes());
    let root = Rng::new(seed);
    for case in 0..cases {
        let mut rng = root.fork(u64::from(case));
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| body(&mut rng))) {
            let msg = panic_message(payload.as_ref());
            panic!("{name}: case {case} of {cases} failed (replay with Rng::new({seed:#x}).fork({case})): {msg}");
        }
    }
}

/// The message of a caught panic: its `String` or `&str` payload, or a
/// placeholder for any other payload type.
fn panic_message(payload: &(dyn Any + Send)) -> &str {
    payload
        .downcast_ref::<String>()
        .map(String::as_str)
        .or_else(|| payload.downcast_ref::<&str>().copied())
        .unwrap_or("non-string panic payload")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cases_get_distinct_reproducible_streams() {
        let mut first = Vec::new();
        check("streams", 4, |rng| first.push(rng.next_u64_raw()));
        let root = Rng::new(fnv1a(b"streams"));
        let want: Vec<u64> = (0..4).map(|i| root.fork(i).next_u64_raw()).collect();
        assert_eq!(first, want);
        assert!(want.windows(2).all(|w| w[0] != w[1]));
    }

    #[test]
    #[should_panic(expected = "failing: case 2 of 5 failed (replay with Rng::new(0x")]
    fn a_failing_case_is_named() {
        let mut case = 0;
        check("failing", 5, |_| {
            assert!(case < 2, "boom");
            case += 1;
        });
    }
}
