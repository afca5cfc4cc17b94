//! A seeded property checker on [`SmallRng`].
//!
//! [`check`] runs a property over `cases` generated cases, in order. Each
//! case gets its own generator, seeded from the property's name and the
//! case's index, so a run draws the same cases on every host and every
//! run, and adding a case never changes the ones before it. There is no
//! shrinking: a generator that wants its case read back prints it in the
//! panic message (`assert!(…, "{case:?}")`).
//!
//! When a case panics, the checker prints the property's name, the case
//! index and the seed to stderr, and the panic goes on. To replay one
//! case, run the property's body on `SmallRng::seed_from_u64(seed)`.
//!
//! ```
//! use rqfa_workloads::check::check;
//!
//! check("addition_commutes", 64, |rng| {
//!     let (a, b) = (rng.gen_range(0..1000u32), rng.gen_range(0..1000u32));
//!     assert_eq!(a + b, b + a);
//! });
//! ```

use std::fmt;
use std::io::{self, Write};
use std::thread;

use crate::rng::SmallRng;

// The three non-generic functions below are `#[inline]`, so they are
// compiled only into a crate that calls `check`: a binary that links
// this crate for its generators gets none of the checker's code.

/// One case of a property run: what a failure report names.
#[derive(Clone, Copy)]
struct Case<'a> {
    name: &'a str,
    index: u32,
    seed: u64,
}

impl<'a> Case<'a> {
    /// Case `index` of property `name`, with its seed: the name's
    /// FNV-1a hash mixed with the index.
    #[inline]
    fn new(name: &'a str, index: u32) -> Case<'a> {
        let hash = name.bytes().fold(0xCBF2_9CE4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3)
        });
        let seed = hash ^ u64::from(index).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        Case { name, index, seed }
    }
}

impl fmt::Display for Case<'_> {
    #[inline]
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "property `{}` failed at case {} (seed {:#018x})",
            self.name, self.index, self.seed
        )
    }
}

/// Runs `property` on `cases` seeded generators, case 0 first. A panic
/// in any case prints the property's name, the case index and the seed
/// to stderr, and goes on.
pub fn check(name: &str, cases: u32, property: impl FnMut(&mut SmallRng)) {
    check_with(name, cases, property, |case| {
        // Not `eprintln!`: it panics if stderr fails, and this runs in a
        // drop during a panic, where a second panic aborts.
        let _ = writeln!(io::stderr(), "{case}");
    });
}

/// [`check`] with the failure report sent to `report`.
fn check_with(
    name: &str,
    cases: u32,
    mut property: impl FnMut(&mut SmallRng),
    mut report: impl FnMut(Case<'_>),
) {
    for index in 0..cases {
        let case = Case::new(name, index);
        let _guard = Guard {
            case,
            report: &mut report,
        };
        property(&mut SmallRng::seed_from_u64(case.seed));
    }
}

/// Reports its case if it is dropped while the thread unwinds.
struct Guard<'a, 'r> {
    case: Case<'a>,
    report: &'r mut dyn FnMut(Case<'_>),
}

impl Drop for Guard<'_, '_> {
    #[inline]
    fn drop(&mut self) {
        if thread::panicking() {
            (self.report)(self.case);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn a_failing_case_is_reported_by_name_index_and_seed() {
        let mut reports = Vec::new();
        let mut calls = 0;
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            check_with(
                "fails_at_three",
                10,
                |_| {
                    calls += 1;
                    assert!(calls != 4, "the property's own message at call {calls}");
                },
                |case| reports.push(case.to_string()),
            );
        }));
        let payload = outcome.expect_err("case 3 panics");
        assert_eq!(
            payload.downcast_ref::<String>().map(String::as_str),
            Some("the property's own message at call 4"),
            "the property's panic goes on unchanged"
        );
        assert_eq!(calls, 4, "no case runs after the failing one");
        let seed = Case::new("fails_at_three", 3).seed;
        assert_eq!(
            reports,
            [format!(
                "property `fails_at_three` failed at case 3 (seed {seed:#018x})"
            )]
        );
    }

    #[test]
    fn two_runs_draw_the_same_cases() {
        let draw = |name: &str| {
            let mut drawn = Vec::new();
            check(name, 16, |rng| drawn.push(rng.next_u64()));
            drawn
        };
        let first = draw("same_cases");
        assert_eq!(first, draw("same_cases"));
        assert_eq!(first.len(), 16);
        let mut distinct = first.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), 16, "every case has its own seed");
        assert_ne!(first, draw("other_name"), "the name enters the seed");
    }
}
