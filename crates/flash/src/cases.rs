//! The case loop of the workspace's property tests.
//!
//! The simulator is deterministic, so a property is a loop over seeds: case
//! `n` draws its inputs from `StdRng::seed_from_u64(n)` and is the same case
//! on every machine and in every run.

use rand::rngs::StdRng;
use rand::SeedableRng;

/// Run `body` for the case seeds `0..cases`, handing each its own generator.
/// When a case panics its seed is named on stderr, so the failure re-runs
/// alone from `StdRng::seed_from_u64(seed)`.
pub fn for_each_case(cases: u64, mut body: impl FnMut(&mut StdRng)) {
    struct NameOnPanic(u64);
    impl Drop for NameOnPanic {
        fn drop(&mut self) {
            if std::thread::panicking() {
                eprintln!("property failed at case seed {}", self.0);
            }
        }
    }
    for case in 0..cases {
        let _named = NameOnPanic(case);
        body(&mut StdRng::seed_from_u64(case));
    }
}
