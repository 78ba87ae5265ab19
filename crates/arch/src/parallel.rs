//! Intra-job parallelism configuration.
//!
//! A single cold synthesis job can spread its work over several cores while
//! staying **bit-identical to the sequential result**. The one parallel
//! section is the **multi-start placement annealer**: K independent
//! refinement starts, each with its own RNG stream split from the seed
//! ([`split_seed`]; start 0 uses the seed unchanged, so K = 1 reproduces
//! the original stream exactly), winner chosen by `(cost, start index)` —
//! never by completion order. Routing is sequential.
//!
//! Running with one thread, eight threads, or eight threads on one core
//! therefore produces the same chip, the same stage counters and the same
//! report — parallelism is an execution policy, not part of a job's
//! identity. (The job service exploits exactly that: `parallelism` is
//! stripped from the content key of a submission, so a result computed with
//! 8 threads answers a later 1-thread submission of the same problem.)

use serde::{Deserialize, Serialize};

/// How many worker threads a single synthesis job may use.
///
/// This knob never changes the synthesized chip — only how fast it is
/// found. It is therefore deliberately *not* part of the result identity:
/// the job service strips it before hashing a submission into its content
/// key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Parallelism {
    /// Worker threads for one synthesis job. `0` means "all available
    /// cores" ([`std::thread::available_parallelism`]); `1` (the default)
    /// refines every placement start on the calling thread.
    pub threads: usize,
}

impl Default for Parallelism {
    fn default() -> Self {
        Parallelism { threads: 1 }
    }
}

impl Parallelism {
    /// Sequential execution (the default).
    #[must_use]
    pub fn sequential() -> Self {
        Parallelism { threads: 1 }
    }

    /// Use every core the host offers.
    #[must_use]
    pub fn auto() -> Self {
        Parallelism { threads: 0 }
    }

    /// A fixed thread count (`0` = auto).
    #[must_use]
    pub fn with_threads(threads: usize) -> Self {
        Parallelism { threads }
    }

    /// The concrete worker count this configuration resolves to on the
    /// current host (always at least 1).
    #[must_use]
    pub fn effective_threads(&self) -> usize {
        if self.threads == 0 {
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        } else {
            self.threads
        }
    }
}

/// Splits an RNG seed into per-start streams for the multi-start annealer.
///
/// Start 0 returns the seed **unchanged**, so a single-start run reproduces
/// the historical stream (and thus the committed goldens) bit for bit.
/// Later starts are decorrelated through a SplitMix64-style mix of the seed
/// and the start index.
#[must_use]
pub fn split_seed(seed: u64, start: usize) -> u64 {
    if start == 0 {
        return seed;
    }
    let mut z = seed ^ (start as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn start_zero_keeps_the_seed() {
        for seed in [0, 1, 0xC0FFEE, u64::MAX] {
            assert_eq!(split_seed(seed, 0), seed);
        }
    }

    #[test]
    fn later_starts_decorrelate() {
        let streams: Vec<u64> = (0..8).map(|k| split_seed(0xC0FFEE, k)).collect();
        let mut unique = streams.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), streams.len(), "{streams:?}");
    }

    #[test]
    fn effective_threads_is_at_least_one() {
        assert_eq!(Parallelism::sequential().effective_threads(), 1);
        assert_eq!(Parallelism::with_threads(5).effective_threads(), 5);
        assert!(Parallelism::auto().effective_threads() >= 1);
    }

    #[test]
    fn parallelism_round_trips_as_json() {
        use serde::{Deserialize, Serialize};
        let p = Parallelism::with_threads(4);
        let back = Parallelism::from_json(&p.to_json()).unwrap();
        assert_eq!(back, p);
    }
}
