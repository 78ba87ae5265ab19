//! Seeded random assay generation (the RA30 / RA70 / RA100 stress cases and
//! the RA1K / RA10K scale family).
//!
//! The paper evaluates on three randomly generated assays with 30, 70 and 100
//! operations but does not publish the generator. The generator here produces
//! layered DAGs of mixing operations: operations are distributed over layers
//! and every non-root operation draws its parents from earlier layers
//! (biased towards the immediately preceding layer). This yields the same
//! qualitative stress profile — many concurrently live intermediate samples
//! that must be stored — while being fully reproducible via the seed.
//!
//! Beyond the paper's 100-operation ceiling, the *scale family*
//! ([`ra1k`], [`ra10k`], or any size via [`RandomAssayConfig::scaled`])
//! stresses the schedulers with thousands of operations, wider layers,
//! configurable fan-in ([`RandomAssayConfig::with_max_fan_in`]) and fan-out
//! ([`RandomAssayConfig::with_max_fan_out`]) and mixed operation durations
//! ([`RandomAssayConfig::with_duration_choices`]). All extensions are
//! RNG-stream compatible with the original generator: a configuration using
//! only the paper-era knobs produces bit-identical graphs to earlier
//! releases.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::graph::{OpId, SequencingGraph};
use crate::ops::OperationKind;
use crate::Seconds;

/// Configuration of the random assay generator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RandomAssayConfig {
    /// Number of device operations to generate.
    pub num_operations: usize,
    /// RNG seed; the same seed always yields the same graph.
    pub seed: u64,
    /// Average number of operations per layer (controls parallelism).
    pub layer_width: usize,
    /// Probability (in percent) that an operation has more than one parent.
    pub two_parent_percent: u8,
    /// Duration of each generated mixing operation (used when
    /// [`duration_choices`](Self::duration_choices) is empty).
    pub mix_duration: Seconds,
    /// Largest fan-in of a generated operation: when the multi-parent roll
    /// succeeds, the parent count is drawn uniformly from `2..=max_fan_in`.
    /// The default of 2 reproduces the paper-era one-or-two-parent graphs.
    pub max_fan_in: usize,
    /// Soft cap on the fan-out of a generated operation: parents that
    /// already feed this many children are avoided when an alternative
    /// exists. `0` (the default) leaves fan-out unbounded.
    pub max_fan_out: usize,
    /// Duration mix: when non-empty, each operation draws its duration
    /// uniformly from these choices instead of using
    /// [`mix_duration`](Self::mix_duration).
    pub duration_choices: Vec<Seconds>,
}

impl RandomAssayConfig {
    /// Creates a configuration with the defaults used for the paper's
    /// RA benchmarks (layer width 5, 70 % two-parent operations, 60 s mixes).
    #[must_use]
    pub fn new(num_operations: usize, seed: u64) -> Self {
        RandomAssayConfig {
            num_operations,
            seed,
            layer_width: 5,
            two_parent_percent: 70,
            mix_duration: 60,
            max_fan_in: 2,
            max_fan_out: 0,
            duration_choices: Vec::new(),
        }
    }

    /// Creates a configuration for the scale family: wider layers (so the
    /// ready set grows with assay size), fan-in up to 3 with a soft fan-out
    /// cap of 6, and a mixed duration profile. This is the generator behind
    /// [`ra1k`] and [`ra10k`].
    #[must_use]
    pub fn scaled(num_operations: usize, seed: u64) -> Self {
        RandomAssayConfig::new(num_operations, seed)
            .with_layer_width((num_operations / 100).max(8))
            .with_max_fan_in(3)
            .with_max_fan_out(6)
            .with_duration_choices(vec![30, 60, 90, 120])
    }

    /// Sets the average layer width.
    #[must_use]
    pub fn with_layer_width(mut self, width: usize) -> Self {
        self.layer_width = width.max(1);
        self
    }

    /// Sets the probability (percent) of two-parent operations.
    #[must_use]
    pub fn with_two_parent_percent(mut self, percent: u8) -> Self {
        self.two_parent_percent = percent.min(100);
        self
    }

    /// Sets the duration of generated mixing operations.
    #[must_use]
    pub fn with_mix_duration(mut self, duration: Seconds) -> Self {
        self.mix_duration = duration;
        self
    }

    /// Sets the largest fan-in (at least 2; 2 reproduces the paper-era
    /// generator exactly).
    #[must_use]
    pub fn with_max_fan_in(mut self, fan_in: usize) -> Self {
        self.max_fan_in = fan_in.max(2);
        self
    }

    /// Sets the soft fan-out cap (`0` disables the cap).
    #[must_use]
    pub fn with_max_fan_out(mut self, fan_out: usize) -> Self {
        self.max_fan_out = fan_out;
        self
    }

    /// Sets the duration mix (an empty list falls back to
    /// [`mix_duration`](Self::mix_duration)).
    #[must_use]
    pub fn with_duration_choices(mut self, choices: Vec<Seconds>) -> Self {
        self.duration_choices = choices;
        self
    }
}

impl Default for RandomAssayConfig {
    fn default() -> Self {
        RandomAssayConfig::new(30, 0xB10C)
    }
}

/// Generates a random assay according to `config`.
///
/// The result is deterministic in `config` (including the seed).
///
/// # Panics
///
/// Panics if `config.num_operations` is zero.
#[must_use]
pub fn generate(config: &RandomAssayConfig) -> SequencingGraph {
    assert!(
        config.num_operations > 0,
        "random assay needs at least one operation"
    );
    let mut rng = StdRng::seed_from_u64(config.seed);
    let name = format!("RA{}", config.num_operations);
    let mut graph = SequencingGraph::new(name);

    // Split operations into layers of width ~layer_width (at least 1).
    let mut layers: Vec<Vec<OpId>> = Vec::new();
    let mut created = 0usize;
    while created < config.num_operations {
        let remaining = config.num_operations - created;
        let span = config.layer_width.min(remaining).max(1);
        // Jitter the layer width by ±1 to avoid a perfectly regular profile.
        let width = if span > 2 && remaining > span {
            span - 1 + rng.gen_range(0..=2).min(remaining - span + 1)
        } else {
            span
        };
        let mut layer = Vec::with_capacity(width);
        for _ in 0..width {
            // Only a real duration *mix* consumes randomness, so paper-era
            // configurations keep their historical RNG stream (and graphs).
            let duration = match config.duration_choices.len() {
                0 => config.mix_duration,
                1 => config.duration_choices[0],
                n => config.duration_choices[rng.gen_range(0..n)],
            };
            let id = graph.add_operation_with_duration(
                format!("o{}", created + 1),
                OperationKind::Mix,
                duration,
            );
            layer.push(id);
            created += 1;
            if created == config.num_operations {
                break;
            }
        }
        layers.push(layer);
    }

    // Wire parents: every operation beyond the first layer takes one to
    // `max_fan_in` parents from earlier layers, biased towards the previous
    // layer.
    let mut child_count = vec![0usize; config.num_operations];
    for li in 1..layers.len() {
        for &child in &layers[li] {
            let multi = rng.gen_range(0..100) < u32::from(config.two_parent_percent);
            // Direct struct construction can bypass the `with_max_fan_in`
            // clamp, so re-clamp here before sampling `2..=max`.
            let wanted = match (multi, config.max_fan_in.max(2)) {
                (false, _) => 1,
                // The fan-in draw is skipped at the paper-era default of 2,
                // keeping the historical RNG stream.
                (true, 2) => 2,
                (true, max) => rng.gen_range(2..=max),
            };
            let mut chosen: Vec<OpId> = Vec::with_capacity(wanted);
            let attempt_budget = 8 * wanted + 16;
            let mut attempts = 0;
            while chosen.len() < wanted && attempts < attempt_budget {
                attempts += 1;
                // 75 %: previous layer, 25 %: any earlier layer.
                let source_layer = if rng.gen_range(0..4) < 3 || li == 1 {
                    li - 1
                } else {
                    rng.gen_range(0..li)
                };
                let candidate = *layers[source_layer]
                    .choose(&mut rng)
                    .expect("layers are non-empty");
                if chosen.contains(&candidate) {
                    if layers[source_layer].len() == 1 && wanted > 1 {
                        // Cannot find another distinct parent in a width-1
                        // layer; settle for fewer parents.
                        break;
                    }
                    continue;
                }
                // Soft fan-out cap: avoid saturated parents while the
                // attempt budget allows looking for an alternative.
                if config.max_fan_out > 0
                    && child_count[candidate.index()] >= config.max_fan_out
                    && attempts < attempt_budget / 2
                {
                    continue;
                }
                chosen.push(candidate);
            }
            for parent in chosen {
                // Duplicate edges can only arise from the retry loop above and
                // are prevented there, so this cannot fail.
                child_count[parent.index()] += 1;
                graph
                    .add_dependency(parent, child)
                    .expect("generator never creates duplicate or cyclic edges");
            }
        }
    }
    graph
}

/// Seed used for the RA30 benchmark.
pub const RA30_SEED: u64 = 30;
/// Seed used for the RA70 benchmark.
pub const RA70_SEED: u64 = 70;
/// Seed used for the RA100 benchmark.
pub const RA100_SEED: u64 = 100;

/// The RA30 random benchmark (30 mixing operations).
#[must_use]
pub fn ra30() -> SequencingGraph {
    generate(&RandomAssayConfig::new(30, RA30_SEED))
}

/// The RA70 random benchmark (70 mixing operations).
#[must_use]
pub fn ra70() -> SequencingGraph {
    generate(&RandomAssayConfig::new(70, RA70_SEED))
}

/// The RA100 random benchmark (100 mixing operations).
#[must_use]
pub fn ra100() -> SequencingGraph {
    generate(&RandomAssayConfig::new(100, RA100_SEED))
}

/// Seed used for the RA1K scale benchmark.
pub const RA1K_SEED: u64 = 1_000;
/// Seed used for the RA10K scale benchmark.
pub const RA10K_SEED: u64 = 10_000;

/// The RA1K scale benchmark (1,000 operations, see
/// [`RandomAssayConfig::scaled`]).
#[must_use]
pub fn ra1k() -> SequencingGraph {
    generate(&RandomAssayConfig::scaled(1_000, RA1K_SEED))
}

/// The RA10K scale benchmark (10,000 operations, see
/// [`RandomAssayConfig::scaled`]).
#[must_use]
pub fn ra10k() -> SequencingGraph {
    generate(&RandomAssayConfig::scaled(10_000, RA10K_SEED))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn generation_is_deterministic() {
        let a = ra30();
        let b = ra30();
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate(&RandomAssayConfig::new(30, 1));
        let b = generate(&RandomAssayConfig::new(30, 2));
        assert_ne!(a, b);
    }

    #[test]
    fn benchmark_sizes() {
        assert_eq!(ra30().num_operations(), 30);
        assert_eq!(ra70().num_operations(), 70);
        assert_eq!(ra100().num_operations(), 100);
    }

    #[test]
    fn scale_presets_have_expected_shape() {
        let g = ra1k();
        assert_eq!(g.num_operations(), 1_000);
        assert!(g.validate().is_ok());
        // The duration mix actually mixes.
        let durations: std::collections::HashSet<u64> =
            g.iter().map(|(_, op)| op.duration).collect();
        assert!(durations.len() > 1, "scale family mixes durations");
        // Fan-in goes beyond the paper-era maximum of two somewhere.
        assert!(g.ids().any(|id| g.parents(id).len() > 2));
    }

    #[test]
    fn fan_in_and_fan_out_knobs_shape_the_graph() {
        let cfg = RandomAssayConfig::new(200, 42)
            .with_layer_width(10)
            .with_two_parent_percent(100)
            .with_max_fan_in(4)
            .with_max_fan_out(3);
        let g = generate(&cfg);
        assert!(g.validate().is_ok());
        for id in g.ids() {
            assert!(g.parents(id).len() <= 4, "{id} exceeds max fan-in");
        }
        // The cap is soft, but it must visibly flatten the fan-out profile
        // compared to the uncapped generator.
        let uncapped = generate(&RandomAssayConfig {
            max_fan_out: 0,
            ..cfg.clone()
        });
        let max_out = |g: &SequencingGraph| g.ids().map(|id| g.children(id).len()).max().unwrap();
        assert!(max_out(&g) <= max_out(&uncapped));
    }

    #[test]
    fn direct_struct_fan_in_below_two_is_clamped_not_a_panic() {
        // Struct-update syntax bypasses the `with_max_fan_in` clamp; the
        // generator must re-clamp instead of sampling an empty range.
        for max_fan_in in [0, 1] {
            let cfg = RandomAssayConfig {
                max_fan_in,
                ..RandomAssayConfig::new(50, 7).with_two_parent_percent(100)
            };
            let g = generate(&cfg);
            assert!(g.validate().is_ok());
            assert_eq!(
                g,
                generate(&RandomAssayConfig::new(50, 7).with_two_parent_percent(100))
            );
        }
    }

    #[test]
    fn paper_era_configs_are_stream_compatible() {
        // The new knobs must not consume randomness at their defaults: a
        // plain `new` configuration produces the same graph as one that sets
        // the defaults explicitly.
        let plain = generate(&RandomAssayConfig::new(60, 7));
        let explicit = generate(
            &RandomAssayConfig::new(60, 7)
                .with_max_fan_in(2)
                .with_max_fan_out(0)
                .with_duration_choices(Vec::new()),
        );
        assert_eq!(plain, explicit);
        // A single-choice duration mix is also draw-free.
        let single = generate(&RandomAssayConfig::new(60, 7).with_duration_choices(vec![60]));
        assert_eq!(plain, single);
    }

    #[test]
    fn generated_graphs_are_valid_dags() {
        for g in [ra30(), ra70(), ra100()] {
            assert!(g.validate().is_ok());
            assert!(g.is_acyclic());
        }
    }

    #[test]
    fn non_root_operations_have_parents() {
        let g = ra70();
        let order = g.topological_order().unwrap();
        let first_layer_end = g.roots().len();
        for &id in order.iter().skip(first_layer_end) {
            // Every operation outside the first layer has at least one parent.
            if g.parents(id).is_empty() {
                assert!(g.roots().contains(&id));
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one operation")]
    fn zero_operations_panics() {
        let _ = generate(&RandomAssayConfig::new(0, 1));
    }

    #[test]
    fn builder_style_config() {
        let cfg = RandomAssayConfig::new(10, 7)
            .with_layer_width(3)
            .with_two_parent_percent(100)
            .with_mix_duration(45);
        let g = generate(&cfg);
        assert_eq!(g.num_operations(), 10);
        for (_, op) in g.iter() {
            assert_eq!(op.duration, 45);
        }
    }

    proptest! {
        #[test]
        fn arbitrary_configs_produce_valid_dags(
            n in 1usize..60,
            seed in 0u64..1000,
            width in 1usize..8,
            two in 0u8..=100,
        ) {
            let cfg = RandomAssayConfig::new(n, seed)
                .with_layer_width(width)
                .with_two_parent_percent(two);
            let g = generate(&cfg);
            prop_assert_eq!(g.num_operations(), n);
            prop_assert!(g.validate().is_ok());
            // Edges always point from earlier to later operations, so the
            // graph is acyclic by construction.
            for e in g.edges() {
                prop_assert!(e.parent.index() < e.child.index());
            }
        }
    }
}
