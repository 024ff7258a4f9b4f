//! STUMPS-style parallel pattern generation.
//!
//! STUMPS ("Self-Testing Using MISR and Parallel Shift register sequence
//! generator") feeds many scan channels from one LFSR through a *phase
//! shifter* — a fixed XOR network that taps several register bits per
//! channel so adjacent channels do not carry time-shifted copies of the same
//! bit stream.  One register step loads one bit into every channel; a chain
//! of `L` flops per channel is filled by `L` steps.
//!
//! This module models that structure for the combinational devices of the
//! reproduction: the device's primary inputs stand in for the scan flops,
//! input `i` is fed by channel `i % channels` at shift `i / channels`, and
//! one [`StumpsGenerator::next_pattern`] call performs the
//! `ceil(width / channels)` register steps of one scan load.  The phase
//! shifter masks depend only on the channel index and the register degree —
//! like the hardware, the XOR network is part of the structure, not of the
//! seed — so two generators with the same geometry but different seeds walk
//! the same network from different starting states.

use crate::lfsr::{state_mask, GaloisLfsr};
use lsiq_exec::ConfigError;
use lsiq_sim::pattern::{Pattern, PatternSet};
use lsiq_stats::rng::{Rng, SplitMix64};

/// The geometry and seeding of one STUMPS generator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StumpsConfig {
    /// Pattern width: the number of primary inputs (scan flops) to fill.
    pub width: usize,
    /// Number of scan channels fed in parallel; clamped to `1..=width`.
    pub channels: usize,
    /// Degree of the underlying maximal-length LFSR (one of
    /// [`SUPPORTED_DEGREES`](crate::lfsr::SUPPORTED_DEGREES)).
    pub degree: u32,
    /// Starting-state seed, expanded as in [`GaloisLfsr::maximal`].
    pub seed: u64,
}

impl StumpsConfig {
    /// A generator for `width`-bit patterns with the default geometry:
    /// 8 channels (or fewer for narrow devices) on a degree-64 register.
    pub fn with_width(width: usize, seed: u64) -> StumpsConfig {
        StumpsConfig {
            width,
            channels: 8,
            degree: 64,
            seed,
        }
    }
}

/// Domain-separation constant for the phase-shifter mask derivation
/// (`b"STUMPS"` as an integer).
const PHASE_SHIFTER_STREAM: u64 = 0x5354_554D_5053;

/// A multi-channel STUMPS pattern generator: one Galois LFSR, a fixed XOR
/// phase shifter, `channels` scan chains.
///
/// ```
/// use lsiq_bist::stumps::{StumpsConfig, StumpsGenerator};
///
/// let mut generator = StumpsGenerator::new(&StumpsConfig {
///     width: 16,
///     channels: 4,
///     degree: 32,
///     seed: 1981,
/// });
/// let first = generator.next_pattern();
/// let second = generator.next_pattern();
/// assert_eq!(first.width(), 16);
/// // The sequence is deterministic in the seed…
/// let mut replay = StumpsGenerator::new(&StumpsConfig {
///     width: 16,
///     channels: 4,
///     degree: 32,
///     seed: 1981,
/// });
/// assert_eq!(replay.next_pattern(), first);
/// // …and consecutive scan loads differ.
/// assert_ne!(first, second);
/// ```
#[derive(Debug, Clone)]
pub struct StumpsGenerator {
    lfsr: GaloisLfsr,
    width: usize,
    /// One tap mask per channel; channel `c`'s output bit is the parity of
    /// `state & phase_masks[c]`.
    phase_masks: Vec<u64>,
}

impl StumpsGenerator {
    /// Builds the generator: the register, and one phase-shifter mask per
    /// channel.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid — use
    /// [`try_new`](StumpsGenerator::try_new) for configuration that arrives
    /// from the user.
    pub fn new(config: &StumpsConfig) -> StumpsGenerator {
        StumpsGenerator::try_new(config)
            .unwrap_or_else(|error| panic!("invalid STUMPS configuration: {error}"))
    }

    /// The fallible form of [`new`](StumpsGenerator::new): an unsupported
    /// register degree or a channel count exceeding the register's distinct
    /// non-zero phase masks becomes a typed [`ConfigError`] instead of a
    /// panic.
    pub fn try_new(config: &StumpsConfig) -> Result<StumpsGenerator, ConfigError> {
        let lfsr = GaloisLfsr::try_maximal(config.degree, config.seed)?;
        let channels = config.channels.clamp(1, config.width.max(1));
        let state_bits = state_mask(config.degree);
        if channels as u64 > state_bits {
            return Err(ConfigError::invalid_value(
                "StumpsConfig::channels",
                channels.to_string(),
                "a channel count not exceeding the register's distinct non-zero phase masks",
            ));
        }
        // A fixed, structure-only XOR network: each channel taps a
        // seed-independent pseudo-random subset of the register.  Masks are
        // drawn by rejection so no two channels collide — colliding channels
        // would emit identical bit streams forever, which is exactly the
        // correlation the phase shifter exists to prevent (small degrees
        // have small mask spaces, so a plain truncated draw can repeat).
        let mut phase_masks: Vec<u64> = Vec::with_capacity(channels);
        for channel in 0..channels {
            let mut draws = SplitMix64::stream(PHASE_SHIFTER_STREAM, channel as u64);
            loop {
                let mask = draws.next_u64() & state_bits;
                if mask != 0 && !phase_masks.contains(&mask) {
                    phase_masks.push(mask);
                    break;
                }
            }
        }
        Ok(StumpsGenerator {
            lfsr,
            width: config.width,
            phase_masks,
        })
    }

    /// The number of scan channels.
    pub fn channels(&self) -> usize {
        self.phase_masks.len()
    }

    /// The number of register steps one scan load takes
    /// (`ceil(width / channels)`).
    fn shifts_per_pattern(&self) -> usize {
        self.width.div_ceil(self.phase_masks.len().max(1)).max(1)
    }

    /// Performs one scan load — `ceil(width / channels)` register steps,
    /// each filling one flop of every channel — and returns the loaded
    /// pattern.
    pub fn next_pattern(&mut self) -> Pattern {
        let channels = self.phase_masks.len();
        let mut bits = vec![false; self.width];
        for shift in 0..self.shifts_per_pattern() {
            let state = self.lfsr.state();
            for (channel, &mask) in self.phase_masks.iter().enumerate() {
                let input = shift * channels + channel;
                if input < self.width {
                    bits[input] = (state & mask).count_ones() & 1 == 1;
                }
            }
            self.lfsr.step();
        }
        Pattern::from_bits(bits)
    }

    /// Generates an ordered set of `count` patterns (scan loads).
    pub fn generate(mut self, count: usize) -> PatternSet {
        (0..count).map(|_| self.next_pattern()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(width: usize, channels: usize, seed: u64) -> StumpsConfig {
        StumpsConfig {
            width,
            channels,
            degree: 32,
            seed,
        }
    }

    #[test]
    fn deterministic_and_seed_sensitive() {
        let a = StumpsGenerator::new(&config(12, 4, 1)).generate(50);
        let b = StumpsGenerator::new(&config(12, 4, 1)).generate(50);
        let c = StumpsGenerator::new(&config(12, 4, 2)).generate(50);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn width_and_channel_clamping() {
        for (width, channels) in [(10, 3), (5, 8), (1, 1), (7, 7)] {
            let generator = StumpsGenerator::new(&config(width, channels, 9));
            assert!(generator.channels() <= width.max(1));
            assert!(generator.channels() >= 1);
            let mut g = generator;
            assert_eq!(g.next_pattern().width(), width);
        }
    }

    #[test]
    fn channels_are_decorrelated() {
        // With one LFSR and no phase shifter, channel c would be channel 0
        // delayed by c steps.  Check the masks differ and the per-channel
        // bit streams are not shifted copies over a window.
        let mut generator = StumpsGenerator::new(&config(8, 4, 5));
        assert!(generator
            .phase_masks
            .windows(2)
            .all(|pair| pair[0] != pair[1]));
        let patterns: Vec<Pattern> = (0..64).map(|_| generator.next_pattern()).collect();
        // Stream of channel c = bits {c, c+channels, ...} across patterns.
        let stream = |channel: usize| -> Vec<bool> {
            patterns
                .iter()
                .flat_map(|p| (0..2).map(move |shift| p.bit(shift * 4 + channel)))
                .collect()
        };
        let s0 = stream(0);
        for channel in 1..4 {
            let sc = stream(channel);
            for delay in 0..8usize {
                assert!(
                    s0[delay..] != sc[..sc.len() - delay],
                    "channel {channel} is channel 0 delayed by {delay}"
                );
            }
        }
    }

    #[test]
    fn phase_masks_are_distinct_even_for_tiny_degrees() {
        // Degree 4 has only 15 non-zero masks; rejection drawing must still
        // hand every channel its own.
        for channels in [2usize, 8, 15] {
            let generator = StumpsGenerator::new(&StumpsConfig {
                width: 15,
                channels,
                degree: 4,
                seed: 1,
            });
            let mut masks = generator.phase_masks.clone();
            masks.sort_unstable();
            masks.dedup();
            assert_eq!(masks.len(), channels, "{channels} channels");
        }
    }

    #[test]
    #[should_panic(expected = "distinct non-zero phase masks")]
    fn more_channels_than_masks_panics() {
        let _ = StumpsGenerator::new(&StumpsConfig {
            width: 40,
            channels: 16,
            degree: 4,
            seed: 1,
        });
    }

    #[test]
    fn try_new_returns_typed_errors() {
        let bad_degree = StumpsConfig {
            width: 8,
            channels: 2,
            degree: 5,
            seed: 1,
        };
        let error = StumpsGenerator::try_new(&bad_degree).expect_err("bad degree");
        assert_eq!(error.value(), "5");
        let bad_channels = StumpsConfig {
            width: 40,
            channels: 16,
            degree: 4,
            seed: 1,
        };
        let error = StumpsGenerator::try_new(&bad_channels).expect_err("too many channels");
        assert_eq!(error.value(), "16");
        assert!(error.to_string().contains("phase masks"), "{error}");
        assert!(StumpsGenerator::try_new(&config(12, 4, 1)).is_ok());
    }

    #[test]
    fn patterns_are_reasonably_balanced() {
        let patterns = StumpsGenerator::new(&config(16, 8, 77)).generate(256);
        let ones: usize = patterns
            .iter()
            .flat_map(|p| p.bits().iter().filter(|&&b| b))
            .count();
        let total = 256 * 16;
        let fraction = ones as f64 / total as f64;
        assert!(
            (0.4..0.6).contains(&fraction),
            "one-density {fraction} far from 0.5"
        );
    }

    #[test]
    fn default_geometry_is_sane() {
        let config = StumpsConfig::with_width(40, 3);
        assert_eq!(config.channels, 8);
        assert_eq!(config.degree, 64);
        let generator = StumpsGenerator::new(&config);
        assert_eq!(generator.shifts_per_pattern(), 5);
    }
}
