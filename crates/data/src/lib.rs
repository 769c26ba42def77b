//! # cq-data — deterministic synthetic datasets
//!
//! The paper's accuracy experiments (Table VIII) train on ImageNet, WMT17
//! and PennTreeBank — far beyond this environment. As documented in
//! DESIGN.md, the accuracy claims are *relative* (quantized vs FP32 gap),
//! which reproduces at small scale provided the same quantizer code paths
//! run. This crate generates the small, structured, seeded datasets those
//! proxy experiments train on:
//!
//! * [`gaussian_blobs`] — separable multi-class vectors (MLP benchmarks);
//! * [`textures`] — `[B, C, H, W]` images whose class determines spatial
//!   frequency (CNN benchmarks);
//! * [`sequence_majority`] — `[T, B, K]` one-hot streams labeled by their
//!   majority symbol (LSTM benchmark);
//! * [`sequence_needle`] — `[B, T, D]` noise with one of `classes`
//!   pattern vectors planted at a random position, labeled by the pattern
//!   (attention benchmark).
//!
//! Every generator takes a seed; the same seed yields the same dataset.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![allow(clippy::needless_range_loop)] // index-based numeric kernels read clearer here

use cq_tensor::{init, Tensor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A labeled dataset: inputs plus integer class labels.
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    /// Input tensor; leading dimension (or `[T, B, ...]` batch dimension
    /// for sequence data) indexes samples.
    pub x: Tensor,
    /// Class labels, one per sample.
    pub labels: Vec<usize>,
}

impl Dataset {
    /// Number of samples.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }
}

/// Gaussian blob classification: `classes` clusters in `dim` dimensions
/// with random means and the given in-class standard deviation.
///
/// # Panics
///
/// Panics if `classes` or `dim` is zero.
pub fn gaussian_blobs(samples: usize, dim: usize, classes: usize, std: f32, seed: u64) -> Dataset {
    assert!(classes > 0 && dim > 0, "classes and dim must be positive");
    let mut rng = StdRng::seed_from_u64(seed);
    let means: Vec<Vec<f32>> = (0..classes)
        .map(|_| {
            (0..dim)
                .map(|_| rng.gen_range(-1.0f32..1.0) * 2.0)
                .collect()
        })
        .collect();
    let mut data = Vec::with_capacity(samples * dim);
    let mut labels = Vec::with_capacity(samples);
    for i in 0..samples {
        let c = i % classes;
        labels.push(c);
        for d in 0..dim {
            data.push(means[c][d] + std * init::sample_standard_normal(&mut rng));
        }
    }
    Dataset {
        x: Tensor::from_vec(data, &[samples, dim]).expect("sized to fit"),
        labels,
    }
}

/// Texture image classification: each class is a distinct 2-D spatial
/// frequency pattern plus noise, `[samples, channels, hw, hw]`.
///
/// # Panics
///
/// Panics if `classes` is zero.
pub fn textures(
    samples: usize,
    channels: usize,
    hw: usize,
    classes: usize,
    noise: f32,
    seed: u64,
) -> Dataset {
    assert!(classes > 0, "classes must be positive");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut data = Vec::with_capacity(samples * channels * hw * hw);
    let mut labels = Vec::with_capacity(samples);
    for i in 0..samples {
        let c = i % classes;
        labels.push(c);
        let fx = 1.0 + c as f32;
        let phase: f32 = rng.gen_range(0.0..std::f32::consts::TAU);
        for ch in 0..channels {
            let orient = ch as f32 * 0.5 + 0.3;
            for y in 0..hw {
                for x in 0..hw {
                    let u = x as f32 / hw as f32;
                    let v = y as f32 / hw as f32;
                    let val = (std::f32::consts::TAU * fx * (u * orient.cos() + v * orient.sin())
                        + phase)
                        .sin();
                    data.push(val + noise * init::sample_standard_normal(&mut rng));
                }
            }
        }
    }
    Dataset {
        x: Tensor::from_vec(data, &[samples, channels, hw, hw]).expect("sized to fit"),
        labels,
    }
}

/// Sequence-majority classification for LSTMs: `[T, B, K]` one-hot streams;
/// the label is the symbol appearing most often in the sequence.
///
/// # Panics
///
/// Panics if `k < 2` or `t == 0`.
pub fn sequence_majority(batch: usize, t: usize, k: usize, seed: u64) -> Dataset {
    assert!(k > 1 && t > 0, "need at least 2 symbols and 1 step");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut x = Tensor::zeros(&[t, batch, k]);
    let mut labels = Vec::with_capacity(batch);
    for b in 0..batch {
        let major = rng.gen_range(0..k);
        let mut counts = vec![0usize; k];
        for ti in 0..t {
            let sym = if rng.gen::<f32>() < 0.5 {
                major
            } else {
                rng.gen_range(0..k)
            };
            counts[sym] += 1;
            x.data_mut()[(ti * batch + b) * k + sym] = 1.0;
        }
        let label = counts
            .iter()
            .enumerate()
            .max_by_key(|&(_, &c)| c)
            .map(|(j, _)| j)
            .unwrap_or(0);
        labels.push(label);
    }
    Dataset { x, labels }
}

/// Needle-retrieval task for attention: one of `classes` pattern vectors
/// is planted at a random position of an otherwise noisy `[B, T, D]`
/// sequence; the label is the planted pattern's index. Mean pooling
/// dilutes the signal by 1/T, so attending to the salient position is the
/// efficient solution.
///
/// `dict_seed` fixes the pattern dictionary (shared between train and
/// test splits); `sample_seed` draws the placements and noise.
///
/// # Panics
///
/// Panics if `classes` is zero or `t` is zero.
pub fn sequence_needle(
    batch: usize,
    t: usize,
    d: usize,
    classes: usize,
    dict_seed: u64,
    sample_seed: u64,
) -> Dataset {
    assert!(classes > 0 && t > 0, "need classes and timesteps");
    let mut dict_rng = StdRng::seed_from_u64(dict_seed);
    let patterns: Vec<Vec<f32>> = (0..classes)
        .map(|_| {
            (0..d)
                .map(|_| dict_rng.gen_range(-1.0f32..1.0) * 1.5)
                .collect()
        })
        .collect();
    let mut rng = StdRng::seed_from_u64(sample_seed);
    let mut x = init::normal(&[batch, t, d], 0.0, 0.3, sample_seed.wrapping_add(1));
    let mut labels = Vec::with_capacity(batch);
    for b in 0..batch {
        let c = rng.gen_range(0..classes);
        let p = rng.gen_range(0..t);
        for di in 0..d {
            x.data_mut()[(b * t + p) * d + di] += patterns[c][di];
        }
        labels.push(c);
    }
    Dataset { x, labels }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blobs_deterministic_and_shaped() {
        let a = gaussian_blobs(60, 8, 3, 0.3, 1);
        let b = gaussian_blobs(60, 8, 3, 0.3, 1);
        let c = gaussian_blobs(60, 8, 3, 0.3, 2);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.x.dims(), &[60, 8]);
        assert_eq!(a.len(), 60);
        assert!(a.labels.iter().all(|&l| l < 3));
    }

    #[test]
    fn blobs_balanced_classes() {
        let d = gaussian_blobs(90, 4, 3, 0.1, 5);
        for c in 0..3 {
            assert_eq!(d.labels.iter().filter(|&&l| l == c).count(), 30);
        }
    }

    #[test]
    fn textures_shape_and_classes() {
        let d = textures(12, 1, 8, 4, 0.1, 7);
        assert_eq!(d.x.dims(), &[12, 1, 8, 8]);
        assert_eq!(d.labels, vec![0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3]);
    }

    #[test]
    fn sequence_majority_label_is_consistent() {
        let d = sequence_majority(16, 9, 4, 11);
        assert_eq!(d.x.dims(), &[9, 16, 4]);
        for b in 0..16 {
            let mut counts = [0usize; 4];
            for ti in 0..9 {
                for k in 0..4 {
                    if d.x.data()[(ti * 16 + b) * 4 + k] > 0.5 {
                        counts[k] += 1;
                    }
                }
            }
            let max = *counts.iter().max().unwrap();
            assert_eq!(counts[d.labels[b]], max, "sample {b}");
        }
    }

    #[test]
    fn sequence_needle_shapes() {
        let d = sequence_needle(24, 6, 8, 4, 3, 5);
        assert_eq!(d.x.dims(), &[24, 6, 8]);
        assert!(d.labels.iter().all(|&l| l < 4));
        let d2 = sequence_needle(24, 6, 8, 4, 3, 5);
        assert_eq!(d, d2);
        // Same dictionary, fresh samples.
        let d3 = sequence_needle(24, 6, 8, 4, 3, 6);
        assert_ne!(d, d3);
    }

    #[test]
    fn empty_dataset() {
        let d = gaussian_blobs(0, 2, 2, 0.1, 1);
        assert!(d.is_empty());
    }
}
