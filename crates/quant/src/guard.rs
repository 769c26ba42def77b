//! Overflow/NaN guards on the quantization path.
//!
//! A transient fault upstream of the SQU — a flipped bit in a streamed
//! gradient, or a corrupted θ statistic register — reaches the quantizer as
//! a non-finite input value or a wildly wrong scale. An unguarded quantizer
//! either panics (NaN comparisons) or silently destroys the tensor
//! (saturating every element against a too-small θ). The paper's E²BQM
//! machinery already contains the right recovery tool: the Quant Unit is a
//! multiplexer over candidate formats, so on overflow the guard *re-
//! multiplexes* the block onto a wider format at the same LSB scale instead
//! of failing. The [`GuardedQuantizer`] wraps [`E2bqmQuantizer`] with three
//! defenses, each recorded as a [`DegradeEvent`] rather than a panic:
//!
//! 1. **Input sanitization** — NaN elements are zeroed and infinities
//!    clamped to the largest finite magnitude before the statistic runs.
//! 2. **Statistic recovery** — a θ that is non-finite, non-positive, or
//!    implausibly larger than the data is recomputed from the block.
//! 3. **Overflow re-multiplexing** — when a (plausible-looking but
//!    corrupt) θ makes the selected candidate saturate more than the
//!    configured fraction of elements, the block is requantized at the
//!    same LSB on successively wider [`IntFormat`]s until the overflow
//!    clears, trading storage for survival.

use crate::e2bqm::{E2bqmQuantizer, E2bqmSelection};
use crate::format::{IntFormat, QuantParams};
use crate::qtensor::QuantizedTensor;
use cq_tensor::Tensor;
use std::fmt;

/// What the guard detected on a block.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum QuantAnomaly {
    /// The input block contained NaN or infinite elements.
    NonFiniteInput {
        /// How many elements were non-finite.
        count: usize,
    },
    /// The θ statistic register held a non-finite, non-positive, or
    /// implausibly large value.
    CorruptStatistic {
        /// The corrupt θ as observed.
        theta: f32,
    },
    /// The selected candidate clipped more than the allowed fraction of
    /// elements (θ too small for the data).
    Overflow {
        /// Fraction of elements beyond the representable range.
        fraction: f32,
    },
}

/// How the guard recovered.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GuardAction {
    /// Non-finite elements were replaced (NaN → 0, ±∞ → ±max finite).
    SanitizedInput {
        /// How many elements were replaced.
        replaced: usize,
    },
    /// θ was recomputed from the block data.
    RecomputedStatistic {
        /// The recovered θ.
        theta: f32,
    },
    /// The block was requantized on a wider format at the same LSB scale.
    Remultiplexed {
        /// Format before the escalation.
        from: IntFormat,
        /// Format after the escalation.
        to: IntFormat,
    },
}

/// One recovery the guard performed, tied to the block it happened on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DegradeEvent {
    /// Index of the block within the guarded call.
    pub block: usize,
    /// What was wrong.
    pub anomaly: QuantAnomaly,
    /// What the guard did about it.
    pub action: GuardAction,
}

impl fmt::Display for DegradeEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "block {}: ", self.block)?;
        match self.anomaly {
            QuantAnomaly::NonFiniteInput { count } => write!(f, "{count} non-finite inputs")?,
            QuantAnomaly::CorruptStatistic { theta } => write!(f, "corrupt θ = {theta}")?,
            QuantAnomaly::Overflow { fraction } => write!(f, "{:.2}% overflow", fraction * 100.0)?,
        }
        write!(f, " → ")?;
        match self.action {
            GuardAction::SanitizedInput { replaced } => write!(f, "sanitized {replaced}"),
            GuardAction::RecomputedStatistic { theta } => write!(f, "recomputed θ = {theta}"),
            GuardAction::Remultiplexed { from, to } => write!(f, "re-multiplexed {from} → {to}"),
        }
    }
}

/// An [`E2bqmQuantizer`] wrapped with anomaly detection and recovery.
///
/// On clean inputs the guard adds nothing: the selection is exactly what
/// the inner quantizer produces and the event list is empty.
///
/// # Examples
///
/// ```
/// use cq_quant::{GuardedQuantizer, QuantAnomaly};
/// use cq_tensor::Tensor;
///
/// let g = GuardedQuantizer::hardware_default();
/// let x = Tensor::from_vec(vec![0.5, f32::NAN, -0.25, 1.0], &[4]).unwrap();
/// let (sel, events) = g.quantize(&x);
/// // No panic: the NaN is sanitized and the event recorded.
/// assert!(sel.selected.dequantize().data().iter().all(|v| v.is_finite()));
/// assert!(matches!(events[0].anomaly, QuantAnomaly::NonFiniteInput { count: 1 }));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GuardedQuantizer {
    inner: E2bqmQuantizer,
    /// Saturated-element fraction above which the guard escalates.
    overflow_limit: f32,
    /// θ beyond `max|X| × statistic_slack` is treated as corrupt.
    statistic_slack: f32,
}

impl GuardedQuantizer {
    /// Wraps a quantizer with default thresholds: escalate when more than
    /// 0.1% of elements overflow; distrust θ more than 256× beyond the
    /// data's actual maximum.
    pub fn new(inner: E2bqmQuantizer) -> Self {
        GuardedQuantizer {
            inner,
            overflow_limit: 1e-3,
            statistic_slack: 256.0,
        }
    }

    /// Guards the 4-way hardware-default quantizer.
    pub fn hardware_default() -> Self {
        GuardedQuantizer::new(E2bqmQuantizer::hardware_default())
    }

    /// The wrapped quantizer.
    pub fn inner(&self) -> &E2bqmQuantizer {
        &self.inner
    }

    /// Quantizes one block, computing θ internally (the clean path).
    pub fn quantize(&self, x: &Tensor) -> (E2bqmSelection, Vec<DegradeEvent>) {
        self.quantize_block_with_theta(x, None, 0)
    }

    /// Quantizes one block under an externally observed θ — the fault-
    /// injection seam: pass the (possibly corrupted) statistic-register
    /// value and the guard recovers as the hardware would.
    pub fn quantize_with_theta(
        &self,
        x: &Tensor,
        theta: f32,
    ) -> (E2bqmSelection, Vec<DegradeEvent>) {
        self.quantize_block_with_theta(x, Some(theta), 0)
    }

    /// Quantizes a tensor block-by-block, accumulating events across
    /// blocks (`DegradeEvent::block` carries the block index).
    pub fn quantize_blocks(
        &self,
        x: &Tensor,
        block_size: usize,
    ) -> (Vec<E2bqmSelection>, Vec<DegradeEvent>) {
        assert!(block_size > 0, "block size must be positive");
        let n = x.len();
        let mut sels = Vec::with_capacity(n.div_ceil(block_size));
        let mut events = Vec::new();
        let mut start = 0;
        let mut block = 0;
        while start < n {
            let len = block_size.min(n - start);
            let slice = x.slice_flat(start, len).expect("bounds derived from len");
            let (sel, mut ev) = self.quantize_block_with_theta(&slice, None, block);
            sels.push(sel);
            events.append(&mut ev);
            start += len;
            block += 1;
        }
        (sels, events)
    }

    fn quantize_block_with_theta(
        &self,
        x: &Tensor,
        observed_theta: Option<f32>,
        block: usize,
    ) -> (E2bqmSelection, Vec<DegradeEvent>) {
        let mut events = Vec::new();

        // Defense 1: sanitize non-finite inputs.
        let sanitized;
        let x = if x.data().iter().all(|v| v.is_finite()) {
            x
        } else {
            let max_finite = x
                .data()
                .iter()
                .filter(|v| v.is_finite())
                .fold(0.0f32, |m, &v| m.max(v.abs()));
            let mut count = 0;
            let data: Vec<f32> = x
                .data()
                .iter()
                .map(|&v| {
                    if v.is_finite() {
                        v
                    } else {
                        count += 1;
                        if v.is_nan() {
                            0.0
                        } else {
                            max_finite.copysign(v)
                        }
                    }
                })
                .collect();
            events.push(DegradeEvent {
                block,
                anomaly: QuantAnomaly::NonFiniteInput { count },
                action: GuardAction::SanitizedInput { replaced: count },
            });
            sanitized = Tensor::from_vec(data, x.dims()).expect("same shape");
            &sanitized
        };

        // Defense 2: validate the statistic.
        let honest_theta = x.max_abs();
        let theta = match observed_theta {
            None => honest_theta,
            Some(t) => {
                let corrupt = !t.is_finite()
                    || (t <= 0.0 && honest_theta > 0.0)
                    || t > honest_theta * self.statistic_slack;
                if corrupt {
                    events.push(DegradeEvent {
                        block,
                        anomaly: QuantAnomaly::CorruptStatistic { theta: t },
                        action: GuardAction::RecomputedStatistic {
                            theta: honest_theta,
                        },
                    });
                    honest_theta
                } else {
                    t
                }
            }
        };

        let mut sel = self.inner.quantize_with_theta(x, theta);

        // Defense 3: overflow re-multiplexing. θ defines the widest
        // candidate's range; elements beyond it saturate in *every*
        // candidate, so a too-small θ silently flattens the block. Keep
        // the LSB the hardware registers already hold and widen the
        // integer format until the range covers the data again.
        if theta.is_finite() && theta > 0.0 {
            let frac = saturated_fraction(x, theta);
            if frac > self.overflow_limit {
                let base = self.inner.format();
                let lsb = theta / base.qmax() as f32;
                let mut chosen = base;
                let mut widened = None;
                for fmt in IntFormat::ALL.iter().filter(|f| f.bits() > base.bits()) {
                    let params = QuantParams::with_scale(lsb, *fmt);
                    let q = QuantizedTensor::quantize(x, params);
                    chosen = *fmt;
                    let range = params.representable_max();
                    let still = saturated_fraction(x, range);
                    widened = Some(q);
                    if still <= self.overflow_limit {
                        break;
                    }
                }
                if let Some(q) = widened {
                    events.push(DegradeEvent {
                        block,
                        anomaly: QuantAnomaly::Overflow { fraction: frac },
                        action: GuardAction::Remultiplexed {
                            from: base,
                            to: chosen,
                        },
                    });
                    sel.selected = q;
                }
            }
        }

        (sel, events)
    }
}

/// Fraction of elements whose magnitude exceeds `range`.
fn saturated_fraction(x: &Tensor, range: f32) -> f32 {
    if x.is_empty() {
        return 0.0;
    }
    let over = x
        .data()
        .iter()
        .filter(|v| v.abs() > range * (1.0 + 1e-6))
        .count();
    over as f32 / x.len() as f32
}

#[cfg(test)]
mod tests {
    use super::*;
    use cq_tensor::init;

    #[test]
    fn clean_path_is_transparent() {
        let g = GuardedQuantizer::hardware_default();
        let x = init::long_tailed(&[1024], 0.05, 0.02, 50.0, 3);
        let (sel, events) = g.quantize(&x);
        assert!(events.is_empty());
        let plain = g.inner().quantize(&x);
        assert_eq!(sel, plain, "guard must not perturb clean blocks");
    }

    #[test]
    fn nan_input_is_sanitized_not_panicking() {
        let g = GuardedQuantizer::hardware_default();
        let x = Tensor::from_vec(vec![1.0, f32::NAN, -2.0, f32::INFINITY], &[4]).unwrap();
        let (sel, events) = g.quantize(&x);
        assert_eq!(events.len(), 1);
        assert!(matches!(
            events[0].anomaly,
            QuantAnomaly::NonFiniteInput { count: 2 }
        ));
        let back = sel.selected.dequantize();
        assert!(back.data().iter().all(|v| v.is_finite()));
        // The infinity clamps to the largest finite magnitude (2.0).
        assert!(back.data()[3] > 0.0);
    }

    #[test]
    fn corrupt_theta_is_recomputed() {
        let g = GuardedQuantizer::hardware_default();
        let x = init::normal(&[512], 0.0, 1.0, 1);
        for bad in [f32::NAN, f32::INFINITY, -3.0, 0.0, 1e30] {
            let (sel, events) = g.quantize_with_theta(&x, bad);
            assert!(
                events
                    .iter()
                    .any(|e| matches!(e.anomaly, QuantAnomaly::CorruptStatistic { .. })),
                "θ = {bad} should be flagged"
            );
            let back = sel.selected.dequantize();
            assert!(back.cosine_similarity(&x).unwrap() > 0.95, "θ = {bad}");
        }
    }

    #[test]
    fn small_theta_triggers_remultiplex_to_wider_format() {
        let g = GuardedQuantizer::hardware_default();
        // Data spans ±4 but the corrupted register says θ = 0.5: a
        // plausible magnitude, so statistic validation passes, but 8-bit
        // quantization at that scale saturates heavily.
        let x = init::normal(&[2048], 0.0, 1.0, 7);
        let (sel, events) = g.quantize_with_theta(&x, 0.5);
        let remux = events
            .iter()
            .find(|e| matches!(e.action, GuardAction::Remultiplexed { .. }))
            .expect("overflow should trigger re-multiplexing");
        assert!(matches!(
            remux.action,
            GuardAction::Remultiplexed {
                from: IntFormat::Int8,
                to
            } if to.bits() > 8
        ));
        // The widened format recovers the tail the corrupt θ clipped.
        let back = sel.selected.dequantize();
        assert!(back.cosine_similarity(&x).unwrap() > 0.99);
        assert!(back.max_abs() > 1.0, "tail recovered: {}", back.max_abs());
    }

    #[test]
    fn honest_small_theta_on_clipped_data_does_not_degrade() {
        // ClipSweep picking a deep clip is normal operation, not a fault:
        // the guard keys on θ vs data, not on the arbiter's choice.
        let g = GuardedQuantizer::hardware_default();
        let x = init::long_tailed(&[4096], 0.01, 0.001, 500.0, 11);
        let (_, events) = g.quantize(&x);
        assert!(events.is_empty());
    }

    #[test]
    fn blockwise_events_carry_block_index() {
        let g = GuardedQuantizer::hardware_default();
        let mut data = vec![0.5f32; 768];
        data[600] = f32::NAN; // block 2 of 256-wide blocks
        let x = Tensor::from_vec(data, &[768]).unwrap();
        let (sels, events) = g.quantize_blocks(&x, 256);
        assert_eq!(sels.len(), 3);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].block, 2);
    }

    #[test]
    fn all_zero_block_with_zero_theta_is_not_an_anomaly() {
        let g = GuardedQuantizer::hardware_default();
        let x = Tensor::zeros(&[64]);
        let (sel, events) = g.quantize_with_theta(&x, 0.0);
        assert!(events.is_empty(), "zero θ on zero data is honest");
        assert_eq!(sel.selected.dequantize(), x);
    }

    #[test]
    fn events_display() {
        let e = DegradeEvent {
            block: 3,
            anomaly: QuantAnomaly::Overflow { fraction: 0.25 },
            action: GuardAction::Remultiplexed {
                from: IntFormat::Int8,
                to: IntFormat::Int16,
            },
        };
        let s = e.to_string();
        assert!(
            s.contains("block 3") && s.contains("INT8") && s.contains("INT16"),
            "{s}"
        );
    }
}
