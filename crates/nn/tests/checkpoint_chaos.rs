//! Property-based chaos tests for the framed checkpoint codec: random
//! corruption (bit flips, truncation, version skew, garbage) must always
//! come back as a typed `NnError::Checkpoint` — never a panic, and never
//! silently loading wrong values.

use cq_nn::{checkpoint, Dense, NnError, QuantCtx, Relu, Sequential};
use cq_tensor::init;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn model(seed: u64) -> Sequential {
    let mut m = Sequential::new();
    m.add(Dense::new("a", 5, 7, seed))
        .add(Relu::new())
        .add(Dense::new("b", 7, 4, seed + 1));
    m
}

/// Loads `blob` into a fresh model and classifies the outcome. The codec
/// contract: corruption yields `Err(NnError::Checkpoint)`; a (vanishingly
/// unlikely) CRC collision may load, but then the restored forward pass
/// must match the original model exactly.
fn assert_load_is_safe(blob: &[u8], reference: &mut Sequential) -> Result<(), TestCaseError> {
    let mut m = model(777);
    match checkpoint::load(&mut m, blob) {
        Err(NnError::Checkpoint(_)) => Ok(()),
        Err(other) => Err(TestCaseError::fail(format!(
            "corruption produced a non-checkpoint error: {other}"
        ))),
        Ok(()) => {
            let x = init::normal(&[3, 5], 0.0, 1.0, 11);
            let ctx = QuantCtx::fp32();
            let y_ref = reference.forward(&x, &ctx).expect("reference forward");
            let y = m.forward(&x, &ctx).expect("restored forward");
            prop_assert_eq!(y_ref, y, "corrupt blob loaded with different values");
            Ok(())
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn bit_flips_are_rejected(seed in 0u64..500, nflips in 1usize..9, flip_seed in 0u64..u64::MAX) {
        let mut m = model(seed);
        let mut blob = checkpoint::save(&mut m);
        let mut rng = StdRng::seed_from_u64(flip_seed);
        for _ in 0..nflips {
            let pos = rng.gen_range(0..blob.len());
            let bit: u8 = rng.gen_range(0..8);
            blob[pos] ^= 1 << bit;
        }
        assert_load_is_safe(&blob, &mut m)?;
    }

    #[test]
    fn truncation_is_rejected(seed in 0u64..500, cut_seed in 0u64..u64::MAX) {
        let mut m = model(seed);
        let mut blob = checkpoint::save(&mut m);
        let keep = StdRng::seed_from_u64(cut_seed).gen_range(0..blob.len());
        blob.truncate(keep);
        let mut fresh = model(777);
        prop_assert!(
            matches!(checkpoint::load(&mut fresh, &blob), Err(NnError::Checkpoint(_))),
            "truncated to {keep} bytes but load did not return a checkpoint error"
        );
    }

    #[test]
    fn trailing_garbage_is_rejected(seed in 0u64..500, extra in 1usize..64) {
        let mut m = model(seed);
        let mut blob = checkpoint::save(&mut m);
        blob.extend(std::iter::repeat_n(0xAB, extra));
        let mut fresh = model(777);
        prop_assert!(matches!(
            checkpoint::load(&mut fresh, &blob),
            Err(NnError::Checkpoint(_))
        ));
    }

    #[test]
    fn version_skew_is_rejected(seed in 0u64..500, version in 0u32..1000) {
        // Versions other than the current one must be refused up front.
        if version == 2 {
            return Ok(());
        }
        let mut m = model(seed);
        let mut blob = checkpoint::save(&mut m);
        blob[4..8].copy_from_slice(&version.to_le_bytes());
        let mut fresh = model(777);
        match checkpoint::load(&mut fresh, &blob) {
            Err(NnError::Checkpoint(msg)) => prop_assert!(
                msg.contains("version"),
                "skew to {version} rejected for the wrong reason: {msg}"
            ),
            other => return Err(TestCaseError::fail(format!(
                "version skew to {version} not rejected: {other:?}"
            ))),
        }
    }

    #[test]
    fn random_bytes_never_panic(len in 0usize..256, seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let blob: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
        let mut fresh = model(777);
        prop_assert!(checkpoint::load(&mut fresh, &blob).is_err());
    }

    #[test]
    fn uncorrupted_roundtrip_always_succeeds(seed in 0u64..500) {
        let mut m = model(seed);
        let blob = checkpoint::save(&mut m);
        let mut m2 = model(seed + 9999);
        checkpoint::load(&mut m2, &blob).expect("clean blob must load");
        let x = init::normal(&[2, 5], 0.0, 1.0, 3);
        let ctx = QuantCtx::fp32();
        prop_assert_eq!(
            m.forward(&x, &ctx).expect("fw"),
            m2.forward(&x, &ctx).expect("fw")
        );
    }
}
