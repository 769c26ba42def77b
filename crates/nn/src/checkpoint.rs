//! Parameter checkpointing: serialize a model's parameters to a compact
//! binary blob and restore them later (dependency-free state_dict).
//!
//! # Format (v2)
//!
//! ```text
//! magic "CQK2" | version u32 (= 2) | payload_len u32 | crc32 u32 | payload
//! ```
//!
//! with the payload being the v1 body: u32 param count, then per
//! parameter a u32 element count followed by little-endian f32 values.
//! The CRC-32 (IEEE, zlib-compatible) covers
//! the payload, so a torn write, a flipped bit or a length lie is
//! detected *before* any value reaches the model. Legacy v1 blobs
//! (bare `CQCK` magic, no integrity frame) still load.
//!
//! Shapes are owned by the model, so loading validates only element
//! counts — but every on-disk count is bounds-checked against the bytes
//! actually present before it is trusted, so a hostile header cannot
//! drive allocation or out-of-range reads.
//!
//! [`save_to_path`] is crash-safe: the blob is written to a temporary
//! sibling file, fsynced, then atomically renamed over the target, so a
//! kill mid-save leaves either the old checkpoint or the new one —
//! never a half-written hybrid.

use crate::crc32::crc32;
use crate::error::NnError;
use crate::model::Sequential;
use std::io::Write;
use std::path::Path;

const MAGIC_V1: &[u8; 4] = b"CQCK";
const MAGIC_V2: &[u8; 4] = b"CQK2";
const VERSION: u32 = 2;
/// Frame bytes before the payload: magic + version + payload_len + crc32.
const HEADER_LEN: usize = 16;

/// Serializes all parameters of `model` (values only, not gradients) as
/// a v2 framed blob.
pub fn save(model: &mut Sequential) -> Vec<u8> {
    let params = model.params_mut();
    let mut payload = Vec::new();
    payload.extend_from_slice(&(params.len() as u32).to_le_bytes());
    for p in params {
        payload.extend_from_slice(&(p.len() as u32).to_le_bytes());
        for &v in p.value.data() {
            payload.extend_from_slice(&v.to_le_bytes());
        }
    }
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(MAGIC_V2);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

fn bad(msg: impl Into<String>) -> NnError {
    NnError::Checkpoint(msg.into())
}

fn read_u32(bytes: &[u8], pos: &mut usize, what: &str) -> Result<u32, NnError> {
    let slice = bytes
        .get(*pos..*pos + 4)
        .ok_or_else(|| bad(format!("truncated reading {what}")))?;
    *pos += 4;
    Ok(u32::from_le_bytes(slice.try_into().expect("4 bytes")))
}

/// Restores parameters saved by [`save`] into a structurally identical
/// model. Accepts v2 framed blobs and legacy v1 (`CQCK`) blobs.
///
/// # Errors
///
/// Returns [`NnError::Checkpoint`] if the blob is malformed (bad magic,
/// unsupported version, wrong length, CRC mismatch, truncation, counts
/// exceeding the bytes present) or its parameter structure does not
/// match the model. The model is only mutated on the success path after
/// all framing checks pass; a corrupt v2 blob never writes a value.
pub fn load(model: &mut Sequential, bytes: &[u8]) -> Result<(), NnError> {
    let magic = bytes.get(..4).ok_or_else(|| bad("shorter than magic"))?;
    let payload = if magic == MAGIC_V2 {
        let mut pos = 4usize;
        let version = read_u32(bytes, &mut pos, "version")?;
        if version != VERSION {
            return Err(bad(format!(
                "unsupported version {version} (this build reads {VERSION})"
            )));
        }
        let payload_len = read_u32(bytes, &mut pos, "payload length")? as usize;
        let stored_crc = read_u32(bytes, &mut pos, "checksum")?;
        let payload = bytes
            .get(HEADER_LEN..)
            .filter(|p| p.len() == payload_len)
            .ok_or_else(|| {
                bad(format!(
                    "payload length {} does not match header's {payload_len}",
                    bytes.len().saturating_sub(HEADER_LEN)
                ))
            })?;
        let actual = crc32(payload);
        if actual != stored_crc {
            return Err(bad(format!(
                "CRC mismatch: stored {stored_crc:08x}, computed {actual:08x}"
            )));
        }
        payload
    } else if magic == MAGIC_V1 {
        // Legacy, unframed: integrity rests on the structural checks only.
        &bytes[4..]
    } else {
        return Err(bad("not a CQK2/CQCK checkpoint (bad magic)"));
    };
    load_payload(model, payload)
}

/// Parses the shared v1/v2 payload body into the model's parameters.
fn load_payload(model: &mut Sequential, bytes: &[u8]) -> Result<(), NnError> {
    let mut pos = 0usize;
    let count = read_u32(bytes, &mut pos, "parameter count")? as usize;
    // A parameter is at least 4 bytes (its length word); reject a count
    // the remaining bytes cannot possibly hold before trusting it.
    if count > (bytes.len() - pos) / 4 {
        return Err(bad(format!(
            "parameter count {count} exceeds what {} remaining bytes can hold",
            bytes.len() - pos
        )));
    }
    let mut params = model.params_mut();
    if params.len() != count {
        return Err(bad(format!(
            "checkpoint has {count} parameters, model has {}",
            params.len()
        )));
    }
    for p in params.iter_mut() {
        let len = read_u32(bytes, &mut pos, "parameter length")? as usize;
        if len > (bytes.len() - pos) / 4 {
            return Err(bad(format!(
                "parameter length {len} exceeds what {} remaining bytes can hold",
                bytes.len() - pos
            )));
        }
        if len != p.len() {
            return Err(bad(format!(
                "parameter length {len} does not match model's {}",
                p.len()
            )));
        }
        for v in p.value.data_mut() {
            let slice = bytes
                .get(pos..pos + 4)
                .ok_or_else(|| bad("truncated reading parameter values"))?;
            pos += 4;
            *v = f32::from_le_bytes(slice.try_into().expect("4 bytes"));
        }
    }
    if pos != bytes.len() {
        return Err(bad("trailing bytes in checkpoint"));
    }
    Ok(())
}

/// Saves `model` to `path` atomically: write to a `.tmp` sibling, fsync,
/// rename over the target. A crash at any point leaves either the
/// previous checkpoint or the complete new one.
pub fn save_to_path(model: &mut Sequential, path: impl AsRef<Path>) -> std::io::Result<()> {
    let path = path.as_ref();
    let blob = save(model);
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = std::path::PathBuf::from(tmp);
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(&blob)?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    cq_obs::counter!("nn.checkpoint.saved").incr();
    Ok(())
}

/// Loads a checkpoint file written by [`save_to_path`] (or any [`save`]
/// blob on disk) into `model`.
///
/// # Errors
///
/// I/O failures come back as [`NnError::Checkpoint`] naming the path;
/// blob validation errors are those of [`load`].
pub fn load_from_path(model: &mut Sequential, path: impl AsRef<Path>) -> Result<(), NnError> {
    let path = path.as_ref();
    let bytes = std::fs::read(path).map_err(|e| bad(format!("reading {}: {e}", path.display())))?;
    load(model, &bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Dense, QuantCtx, Relu};
    use crate::optim::Sgd;
    use cq_tensor::init;

    fn model(seed: u64) -> Sequential {
        let mut m = Sequential::new();
        m.add(Dense::new("a", 4, 8, seed))
            .add(Relu::new())
            .add(Dense::new("b", 8, 3, seed + 1));
        m
    }

    #[test]
    fn roundtrip_restores_exact_weights() {
        let mut m1 = model(1);
        // Perturb m1 by training a step so it differs from a fresh model.
        let x = init::normal(&[4, 4], 0.0, 1.0, 2);
        let mut opt = Sgd::new(0.1);
        m1.train_step(&x, &[0, 1, 2, 0], &mut opt, &QuantCtx::fp32())
            .unwrap();
        let blob = save(&mut m1);
        let mut m2 = model(99); // different init
        load(&mut m2, &blob).unwrap();
        let y1 = m1.forward(&x, &QuantCtx::fp32()).unwrap();
        let y2 = m2.forward(&x, &QuantCtx::fp32()).unwrap();
        assert_eq!(y1, y2);
    }

    #[test]
    fn legacy_v1_blob_still_loads() {
        let mut m1 = model(1);
        // Hand-build a v1 blob: CQCK magic + raw payload.
        let v2 = save(&mut m1);
        let mut v1 = MAGIC_V1.to_vec();
        v1.extend_from_slice(&v2[HEADER_LEN..]);
        let mut m2 = model(5);
        load(&mut m2, &v1).unwrap();
        let x = init::normal(&[2, 4], 0.0, 1.0, 7);
        assert_eq!(
            m1.forward(&x, &QuantCtx::fp32()).unwrap(),
            m2.forward(&x, &QuantCtx::fp32()).unwrap()
        );
    }

    #[test]
    fn rejects_mismatched_structure() {
        let mut m1 = model(1);
        let blob = save(&mut m1);
        let mut wrong = Sequential::new();
        wrong.add(Dense::new("only", 4, 8, 0));
        assert!(matches!(
            load(&mut wrong, &blob),
            Err(NnError::Checkpoint(_))
        ));
    }

    #[test]
    fn rejects_corrupt_blobs() {
        let mut m = model(1);
        assert!(load(&mut m, b"nope").is_err());
        assert!(load(&mut m, b"").is_err());
        let mut blob = save(&mut m);
        blob.truncate(blob.len() - 2);
        assert!(load(&mut m, &blob).is_err());
        let mut blob = save(&mut m);
        blob.push(0);
        assert!(load(&mut m, &blob).is_err());
    }

    #[test]
    fn crc_catches_single_bit_flip() {
        let mut m = model(1);
        let blob = save(&mut m);
        // Flip one bit in the payload (past the header).
        let mut bad_blob = blob.clone();
        bad_blob[HEADER_LEN + 9] ^= 0x01;
        let err = load(&mut m, &bad_blob).unwrap_err();
        assert!(err.to_string().contains("CRC"), "{err}");
    }

    #[test]
    fn rejects_version_skew() {
        let mut m = model(1);
        let mut blob = save(&mut m);
        blob[4..8].copy_from_slice(&7u32.to_le_bytes());
        let err = load(&mut m, &blob).unwrap_err();
        assert!(err.to_string().contains("version"), "{err}");
    }

    #[test]
    fn hostile_count_is_rejected_before_use() {
        let mut m = model(1);
        // A v1 blob whose count claims 4 billion parameters with 4 bytes
        // of body: must be rejected by the bounds check, not by running
        // off the end (or worse, allocating).
        let mut blob = MAGIC_V1.to_vec();
        blob.extend_from_slice(&u32::MAX.to_le_bytes());
        blob.extend_from_slice(&[0u8; 4]);
        let err = load(&mut m, &blob).unwrap_err();
        assert!(err.to_string().contains("exceeds"), "{err}");
        // Same for a hostile per-parameter length in an otherwise valid
        // frame: structure check happens after the bounds check.
        let good = save(&mut m);
        let mut payload = good[HEADER_LEN..].to_vec();
        payload[4..8].copy_from_slice(&u32::MAX.to_le_bytes());
        let mut hostile = MAGIC_V1.to_vec();
        hostile.extend_from_slice(&payload);
        let err = load(&mut m, &hostile).unwrap_err();
        assert!(err.to_string().contains("exceeds"), "{err}");
    }

    #[test]
    fn save_to_path_roundtrips_and_replaces_atomically() {
        let path = std::env::temp_dir().join(format!("cq_nn_ckpt_{}.cqk2", std::process::id()));
        let mut m1 = model(3);
        save_to_path(&mut m1, &path).unwrap();
        // Overwrite with a different model: rename must replace.
        let mut m2 = model(4);
        save_to_path(&mut m2, &path).unwrap();
        let mut loaded = model(9);
        load_from_path(&mut loaded, &path).unwrap();
        let x = init::normal(&[2, 4], 0.0, 1.0, 8);
        assert_eq!(
            m2.forward(&x, &QuantCtx::fp32()).unwrap(),
            loaded.forward(&x, &QuantCtx::fp32()).unwrap()
        );
        assert!(!path.with_extension("cqk2.tmp").exists(), "tmp cleaned up");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn load_from_missing_path_is_typed_error() {
        let mut m = model(1);
        let err = load_from_path(&mut m, "/nonexistent/dir/ckpt.bin").unwrap_err();
        assert!(matches!(err, NnError::Checkpoint(_)));
    }
}
