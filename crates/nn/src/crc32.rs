//! CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320): the integrity
//! check framing the `CQK2` checkpoint payload.
//!
//! Table-driven, byte-at-a-time. The table is computed once at first use;
//! the polynomial and bit order match zlib's `crc32`, so frames written
//! here are verifiable with any standard CRC-32 tool.

use std::sync::OnceLock;

fn table() -> &'static [u32; 256] {
    static TABLE: OnceLock<[u32; 256]> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut t = [0u32; 256];
        for (i, slot) in t.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            *slot = c;
        }
        t
    })
}

/// CRC-32 (IEEE) of `bytes`.
pub(crate) fn crc32(bytes: &[u8]) -> u32 {
    let t = table();
    let mut c = !0u32;
    for &b in bytes {
        c = t[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Standard CRC-32/ISO-HDLC check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn sensitive_to_every_bit() {
        let base = b"cambricon-q checkpoint".to_vec();
        let reference = crc32(&base);
        for byte in 0..base.len() {
            for bit in 0..8 {
                let mut flipped = base.clone();
                flipped[byte] ^= 1 << bit;
                assert_ne!(crc32(&flipped), reference, "byte {byte} bit {bit}");
            }
        }
    }

    #[test]
    fn prefix_changes_checksum() {
        assert_ne!(crc32(b"abc"), crc32(b"abcd"));
        assert_ne!(crc32(b"abc"), crc32(b"cba"));
    }
}
