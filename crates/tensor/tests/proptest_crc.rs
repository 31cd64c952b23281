//! Property tests for the slicing-by-16 CRC-32 kernel.
//!
//! The oracle is the bit-at-a-time definition of CRC-32 (reflected IEEE
//! polynomial 0xEDB88320, initial value and final xor 0xFFFFFFFF), written
//! independently of the kernel's tables. For random buffers at unaligned
//! offsets, fed whole or split at random points, the kernel must give the
//! oracle's digest, and the typed bulk feeds must equal `update` over the
//! `to_le_bytes` (or, for `update_f32s_be`, `to_be_bytes`) concatenation.

use cem_tensor::crc::{crc32, Hasher};
use proptest::prelude::*;

fn oracle(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc ^= b as u32;
        for _ in 0..8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
        }
    }
    crc ^ 0xFFFF_FFFF
}

/// Feed `bytes` through `update` in pieces cut at `cuts` (taken modulo the
/// length and sorted).
fn split_feed(bytes: &[u8], cuts: &[usize]) -> u32 {
    let mut points: Vec<usize> = cuts.iter().map(|&c| c % (bytes.len() + 1)).collect();
    points.sort_unstable();
    let mut h = Hasher::new();
    let mut start = 0;
    for p in points.into_iter().chain([bytes.len()]) {
        h.update(&bytes[start..p]);
        start = p;
    }
    h.finalize()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn kernel_matches_oracle_whole_and_split(
        buf in prop::collection::vec(0u8..=255, 0..4112),
        offset in 0usize..16,
        cuts in prop::collection::vec(0usize..5000, 0..6),
    ) {
        let bytes = &buf[offset.min(buf.len())..];
        let expected = oracle(bytes);
        prop_assert_eq!(crc32(bytes), expected);
        prop_assert_eq!(split_feed(bytes, &cuts), expected);
    }

    #[test]
    fn bulk_feeds_equal_le_byte_feeds(
        words in prop::collection::vec(0u32..=u32::MAX, 0..1100),
        prefix in prop::collection::vec(0u8..=255, 0..20),
    ) {
        let floats: Vec<f32> = words.iter().map(|&w| f32::from_bits(w)).collect();
        let word_bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
        let float_bytes: Vec<u8> = floats.iter().flat_map(|v| v.to_le_bytes()).collect();

        let mut bulk_u = Hasher::new();
        bulk_u.update(&prefix);
        bulk_u.update_u32s(&words);
        let mut bytes_u = Hasher::new();
        bytes_u.update(&prefix);
        bytes_u.update(&word_bytes);
        prop_assert_eq!(bulk_u.finalize(), bytes_u.finalize());

        let mut bulk_f = Hasher::new();
        bulk_f.update(&prefix);
        bulk_f.update_f32s(&floats);
        let mut bytes_f = Hasher::new();
        bytes_f.update(&prefix);
        bytes_f.update(&float_bytes);
        prop_assert_eq!(bulk_f.finalize(), bytes_f.finalize());
        prop_assert_eq!(bulk_f.finalize(), oracle(&[prefix.as_slice(), &float_bytes].concat()));

        let be_bytes: Vec<u8> = floats.iter().flat_map(|v| v.to_be_bytes()).collect();
        let mut bulk_be = Hasher::new();
        bulk_be.update(&prefix);
        bulk_be.update_f32s_be(&floats);
        prop_assert_eq!(bulk_be.finalize(), oracle(&[prefix.as_slice(), &be_bytes].concat()));
    }
}
