//! MZST: the zstd-like codec — a 1 MiB window, level-scaled match search,
//! and a table-driven decoder whose speed does not depend on the level
//! (the property §VII-D measures in Table IV).

use crate::block;
use crate::lzss::MatchParams;
use crate::Codec;

/// Matches reach up to a megabyte back. The large window is where zstd's
/// ratio advantage over gzip comes from on trace data: SBBT's redundancy
/// recurs at loop scale, far beyond 32 KiB.
pub(crate) const WINDOW: usize = (1 << 20) - 1;

fn match_params(level: u32) -> MatchParams {
    MatchParams {
        window: WINDOW,
        min_match: 4,
        max_match: 2179, // the longest length the shared code table encodes
        // Levels 1..=22 scale search effort; decode cost is unaffected.
        max_chain: 1usize << (level / 3 + 2).min(9),
        lazy: level >= 6,
        nice_match: 32 + 16 * level as usize,
    }
}

pub(crate) fn compress(data: &[u8], level: u32) -> Vec<u8> {
    block::compress(data, Codec::Mzst.magic(), &match_params(level))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decompress;

    #[test]
    fn roundtrip_long_range_redundancy() {
        // An incompressible 80 KiB unit repeated once: the only redundancy
        // sits 80 KiB back — outside MGZ's window, inside MZST's.
        let mut x = 0x1234_5678_9abc_def0u64;
        let unit: Vec<u8> = (0..10_000)
            .flat_map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                (x >> 16).to_le_bytes()
            })
            .collect();
        let mut data = unit.clone();
        data.extend_from_slice(&unit);
        let packed = compress(&data, 19);
        assert_eq!(decompress(&packed).unwrap(), data);
        let mgz_packed = crate::mgz::compress(&data, 9);
        assert!(
            packed.len() < mgz_packed.len(),
            "large window should win on long-range redundancy: {} vs {}",
            packed.len(),
            mgz_packed.len()
        );
    }

    #[test]
    fn decode_speed_independent_of_level_structurally() {
        let data: Vec<u8> = (0..10_000u32)
            .flat_map(|i| (i % 97).to_le_bytes())
            .collect();
        let low = compress(&data, 1);
        let high = compress(&data, 22);
        assert_eq!(decompress(&low).unwrap(), data);
        assert_eq!(decompress(&high).unwrap(), data);
        assert!(high.len() <= low.len() + low.len() / 50);
    }

    #[test]
    fn window_is_a_megabyte() {
        assert_eq!(match_params(19).window, (1 << 20) - 1);
    }
}
