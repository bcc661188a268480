//! A per-ip memo of the index and tag parts that depend only on the branch
//! address.

/// The parts of a predictor's table indices and tags that depend only on
/// the branch address: a pure function of the ip and the configuration.
pub trait IpParts {
    /// Parts per ip.
    fn width(&self) -> usize;

    /// Writes the parts of `ip` into `out`, which holds [`width`](Self::width)
    /// words.
    fn fill(&self, ip: u64, out: &mut [u32]);
}

/// A direct-mapped memo of [`IpParts`], keyed by the full ip.
///
/// Indexing a table with `fold(ip_part ^ history)` costs a fold of the ip
/// on every lookup, yet the ip part only changes with the ip. Programs run
/// few static branches over and over, so a small table of recent ips and
/// their parts turns most lookups into one probe. A line holds one ip and
/// its parts; a miss refills the line in place. Every line starts out
/// holding ip 0 and ip 0's true parts, so no key is a sentinel that a real
/// ip could collide with: a line keyed 0 that ip 0 probes is right, and no
/// other ip matches it.
///
/// # Examples
///
/// ```
/// use mbp_utils::{xor_fold, IpMemo, IpParts};
///
/// #[derive(Clone, Debug)]
/// struct Gshare13;
///
/// impl IpParts for Gshare13 {
///     fn width(&self) -> usize {
///         1
///     }
///     fn fill(&self, ip: u64, out: &mut [u32]) {
///         out[0] = xor_fold(ip, 13) as u32;
///     }
/// }
///
/// let mut memo = IpMemo::new(Gshare13);
/// assert_eq!(memo.get(0x40_1234), &[xor_fold(0x40_1234, 13) as u32]);
/// assert_eq!(memo.get(0), &[0]);
/// ```
#[derive(Clone, Debug)]
pub struct IpMemo<P> {
    parts_of: P,
    /// The ip each line holds.
    keys: Vec<u64>,
    /// Line `l`'s parts at `parts[l * width..][..width]`.
    parts: Vec<u32>,
    width: usize,
}

impl<P> IpMemo<P> {
    /// Lines in the memo. The benchmark's traces hold 51 to 277 static
    /// conditional branches; at this size each hits at least 99.7% of the
    /// time, where 256 lines drop to 99.2% and 4096 gain under 0.05%.
    pub const LINES: usize = 1024;

    /// The line `ip` maps to: a multiplicative hash of the whole ip.
    #[inline]
    pub fn line(ip: u64) -> usize {
        (ip.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> (64 - Self::LINES.trailing_zeros())) as usize
    }

    /// Host memory the lines hold, in bytes.
    pub fn heap_bytes(&self) -> u64 {
        (self.keys.len() * std::mem::size_of::<u64>()
            + self.parts.len() * std::mem::size_of::<u32>()) as u64
    }
}

impl<P: IpParts> IpMemo<P> {
    /// Creates a memo whose every line holds ip 0's parts.
    ///
    /// # Panics
    ///
    /// Panics if `parts_of.width()` is zero.
    pub fn new(parts_of: P) -> Self {
        let width = parts_of.width();
        assert!(width > 0, "an ip memo needs at least one part per ip");
        let mut zero = vec![0; width];
        parts_of.fill(0, &mut zero);
        Self {
            parts_of,
            keys: vec![0; Self::LINES],
            parts: zero.repeat(Self::LINES),
            width,
        }
    }

    /// The parts of `ip`, filling its line first if it holds another ip.
    #[inline]
    pub fn get(&mut self, ip: u64) -> &[u32] {
        let line = Self::line(ip);
        let parts = &mut self.parts[line * self.width..][..self.width];
        if self.keys[line] != ip {
            self.keys[line] = ip;
            self.parts_of.fill(ip, parts);
        }
        parts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mix64;

    #[derive(Clone, Debug)]
    struct Mixed;

    impl IpParts for Mixed {
        fn width(&self) -> usize {
            3
        }
        fn fill(&self, ip: u64, out: &mut [u32]) {
            for (k, o) in out.iter_mut().enumerate() {
                *o = mix64(ip ^ k as u64) as u32;
            }
        }
    }

    fn expected(ip: u64) -> Vec<u32> {
        let mut out = vec![0; 3];
        Mixed.fill(ip, &mut out);
        out
    }

    #[test]
    fn lines_are_in_range_and_ip_zero_maps_to_line_zero() {
        assert_eq!(IpMemo::<Mixed>::line(0), 0);
        for ip in [1, 0x40_1000, u64::MAX, 0xffff_8000_0000_1000] {
            assert!(IpMemo::<Mixed>::line(ip) < IpMemo::<Mixed>::LINES);
        }
    }

    #[test]
    fn every_line_starts_with_ip_zero() {
        let mut memo = IpMemo::new(Mixed);
        assert_eq!(memo.get(0), expected(0));
        // A fresh line keyed 0 must not answer for another ip.
        assert_eq!(memo.get(0x40_1000), expected(0x40_1000));
    }

    #[test]
    fn heap_bytes_counts_keys_and_parts() {
        let memo = IpMemo::new(Mixed);
        assert_eq!(memo.heap_bytes(), 1024 * (8 + 3 * 4));
    }
}
