//! One global history and every fold a geometric-history predictor indexes
//! with (TAGE, BATAGE, ITTAGE, the hashed perceptron).

/// Lanes in a block of the bank.
const LANES: usize = 8;

/// A global outcome history kept as one circular buffer, plus a bank of
/// folds of it that [`track`](Self::track) advances together.
///
/// The buffer is the `ghist`/`ptghist` layout of Seznec's CBP TAGE code:
/// the write position steps back one slot per branch, so the newest outcome
/// is at the write position and the `i`-th most recent `i` slots after it,
/// and a push moves no other bit. Fold `k` is
/// [`HistoryRegister::fold`](crate::HistoryRegister::fold) of the
/// `hist_len` most recent outcomes compressed to `width` bits, kept in O(1)
/// per branch the way [`FoldedHistory`](crate::FoldedHistory) keeps one.
/// Folds are at most [`MAX_WIDTH`](Self::MAX_WIDTH) bits: a table index or
/// a tag.
///
/// The bank advances in blocks of eight 16-bit lanes, so every block is the
/// same fixed-length pass whatever the fold count. Lanes past the last fold
/// have a zero mask and stay zero; [`folds`](Self::folds) shows only the
/// declared folds.
///
/// # Examples
///
/// ```
/// use mbp_utils::{GeometricHistory, HistoryRegister};
///
/// // An index fold and a tag fold of the same 50-bit window.
/// let mut bank = GeometricHistory::new(&[(50, 11), (50, 8)]);
/// let mut hist = HistoryRegister::new(50);
/// for taken in [true, true, false, true] {
///     bank.track(taken);
///     hist.push(taken);
/// }
/// assert_eq!(bank.folds()[0] as u64, hist.fold(11));
/// assert_eq!(bank.folds()[1] as u64, hist.fold(8));
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GeometricHistory {
    /// One outcome per byte; a power-of-two length longer than the longest
    /// window, so a push never overwrites a bit some fold still reads.
    ring: Vec<u8>,
    /// Index of the newest outcome.
    head: usize,
    ring_mask: usize,
    /// The shapes of each block of lanes.
    blocks: Vec<Block>,
    /// Every lane's fold, one array per block.
    folds: Vec<[u16; LANES]>,
    /// Folds declared at construction.
    len: usize,
}

/// The shapes of eight lanes, set at construction. After a push, the bit
/// leaving a fold's window sits `hist_len` slots from the newest one and
/// lands at bit `hist_len % width` of the fold; the rotation carries the
/// fold's top bit to bit 0.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Block {
    evict: [usize; LANES],
    out_bit: [u16; LANES],
    top_bit: [u16; LANES],
    mask: [u16; LANES],
}

impl Block {
    /// A block of up to [`LANES`] `(hist_len, width)` shapes; the lanes
    /// past them get a zero mask.
    fn new(shapes: &[(usize, u32)]) -> Self {
        let lanes = |f: fn(usize, u32) -> u32| -> [u16; LANES] {
            std::array::from_fn(|k| shapes.get(k).map_or(0, |&(l, w)| f(l, w) as u16))
        };
        Self {
            evict: std::array::from_fn(|k| shapes.get(k).map_or(0, |&(l, _)| l)),
            out_bit: lanes(|l, w| 1 << (l % w as usize)),
            top_bit: lanes(|_, w| 1 << (w - 1)),
            mask: lanes(|_, w| (1 << w) - 1),
        }
    }
}

impl GeometricHistory {
    /// The widest fold a lane holds.
    pub const MAX_WIDTH: u32 = 16;

    /// Creates an all-zero history with one fold per `(hist_len, width)`
    /// pair, in order.
    ///
    /// # Panics
    ///
    /// Panics if `folds` is empty, a `hist_len` is zero or a `width` is not
    /// in `1..=MAX_WIDTH`.
    pub fn new(folds: &[(usize, u32)]) -> Self {
        assert!(!folds.is_empty(), "a history bank needs at least one fold");
        for &(hist_len, width) in folds {
            assert!(hist_len > 0, "history length must be positive");
            assert!(
                (1..=Self::MAX_WIDTH).contains(&width),
                "fold widths must be in 1..={} (got {width})",
                Self::MAX_WIDTH
            );
        }
        let longest = folds.iter().map(|&(l, _)| l).fold(0, usize::max);
        let ring_len = (longest + 1).next_power_of_two();
        let blocks: Vec<Block> = folds.chunks(LANES).map(Block::new).collect();
        Self {
            ring: vec![0; ring_len],
            head: 0,
            ring_mask: ring_len - 1,
            folds: vec![[0; LANES]; blocks.len()],
            blocks,
            len: folds.len(),
        }
    }

    /// Pushes one outcome and advances every fold.
    #[inline]
    pub fn track(&mut self, taken: bool) {
        self.head = self.head.wrapping_sub(1) & self.ring_mask;
        self.ring[self.head] = taken as u8;
        let (ring, head, ring_mask) = (&self.ring, self.head, self.ring_mask);
        let new = taken as u16;
        for (block, folds) in self.blocks.iter().zip(&mut self.folds) {
            // Gather each lane's evicted bit as all ones or all zeros, then
            // rotate left by one within the width, inject the new bit at 0
            // and cancel the evicted bit. The update is uniform shifts and
            // per-lane masks over a fixed eight lanes, which the compiler
            // turns into one vector pass.
            let evicted: [u16; LANES] = std::array::from_fn(|k| {
                0u16.wrapping_sub(ring[(head + block.evict[k]) & ring_mask] as u16)
            });
            *folds = std::array::from_fn(|k| {
                let fold = folds[k];
                let carry = (fold & block.top_bit[k] != 0) as u16;
                ((fold << 1 | carry) ^ new ^ (evicted[k] & block.out_bit[k])) & block.mask[k]
            });
        }
    }

    /// The current value of every fold, in construction order.
    #[inline]
    pub fn folds(&self) -> &[u16] {
        &self.folds.as_flattened()[..self.len]
    }

    /// Host memory the buffer and the bank hold, in bytes.
    pub fn heap_bytes(&self) -> u64 {
        let block = std::mem::size_of::<Block>() + std::mem::size_of::<[u16; LANES]>();
        (self.ring.len() + self.blocks.len() * block) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::HistoryRegister;

    #[test]
    fn matches_register_folds_across_wraps() {
        // A 5-bit window rides an 8-slot ring: 40 pushes wrap it five times.
        let shapes = [(5, 3), (5, 5), (5, 9), (1, 1), (2, 16)];
        let mut bank = GeometricHistory::new(&shapes);
        let mut hist = HistoryRegister::new(5);
        for i in 0..40u32 {
            let taken = i % 3 != 0;
            bank.track(taken);
            hist.push(taken);
            for (k, &(len, width)) in shapes.iter().enumerate() {
                let mut window = HistoryRegister::new(len);
                for j in (0..len).rev() {
                    window.push(hist.bit(j));
                }
                assert_eq!(bank.folds()[k] as u64, window.fold(width), "fold {k}");
            }
        }
    }

    #[test]
    fn folds_view_holds_exactly_the_declared_folds() {
        // One block, a full block, a padded second block, TAGE's 36.
        for count in [1, 8, 9, 36] {
            let shapes: Vec<_> = (1..=count).map(|l| (l, 1 + l as u32 % 16)).collect();
            let mut bank = GeometricHistory::new(&shapes);
            assert_eq!(bank.folds().len(), count);
            bank.track(true);
            assert_eq!(bank.folds().len(), count);
        }
    }

    #[test]
    #[should_panic(expected = "fold widths must be in 1..=16")]
    fn wide_folds_rejected() {
        GeometricHistory::new(&[(40, 17)]);
    }

    #[test]
    #[should_panic(expected = "fold widths must be in 1..=16")]
    fn zero_width_folds_rejected() {
        GeometricHistory::new(&[(40, 0)]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_length_rejected() {
        GeometricHistory::new(&[(0, 4)]);
    }

    #[test]
    fn heap_bytes_counts_ring_and_bank() {
        let bank = GeometricHistory::new(&[(640, 10), (640, 12)]);
        assert!(bank.heap_bytes() >= 1024 + 4);
    }
}
