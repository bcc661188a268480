//! One global history and every fold a geometric-history predictor indexes
//! with (TAGE, BATAGE, ITTAGE, the hashed perceptron).

/// Lanes in a block of the bank.
const LANES: usize = 8;

/// Outcomes a refill queues: the pushes between two refills.
const QUEUE: usize = 16;

/// A global outcome history kept as one circular buffer of bits, plus a
/// bank of folds of it that [`track`](Self::track) advances together.
///
/// The buffer is the `ghist`/`ptghist` layout of Seznec's CBP TAGE code,
/// one outcome per bit: the write position steps back one bit per outcome,
/// so storing moves no bit. Fold `k` is
/// [`HistoryRegister::fold`](crate::HistoryRegister::fold) of the
/// `hist_len` most recent outcomes compressed to `width` bits, kept in O(1)
/// per branch the way [`FoldedHistory`](crate::FoldedHistory) keeps one.
/// Folds are at most [`MAX_WIDTH`](Self::MAX_WIDTH) bits: a table index or
/// a tag.
///
/// A push cancels from each fold the bit leaving its window: a window under
/// 16 takes it from a `u16` of the 16 newest outcomes; every 16th push
/// stores that word and refills each longer window's `u16` queue with the
/// 16 bits that leave it next. So no push indexes the buffer per lane.
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
    /// One outcome per bit, stored 16 at a time; a power-of-two length of
    /// at least the longest window, so no refill overwrites a bit it reads.
    ring: Vec<u64>,
    /// Bit index of the newest stored outcome, and `ring`'s bits less one.
    head: usize,
    ring_mask: usize,
    /// The newest 16 outcomes, the latest in bit 0.
    recent: u16,
    /// Pushes since the last refill.
    pushed: usize,
    /// The shapes of each block of lanes.
    blocks: Vec<Block>,
    /// Every lane's fold, one array per block.
    folds: Vec<[u16; LANES]>,
    /// Every lane's queue, one array per block: bit `15 - j` leaves the
    /// window on the `j`-th push after a refill.
    queues: Vec<[u16; LANES]>,
    /// Folds declared at construction.
    len: usize,
}

/// The shapes of eight lanes, set at construction. After a push, the bit
/// leaving a fold's window is the one `hist_len` outcomes before the newest,
/// and lands at bit `hist_len % width` of the fold; the rotation carries the
/// fold's top bit to bit 0.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Block {
    hist_len: [usize; LANES],
    /// `1 << hist_len` in `recent` for a window shorter than 16, else 0.
    recent_bit: [u16; LANES],
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
            hist_len: std::array::from_fn(|k| shapes.get(k).map_or(0, |&(l, _)| l)),
            recent_bit: lanes(|l, _| if l < QUEUE { 1 << l } else { 0 }),
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
        let ring_bits = longest.next_power_of_two().max(64);
        let blocks: Vec<Block> = folds.chunks(LANES).map(Block::new).collect();
        Self {
            ring: vec![0; ring_bits / 64],
            head: 0,
            ring_mask: ring_bits - 1,
            recent: 0,
            pushed: 0,
            folds: vec![[0; LANES]; blocks.len()],
            queues: vec![[0; LANES]; blocks.len()],
            blocks,
            len: folds.len(),
        }
    }

    /// Pushes one outcome and advances every fold.
    #[inline]
    pub fn track(&mut self, taken: bool) {
        if self.pushed == QUEUE {
            self.refill();
        }
        let (phase, new) = (0x8000 >> self.pushed, taken as u16);
        self.pushed += 1;
        self.recent = self.recent << 1 | new;
        let recent = self.recent;
        let lanes = self.folds.iter_mut().zip(&self.queues);
        for (block, (folds, queue)) in self.blocks.iter().zip(lanes) {
            // Pick each lane's evicted bit as all ones or all zeros, then
            // rotate left by one within the width, inject the new bit at 0
            // and cancel the evicted bit. The update is uniform shifts and
            // per-lane masks over a fixed eight lanes, which the compiler
            // turns into one vector pass.
            *folds = std::array::from_fn(|k| {
                let out = queue[k] & phase | recent & block.recent_bit[k];
                let evicted = 0u16.wrapping_sub((out != 0) as u16);
                let fold = folds[k];
                let carry = (fold & block.top_bit[k] != 0) as u16;
                ((fold << 1 | carry) ^ new ^ (evicted & block.out_bit[k])) & block.mask[k]
            });
        }
    }

    /// Stores the newest 16 outcomes and queues, for each window of 16 or
    /// more, the ones `hist_len - 16` to `hist_len - 1` before the newest.
    fn refill(&mut self) {
        self.pushed = 0;
        self.head = self.head.wrapping_sub(QUEUE) & self.ring_mask;
        let (word, shift) = (self.head / 64, self.head % 64);
        self.ring[word] = self.ring[word] & !(0xffff << shift) | (self.recent as u64) << shift;
        let (ring, head, ring_mask) = (&self.ring, self.head, self.ring_mask);
        // The 16 bits from bit index `at` on, across at most two words.
        let read = |at: usize| {
            let (word, shift) = ((at & ring_mask) / 64, at % 64);
            let next = (word + 1) & (ring.len() - 1);
            let pair = ring[word] as u128 | (ring[next] as u128) << 64;
            (pair >> shift) as u16
        };
        for (block, queue) in self.blocks.iter().zip(&mut self.queues) {
            *queue = std::array::from_fn(|k| match block.hist_len[k] {
                len if len >= QUEUE => read(head + len - QUEUE),
                _ => 0,
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
        let block = std::mem::size_of::<Block>() + 2 * std::mem::size_of::<[u16; LANES]>();
        (self.ring.len() * 8 + self.blocks.len() * block) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::HistoryRegister;

    #[test]
    fn matches_register_folds_across_wraps() {
        // Windows shorter than the 16-outcome queue, over 40 pushes: each
        // takes its evicted bit from the newest outcomes across two refills.
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
        // A 640-bit window rides a 1024-bit ring: 128 bytes, plus the two
        // folds and their queues.
        let bank = GeometricHistory::new(&[(640, 10), (640, 12)]);
        assert!(bank.heap_bytes() >= 1024 / 8 + 2 * 4);
        assert!(bank.heap_bytes() < 1024);
    }
}
