//! One global history and every fold a geometric-history predictor indexes
//! with (TAGE, BATAGE, ITTAGE, the hashed perceptron).

/// A global outcome history kept as one circular buffer, plus a flat bank
/// of folds of it that [`track`](Self::track) advances together.
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
    /// Current value of every fold, in construction order.
    folds: Vec<u16>,
    // Per fold, set at construction. After a push, the bit leaving a
    // fold's window sits `hist_len` slots from the newest one and lands at
    // bit `hist_len % width` of the fold; the rotation carries the fold's
    // top bit to bit 0.
    evict: Vec<usize>,
    out_bit: Vec<u16>,
    top_bit: Vec<u16>,
    mask: Vec<u16>,
    /// Per fold, the bit leaving its window, as all ones or all zeros.
    evicted: Vec<u16>,
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
        let per_fold = |f: fn(usize, u32) -> u32| -> Vec<u16> {
            folds.iter().map(|&(l, w)| f(l, w) as u16).collect()
        };
        let longest = folds.iter().map(|&(l, _)| l).fold(0, usize::max);
        let ring_len = (longest + 1).next_power_of_two();
        Self {
            ring: vec![0; ring_len],
            head: 0,
            ring_mask: ring_len - 1,
            folds: vec![0; folds.len()],
            evict: folds.iter().map(|&(l, _)| l).collect(),
            out_bit: per_fold(|l, w| 1 << (l % w as usize)),
            top_bit: per_fold(|_, w| 1 << (w - 1)),
            mask: per_fold(|_, w| (1 << w) - 1),
            evicted: vec![0; folds.len()],
        }
    }

    /// Pushes one outcome and advances every fold.
    #[inline]
    pub fn track(&mut self, taken: bool) {
        self.head = self.head.wrapping_sub(1) & self.ring_mask;
        self.ring[self.head] = taken as u8;
        for (bit, &evict) in self.evicted.iter_mut().zip(&self.evict) {
            *bit = 0u16.wrapping_sub(self.ring[(self.head + evict) & self.ring_mask] as u16);
        }
        // Rotate left by one within the width, inject the new bit at 0 and
        // cancel the evicted bit. The gather above keeps this pass to
        // uniform shifts and per-fold masks, which the compiler can
        // vectorize.
        let new = taken as u16;
        for ((((fold, &top), &out), &mask), &evicted) in self
            .folds
            .iter_mut()
            .zip(&self.top_bit)
            .zip(&self.out_bit)
            .zip(&self.mask)
            .zip(&self.evicted)
        {
            let carry = (*fold & top != 0) as u16;
            *fold = ((*fold << 1 | carry) ^ new ^ (evicted & out)) & mask;
        }
    }

    /// The current value of every fold, in construction order.
    #[inline]
    pub fn folds(&self) -> &[u16] {
        &self.folds
    }

    /// Host memory the buffer and the bank hold, in bytes.
    pub fn heap_bytes(&self) -> u64 {
        let lanes = self.folds.len() as u64;
        self.ring.len() as u64 + lanes * (5 * 2 + std::mem::size_of::<usize>() as u64)
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
