//! Branch *target* predictors, pairing with the direction predictors in
//! the ChampSim evaluation (§VII-A of the paper): a set-associative BTB, a
//! GShare-like indirect target predictor, ITTAGE and a return address
//! stack.
//!
//! The paper accompanies GShare with "a 8K-entry BTB and a 4K-entry
//! GShare-like indirect target predictor, while for the BATAGE predictor,
//! we used a 64 kB ITTAGE target predictor".

use mbp_core::Branch;
use mbp_utils::{mix64, xor_fold, GeometricHistory, HistoryRegister, LruSet, USatCounter};

use crate::tage::assert_fold_width;

/// A predictor of branch *targets* (as opposed to directions).
///
/// `predict_target` returns `None` when the structure holds no target for
/// `ip`; callers treat that as a guaranteed misprediction.
pub trait TargetPredictor {
    /// Predicted target for the branch at `ip`, if any.
    fn predict_target(&mut self, ip: u64) -> Option<u64>;

    /// Trains on a resolved taken branch.
    fn update(&mut self, branch: &Branch);
}

/// A set-associative branch target buffer with LRU replacement.
///
/// # Examples
///
/// ```
/// use mbp_predictors::target::{Btb, TargetPredictor};
/// use mbp_core::{Branch, Opcode};
///
/// let mut btb = Btb::new(10, 8); // 2^10 sets x 8 ways = 8K entries
/// let b = Branch::new(0x40_1000, 0x40_2000, Opcode::unconditional_direct(), true);
/// assert_eq!(btb.predict_target(b.ip()), None);
/// btb.update(&b);
/// assert_eq!(btb.predict_target(b.ip()), Some(0x40_2000));
/// ```
#[derive(Clone, Debug)]
pub struct Btb {
    sets: Vec<LruSet<u64>>,
    set_bits: u32,
}

impl Btb {
    /// Creates a BTB with `2^set_bits` sets of `ways` entries each.
    ///
    /// # Panics
    ///
    /// Panics if `set_bits` is not in `1..=24` or `ways` is zero.
    pub fn new(set_bits: u32, ways: usize) -> Self {
        assert!((1..=24).contains(&set_bits), "set_bits must be in 1..=24");
        Self {
            sets: vec![LruSet::new(ways); 1 << set_bits],
            set_bits,
        }
    }

    /// Total entry capacity.
    pub fn capacity(&self) -> usize {
        self.sets.len() * self.sets[0].ways()
    }

    fn set_of(&self, ip: u64) -> usize {
        xor_fold(ip, self.set_bits) as usize
    }

    /// Looks up the stored target for `ip`, refreshing its recency.
    pub fn predict_target(&mut self, ip: u64) -> Option<u64> {
        let set = self.set_of(ip);
        self.sets[set].get(ip).copied()
    }

    /// Records the target of a resolved taken branch.
    pub fn update(&mut self, branch: &Branch) {
        if branch.is_taken() && branch.target() != 0 {
            let set = self.set_of(branch.ip());
            self.sets[set].insert(branch.ip(), branch.target());
        }
    }
}

impl TargetPredictor for Btb {
    fn predict_target(&mut self, ip: u64) -> Option<u64> {
        Btb::predict_target(self, ip)
    }

    fn update(&mut self, branch: &Branch) {
        Btb::update(self, branch);
    }
}

/// A GShare-like indirect target predictor: a tagless target table indexed
/// by `XorFold(ip ^ path_history)`.
///
/// The path history records low target bits of recent indirect branches,
/// so the same `switch` dispatch site can map different call chains to
/// different table entries.
///
/// # Examples
///
/// ```
/// use mbp_predictors::target::{GshareIndirect, TargetPredictor};
/// use mbp_core::{Branch, Opcode};
///
/// let mut p = GshareIndirect::new(12, 8); // 4K entries, 8 history bits
/// let b = Branch::new(0x40_1000, 0x40_2000, Opcode::indirect_jump(), true);
/// assert_eq!(p.predict_target(b.ip()), None);
/// // Each update also advances the path history; once the history of a
/// // monomorphic site becomes periodic, the prediction is stable.
/// for _ in 0..8 {
///     p.update(&b);
/// }
/// assert_eq!(p.predict_target(b.ip()), Some(0x40_2000));
/// ```
#[derive(Clone, Debug)]
pub struct GshareIndirect {
    /// Stored targets; 0 marks an empty slot (no real branch targets 0).
    table: Vec<u64>,
    index_bits: u32,
    hist: HistoryRegister,
    hist_bits: u32,
}

impl GshareIndirect {
    /// Creates an indirect predictor with `2^index_bits` entries and
    /// `hist_bits` bits of path history.
    ///
    /// # Panics
    ///
    /// Panics if `index_bits` is not in `1..=24` or `hist_bits` not in
    /// `1..=64`.
    pub fn new(index_bits: u32, hist_bits: u32) -> Self {
        assert!(
            (1..=24).contains(&index_bits),
            "index_bits must be in 1..=24"
        );
        assert!((1..=64).contains(&hist_bits), "hist_bits must be in 1..=64");
        Self {
            table: vec![0; 1 << index_bits],
            index_bits,
            hist: HistoryRegister::new(hist_bits as usize),
            hist_bits,
        }
    }

    fn index(&self, ip: u64) -> usize {
        xor_fold(ip ^ self.hist.low_bits(), self.index_bits) as usize
    }
}

impl TargetPredictor for GshareIndirect {
    fn predict_target(&mut self, ip: u64) -> Option<u64> {
        match self.table[self.index(ip)] {
            0 => None,
            target => Some(target),
        }
    }

    fn update(&mut self, branch: &Branch) {
        if branch.is_taken() && branch.target() != 0 {
            let slot = self.index(branch.ip());
            self.table[slot] = branch.target();
            // Path history: fold a couple of target bits per branch, like
            // hardware path registers do.
            let step = mix64(branch.target());
            for i in 0..2u32.min(self.hist_bits) {
                self.hist.push((step >> i) & 1 == 1);
            }
        }
    }
}

/// One tagged ITTAGE table.
#[derive(Clone, Debug)]
pub struct IttageTableSpec {
    /// `2^log_size` entries.
    pub log_size: u32,
    /// Global history bits folded into the index.
    pub hist_len: u32,
    /// Tag width in bits (at most 15).
    pub tag_bits: u32,
}

/// ITTAGE configuration: a tagless base target table plus tagged tables
/// with geometrically increasing history lengths.
#[derive(Clone, Debug)]
pub struct IttageConfig {
    /// `2^base_log_size` base table entries.
    pub base_log_size: u32,
    /// Tagged tables ordered by strictly increasing history length.
    pub tables: Vec<IttageTableSpec>,
}

impl IttageConfig {
    /// The ~64 kB configuration of §VII-A: eight tagged tables with
    /// geometric history lengths from 4 to 320 bits.
    pub fn default_64kb() -> Self {
        let lengths = [4u32, 8, 13, 22, 39, 70, 160, 320];
        Self {
            base_log_size: 11,
            tables: lengths
                .iter()
                .enumerate()
                .map(|(i, &hist_len)| IttageTableSpec {
                    log_size: 9,
                    hist_len,
                    tag_bits: (9 + i as u32 / 2).min(13),
                })
                .collect(),
        }
    }

    /// A small configuration for fast tests.
    pub fn small() -> Self {
        let lengths = [4u32, 16, 64];
        Self {
            base_log_size: 8,
            tables: lengths
                .iter()
                .map(|&hist_len| IttageTableSpec {
                    log_size: 7,
                    hist_len,
                    tag_bits: 9,
                })
                .collect(),
        }
    }
}

#[derive(Clone, Copy, Debug, Default)]
struct IttageEntry {
    tag: u16,
    target: u64,
    conf: USatCounter<2>,
}

/// The ITTAGE indirect target predictor (Seznec, 2011): TAGE's tagged
/// geometric-history structure storing *targets* instead of direction
/// counters.
///
/// Prediction comes from the matching table with the longest history; on a
/// target misprediction a longer-history entry is allocated.
///
/// # Examples
///
/// ```
/// use mbp_predictors::target::{Ittage, IttageConfig, TargetPredictor};
/// use mbp_core::{Branch, Opcode};
///
/// let mut p = Ittage::new(IttageConfig::small());
/// let b = Branch::new(0x40_1000, 0x40_2000, Opcode::indirect_jump(), true);
/// p.update(&b);
/// assert_eq!(p.predict_target(b.ip()), Some(0x40_2000));
/// ```
#[derive(Clone, Debug)]
pub struct Ittage {
    cfg: IttageConfig,
    base: Vec<u64>,
    tables: Vec<Vec<IttageEntry>>,
    /// Per table: the index fold, then the tag fold.
    hist: GeometricHistory,
    /// `(table, index)` of the provider of the last prediction, if tagged.
    last_provider: Option<(usize, usize)>,
}

impl Ittage {
    /// Builds an ITTAGE predictor from a configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration has no tagged tables, history lengths
    /// are not strictly increasing, a tag is wider than 15 bits, or a log
    /// size is wider than 16 bits.
    pub fn new(cfg: IttageConfig) -> Self {
        assert!(
            !cfg.tables.is_empty(),
            "ITTAGE needs at least one tagged table"
        );
        assert!(
            cfg.tables.windows(2).all(|w| w[0].hist_len < w[1].hist_len),
            "history lengths must be strictly increasing"
        );
        assert!(
            cfg.tables.iter().all(|t| (1..=15).contains(&t.tag_bits)),
            "tags must be 1..=15 bits"
        );
        let mut folds = Vec::new();
        for t in &cfg.tables {
            assert_fold_width(t.log_size);
            folds.extend([t.log_size, t.tag_bits].map(|w| (t.hist_len as usize, w)));
        }
        Self {
            base: vec![0; 1 << cfg.base_log_size],
            tables: cfg
                .tables
                .iter()
                .map(|t| vec![IttageEntry::default(); 1 << t.log_size])
                .collect(),
            hist: GeometricHistory::new(&folds),
            last_provider: None,
            cfg,
        }
    }

    fn slot(&self, table: usize, ip: u64) -> (usize, u16) {
        let spec = &self.cfg.tables[table];
        let folds = &self.hist.folds()[2 * table..];
        let index = xor_fold(ip ^ folds[0] as u64, spec.log_size) as usize;
        let tag = xor_fold(mix64(ip) ^ folds[1] as u64, spec.tag_bits) as u16;
        (index, tag)
    }
}

impl TargetPredictor for Ittage {
    fn predict_target(&mut self, ip: u64) -> Option<u64> {
        self.last_provider = None;
        for table in (0..self.tables.len()).rev() {
            let (index, tag) = self.slot(table, ip);
            let e = &self.tables[table][index];
            if e.target != 0 && e.tag == tag {
                self.last_provider = Some((table, index));
                return Some(e.target);
            }
        }
        match self.base[xor_fold(ip, self.cfg.base_log_size) as usize] {
            0 => None,
            target => Some(target),
        }
    }

    fn update(&mut self, branch: &Branch) {
        if !branch.is_taken() || branch.target() == 0 {
            return;
        }
        let ip = branch.ip();
        let target = branch.target();

        // Re-derive the provider for this ip (update may run without an
        // immediately preceding predict on the same branch).
        let provider = (0..self.tables.len()).rev().find_map(|t| {
            let (index, tag) = self.slot(t, ip);
            let e = &self.tables[t][index];
            (e.target != 0 && e.tag == tag).then_some((t, index))
        });

        let base_slot = xor_fold(ip, self.cfg.base_log_size) as usize;
        let correct = match provider {
            Some((t, i)) => {
                let e = &mut self.tables[t][i];
                let was_right = e.target == target;
                if was_right {
                    e.conf += 1;
                } else if e.conf.is_zero() {
                    e.target = target;
                } else {
                    e.conf -= 1;
                }
                was_right
            }
            None => {
                let was_right = self.base[base_slot] == target;
                self.base[base_slot] = target;
                was_right
            }
        };

        // On a miss, allocate in one longer-history table whose entry has
        // no confidence left.
        if !correct {
            let start = provider.map_or(0, |(t, _)| t + 1);
            for t in start..self.tables.len() {
                let (index, tag) = self.slot(t, ip);
                let e = &mut self.tables[t][index];
                if e.target == 0 || e.conf.is_zero() {
                    *e = IttageEntry {
                        tag,
                        target,
                        conf: USatCounter::new(0),
                    };
                    break;
                }
                e.conf -= 1;
            }
        }

        // Fold two target bits into the global history.
        let step = mix64(target);
        self.hist.track(step & 1 == 1);
        self.hist.track(step >> 1 & 1 == 1);
    }
}

/// A bounded return address stack.
///
/// Calls push their fall-through address (`ip + 4`, the convention used by
/// the trace generator and the ChampSim-format writer); returns pop. On
/// overflow the oldest entry is dropped, like a hardware circular RAS.
///
/// # Examples
///
/// ```
/// use mbp_predictors::target::ReturnAddressStack;
/// use mbp_core::{Branch, Opcode};
///
/// let mut ras = ReturnAddressStack::new(8);
/// ras.on_branch(&Branch::new(0x40_1000, 0x40_8000, Opcode::call(), true));
/// assert_eq!(ras.predict_return(), Some(0x40_1004));
/// ras.on_branch(&Branch::new(0x40_8040, 0x40_1004, Opcode::ret(), true));
/// assert_eq!(ras.predict_return(), None);
/// ```
#[derive(Clone, Debug)]
pub struct ReturnAddressStack {
    stack: Vec<u64>,
    depth: usize,
}

impl ReturnAddressStack {
    /// Creates a stack holding at most `depth` return addresses.
    ///
    /// # Panics
    ///
    /// Panics if `depth` is zero.
    pub fn new(depth: usize) -> Self {
        assert!(depth > 0, "RAS depth must be positive");
        Self {
            stack: Vec::with_capacity(depth),
            depth,
        }
    }

    /// The predicted target of the next return, if the stack is non-empty.
    pub fn predict_return(&self) -> Option<u64> {
        self.stack.last().copied()
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.stack.len()
    }

    /// Whether the stack is empty.
    pub fn is_empty(&self) -> bool {
        self.stack.is_empty()
    }

    /// Observes a resolved branch: calls push, returns pop.
    pub fn on_branch(&mut self, branch: &Branch) {
        use mbp_core::BranchKind;
        if !branch.is_taken() {
            return;
        }
        match branch.opcode().kind() {
            BranchKind::Call => {
                if self.stack.len() == self.depth {
                    self.stack.remove(0);
                }
                self.stack.push(branch.ip().wrapping_add(4));
            }
            BranchKind::Ret => {
                self.stack.pop();
            }
            BranchKind::Jump => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbp_core::Opcode;

    fn taken(ip: u64, target: u64, opcode: Opcode) -> Branch {
        Branch::new(ip, target, opcode, true)
    }

    #[test]
    fn btb_learns_and_evicts_lru() {
        let mut btb = Btb::new(1, 2); // 2 sets x 2 ways
        let op = Opcode::unconditional_direct();
        // Three branches mapping to the same set (set index = xor_fold(ip, 1)).
        let ips: Vec<u64> = (0..32)
            .map(|i| i * 2)
            .filter(|&ip| xor_fold(ip, 1) == 0)
            .take(3)
            .collect();
        btb.update(&taken(ips[0], 0x100, op));
        btb.update(&taken(ips[1], 0x200, op));
        assert_eq!(btb.predict_target(ips[0]), Some(0x100));
        // ips[1] is now LRU; inserting ips[2] evicts it.
        btb.update(&taken(ips[2], 0x300, op));
        assert_eq!(btb.predict_target(ips[1]), None);
        assert_eq!(btb.predict_target(ips[2]), Some(0x300));
    }

    #[test]
    fn btb_capacity_matches_geometry() {
        assert_eq!(Btb::new(10, 8).capacity(), 8192);
        assert_eq!(Btb::new(12, 1).capacity(), 4096);
    }

    #[test]
    fn btb_ignores_not_taken() {
        let mut btb = Btb::new(4, 2);
        btb.update(&Branch::new(
            0x500,
            0x900,
            Opcode::conditional_direct(),
            false,
        ));
        assert_eq!(btb.predict_target(0x500), None);
    }

    #[test]
    fn gshare_indirect_distinguishes_by_history() {
        let mut p = GshareIndirect::new(10, 8);
        let site = 0x40_2000;
        let op = Opcode::indirect_jump();
        // Alternate two targets from the same site; after the path history
        // picks up the pattern, both contexts hold their own entry.
        for _ in 0..64 {
            p.update(&taken(site, 0xA000, op));
            p.update(&taken(site, 0xB000, op));
        }
        let predicted = p.predict_target(site);
        assert!(predicted == Some(0xA000) || predicted == Some(0xB000));
    }

    #[test]
    fn ittage_learns_monomorphic_site() {
        let mut p = Ittage::new(IttageConfig::small());
        let b = taken(0x40_1000, 0x40_2000, Opcode::indirect_jump());
        for _ in 0..4 {
            p.update(&b);
        }
        assert_eq!(p.predict_target(b.ip()), Some(0x40_2000));
    }

    #[test]
    fn ittage_switches_after_repeated_misses() {
        let mut p = Ittage::new(IttageConfig::small());
        let site = 0x40_1000;
        let op = Opcode::indirect_jump();
        for _ in 0..8 {
            p.update(&taken(site, 0xA000, op));
        }
        for _ in 0..32 {
            p.update(&taken(site, 0xB000, op));
        }
        assert_eq!(p.predict_target(site), Some(0xB000));
    }

    #[test]
    #[should_panic(expected = "fold widths must be at most 16 bits (got 17)")]
    fn ittage_tables_wider_than_a_fold_rejected() {
        let mut cfg = IttageConfig::small();
        cfg.tables[0].log_size = 17;
        Ittage::new(cfg);
    }

    #[test]
    fn ittage_default_config_is_valid() {
        let p = Ittage::new(IttageConfig::default_64kb());
        assert_eq!(p.tables.len(), 8);
    }

    #[test]
    fn ras_pairs_calls_and_returns() {
        let mut ras = ReturnAddressStack::new(4);
        ras.on_branch(&taken(0x100, 0x800, Opcode::call()));
        ras.on_branch(&taken(0x200, 0x900, Opcode::call()));
        assert_eq!(ras.predict_return(), Some(0x204));
        ras.on_branch(&taken(0x940, 0x204, Opcode::ret()));
        assert_eq!(ras.predict_return(), Some(0x104));
    }

    #[test]
    fn ras_overflow_drops_oldest() {
        let mut ras = ReturnAddressStack::new(2);
        for ip in [0x100u64, 0x200, 0x300] {
            ras.on_branch(&taken(ip, 0x800, Opcode::call()));
        }
        assert_eq!(ras.len(), 2);
        assert_eq!(ras.predict_return(), Some(0x304));
    }
}
