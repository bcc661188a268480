//! Naive reference predictors: an independent oracle for TAGE, BATAGE,
//! the hashed perceptron, 2bc-gskew and the tournament.
//!
//! Golden vectors pin what the predictors did when they were blessed, not
//! whether it was right. The stock predictors index their tables from an
//! ip memo, a circular history with a bank of incrementally updated folds,
//! a register-history batch kernel, and a lookup `predict` leaves for
//! `train`. The references below keep the same table-update rules but none
//! of that machinery: every lookup folds each table's whole history window
//! with `HistoryRegister::fold` (or reads it bit by bit) and hashes the ip
//! afresh with `xor_fold`/`mix64`, and `train` repeats the lookup. The
//! stock predictor runs through `predict_batch`, through the scalar calls
//! and through `simulate`, as runs do; the reference runs the scalar calls.
//! Each test requires the same prediction bitstream and the same
//! misprediction count over:
//!
//! * the `mbp-workloads` suites (the head of every trace);
//! * hard-to-predict generator settings after "Workload Characterization
//!   for Branch Predictability": low bias, long-lag correlation, random and
//!   phased branches, data-dependent loop trips;
//! * an ip stream built against the memo: ips sharing memo lines (some
//!   also sharing their low 32 bits), ip 0, sign-extended kernel-half ips
//!   and `u64::MAX`.

use mbp_core::{
    json, simulate, Branch, BranchBatch, BranchRecord, Opcode, PredictionBits, Predictor,
    SimConfig, SliceSource, Value,
};
use mbp_predictors::{
    Batage, BatageConfig, Bimodal, Gshare, HashedPerceptron, Tage, TageConfig, Tournament,
    TwoBcGskew,
};
use mbp_utils::{
    mix64, xor_fold, HistoryRegister, IpMemo, SatCounter, USatCounter, Xorshift64, I2,
};
use mbp_workloads::{ProgramParams, Suite, TraceGenerator};

/// One register per table, of that table's history length: `fold(width)`
/// of it is the table's folded history, recomputed from every bit.
fn registers(lengths: impl Iterator<Item = u32>) -> Vec<HistoryRegister> {
    lengths.map(|l| HistoryRegister::new(l as usize)).collect()
}

fn push_all(hists: &mut [HistoryRegister], taken: bool) {
    for h in hists {
        h.push(taken);
    }
}

// ---------------------------------------------------------------- TAGE --

#[derive(Clone, Copy, Default)]
struct TageEntry {
    tag: u16,
    ctr: SatCounter<3>,
    useful: USatCounter<2>,
}

struct TageLookup {
    base: usize,
    slots: Vec<(usize, u16)>,
    provider: Option<usize>,
    alt: Option<usize>,
    provider_pred: bool,
    alt_pred: bool,
    final_pred: bool,
    provider_is_new: bool,
}

/// TAGE (Seznec & Michaud) with a full-history fold per index and tag.
struct RefTage {
    cfg: TageConfig,
    base: Vec<I2>,
    tables: Vec<Vec<TageEntry>>,
    hists: Vec<HistoryRegister>,
    use_alt_on_new: SatCounter<4>,
    rng: Xorshift64,
    updates: u64,
}

impl RefTage {
    fn new(cfg: TageConfig) -> Self {
        Self {
            base: vec![I2::default(); 1 << cfg.base_log_size],
            tables: cfg
                .tables
                .iter()
                .map(|t| vec![TageEntry::default(); 1 << t.log_size])
                .collect(),
            hists: registers(cfg.tables.iter().map(|t| t.hist_len)),
            use_alt_on_new: SatCounter::new(0),
            rng: Xorshift64::new(cfg.seed),
            updates: 0,
            cfg,
        }
    }

    fn lookup(&self, ip: u64) -> TageLookup {
        let base = xor_fold(ip, self.cfg.base_log_size) as usize;
        let mut slots = Vec::new();
        let mut hits = Vec::new();
        for (i, (t, h)) in self.cfg.tables.iter().zip(&self.hists).enumerate() {
            let ip_index = xor_fold(ip ^ (ip >> (t.log_size / 2 + i as u32 + 1)), t.log_size);
            let index = (ip_index ^ h.fold(t.log_size)) as usize;
            let tag = (xor_fold(ip, t.tag_bits)
                ^ h.fold(t.tag_bits)
                ^ (h.fold((t.tag_bits - 1).max(1)) << 1)) as u16
                & ((1u16 << t.tag_bits) - 1);
            slots.push((index, tag));
            if self.tables[i][index].tag == tag {
                hits.push(i);
            }
        }
        let provider = hits.last().copied();
        let alt = hits.len().checked_sub(2).map(|k| hits[k]);
        let alt_pred = match alt {
            Some(j) => self.tables[j][slots[j].0].ctr.is_taken(),
            None => self.base[base].is_taken(),
        };
        let (provider_pred, provider_is_new, final_pred) = match provider {
            Some(i) => {
                let e = &self.tables[i][slots[i].0];
                let is_new = e.ctr.is_weak() && e.useful.is_zero();
                let pred = e.ctr.is_taken();
                let fin = if is_new && self.use_alt_on_new.is_taken() {
                    alt_pred
                } else {
                    pred
                };
                (pred, is_new, fin)
            }
            None => (alt_pred, false, alt_pred),
        };
        TageLookup {
            base,
            slots,
            provider,
            alt,
            provider_pred,
            alt_pred,
            final_pred,
            provider_is_new,
        }
    }
}

impl Predictor for RefTage {
    fn predict(&mut self, ip: u64) -> bool {
        self.lookup(ip).final_pred
    }

    fn train(&mut self, branch: &Branch) {
        let taken = branch.is_taken();
        let lk = self.lookup(branch.ip());
        self.updates += 1;
        if let Some(i) = lk.provider {
            if lk.provider_is_new && lk.provider_pred != lk.alt_pred {
                self.use_alt_on_new.sum_or_sub(lk.alt_pred == taken);
            }
            if lk.provider_is_new {
                match lk.alt {
                    Some(j) => self.tables[j][lk.slots[j].0].ctr.sum_or_sub(taken),
                    None => self.base[lk.base].sum_or_sub(taken),
                }
            }
            let e = &mut self.tables[i][lk.slots[i].0];
            e.ctr.sum_or_sub(taken);
            if lk.provider_pred != lk.alt_pred {
                if lk.provider_pred == taken {
                    e.useful += 1;
                } else {
                    e.useful -= 1;
                }
            }
        } else {
            self.base[lk.base].sum_or_sub(taken);
        }
        if lk.final_pred != taken {
            let n = self.tables.len();
            let start = lk.provider.map_or(0, |p| p + 1);
            if start < n {
                let skip = usize::from(n - start > 1 && self.rng.one_in(2));
                let free =
                    (start + skip..n).find(|&i| self.tables[i][lk.slots[i].0].useful.is_zero());
                match free {
                    Some(i) => {
                        let (index, tag) = lk.slots[i];
                        self.tables[i][index] = TageEntry {
                            tag,
                            ctr: SatCounter::new(if taken { 0 } else { -1 }),
                            ..self.tables[i][index]
                        };
                    }
                    None => {
                        for i in start..n {
                            self.tables[i][lk.slots[i].0].useful -= 1;
                        }
                    }
                }
            }
        }
        if self.updates.is_multiple_of(self.cfg.reset_period) {
            for e in self.tables.iter_mut().flatten() {
                e.useful.halve();
            }
        }
    }

    fn track(&mut self, branch: &Branch) {
        push_all(&mut self.hists, branch.is_taken());
    }

    fn metadata(&self) -> Value {
        json!({"name": "reference TAGE"})
    }
}

// -------------------------------------------------------------- BATAGE --

const COUNT_MAX: u8 = 7;

/// BATAGE's dual counter (Michaud): taken and not-taken counts.
#[derive(Clone, Copy, Default, PartialEq)]
struct Dual {
    taken: u8,
    not_taken: u8,
}

impl Dual {
    fn prediction(self) -> bool {
        self.taken >= self.not_taken
    }

    fn min_total(self) -> (u32, u32) {
        (
            self.taken.min(self.not_taken) as u32,
            (self.taken + self.not_taken) as u32,
        )
    }

    /// Low confidence: not `(min + 1) / (total + 2)` below 1/3 on at least
    /// three observations.
    fn low_confidence(self) -> bool {
        let (min, total) = self.min_total();
        let high = total >= 5 && 6 * (min + 1) < total + 2;
        let medium = total >= 3 && 3 * (min + 1) < total + 2;
        !high && !medium
    }

    fn at_least_as_confident_as(self, other: Dual) -> bool {
        let (ms, ts) = self.min_total();
        let (mo, to) = other.min_total();
        (ms + 1) * (to + 2) <= (mo + 1) * (ts + 2)
    }

    fn update(&mut self, taken: bool) {
        let (side, other) = if taken {
            (&mut self.taken, &mut self.not_taken)
        } else {
            (&mut self.not_taken, &mut self.taken)
        };
        if *side < COUNT_MAX {
            *side += 1;
        } else {
            *other /= 2;
        }
    }

    fn decay(&mut self) {
        if self.taken > self.not_taken {
            self.taken -= 1;
        } else if self.not_taken > self.taken {
            self.not_taken -= 1;
        } else if self.taken > 0 {
            self.taken -= 1;
            self.not_taken -= 1;
        }
    }
}

/// BATAGE with a full-history fold per index and tag.
struct RefBatage {
    cfg: BatageConfig,
    base: Vec<I2>,
    tables: Vec<Vec<(u16, Dual)>>,
    hists: Vec<HistoryRegister>,
    rng: Xorshift64,
    cat: i32,
}

impl RefBatage {
    fn new(cfg: BatageConfig) -> Self {
        Self {
            base: vec![I2::default(); 1 << cfg.base_log_size],
            tables: cfg
                .tables
                .iter()
                .map(|&(log, _, _)| vec![(0, Dual::default()); 1 << log])
                .collect(),
            hists: registers(cfg.tables.iter().map(|t| t.1)),
            rng: Xorshift64::new(cfg.seed),
            cat: 0,
            cfg,
        }
    }

    /// `(base index, slots, hits, provider, prediction)`.
    #[allow(clippy::type_complexity)]
    fn lookup(&self, ip: u64) -> (usize, Vec<(usize, u16)>, Vec<usize>, Option<usize>, bool) {
        let base = xor_fold(ip, self.cfg.base_log_size) as usize;
        let mut slots = Vec::new();
        let mut hits = Vec::new();
        for (i, (&(log, _, tag_bits), h)) in self.cfg.tables.iter().zip(&self.hists).enumerate() {
            let index =
                (xor_fold(ip ^ (ip >> (log / 2 + i as u32 + 1)), log) ^ h.fold(log)) as usize;
            let tag = (xor_fold(ip, tag_bits)
                ^ h.fold(tag_bits)
                ^ (h.fold(tag_bits.max(2) - 1) << 1)) as u16
                & ((1u16 << tag_bits) - 1);
            slots.push((index, tag));
            if self.tables[i][index].0 == tag {
                hits.push(i);
            }
        }
        let c = self.base[base];
        let strength = if c.is_weak() { 1 } else { 5 };
        let mut best = if c.is_taken() {
            Dual {
                taken: strength,
                not_taken: 0,
            }
        } else {
            Dual {
                taken: 0,
                not_taken: strength,
            }
        };
        let mut provider = None;
        for &i in &hits {
            let d = self.tables[i][slots[i].0].1;
            if d.at_least_as_confident_as(best) {
                best = d;
                provider = Some(i);
            }
        }
        (base, slots, hits, provider, best.prediction())
    }
}

impl Predictor for RefBatage {
    fn predict(&mut self, ip: u64) -> bool {
        self.lookup(ip).4
    }

    fn train(&mut self, branch: &Branch) {
        let taken = branch.is_taken();
        let (base, slots, hits, provider, final_pred) = self.lookup(branch.ip());
        let longest = hits.last().copied();
        if let Some(i) = longest {
            self.tables[i][slots[i].0].1.update(taken);
        }
        match provider {
            Some(i) => {
                if longest != Some(i) {
                    self.tables[i][slots[i].0].1.update(taken);
                }
                if self.tables[i][slots[i].0].1.low_confidence() {
                    self.base[base].sum_or_sub(taken);
                }
            }
            None => self.base[base].sum_or_sub(taken),
        }
        if final_pred != taken {
            let n = self.tables.len();
            let start = provider.map_or(0, |p| p + 1);
            let throttle = self.cat.max(0) as u64;
            let allow = throttle == 0 || self.rng.below(self.cfg.cat_max as u64 + 1) >= throttle;
            if start < n && allow {
                let free = (start..n).find(|&i| {
                    let d = self.tables[i][slots[i].0].1;
                    d.taken + d.not_taken <= 1
                });
                match free {
                    Some(i) => {
                        let fresh = Dual {
                            taken: taken as u8,
                            not_taken: !taken as u8,
                        };
                        self.tables[i][slots[i].0] = (slots[i].1, fresh);
                        self.cat = (self.cat - 1).max(0);
                    }
                    None => {
                        let i = start + self.rng.below((n - start) as u64) as usize;
                        self.tables[i][slots[i].0].1.decay();
                        self.cat = (self.cat + 3).min(self.cfg.cat_max);
                    }
                }
            }
        }
    }

    fn track(&mut self, branch: &Branch) {
        push_all(&mut self.hists, branch.is_taken());
    }

    fn metadata(&self) -> Value {
        json!({"name": "reference BATAGE"})
    }
}

// ---------------------------------------------------- hashed perceptron --

/// The hashed perceptron (Tarjan & Skadron) with a full-history fold per
/// weight table.
struct RefPerceptron {
    tables: Vec<Vec<i8>>,
    hists: Vec<HistoryRegister>,
    log_size: u32,
    theta: i32,
    tc: i32,
}

impl RefPerceptron {
    fn new(history_lengths: &[u32], log_size: u32) -> Self {
        Self {
            tables: vec![vec![0; 1 << log_size]; history_lengths.len() + 1],
            hists: registers(history_lengths.iter().copied()),
            log_size,
            theta: 12,
            tc: 0,
        }
    }

    fn indices(&self, ip: u64) -> Vec<usize> {
        let mut out = vec![xor_fold(ip, self.log_size) as usize];
        for (t, h) in self.hists.iter().enumerate().map(|(k, h)| (k + 1, h)) {
            let mixed = mix64(ip.wrapping_mul(2 * t as u64 + 1));
            out.push(xor_fold(mixed ^ h.fold(self.log_size), self.log_size) as usize);
        }
        out
    }

    fn sum(&self, indices: &[usize]) -> i32 {
        indices
            .iter()
            .zip(&self.tables)
            .map(|(&i, t)| t[i] as i32)
            .sum()
    }
}

impl Predictor for RefPerceptron {
    fn predict(&mut self, ip: u64) -> bool {
        self.sum(&self.indices(ip)) >= 0
    }

    fn train(&mut self, branch: &Branch) {
        let taken = branch.is_taken();
        let indices = self.indices(branch.ip());
        let sum = self.sum(&indices);
        let mispredicted = (sum >= 0) != taken;
        if mispredicted || sum.abs() <= self.theta {
            for (table, &i) in self.tables.iter_mut().zip(&indices) {
                table[i] = if taken {
                    (table[i] + 1).min(63)
                } else {
                    (table[i] - 1).max(-64)
                };
            }
        }
        if mispredicted {
            self.tc += 1;
            if self.tc >= 64 {
                self.tc = 0;
                self.theta += 1;
            }
        } else if sum.abs() <= self.theta {
            self.tc -= 1;
            if self.tc <= -64 {
                self.tc = 0;
                self.theta = (self.theta - 1).max(1);
            }
        }
    }

    fn track(&mut self, branch: &Branch) {
        push_all(&mut self.hists, branch.is_taken());
    }

    fn metadata(&self) -> Value {
        json!({"name": "reference hashed perceptron"})
    }
}

// ------------------------------------------------------------ 2bc-gskew --

/// The `bits` most recent outcomes of `hist`, read bit by bit, the latest
/// in bit 0.
fn recent(hist: &HistoryRegister, bits: u32) -> u64 {
    (0..bits as usize).fold(0, |h, i| h | (hist.bit(i) as u64) << i)
}

/// 2bc-gskew (Seznec & Michaud): a bimodal bank, two skewed global-history
/// banks and a chooser, every index computed from the full history register
/// on every call.
struct RefGskew {
    /// `[BIM, G0, G1, META]`.
    banks: [Vec<I2>; 4],
    hist: HistoryRegister,
    hist_len: u32,
    log_size: u32,
}

impl RefGskew {
    fn new(hist_len: u32, log_size: u32) -> Self {
        Self {
            banks: std::array::from_fn(|_| vec![I2::default(); 1 << log_size]),
            hist: HistoryRegister::new(hist_len as usize),
            hist_len,
            log_size,
        }
    }

    /// `BIM` reads the address; `G0` half the history, `G1` all of it, each
    /// through its own skewing mix; `META` the address and a quarter of the
    /// history (at least one outcome).
    fn indices(&self, ip: u64) -> [usize; 4] {
        let fold = |v: u64| xor_fold(v, self.log_size) as usize;
        let skew =
            |bank: u64, h: u64| fold(mix64(ip ^ h.rotate_left(bank as u32 * 7) ^ (bank << 61)));
        [
            fold(ip),
            skew(1, recent(&self.hist, self.hist_len / 2)),
            skew(2, recent(&self.hist, self.hist_len)),
            fold(ip ^ (recent(&self.hist, (self.hist_len / 4).max(1)) << 1)),
        ]
    }

    /// The four banks' directions, the e-gskew majority and the prediction.
    fn lookup(&self, idx: [usize; 4]) -> ([bool; 4], bool, bool) {
        let dirs: [bool; 4] = std::array::from_fn(|b| self.banks[b][idx[b]].is_taken());
        let majority = dirs[..3].iter().filter(|&&d| d).count() >= 2;
        (dirs, majority, if dirs[3] { majority } else { dirs[0] })
    }
}

impl Predictor for RefGskew {
    fn predict(&mut self, ip: u64) -> bool {
        self.lookup(self.indices(ip)).2
    }

    fn train(&mut self, branch: &Branch) {
        let taken = branch.is_taken();
        let idx = self.indices(branch.ip());
        let (dirs, majority, prediction) = self.lookup(idx);
        // Partial update: the chooser learns only when BIM and the majority
        // disagree; a misprediction retrains the three direction banks, a
        // correct prediction strengthens only the banks that made it.
        if dirs[0] != majority {
            self.banks[3][idx[3]].sum_or_sub(majority == taken);
        }
        for b in 0..3 {
            let made_it = if dirs[3] { dirs[b] == taken } else { b == 0 };
            if prediction != taken || made_it {
                self.banks[b][idx[b]].sum_or_sub(taken);
            }
        }
    }

    fn track(&mut self, branch: &Branch) {
        self.hist.push(branch.is_taken());
    }

    fn metadata(&self) -> Value {
        json!({"name": "reference 2bc-gskew"})
    }
}

// ----------------------------------------------------------- tournament --

/// A table of two-bit counters indexed by `xor_fold(ip ^ history)`, the
/// history read bit by bit: bimodal (Smith) with no history, GShare
/// (McFarling) with some.
struct RefTwoBit {
    table: Vec<I2>,
    hist: Option<HistoryRegister>,
    log_size: u32,
}

impl RefTwoBit {
    fn new(hist_len: u32, log_size: u32) -> Self {
        Self {
            table: vec![I2::default(); 1 << log_size],
            hist: (hist_len > 0).then(|| HistoryRegister::new(hist_len as usize)),
            log_size,
        }
    }

    fn index(&self, ip: u64) -> usize {
        let h = self.hist.as_ref().map_or(0, |h| recent(h, h.len() as u32));
        xor_fold(ip ^ h, self.log_size) as usize
    }
}

impl Predictor for RefTwoBit {
    fn predict(&mut self, ip: u64) -> bool {
        self.table[self.index(ip)].is_taken()
    }

    fn train(&mut self, branch: &Branch) {
        let i = self.index(branch.ip());
        self.table[i].sum_or_sub(branch.is_taken());
    }

    fn track(&mut self, branch: &Branch) {
        if let Some(h) = &mut self.hist {
            h.push(branch.is_taken());
        }
    }
}

/// The tournament (McFarling): a chooser picks one of two components; it
/// trains only when they disagree, toward the one that was right, through a
/// branch whose outcome says "component 1 was right". Every call asks the
/// components afresh.
struct RefTournament {
    meta: RefTwoBit,
    bp: [RefTwoBit; 2],
}

impl Predictor for RefTournament {
    fn predict(&mut self, ip: u64) -> bool {
        let provider = self.meta.predict(ip) as usize;
        self.bp[provider].predict(ip)
    }

    fn train(&mut self, branch: &Branch) {
        let ip = branch.ip();
        let [p0, p1] = [self.bp[0].predict(ip), self.bp[1].predict(ip)];
        for bp in &mut self.bp {
            bp.train(branch);
        }
        if p0 != p1 {
            self.meta
                .train(&branch.with_outcome(p1 == branch.is_taken()));
        }
    }

    fn track(&mut self, branch: &Branch) {
        self.meta.track(branch);
        for bp in &mut self.bp {
            bp.track(branch);
        }
    }

    fn metadata(&self) -> Value {
        json!({"name": "reference tournament"})
    }
}

// ------------------------------------------------------------- inputs --

/// Records from the head of every trace of the stock suites.
fn suite_heads(records_per_trace: usize) -> Vec<(String, Vec<BranchRecord>)> {
    [
        Suite::smoke(),
        Suite::cbp5_training(1),
        Suite::cbp5_evaluation(1),
        Suite::dpc3(1),
    ]
    .iter()
    .flat_map(|suite| &suite.traces)
    .map(|spec| {
        (
            spec.name.clone(),
            spec.generator().take_records(records_per_trace),
        )
    })
    .collect()
}

/// Hard-to-predict settings: many static branches, weak bias, long-lag
/// correlation, random and phased outcomes, loops with random trip counts.
fn h2p_traces(records: usize) -> Vec<(String, Vec<BranchRecord>)> {
    let correlated = ProgramParams {
        behavior_weights: [1, 1, 6, 2, 3],
        bias: 0.6,
        max_lag: 48,
        fixed_trip_pct: 10,
        ..ProgramParams::server()
    };
    let noisy = ProgramParams {
        behavior_weights: [1, 0, 2, 5, 2],
        bias: 0.55,
        trip_range: (2, 24),
        fixed_trip_pct: 0,
        ..ProgramParams::int_speed()
    };
    [("h2p-correlated", correlated), ("h2p-noisy", noisy)]
        .into_iter()
        .flat_map(|(name, params)| {
            (0..2u64).map(move |seed| {
                let records =
                    TraceGenerator::from_params(&params, 0x4_2b00 + seed).take_records(records);
                (format!("{name}-{seed}"), records)
            })
        })
        .collect()
}

/// A stream aimed at the ip memo: groups of ips sharing a memo line (one
/// group on ip 0's line), ip 0 itself, sign-extended kernel-half ips and
/// `u64::MAX`, with loop, biased, random and correlated outcomes.
fn memo_stream(records: usize) -> Vec<BranchRecord> {
    let line = IpMemo::<()>::line;
    let colliding = |anchor: u64, count: usize| -> Vec<u64> {
        (1..)
            .map(|k: u64| 0x40_0000 + 4 * k)
            .filter(|&ip| ip != anchor && line(ip) == line(anchor))
            .take(count)
            .collect()
    };
    let mut ips = vec![0, u64::MAX, 0xffff_ffff_8000_0000, 0xffff_8000_0000_1004];
    ips.extend(colliding(0, 3));
    ips.extend(colliding(u64::MAX, 2));
    let anchor = 0x40_1000;
    ips.push(anchor);
    ips.extend(colliding(anchor, 4));
    // Same line and the same low 32 bits: only the high half tells them
    // apart.
    ips.extend(
        (1..)
            .map(|k: u64| anchor ^ k << 32)
            .filter(|&ip| line(ip) == line(anchor))
            .take(2),
    );
    ips.extend(colliding(0xffff_ffff_8000_0000, 2));
    for &ip in &ips[1..] {
        assert_ne!(ip, 0);
    }

    let mut rng = Xorshift64::new(0x3e30_0001);
    let mut last = false;
    let mut out = Vec::with_capacity(records);
    let mut i = 0u64;
    while out.len() < records {
        let ip = ips[rng.below(ips.len() as u64) as usize];
        let taken = match mix64(ip) % 4 {
            0 => i % 9 != 8,
            1 => rng.below(8) != 0,
            2 => rng.next_bool(),
            _ => !last,
        };
        last = taken;
        i += 1;
        out.push(BranchRecord::new(
            Branch::new(
                ip,
                ip.wrapping_add(0x40),
                Opcode::conditional_direct(),
                taken,
            ),
            3,
        ));
        if i.is_multiple_of(7) {
            // A taken jump from a colliding ip: `track` sees it, `train`
            // does not.
            out.push(BranchRecord::new(
                Branch::new(ips[4], 0x70_0000, Opcode::unconditional_direct(), true),
                2,
            ));
        }
    }
    out
}

// ------------------------------------------------------------ checks --

/// Runs `stock` through `predict_batch` over the whole trace, a fresh
/// `stock` through the scalar calls (which a batch kernel, and so its
/// lookup cache, never sees) and another through `simulate`, the reference
/// through the scalar calls, and requires the same bitstream and
/// misprediction count.
fn assert_matches_reference(
    label: &str,
    mut make_stock: impl FnMut() -> Box<dyn Predictor>,
    reference: &mut dyn Predictor,
    records: &[BranchRecord],
) {
    let mut stock = make_stock();
    let mut bits = PredictionBits::new();
    stock.predict_batch(&BranchBatch::from_records(records), false, &mut bits);

    let mut scalar = make_stock();
    let mut k = 0;
    let mut reference_misses = 0u64;
    for rec in records {
        let b = rec.branch;
        if b.is_conditional() {
            let want = reference.predict(b.ip());
            assert!(k < bits.len(), "{label}: stock made too few predictions");
            assert_eq!(
                bits.get(k),
                want,
                "{label}: prediction {k} (ip {:#x}) differs from the reference",
                b.ip()
            );
            assert_eq!(
                scalar.predict(b.ip()),
                want,
                "{label}: scalar prediction {k} (ip {:#x}) differs from the reference",
                b.ip()
            );
            reference_misses += (want != b.is_taken()) as u64;
            reference.train(&b);
            scalar.train(&b);
            k += 1;
        }
        reference.track(&b);
        scalar.track(&b);
    }
    assert_eq!(bits.len(), k, "{label}: prediction counts differ");

    let mut fresh = make_stock();
    let result = simulate(
        &mut SliceSource::new(records),
        &mut fresh,
        &SimConfig::default(),
    )
    .expect("in-memory simulation cannot fail");
    assert_eq!(
        result.metrics.mispredictions, reference_misses,
        "{label}: misprediction counts differ"
    );
}

/// Every input set, for one predictor and its reference.
fn check_all(
    name: &str,
    make_stock: impl Fn() -> Box<dyn Predictor>,
    make_reference: impl Fn() -> Box<dyn Predictor>,
) {
    let mut inputs = suite_heads(2_500);
    inputs.extend(h2p_traces(8_000));
    inputs.push(("memo-stream".to_string(), memo_stream(12_000)));
    for (trace, records) in &inputs {
        assert_matches_reference(
            &format!("{name} on {trace}"),
            &make_stock,
            &mut *make_reference(),
            records,
        );
    }
}

#[test]
fn tage_matches_its_naive_reference() {
    check_all(
        "tage",
        || Box::new(Tage::new(TageConfig::default_64kb())),
        || Box::new(RefTage::new(TageConfig::default_64kb())),
    );
}

#[test]
fn small_tage_matches_its_naive_reference() {
    check_all(
        "tage (small)",
        || Box::new(Tage::new(TageConfig::small())),
        || Box::new(RefTage::new(TageConfig::small())),
    );
}

#[test]
fn batage_matches_its_naive_reference() {
    check_all(
        "batage",
        || Box::new(Batage::new(BatageConfig::default_64kb())),
        || Box::new(RefBatage::new(BatageConfig::default_64kb())),
    );
}

#[test]
fn small_batage_matches_its_naive_reference() {
    check_all(
        "batage (small)",
        || Box::new(Batage::new(BatageConfig::small())),
        || Box::new(RefBatage::new(BatageConfig::small())),
    );
}

#[test]
fn hashed_perceptron_matches_its_naive_reference() {
    check_all(
        "hashed-perceptron",
        || Box::new(HashedPerceptron::default_config()),
        || Box::new(RefPerceptron::new(&[3, 6, 12, 24, 48, 96, 192], 13)),
    );
    check_all(
        "hashed-perceptron (small)",
        || Box::new(HashedPerceptron::new(vec![4, 8, 16, 32], 12)),
        || Box::new(RefPerceptron::new(&[4, 8, 16, 32], 12)),
    );
}

#[test]
fn gskew_matches_its_naive_reference() {
    check_all(
        "2bc-gskew",
        || Box::new(TwoBcGskew::new(16, 21)),
        || Box::new(RefGskew::new(16, 21)),
    );
    check_all(
        "2bc-gskew (small)",
        || Box::new(TwoBcGskew::new(5, 10)),
        || Box::new(RefGskew::new(5, 10)),
    );
}

#[test]
fn tournament_matches_its_naive_reference() {
    check_all(
        "tournament",
        || Box::new(Tournament::classic(16)),
        || {
            Box::new(RefTournament {
                meta: RefTwoBit::new(0, 16),
                bp: [RefTwoBit::new(0, 16), RefTwoBit::new(16, 16)],
            })
        },
    );
    check_all(
        "tournament (small)",
        || {
            Box::new(Tournament::new(
                Box::new(Bimodal::new(6)),
                Box::new(Bimodal::new(8)),
                Box::new(Gshare::new(11, 9)),
            ))
        },
        || {
            Box::new(RefTournament {
                meta: RefTwoBit::new(0, 6),
                bp: [RefTwoBit::new(0, 8), RefTwoBit::new(11, 9)],
            })
        },
    );
}
