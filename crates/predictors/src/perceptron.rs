//! The hashed perceptron (Tarjan & Skadron, 2005): sums small signed
//! weights selected by hashes of the branch address and geometric slices of
//! the global history.

use mbp_core::{json, Branch, Predictor, TableProbe, Value};
use mbp_utils::{mix64, xor_fold, GeometricHistory, IpMemo, IpParts};

use crate::tage::assert_fold_width;

const WEIGHT_MAX: i8 = 63;
const WEIGHT_MIN: i8 = -64;

/// The ip part of every table's index: the bias table's is a fold of the
/// ip, weight table `t`'s a fold of a mix of the ip odd-multiplied by `t`.
/// A history fold is no wider than the table, so folding `mix ^ history`
/// equals folding `mix` and XORing the history fold.
#[derive(Clone, Debug)]
struct PerceptronParts {
    log_size: u32,
    tables: usize,
}

impl IpParts for PerceptronParts {
    fn width(&self) -> usize {
        self.tables
    }

    fn fill(&self, ip: u64, out: &mut [u32]) {
        out[0] = xor_fold(ip, self.log_size) as u32;
        for (t, part) in out.iter_mut().enumerate().skip(1) {
            *part = xor_fold(mix64(ip.wrapping_mul(2 * t as u64 + 1)), self.log_size) as u32;
        }
    }
}

/// A hashed perceptron predictor.
///
/// One bias table indexed by address plus `history_lengths.len()` weight
/// tables, table *i* indexed by a hash of the address and the most recent
/// `history_lengths[i]` outcome bits. The prediction is the sign of the
/// summed weights. Training occurs on a misprediction or when the sum's
/// magnitude falls below an adaptively tuned threshold θ (the O-GEHL-style
/// dynamic threshold).
///
/// # Examples
///
/// ```
/// use mbp_core::Predictor;
/// use mbp_predictors::HashedPerceptron;
///
/// let p = HashedPerceptron::new(vec![4, 8, 16, 32], 12);
/// assert_eq!(p.metadata()["tables"].as_u64(), Some(5));
/// ```
#[derive(Clone, Debug)]
pub struct HashedPerceptron {
    /// `tables[t][index]` signed weights; table 0 is the bias table.
    tables: Vec<Vec<i8>>,
    history_lengths: Vec<u32>,
    memo: IpMemo<PerceptronParts>,
    /// One fold per weight table, of its history length to `log_size` bits.
    hist: GeometricHistory,
    log_size: u32,
    theta: i32,
    /// Dynamic-threshold training counter.
    tc: i32,
    /// Per-table weight indices of the latest lookup.
    indices: Vec<usize>,
    /// The ip and weight sum `predict` computed `indices` for: `train` on
    /// the same ip reuses them instead of repeating the lookup (Listing 4).
    /// Every other `&mut` call clears it.
    cached: Option<(u64, i32)>,
}

impl HashedPerceptron {
    /// Creates a hashed perceptron with the given history lengths (one
    /// weight table each, plus the bias table) and `2^log_size` weights per
    /// table.
    ///
    /// # Panics
    ///
    /// Panics if `history_lengths` is empty or unsorted, or `log_size` is
    /// not in `1..=16`.
    pub fn new(history_lengths: Vec<u32>, log_size: u32) -> Self {
        assert!(
            !history_lengths.is_empty(),
            "need at least one history length"
        );
        assert!(
            history_lengths.windows(2).all(|w| w[0] < w[1]),
            "history lengths must be strictly increasing"
        );
        assert!(log_size >= 1, "log_size must be at least 1");
        assert_fold_width(log_size);
        let folds: Vec<_> = history_lengths
            .iter()
            .map(|&h| (h as usize, log_size))
            .collect();
        let tables = history_lengths.len() + 1;
        Self {
            tables: vec![vec![0i8; 1 << log_size]; tables],
            indices: vec![0; tables],
            cached: None,
            history_lengths,
            memo: IpMemo::new(PerceptronParts { log_size, tables }),
            hist: GeometricHistory::new(&folds),
            log_size,
            theta: 12,
            tc: 0,
        }
    }

    /// The ~64 kB configuration used by the benchmark harness: eight tables
    /// with geometric history lengths.
    pub fn default_config() -> Self {
        Self::new(vec![3, 6, 12, 24, 48, 96, 192], 13)
    }

    /// Computes every table's index for `ip` into `indices` and returns
    /// the weight sum they select.
    fn lookup(&mut self, ip: u64) -> i32 {
        let parts = self.memo.get(ip);
        // The bias table's history part is zero.
        self.indices[0] = parts[0] as usize;
        let mut sum = self.tables[0][self.indices[0]] as i32;
        for (((&part, &h), index), table) in parts[1..]
            .iter()
            .zip(self.hist.folds())
            .zip(&mut self.indices[1..])
            .zip(&self.tables[1..])
        {
            *index = (part ^ h as u32) as usize;
            sum += table[*index] as i32;
        }
        sum
    }

    /// Current adaptive threshold θ.
    pub fn theta(&self) -> i32 {
        self.theta
    }

    /// Storage cost in bits: 7-bit weights across every table plus the
    /// global history register.
    pub fn storage_bits(&self) -> u64 {
        let weights: u64 = self.tables.iter().map(|t| t.len() as u64).sum();
        weights * 7 + self.history_lengths.last().copied().unwrap_or(0) as u64
    }
}

impl Predictor for HashedPerceptron {
    fn size_hint(&self) -> u64 {
        self.storage_bits().div_ceil(8) + self.memo.heap_bytes() + self.hist.heap_bytes()
    }

    fn predict(&mut self, ip: u64) -> bool {
        let sum = self.lookup(ip);
        self.cached = Some((ip, sum));
        sum >= 0
    }

    fn train(&mut self, branch: &Branch) {
        let ip = branch.ip();
        let taken = branch.is_taken();
        let sum = match self.cached.take() {
            Some((cached_ip, sum)) if cached_ip == ip => sum,
            _ => self.lookup(ip),
        };
        let prediction = sum >= 0;
        let mispredicted = prediction != taken;

        if mispredicted || sum.abs() <= self.theta {
            for (table, &idx) in self.tables.iter_mut().zip(&self.indices) {
                let w = &mut table[idx];
                if taken {
                    *w = (*w + 1).min(WEIGHT_MAX);
                } else {
                    *w = (*w - 1).max(WEIGHT_MIN);
                }
            }
        }

        // Dynamic threshold fitting (Seznec): raise θ when mispredicting,
        // lower it when updating on low-confidence correct predictions.
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
        self.cached = None;
        self.hist.track(branch.is_taken());
    }

    fn metadata(&self) -> Value {
        json!({
            "name": "MBPlib Hashed Perceptron",
            "tables": self.tables.len(),
            "log_table_size": self.log_size,
            "history_lengths": self.history_lengths.clone(),
            "weight_bits": 7,
        })
    }

    fn execution_statistics(&self) -> Value {
        json!({"theta": self.theta})
    }

    fn table_probes(&self) -> Vec<TableProbe> {
        // One aggregate probe over every weight in every table. The
        // histogram buckets weights by magnitude; the buckets partition the
        // weight range, so the counts sum to `entries`.
        let total: u64 = self.tables.iter().map(|t| t.len() as u64).sum();
        let mut occupied = 0u64;
        let mut saturated = 0u64;
        let mut buckets = [0u64; 5];
        for table in &self.tables {
            for &w in table {
                if w != 0 {
                    occupied += 1;
                }
                if w == WEIGHT_MAX || w == WEIGHT_MIN {
                    saturated += 1;
                }
                let mag = (w as i32).unsigned_abs();
                let bucket = match mag {
                    0 => 0,
                    1..=16 => 1,
                    17..=32 => 2,
                    33..=48 => 3,
                    _ => 4,
                };
                buckets[bucket] += 1;
            }
        }
        let mut probe = TableProbe::new("perceptron", total);
        probe.occupied = occupied;
        probe.saturated = saturated;
        probe.counter_histogram = vec![
            ("zero".to_string(), buckets[0]),
            ("|w| 1-16".to_string(), buckets[1]),
            ("|w| 17-32".to_string(), buckets[2]),
            ("|w| 33-48".to_string(), buckets[3]),
            ("|w| 49-64".to_string(), buckets[4]),
        ];
        vec![probe
            .with_extra("theta", self.theta)
            .with_extra("num_tables", self.tables.len() as u64)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{biased, correlated_pair, loop_pattern, run};
    use crate::{Bimodal, Gshare};

    fn small() -> HashedPerceptron {
        HashedPerceptron::new(vec![4, 8, 16, 32], 12)
    }

    #[test]
    fn learns_bias() {
        let recs = biased(3000, 2);
        let (mis, total) = run(&mut small(), &recs);
        assert!((mis as f64) < 0.2 * total as f64, "mis = {mis}");
    }

    #[test]
    fn learns_long_loops_beyond_gshare_reach() {
        // Period-24 loop: needs ≥24 bits of usable history. A small GShare
        // washes out; the perceptron's long-history tables handle it.
        let recs = loop_pattern(0x1000, 24, 300);
        let (mis_p, total) = run(&mut small(), &recs);
        let (mis_g, _) = run(&mut Gshare::new(10, 12), &recs);
        assert!(
            mis_p < mis_g,
            "perceptron {mis_p} !< gshare {mis_g} of {total}"
        );
        assert!((mis_p as f64) < 0.05 * total as f64, "mis = {mis_p}");
    }

    #[test]
    fn beats_bimodal_on_correlation() {
        let recs = correlated_pair(4000, 8);
        let (mis_p, _) = run(&mut small(), &recs);
        let (mis_b, _) = run(&mut Bimodal::new(12), &recs);
        assert!(mis_p < mis_b);
    }

    #[test]
    fn theta_adapts() {
        let mut p = small();
        let initial = p.theta();
        // Random outcomes force mispredictions, pushing θ upward.
        let recs = biased(20_000, 3)
            .into_iter()
            .enumerate()
            .map(|(i, mut r)| {
                r.branch = r.branch.with_outcome(mbp_utils::mix64(i as u64) & 1 == 0);
                r
            })
            .collect::<Vec<_>>();
        run(&mut p, &recs);
        assert!(p.theta() > initial, "theta did not adapt: {}", p.theta());
    }

    #[test]
    fn weights_stay_saturated_in_range() {
        let mut p = small();
        let recs = biased(10_000, 4);
        run(&mut p, &recs);
        for table in &p.tables {
            for &w in table {
                assert!((WEIGHT_MIN..=WEIGHT_MAX).contains(&w));
            }
        }
    }

    #[test]
    #[should_panic(expected = "fold widths must be at most 16 bits (got 17)")]
    fn tables_wider_than_a_fold_rejected() {
        HashedPerceptron::new(vec![4, 8], 17);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unsorted_history_lengths_rejected() {
        HashedPerceptron::new(vec![8, 4], 10);
    }

    #[test]
    fn probe_histogram_partitions_all_weights() {
        let mut p = small();
        run(&mut p, &biased(5000, 9));
        let probes = p.table_probes();
        assert_eq!(probes.len(), 1);
        let probe = &probes[0];
        let total_weights: u64 = p.tables.iter().map(|t| t.len() as u64).sum();
        assert_eq!(probe.entries, total_weights);
        let hist_sum: u64 = probe.counter_histogram.iter().map(|(_, n)| n).sum();
        assert_eq!(hist_sum, total_weights, "buckets partition the weights");
        assert!(probe.occupied > 0, "training moved some weights off zero");
        assert!(probe.occupied <= probe.entries);
        assert!(probe.saturated <= probe.occupied);
    }
}
