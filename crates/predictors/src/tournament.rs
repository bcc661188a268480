//! The generalized tournament predictor (Evers/Yeh/Patt hybrid, §VI-D).
//!
//! A meta-predictor chooses between two arbitrary component predictors. The
//! implementation mirrors the paper's Listing 4, including the cached
//! prediction (so `train` can reuse the `predict` lookups of the same
//! branch) and the *partial update* policy: the chooser is only trained when
//! the components disagree, but is always tracked with the program branch.

use mbp_core::{json, Branch, Predictor, TableProbe, Value};

use crate::{Bimodal, Gshare};

/// A tournament of two predictors arbitrated by a third.
///
/// The meta-predictor's "outcome" is *which component to believe*: `false`
/// selects component 0, `true` selects component 1.
///
/// # Examples
///
/// ```
/// use mbp_core::Predictor;
/// use mbp_predictors::{Bimodal, Gshare, Tournament};
///
/// // The original tournament: bimodal vs GShare with a bimodal chooser.
/// let p = Tournament::new(
///     Box::new(Bimodal::new(12)),
///     Box::new(Bimodal::new(14)),
///     Box::new(Gshare::new(15, 14)),
/// );
/// assert_eq!(p.metadata()["name"].as_str(), Some("MBPlib Tournament"));
/// ```
pub struct Tournament {
    meta: Box<dyn Predictor + Send>,
    bp0: Box<dyn Predictor + Send>,
    bp1: Box<dyn Predictor + Send>,
    // Cached data (Listing 4): predict() fills these for `cached_ip`;
    // train() reuses them. Every other `&mut` call clears `cached_ip`.
    cached_ip: Option<u64>,
    provider: bool,
    prediction: [bool; 2],
    /// Attribution of the latest misprediction (forensics hook).
    blame: Option<&'static str>,
}

impl Tournament {
    /// Builds a tournament from any three predictors.
    pub fn new(
        meta: Box<dyn Predictor + Send>,
        bp0: Box<dyn Predictor + Send>,
        bp1: Box<dyn Predictor + Send>,
    ) -> Self {
        Self {
            meta,
            bp0,
            bp1,
            cached_ip: None,
            provider: false,
            prediction: [false; 2],
            blame: None,
        }
    }

    /// The classic configuration: bimodal + GShare with a bimodal chooser,
    /// all tables of `2^log_size` entries.
    pub fn classic(log_size: u32) -> Self {
        Self::new(
            Box::new(Bimodal::new(log_size)),
            Box::new(Bimodal::new(log_size)),
            Box::new(Gshare::new(log_size.min(32), log_size)),
        )
    }

    fn refresh(&mut self, ip: u64) {
        // Listing 4 line 18: reuse the cached lookups when predicting the
        // same ip again before the next train() or track().
        if self.cached_ip == Some(ip) {
            return;
        }
        self.cached_ip = Some(ip);
        self.provider = self.meta.predict(ip);
        self.prediction = [self.bp0.predict(ip), self.bp1.predict(ip)];
    }
}

impl Predictor for Tournament {
    fn size_hint(&self) -> u64 {
        // A meta-predictor's footprint is its components'.
        self.meta.size_hint() + self.bp0.size_hint() + self.bp1.size_hint()
    }

    fn predict(&mut self, ip: u64) -> bool {
        self.refresh(ip);
        self.prediction[self.provider as usize]
    }

    fn train(&mut self, branch: &Branch) {
        self.refresh(branch.ip());
        // Training changes the components: the cached lookups go stale.
        self.cached_ip = None;
        if self.prediction[self.provider as usize] != branch.is_taken() {
            // Either the chooser picked the wrong component (the other one
            // was right), or no choice could have helped.
            self.blame = Some(if self.prediction[0] != self.prediction[1] {
                "chooser_wrong"
            } else {
                "both_wrong"
            });
        }
        self.bp0.train(branch);
        self.bp1.train(branch);
        if self.prediction[0] != self.prediction[1] {
            // Partial update: train the chooser toward whichever component
            // was right, using a synthetic branch whose outcome is "component
            // 1 was correct" (Listing 4 lines 33–38).
            let meta_branch = branch.with_outcome(self.prediction[1] == branch.is_taken());
            self.meta.train(&meta_branch);
        }
    }

    fn track(&mut self, branch: &Branch) {
        self.meta.track(branch);
        self.bp0.track(branch);
        self.bp1.track(branch);
        self.cached_ip = None;
    }

    fn metadata(&self) -> Value {
        json!({
            "name": "MBPlib Tournament",
            "metapredictor": self.meta.metadata(),
            "predictor_0": self.bp0.metadata(),
            "predictor_1": self.bp1.metadata(),
        })
    }

    fn execution_statistics(&self) -> Value {
        json!({
            "metapredictor": self.meta.execution_statistics(),
            "predictor_0": self.bp0.execution_statistics(),
            "predictor_1": self.bp1.execution_statistics(),
        })
    }

    fn last_mispredict_blame(&self) -> Option<&'static str> {
        self.blame
    }

    fn table_probes(&self) -> Vec<TableProbe> {
        // Delegate to the components, prefixing each probe with its role so
        // e.g. a bimodal chooser reports as "meta.bimodal".
        let mut probes = Vec::new();
        probes.extend(
            self.meta
                .table_probes()
                .into_iter()
                .map(|p| p.prefixed("meta")),
        );
        probes.extend(
            self.bp0
                .table_probes()
                .into_iter()
                .map(|p| p.prefixed("bp0")),
        );
        probes.extend(
            self.bp1
                .table_probes()
                .into_iter()
                .map(|p| p.prefixed("bp1")),
        );
        probes
    }
}

impl std::fmt::Debug for Tournament {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tournament")
            .field("cached_ip", &self.cached_ip)
            .field("provider", &self.provider)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{correlated_pair, run};
    use crate::{AlwaysTaken, NeverTaken};
    use mbp_core::Opcode;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    /// A component that counts train calls, to observe the partial-update
    /// policy from outside. (`Arc<AtomicU64>` rather than `Rc<Cell<_>>`
    /// because `Tournament` components must be `Send`.)
    struct Counting {
        direction: bool,
        trains: Arc<AtomicU64>,
        tracks: Arc<AtomicU64>,
    }

    impl Predictor for Counting {
        fn predict(&mut self, _ip: u64) -> bool {
            self.direction
        }
        fn train(&mut self, _b: &Branch) {
            self.trains.fetch_add(1, Ordering::Relaxed);
        }
        fn track(&mut self, _b: &Branch) {
            self.tracks.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn cond(ip: u64, taken: bool) -> Branch {
        Branch::new(ip, 0, Opcode::conditional_direct(), taken)
    }

    #[test]
    fn meta_trained_only_on_disagreement() {
        let trains = Arc::new(AtomicU64::new(0));
        let tracks = Arc::new(AtomicU64::new(0));
        let meta = Counting {
            direction: false,
            trains: trains.clone(),
            tracks: tracks.clone(),
        };
        // Components always agree (both taken) → meta never trained.
        let mut t = Tournament::new(Box::new(meta), Box::new(AlwaysTaken), Box::new(AlwaysTaken));
        for i in 0..10 {
            let b = cond(0x100 + i, true);
            t.predict(b.ip());
            t.train(&b);
            t.track(&b);
        }
        assert_eq!(
            trains.load(Ordering::Relaxed),
            0,
            "agreeing components never train the meta"
        );
        assert_eq!(
            tracks.load(Ordering::Relaxed),
            10,
            "meta is tracked for every branch"
        );
    }

    #[test]
    fn meta_branch_encodes_which_component_was_right() {
        let trains = Arc::new(AtomicU64::new(0));
        let tracks = Arc::new(AtomicU64::new(0));
        let meta = Counting {
            direction: true, // always choose component 1
            trains: trains.clone(),
            tracks: tracks.clone(),
        };
        // bp0 = never taken, bp1 = always taken: they always disagree.
        let mut t = Tournament::new(Box::new(meta), Box::new(NeverTaken), Box::new(AlwaysTaken));
        let b = cond(0x100, true);
        assert!(t.predict(b.ip()), "chooser selects bp1 (taken)");
        t.train(&b);
        assert_eq!(
            trains.load(Ordering::Relaxed),
            1,
            "disagreement trains the meta"
        );
    }

    #[test]
    fn learns_to_pick_the_better_component() {
        // On history-correlated data GShare wins; the tournament should
        // migrate to it and beat its bimodal component.
        let recs = correlated_pair(4000, 21);
        let (mis_tour, total) = run(&mut Tournament::classic(12), &recs);
        let (mis_bim, _) = run(&mut Bimodal::new(12), &recs);
        assert!(
            mis_tour < mis_bim,
            "tournament {mis_tour} !< bimodal {mis_bim} (of {total})"
        );
    }

    #[test]
    fn prediction_after_train_is_fresh() {
        /// Flips its direction on every `train`.
        struct Flipping(bool);
        impl Predictor for Flipping {
            fn predict(&mut self, _ip: u64) -> bool {
                self.0
            }
            fn train(&mut self, _b: &Branch) {
                self.0 = !self.0;
            }
            fn track(&mut self, _b: &Branch) {}
        }
        // The chooser always picks bp1, which flips when trained: a
        // `predict` after `train` must see the flip, not the cached lookup.
        let mut t = Tournament::new(
            Box::new(AlwaysTaken),
            Box::new(NeverTaken),
            Box::new(Flipping(false)),
        );
        let b = cond(0x100, true);
        assert!(!t.predict(b.ip()));
        t.train(&b);
        assert!(t.predict(b.ip()), "stale cached prediction after train");
    }

    #[test]
    fn blame_distinguishes_chooser_from_both_wrong() {
        fn meta(direction: bool) -> Counting {
            Counting {
                direction,
                trains: Arc::new(AtomicU64::new(0)),
                tracks: Arc::new(AtomicU64::new(0)),
            }
        }
        // Chooser picks bp1 (always taken); bp0 (never taken) was right.
        let mut t = Tournament::new(
            Box::new(meta(true)),
            Box::new(NeverTaken),
            Box::new(AlwaysTaken),
        );
        let b = cond(0x10, false);
        t.predict(b.ip());
        t.train(&b);
        assert_eq!(t.last_mispredict_blame(), Some("chooser_wrong"));
        t.track(&b);

        // Both components wrong: no choice could have helped.
        let mut t = Tournament::new(
            Box::new(meta(false)),
            Box::new(AlwaysTaken),
            Box::new(AlwaysTaken),
        );
        t.predict(b.ip());
        t.train(&b);
        assert_eq!(t.last_mispredict_blame(), Some("both_wrong"));
    }

    #[test]
    fn metadata_nests_components() {
        let t = Tournament::classic(10);
        let m = t.metadata();
        assert_eq!(m["predictor_0"]["name"].as_str(), Some("MBPlib Bimodal"));
        assert_eq!(m["predictor_1"]["name"].as_str(), Some("MBPlib GShare"));
        assert_eq!(m["metapredictor"]["name"].as_str(), Some("MBPlib Bimodal"));
    }
}
