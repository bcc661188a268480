//! Windowed time-series telemetry for the simulation drivers.
//!
//! A single end-of-run MPKI hides *when* a predictor fails: warmup
//! transients, program phases and table pathologies are invisible in the
//! aggregate. When [`crate::SimConfig::timeseries_window`] is set, the
//! drivers feed every conditional branch into a [`TimeSeriesBuilder`],
//! which buckets the run into fixed instruction windows and derives
//! warmup-end and phase-change analytics from the per-window curves.
//!
//! The accumulation is a pure function of the record stream, so the
//! batched, scalar and sweep drivers produce byte-identical timeseries
//! JSON (the driver-equivalence suite pins this).

use mbp_json::{json, Map, Value};
use mbp_stats::events::{self, EventName};

use crate::metrics::{accuracy, mpki, BranchTable};

/// Default window size in instructions (tunable via `mbpsim --window`).
pub const DEFAULT_WINDOW_INSTRUCTIONS: u64 = 100_000;

/// Relative half-width of the convergence band used by warmup detection:
/// a window is "converged" when its MPKI is within 10% of the steady-state
/// estimate.
const WARMUP_BAND_RELATIVE: f64 = 0.10;

/// Absolute floor of the convergence band, in MPKI, so near-zero
/// steady-state curves still converge.
const WARMUP_BAND_ABSOLUTE: f64 = 0.05;

/// Relative threshold for counting a window-to-window MPKI step as a phase
/// change: the step must exceed 25% of the run's mean window MPKI.
const PHASE_STEP_RELATIVE: f64 = 0.25;

/// Absolute floor for a phase-change step, in MPKI.
const PHASE_STEP_ABSOLUTE: f64 = 0.1;

/// One closed instruction window.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Window {
    /// Cumulative instruction count at which the window opened.
    pub start_instruction: u64,
    /// Instructions attributed to the window. Usually the configured window
    /// size, but the final window may be shorter and a window closed by a
    /// record with a large gap may overshoot.
    pub instructions: u64,
    /// Conditional branches in the window (warmup included).
    pub conditional: u64,
    /// Mispredicted conditional branches in the window.
    pub mispredictions: u64,
    /// Taken conditional branches in the window.
    pub taken: u64,
    /// Distinct conditional branch instructions in the window.
    pub unique_branches: u64,
}

impl Window {
    /// Mispredictions per kilo-instruction within the window.
    pub fn mpki(&self) -> f64 {
        mpki(self.mispredictions, self.instructions)
    }

    /// Prediction accuracy within the window (1.0 for an empty window).
    pub fn accuracy(&self) -> f64 {
        accuracy(self.mispredictions, self.conditional)
    }

    /// Fraction of conditional branches taken (0.0 for an empty window).
    pub fn taken_rate(&self) -> f64 {
        if self.conditional == 0 {
            0.0
        } else {
            self.taken as f64 / self.conditional as f64
        }
    }

    fn to_json(&self) -> Value {
        json!({
            "start_instruction": self.start_instruction,
            "instructions": self.instructions,
            "conditional_branches": self.conditional,
            "mispredictions": self.mispredictions,
            "taken_branches": self.taken,
            "unique_branches": self.unique_branches,
            "mpki": self.mpki(),
            "accuracy": self.accuracy(),
            "taken_rate": self.taken_rate(),
        })
    }
}

/// The completed time series with derived analytics.
#[derive(Clone, Debug, PartialEq)]
pub struct TimeSeries {
    /// Configured window size in instructions.
    pub window_size: u64,
    /// Closed windows in execution order.
    pub windows: Vec<Window>,
    /// Index of the first window whose MPKI falls within the convergence
    /// band of the trailing (steady-state) mean. When no window enters the
    /// band — a curve still decaying at the end of the run — warmup is
    /// taken to end where the steady tail begins. `None` only when the run
    /// produced no windows at all.
    pub warmup_end_window: Option<usize>,
    /// Mean absolute window-to-window MPKI step, normalized by the mean
    /// window MPKI. 0.0 for fewer than two windows or an all-zero curve.
    pub phase_change_score: f64,
    /// Number of window-to-window MPKI steps large enough to count as a
    /// phase change.
    pub num_phase_changes: u64,
}

impl TimeSeries {
    fn from_windows(window_size: u64, windows: Vec<Window>) -> Self {
        let warmup_end_window = detect_warmup_end(&windows);
        let (phase_change_score, num_phase_changes) = phase_changes(&windows);
        Self {
            window_size,
            windows,
            warmup_end_window,
            phase_change_score,
            num_phase_changes,
        }
    }

    /// Renders the `metrics.timeseries` JSON section.
    pub fn to_json(&self) -> Value {
        let mut m = Map::new();
        m.insert("window_size", self.window_size);
        m.insert("num_windows", self.windows.len());
        m.insert("warmup_end_window", Value::from(self.warmup_end_window));
        m.insert("phase_change_score", self.phase_change_score);
        m.insert("num_phase_changes", self.num_phase_changes);
        m.insert(
            "windows",
            self.windows.iter().map(Window::to_json).collect::<Value>(),
        );
        Value::Object(m)
    }

    /// Renders the series as CSV. With a `label`, every row gains a leading
    /// `predictor` column (used by sweep output, where one file holds the
    /// series of several predictors).
    pub fn to_csv(&self, label: Option<&str>) -> String {
        let mut out = String::new();
        if label.is_some() {
            out.push_str("predictor,");
        }
        out.push_str(
            "window,start_instruction,instructions,conditional_branches,mispredictions,\
             taken_branches,unique_branches,mpki,accuracy,taken_rate\n",
        );
        for (i, w) in self.windows.iter().enumerate() {
            if let Some(l) = label {
                out.push_str(l);
                out.push(',');
            }
            out.push_str(&format!(
                "{i},{},{},{},{},{},{},{},{},{}\n",
                w.start_instruction,
                w.instructions,
                w.conditional,
                w.mispredictions,
                w.taken,
                w.unique_branches,
                w.mpki(),
                w.accuracy(),
                w.taken_rate(),
            ));
        }
        out
    }
}

/// Steady state is estimated as the mean MPKI of the trailing quarter of
/// the windows (at least one); warmup ends at the first window within the
/// convergence band of that estimate, falling back to the start of the
/// steady tail when the curve never enters the band.
fn detect_warmup_end(windows: &[Window]) -> Option<usize> {
    if windows.is_empty() {
        return None;
    }
    let tail = (windows.len() / 4).max(1);
    let tail_start = windows.len() - tail;
    let steady = windows[tail_start..].iter().map(Window::mpki).sum::<f64>() / tail as f64;
    let band = (WARMUP_BAND_RELATIVE * steady).max(WARMUP_BAND_ABSOLUTE);
    Some(
        windows
            .iter()
            .position(|w| (w.mpki() - steady).abs() <= band)
            .unwrap_or(tail_start),
    )
}

/// Total-variation phase score plus a count of large steps.
fn phase_changes(windows: &[Window]) -> (f64, u64) {
    if windows.len() < 2 {
        return (0.0, 0);
    }
    let mean = windows.iter().map(Window::mpki).sum::<f64>() / windows.len() as f64;
    if mean <= 0.0 {
        return (0.0, 0);
    }
    let threshold = (PHASE_STEP_RELATIVE * mean).max(PHASE_STEP_ABSOLUTE);
    let mut variation = 0.0;
    let mut steps = 0u64;
    for pair in windows.windows(2) {
        let delta = (pair[1].mpki() - pair[0].mpki()).abs();
        variation += delta;
        if delta > threshold {
            steps += 1;
        }
    }
    let score = variation / (windows.len() - 1) as f64 / mean;
    (score, steps)
}

/// The boundary at which the window opened at cumulative instruction count
/// `cum` closes: the next multiple of `window` (≥ 1) past `cum`.
pub(crate) fn window_end(cum: u64, window: u64) -> u64 {
    (cum / window + 1) * window
}

/// Accumulates windows as the drivers replay the trace.
///
/// Call discipline, per record: advance the cumulative instruction count,
/// [`branch`](Self::branch) for a conditional branch, then
/// [`advance`](Self::advance) with the new cumulative count (so a branch
/// landing exactly on a window boundary is attributed to the closing
/// window). [`finish`](Self::finish) flushes the final partial window.
#[derive(Debug)]
pub struct TimeSeriesBuilder {
    window_size: u64,
    next_boundary: u64,
    window_start: u64,
    conditional: u64,
    mispredictions: u64,
    taken: u64,
    /// Distinct ips of the open window.
    unique_branches: u64,
    /// Each branch seen so far, stamped with the number of the last window
    /// that saw it (windows count from 1, so a new branch's 0 is no window).
    last_window: BranchTable<u64>,
    windows: Vec<Window>,
}

impl TimeSeriesBuilder {
    /// Creates a builder with the given window size (clamped to ≥ 1).
    pub fn new(window_size: u64) -> Self {
        let window_size = window_size.max(1);
        Self {
            window_size,
            next_boundary: window_size,
            window_start: 0,
            conditional: 0,
            mispredictions: 0,
            taken: 0,
            unique_branches: 0,
            last_window: BranchTable::default(),
            windows: Vec::new(),
        }
    }

    /// Records one conditional branch into the currently open window.
    #[inline]
    pub fn branch(&mut self, ip: u64, taken: bool, mispredicted: bool) {
        self.conditional += 1;
        self.mispredictions += mispredicted as u64;
        self.taken += taken as u64;
        let window = self.windows.len() as u64 + 1;
        let stamp = self.last_window.entry(ip);
        self.unique_branches += (*stamp != window) as u64;
        *stamp = window;
    }

    /// Advances to the cumulative instruction count after a record; closes
    /// the open window when a boundary was crossed. A record with a large
    /// gap closes at most one (overshooting) window — empty filler windows
    /// are never emitted, keeping the series a pure function of the stream.
    #[inline]
    pub fn advance(&mut self, cum_instructions: u64) {
        if cum_instructions >= self.next_boundary {
            self.close(cum_instructions);
        }
    }

    #[cold]
    fn close(&mut self, cum_instructions: u64) {
        self.windows.push(Window {
            start_instruction: self.window_start,
            instructions: cum_instructions - self.window_start,
            conditional: self.conditional,
            mispredictions: self.mispredictions,
            taken: self.taken,
            unique_branches: self.unique_branches,
        });
        events::instant(EventName::SimWindowTick, (self.windows.len() - 1) as u64);
        self.conditional = 0;
        self.mispredictions = 0;
        self.taken = 0;
        self.unique_branches = 0;
        self.window_start = cum_instructions;
        self.next_boundary = window_end(cum_instructions, self.window_size);
    }

    /// Flushes the final partial window and derives the analytics.
    pub fn finish(mut self, cum_instructions: u64) -> TimeSeries {
        if cum_instructions > self.window_start || self.conditional > 0 {
            self.close(cum_instructions);
        }
        TimeSeries::from_windows(self.window_size, self.windows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Feeds `n` conditional branches, one per `gap`-instruction record.
    fn run(builder: &mut TimeSeriesBuilder, n: u64, gap: u64, mispredict: impl Fn(u64) -> bool) {
        let mut cum = 0u64;
        for i in 0..n {
            cum += gap;
            builder.branch(0x1000 + (i % 7) * 4, i % 2 == 0, mispredict(i));
            builder.advance(cum);
        }
    }

    #[test]
    fn windows_close_at_exact_boundaries() {
        let mut b = TimeSeriesBuilder::new(100);
        run(&mut b, 30, 10, |_| false);
        let ts = b.finish(300);
        assert_eq!(ts.windows.len(), 3);
        for (i, w) in ts.windows.iter().enumerate() {
            assert_eq!(w.start_instruction, i as u64 * 100);
            assert_eq!(w.instructions, 100);
            assert_eq!(w.conditional, 10);
        }
    }

    #[test]
    fn overshooting_record_closes_one_wide_window() {
        let mut b = TimeSeriesBuilder::new(100);
        b.branch(0x10, true, false);
        b.advance(250); // one record jumps across two boundaries
        b.branch(0x20, true, false);
        let ts = b.finish(260);
        assert_eq!(ts.windows.len(), 2, "no empty filler windows");
        assert_eq!(ts.windows[0].instructions, 250);
        assert_eq!(ts.windows[1].start_instruction, 250);
        assert_eq!(ts.windows[1].instructions, 10);
        assert_eq!(ts.windows[1].conditional, 1);
    }

    #[test]
    fn trace_shorter_than_one_window_yields_one_window() {
        let mut b = TimeSeriesBuilder::new(100_000);
        run(&mut b, 5, 10, |i| i == 0);
        let ts = b.finish(50);
        assert_eq!(ts.windows.len(), 1);
        assert_eq!(ts.windows[0].instructions, 50);
        // A single window is its own steady state: warmup ends immediately.
        assert_eq!(ts.warmup_end_window, Some(0));
        assert_eq!(ts.phase_change_score, 0.0);
        assert_eq!(ts.num_phase_changes, 0);
    }

    #[test]
    fn empty_trace_yields_no_windows() {
        let b = TimeSeriesBuilder::new(100);
        let ts = b.finish(0);
        assert!(ts.windows.is_empty());
        assert_eq!(ts.warmup_end_window, None);
        assert_eq!(ts.phase_change_score, 0.0);
    }

    #[test]
    fn all_taken_trace_converges_at_window_zero() {
        // A perfectly predicted all-taken trace: zero MPKI everywhere, so
        // the first window is already inside the absolute band.
        let mut b = TimeSeriesBuilder::new(100);
        run(&mut b, 100, 10, |_| false);
        let ts = b.finish(1000);
        assert_eq!(ts.warmup_end_window, Some(0));
        assert_eq!(ts.num_phase_changes, 0);
        assert!(ts.windows.iter().all(|w| w.mpki() == 0.0));
    }

    #[test]
    fn monotone_warmup_converges_at_the_steady_tail() {
        // MPKI decays 100, 50, 25, 12.5 ... per window; the steady tail
        // (last quarter) is near zero, so warmup ends where the curve does.
        let mut b = TimeSeriesBuilder::new(100);
        let mut cum = 0u64;
        for w in 0..8u64 {
            let miss_every = 1u64 << w; // halves the miss rate each window
            for i in 0..100u64 {
                cum += 1;
                b.branch(0x40, true, i % miss_every == 0);
                b.advance(cum);
            }
        }
        let ts = b.finish(cum);
        assert_eq!(ts.windows.len(), 8);
        let end = ts.warmup_end_window.expect("monotone curve converges");
        assert!(end >= 4, "early high-MPKI windows are warmup, got {end}");
        assert!(ts.phase_change_score > 0.0);
    }

    #[test]
    fn phase_change_steps_are_counted() {
        // Alternating calm/storm windows: every step is a phase change.
        let mut b = TimeSeriesBuilder::new(100);
        let mut cum = 0u64;
        for w in 0..6u64 {
            let stormy = w % 2 == 1;
            for i in 0..100u64 {
                cum += 1;
                b.branch(0x40, true, stormy && i % 2 == 0);
                b.advance(cum);
            }
        }
        let ts = b.finish(cum);
        assert_eq!(ts.num_phase_changes, 5);
        assert!(ts.phase_change_score > 1.0);
    }

    #[test]
    fn unique_branches_reset_per_window() {
        let mut b = TimeSeriesBuilder::new(10);
        b.branch(0x10, true, false);
        b.branch(0x20, true, false);
        b.advance(10);
        b.branch(0x10, true, false);
        let ts = b.finish(15);
        assert_eq!(ts.windows[0].unique_branches, 2);
        assert_eq!(ts.windows[1].unique_branches, 1);
    }

    #[test]
    fn csv_has_header_and_optional_label() {
        let mut b = TimeSeriesBuilder::new(10);
        b.branch(0x10, true, true);
        let ts = b.finish(10);
        let plain = ts.to_csv(None);
        assert!(plain.starts_with("window,start_instruction"));
        assert_eq!(plain.lines().count(), 2);
        let labeled = ts.to_csv(Some("gshare"));
        assert!(labeled.starts_with("predictor,window,"));
        assert!(labeled.lines().nth(1).unwrap().starts_with("gshare,0,"));
    }

    #[test]
    fn json_section_shape() {
        let mut b = TimeSeriesBuilder::new(10);
        b.branch(0x10, true, true);
        b.branch(0x20, false, false);
        let ts = b.finish(10);
        let v = ts.to_json();
        assert_eq!(v["window_size"].as_u64(), Some(10));
        assert_eq!(v["num_windows"].as_u64(), Some(1));
        assert_eq!(v["warmup_end_window"].as_u64(), Some(0));
        let w = &v["windows"][0];
        assert_eq!(w["conditional_branches"].as_u64(), Some(2));
        assert_eq!(w["mispredictions"].as_u64(), Some(1));
        assert_eq!(w["taken_branches"].as_u64(), Some(1));
        assert_eq!(w["accuracy"].as_f64(), Some(0.5));
        assert_eq!(w["taken_rate"].as_f64(), Some(0.5));
    }
}
