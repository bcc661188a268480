//! Live progress line for `mbpsim run`/`sweep`: records/s, ETA and worker
//! busy share on stderr, refreshed at most four times a second.
//!
//! The reporter is a watcher, not a participant: a background thread
//! samples the process-wide [`mbp_stats::pipeline`] aggregates the
//! simulation is already maintaining, so the hot path pays nothing for the
//! display. It stays silent when stderr is not a terminal (fleet drivers,
//! CI) or when `--quiet` is passed, and erases itself before the final JSON
//! is printed.

use std::io::{IsTerminal, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::report::rate;

/// Minimum interval between repaints (4 Hz ceiling).
const REFRESH: Duration = Duration::from_millis(250);

/// What a command will simulate, for the completion estimate.
#[derive(Clone, Copy, Debug, Default)]
pub struct Plan {
    /// The trace header's instruction count; 0 when it is unknown.
    pub header_instructions: u64,
    /// `--max`: where each predictor's run stops.
    pub max_instructions: Option<u64>,
    /// For a sampled sweep, the instructions each predictor replays or
    /// measures: every phase's `instructions + warmup_instructions`.
    pub sampled_instructions: Option<u64>,
    /// Predictors the command runs.
    pub predictors: u64,
}

impl Plan {
    /// The instructions the command will simulate once `resumed` of its
    /// predictors came from a checkpoint; `None` when unknown or zero.
    pub fn instructions(&self, resumed: u64) -> Option<u64> {
        let each = match (self.sampled_instructions, self.max_instructions) {
            (Some(sampled), _) => sampled,
            (None, Some(max)) => self.header_instructions.min(max),
            (None, None) => self.header_instructions,
        };
        let total = each.saturating_mul(self.predictors.saturating_sub(resumed));
        (total > 0).then_some(total)
    }
}

/// The share of a sweep's workers running a predictor at this moment: the
/// predictors claimed (`sweep.predictors`) and not yet settled (the count
/// of `sweep.predictor_us`), over the workers spawned. A predictor counts
/// from its claim, so a worker on its first long predictor reads busy
/// before anything settles. `None` when no worker was spawned.
pub fn busy_share(workers: u64, claimed: u64, settled: u64) -> Option<f64> {
    let running = claimed.saturating_sub(settled).min(workers);
    (workers > 0).then(|| running as f64 / workers as f64)
}

/// Formats one progress line from rate/completion estimates.
///
/// Pure so the rendering is unit-testable; any component that cannot be
/// estimated yet (no total known, no workers, no sampling plan) is simply
/// omitted. `sampled` carries a phase-sampled sweep's state: the planned
/// simulated fraction and the representative slices finished so far.
pub fn format_progress_line(
    records_per_s: f64,
    done_fraction: Option<f64>,
    eta_s: Option<f64>,
    busy_fraction: Option<f64>,
    sampled: Option<(f64, u64)>,
) -> String {
    // The pipeline summary's rate, "8.1M/s", as "8.1M records/s".
    let mut parts = vec![format!(
        "{} records/s",
        rate(records_per_s).trim_end_matches("/s")
    )];
    if let Some(done) = done_fraction {
        parts.push(format!("{:.0}% done", (done.clamp(0.0, 1.0)) * 100.0));
    }
    if let Some(eta) = eta_s {
        parts.push(format!("eta {}", duration(eta)));
    }
    if let Some(busy) = busy_fraction {
        parts.push(format!(
            "workers {:.0}% busy",
            (busy.clamp(0.0, 1.0)) * 100.0
        ));
    }
    if let Some((fraction, slices)) = sampled {
        parts.push(format!(
            "sampled {:.0}% (slice {slices})",
            (fraction.clamp(0.0, 1.0)) * 100.0
        ));
    }
    parts.join(" | ")
}

/// Prefixes a rendered progress line with its mode label, when one is set.
fn labeled_line(label: Option<&'static str>, line: String) -> String {
    match label {
        Some(label) => format!("{label} | {line}"),
        None => line,
    }
}

fn duration(s: f64) -> String {
    if s >= 90.0 {
        format!("{:.0}m{:02.0}s", (s / 60.0).floor(), s % 60.0)
    } else {
        format!("{s:.1}s")
    }
}

/// A running progress reporter; create with [`Progress::start`], stop with
/// [`Progress::finish`].
pub struct Progress {
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Progress {
    /// Starts the reporter thread.
    ///
    /// `label` leads every repaint, so a forensic `explain` pass is
    /// distinguishable from a plain run at a glance. `plan` gives the
    /// completion percentage and ETA; the predictors a resumed sweep takes
    /// from its checkpoint (the pipeline's `resume_skips`) leave it.
    /// `sampled_fraction` is the sampling plan's planned simulated fraction
    /// when `--phases` is active; the slice counter comes from the pipeline
    /// statics. Returns an inert handle — no thread, no output — when
    /// `quiet` is set or stderr is not a terminal.
    pub fn start(
        label: Option<&'static str>,
        plan: Plan,
        sampled_fraction: Option<f64>,
        quiet: bool,
    ) -> Self {
        if quiet || !std::io::stderr().is_terminal() {
            return Self {
                stop: Arc::new(AtomicBool::new(true)),
                handle: None,
            };
        }
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        // The baselines are read before the command starts its work, so
        // none of it (a resume's skips, say) lands in them.
        let started = Instant::now();
        let (sim, sweep) = (&mbp_stats::pipeline().sim, &mbp_stats::pipeline().sweep);
        let (records0, instructions0) = (sim.records.get(), sim.instructions.get());
        let (workers0, slices0) = (sweep.workers.get(), sweep.sampled_slices.get());
        let skips0 = sweep.resume_skips.get();
        let (claimed0, settled0) = (sweep.predictors.get(), sweep.predictor_us.count());
        let handle = std::thread::spawn(move || {
            let mut painted = false;
            while !stop_flag.load(Ordering::Relaxed) {
                std::thread::sleep(REFRESH);
                if stop_flag.load(Ordering::Relaxed) {
                    break;
                }
                let elapsed = started.elapsed().as_secs_f64().max(1e-9);
                let records = sim.records.get().saturating_sub(records0);
                let instructions = sim.instructions.get().saturating_sub(instructions0);
                let records_per_s = records as f64 / elapsed;
                let resumed = sweep.resume_skips.get().saturating_sub(skips0);
                let (done, eta) = match plan.instructions(resumed) {
                    Some(total) if total > 0 && instructions > 0 => {
                        let done = (instructions as f64 / total as f64).min(1.0);
                        let instr_per_s = instructions as f64 / elapsed;
                        let remaining = total.saturating_sub(instructions) as f64;
                        (Some(done), Some(remaining / instr_per_s))
                    }
                    _ => (None, None),
                };
                let busy = busy_share(
                    sweep.workers.get().saturating_sub(workers0),
                    sweep.predictors.get().saturating_sub(claimed0),
                    sweep.predictor_us.count().saturating_sub(settled0),
                );
                let sampled = sampled_fraction
                    .map(|fraction| (fraction, sweep.sampled_slices.get().saturating_sub(slices0)));
                let line = labeled_line(
                    label,
                    format_progress_line(records_per_s, done, eta, busy, sampled),
                );
                // \r + erase-to-end repaints in place without flicker.
                let mut err = std::io::stderr().lock();
                let _ = write!(err, "\r{line}\x1b[K");
                let _ = err.flush();
                painted = true;
            }
            if painted {
                let mut err = std::io::stderr().lock();
                let _ = write!(err, "\r\x1b[K");
                let _ = err.flush();
            }
        });
        Self {
            stop,
            handle: Some(handle),
        }
    }

    /// Stops the reporter and erases the line.
    pub fn finish(mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Progress {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_contains_every_estimable_component() {
        let line = format_progress_line(8_123_456.0, Some(0.45), Some(3.2), Some(0.93), None);
        assert_eq!(
            line,
            "8.1M records/s | 45% done | eta 3.2s | workers 93% busy"
        );
    }

    #[test]
    fn unknown_components_are_omitted() {
        let line = format_progress_line(512.0, None, None, None, None);
        assert_eq!(line, "512 records/s");
    }

    #[test]
    fn long_etas_use_minutes() {
        let line = format_progress_line(1_000.0, Some(0.01), Some(154.0), None, None);
        assert!(line.contains("eta 2m34s"), "{line}");
    }

    #[test]
    fn fractions_are_clamped() {
        let line = format_progress_line(0.0, Some(1.7), None, Some(-0.2), Some((1.3, 0)));
        assert!(line.contains("100% done"), "{line}");
        assert!(line.contains("workers 0% busy"), "{line}");
        assert!(line.contains("sampled 100%"), "{line}");
    }

    #[test]
    fn sampled_state_appends_fraction_and_slice() {
        let line = format_progress_line(1_000.0, Some(0.5), None, Some(0.8), Some((0.25, 12)));
        assert_eq!(
            line,
            "1.0k records/s | 50% done | workers 80% busy | sampled 25% (slice 12)"
        );
    }

    #[test]
    fn plan_counts_what_each_predictor_touches() {
        let run = Plan {
            header_instructions: 4_000_000,
            predictors: 1,
            ..Plan::default()
        };
        assert_eq!(run.instructions(0), Some(4_000_000));
        let capped = Plan {
            max_instructions: Some(100_000),
            ..run
        };
        assert_eq!(capped.instructions(0), Some(100_000));
        let unknown = Plan {
            header_instructions: 0,
            ..capped
        };
        assert_eq!(unknown.instructions(0), None);
    }

    #[test]
    fn a_sampled_sweep_plans_its_slices() {
        // Two predictors, each replaying and measuring 5.8% of the trace.
        let sampled = Plan {
            header_instructions: 48_000_000,
            sampled_instructions: Some(2_784_000),
            predictors: 2,
            ..Plan::default()
        };
        assert_eq!(sampled.instructions(0), Some(5_568_000));
    }

    #[test]
    fn a_resumed_sweep_plans_only_what_is_left() {
        let sweep = Plan {
            header_instructions: 48_000_000,
            predictors: 4,
            ..Plan::default()
        };
        assert_eq!(sweep.instructions(0), Some(192_000_000));
        assert_eq!(sweep.instructions(3), Some(48_000_000));
        assert_eq!(sweep.instructions(4), None, "all resumed");
    }

    #[test]
    fn busy_share_counts_running_predictors() {
        // One worker on its first predictor: claimed, nothing settled.
        assert_eq!(busy_share(1, 1, 0), Some(1.0));
        // Two workers, eight predictors, seven settled: one job left.
        assert_eq!(busy_share(2, 8, 7), Some(0.5));
        // Every claimed predictor settled: the pool is idle.
        assert_eq!(busy_share(2, 8, 8), Some(0.0));
        assert_eq!(busy_share(0, 0, 0), None, "no workers, no share");
    }

    #[test]
    fn label_prefixes_the_line() {
        assert_eq!(
            labeled_line(Some("explain"), "512 records/s".to_string()),
            "explain | 512 records/s"
        );
        assert_eq!(labeled_line(None, "x".to_string()), "x");
    }

    #[test]
    fn quiet_progress_is_inert() {
        // In a test harness stderr is typically not a TTY either, but the
        // quiet flag must force inertness regardless of environment — with
        // or without sampling state.
        let p = Progress::start(None, Plan::default(), Some(0.3), true);
        assert!(p.handle.is_none());
        p.finish();
    }
}
