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

/// Minimum interval between repaints (4 Hz ceiling).
const REFRESH: Duration = Duration::from_millis(250);

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
    let mut parts = vec![format!("{} records/s", rate(records_per_s))];
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

fn rate(r: f64) -> String {
    if r >= 1e6 {
        format!("{:.1}M", r / 1e6)
    } else if r >= 1e3 {
        format!("{:.1}k", r / 1e3)
    } else {
        format!("{r:.0}")
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
    /// distinguishable from a plain run at a glance. `total_instructions`
    /// is the expected instruction total of the whole command (for a
    /// sweep: per-predictor instructions × predictors), used for the
    /// completion percentage and ETA; pass `None` when unknown.
    /// `sampled_fraction` is the sampling plan's planned simulated fraction
    /// when `--phases` is active; the slice counter comes from the pipeline
    /// statics. Returns an inert handle — no thread, no output — when
    /// `quiet` is set or stderr is not a terminal.
    pub fn start(
        label: Option<&'static str>,
        total_instructions: Option<u64>,
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
        let handle = std::thread::spawn(move || {
            let started = Instant::now();
            let (sim, sweep) = (&mbp_stats::pipeline().sim, &mbp_stats::pipeline().sweep);
            let (records0, instructions0) = (sim.records.get(), sim.instructions.get());
            let (workers0, slices0) = (sweep.workers.get(), sweep.sampled_slices.get());
            let busy0 = sweep.worker_busy.seconds();
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
                let (done, eta) = match total_instructions {
                    Some(total) if total > 0 && instructions > 0 => {
                        let done = (instructions as f64 / total as f64).min(1.0);
                        let instr_per_s = instructions as f64 / elapsed;
                        let remaining = total.saturating_sub(instructions) as f64;
                        (Some(done), Some(remaining / instr_per_s))
                    }
                    _ => (None, None),
                };
                let workers = sweep.workers.get().saturating_sub(workers0);
                let busy = (workers > 0).then(|| {
                    let busy_s = sweep.worker_busy.seconds() - busy0;
                    busy_s / (elapsed * workers as f64)
                });
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
        let p = Progress::start(None, Some(1_000_000), Some(0.3), true);
        assert!(p.handle.is_none());
        p.finish();
    }
}
