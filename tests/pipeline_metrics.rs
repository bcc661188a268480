//! Pins the three renderings of the pipeline metrics byte for byte: the
//! JSON sections behind `--metrics-out` and `/snapshot`, the `/metrics`
//! OpenMetrics text, and the one-screen summary. One state is all zero;
//! in the other every counter, timer and histogram holds a value no other
//! metric holds, so a row that renders the wrong field, or a key that is
//! renamed, changes the text.

use mbp::stats::PipelineStats;

/// Every counter, timer and histogram set to its own value.
/// `sim.instructions` exceeds 2^53, where `f64` stops holding every
/// integer, so its exact rendering is pinned too.
fn populated() -> PipelineStats {
    let s = PipelineStats::new();
    s.trace.bytes_read.add(80_000_000);
    s.trace.packets_decoded.add(2_500_000);
    s.trace.batches.add(1_221);
    s.compress.blocks_inflated.add(37);
    s.compress.compressed_bytes.add(21_000_003);
    s.compress.inflated_bytes.add(80_000_017);
    s.sim.runs.add(3);
    s.sim.records.add(2_499_999);
    s.sim.instructions.add((1 << 53) + 1);
    s.sim.kernel_branches.add(2_400_001);
    s.sim.scalar_fallback_branches.add(99_998);
    s.sweep.workers.add(2);
    s.sweep.predictors.add(8);
    s.sweep.faults.add(1);
    s.sweep.trace_errors.add(4);
    s.sweep.checkpoint_writes.add(7);
    s.sweep.resume_skips.add(5);
    s.sweep.deadline_fired.add(6);
    s.sweep.deadline_extensions.add(9);
    s.sweep.admission_waits.add(10);
    s.sweep.shutdown_drains.add(11);
    s.sweep.sampled_slices.add(12);
    s.sweep.sampled_instructions.add(1_300_013);
    s.sweep.replayed_instructions.add(140_014);
    s.workload.records_generated.add(1_500_015);
    s.workload.refills.add(16);
    // Timer `i` closes `i + 1` spans, so span counts differ as well.
    let timers = [
        (&s.trace.decode, 123_456_789),
        (&s.compress.inflate, 45_678_901),
        (&s.sim.fill_batch, 234_567_890),
        (&s.sim.simulate, 1_987_654_321),
        (&s.sweep.worker_busy, 3_456_789_012),
        (&s.workload.generate, 567_890_123),
    ];
    for (i, (timer, ns)) in timers.into_iter().enumerate() {
        for _ in 0..i {
            timer.record_ns(0);
        }
        timer.record_ns(ns);
    }
    for pct in [90, 150, 380, 380, 5_000] {
        s.compress.block_ratio_pct.record(pct);
    }
    for us in [50, 2_000, 2_500, 70_000, 20_000_000, 20_000_001] {
        s.sweep.predictor_us.record(us);
    }
    s
}

/// The JSON sections, the OpenMetrics text and the summary of `stats`.
fn render(stats: &PipelineStats, dropped_events: u64) -> [String; 3] {
    [
        format!("{}\n", mbp::report::pipeline_json(stats).to_pretty_string()),
        mbp::stats::render_openmetrics(stats, dropped_events, &[]),
        format!("{}\n", mbp::report::human_summary(stats)),
    ]
}

fn assert_renders(stats: &PipelineStats, dropped_events: u64, expected: [&str; 3]) {
    let names = ["JSON sections", "OpenMetrics text", "summary"];
    for ((name, got), want) in names
        .into_iter()
        .zip(render(stats, dropped_events))
        .zip(expected)
    {
        assert_eq!(got, want, "{name} changed");
    }
}

#[test]
fn zero_state_renders_the_pinned_text() {
    assert_renders(
        &PipelineStats::new(),
        0,
        [
            include_str!("golden/pipeline_metrics/zero.json"),
            include_str!("golden/pipeline_metrics/zero.openmetrics"),
            include_str!("golden/pipeline_metrics/zero.summary"),
        ],
    );
}

#[test]
fn populated_state_renders_the_pinned_text() {
    assert_renders(
        &populated(),
        77,
        [
            include_str!("golden/pipeline_metrics/populated.json"),
            include_str!("golden/pipeline_metrics/populated.openmetrics"),
            include_str!("golden/pipeline_metrics/populated.summary"),
        ],
    );
}
