//! The simulate counters move while a run is under way, not only when it
//! ends: the progress line, a `/metrics` scrape and the event journal's
//! samples all read them mid-run. The counters are process-wide, so this
//! file holds the only test that watches them.

use mbp::examples::{Gshare, Tournament};
use mbp::sim::{
    simulate, simulate_comparison, simulate_scalar, ForensicsConfig, SimConfig, SliceSource,
    TraceSource,
};
use mbp::trace::sbbt::BATCH_RECORDS;
use mbp::trace::{BranchBatch, BranchRecord, TraceError};
use mbp::workloads::Suite;

/// The live counters a run adds to: records, instructions, and the
/// kernel and scalar-fallback split of the records.
fn live() -> [u64; 3] {
    let sim = &mbp::stats::pipeline().sim;
    [
        sim.records.get(),
        sim.instructions.get(),
        sim.kernel_branches.get() + sim.scalar_fallback_branches.get(),
    ]
}

/// Hands out a slice's batches and, before each one after the first,
/// requires the counters to already hold every record and instruction
/// handed out so far.
struct Watched<'a> {
    inner: SliceSource<'a>,
    at_start: [u64; 3],
    handed: (u64, u64),
    checks: usize,
}

impl<'a> Watched<'a> {
    fn new(records: &'a [BranchRecord]) -> Self {
        Self {
            inner: SliceSource::new(records),
            at_start: live(),
            handed: (0, 0),
            checks: 0,
        }
    }
}

impl TraceSource for Watched<'_> {
    fn next_record(&mut self) -> Result<Option<BranchRecord>, TraceError> {
        self.inner.next_record()
    }

    fn fill_batch(&mut self, out: &mut BranchBatch) -> Result<usize, TraceError> {
        if self.handed.0 > 0 {
            let now = live();
            let added: Vec<u64> = now.iter().zip(self.at_start).map(|(n, s)| n - s).collect();
            let (records, instructions) = self.handed;
            assert!(
                added[0] >= records && added[2] >= records && added[1] >= instructions,
                "before batch {}: counters added {added:?}, {records} records and \
                 {instructions} instructions handed out",
                self.checks + 1
            );
            self.checks += 1;
        }
        let n = self.inner.fill_batch(out)?;
        self.handed.0 += n as u64;
        self.handed.1 += out.gaps().iter().map(|&g| u64::from(g) + 1).sum::<u64>();
        Ok(n)
    }
}

#[test]
fn counters_move_once_per_batch() {
    let records = Suite::smoke().traces[0].records();
    assert!(records.len() > 2 * BATCH_RECORDS, "the run spans batches");

    // The kernel path, the forensic (scalar-fallback) path, and a
    // comparison.
    let mut source = Watched::new(&records);
    simulate(&mut source, &mut Gshare::new(25, 18), &SimConfig::default()).expect("run");
    assert!(source.checks >= 2, "{} checks", source.checks);

    let forensic = SimConfig {
        forensics: Some(ForensicsConfig::default()),
        ..SimConfig::default()
    };
    let mut source = Watched::new(&records);
    simulate(&mut source, &mut Tournament::classic(16), &forensic).expect("explain");
    assert!(source.checks >= 2, "{} checks", source.checks);

    let mut source = Watched::new(&records);
    simulate_comparison(
        &mut source,
        &mut Gshare::new(25, 18),
        &mut Gshare::new(12, 14),
        &SimConfig::default(),
    )
    .expect("compare");
    assert!(source.checks >= 2, "{} checks", source.checks);

    // Cut off mid-trace, the scalar and batched drivers add the same counts:
    // the record read past the cut-off is dropped uncounted.
    let instructions: u64 = records.iter().map(|r| r.instructions()).sum();
    let cut = SimConfig {
        max_instructions: Some(instructions / 2),
        ..SimConfig::default()
    };
    let before = live();
    simulate(
        &mut SliceSource::new(&records),
        &mut Gshare::new(25, 18),
        &cut,
    )
    .expect("run");
    let between = live();
    simulate_scalar(
        &mut SliceSource::new(&records),
        &mut Gshare::new(25, 18),
        &cut,
    )
    .expect("scalar run");
    let after = live();
    let batched = [0, 1, 2].map(|k| between[k] - before[k]);
    let scalar = [0, 1, 2].map(|k| after[k] - between[k]);
    assert!(
        batched[0] > 0 && batched[0] < records.len() as u64,
        "{batched:?}"
    );
    assert_eq!(
        scalar, batched,
        "scalar vs batched [records, instructions, branches]"
    );
}
