//! Executes a synthetic [`Program`] into a branch record stream.

use std::collections::VecDeque;

use mbp_core::TraceSource;
use mbp_trace::{Branch, BranchRecord, Opcode, TraceError, MAX_GAP};

use crate::behavior::RecentOutcomes;
use crate::program::{Program, ProgramParams, Stmt, TripModel};

/// Mutable execution state, split from the immutable statement tree so the
/// recursive walker can borrow both.
#[derive(Debug)]
struct GenState {
    cond_sites: Vec<crate::program::CondSite>,
    loop_sites: Vec<crate::program::LoopSite>,
    call_sites: Vec<crate::program::CallSite>,
    switch_sites: Vec<crate::program::SwitchSite>,
    recent: RecentOutcomes,
    pending_gap: u32,
    buffer: VecDeque<BranchRecord>,
    /// Refill budget: nested loops and the acyclic call tree can expand one
    /// `main` pass combinatorially, so each refill is cut off once the
    /// buffer holds this many records. Execution state (behaviour RNGs,
    /// loop-trip RNGs, outcome history) persists across refills, so the
    /// stream stays diverse and deterministic.
    limit: usize,
}

impl GenState {
    fn full(&self) -> bool {
        self.buffer.len() >= self.limit
    }

    fn emit(&mut self, branch: Branch) {
        let gap = self.pending_gap.min(MAX_GAP);
        self.pending_gap = 0;
        self.buffer.push_back(BranchRecord::new(branch, gap));
    }

    fn emit_conditional(&mut self, ip: u64, target: u64, taken: bool) {
        self.recent.push(taken);
        self.emit(Branch::new(ip, target, Opcode::conditional_direct(), taken));
    }
}

/// A streaming branch-trace generator: an endless execution of a synthetic
/// program. Implements [`TraceSource`], so it can feed the simulators
/// directly without materializing the trace.
///
/// # Examples
///
/// ```
/// use mbp_core::TraceSource;
/// use mbp_workloads::{ProgramParams, TraceGenerator};
///
/// let mut gen = TraceGenerator::from_params(&ProgramParams::mobile(), 7);
/// let rec = gen.next_record()?.expect("endless stream");
/// assert!(rec.branch.ip() >= 0x40_0000);
/// # Ok::<(), mbp_trace::TraceError>(())
/// ```
#[derive(Debug)]
pub struct TraceGenerator {
    functions: Vec<Vec<Stmt>>,
    state: GenState,
    name: String,
}

impl TraceGenerator {
    /// Wraps a built program.
    pub fn new(program: Program) -> Self {
        Self {
            functions: program.functions,
            state: GenState {
                cond_sites: program.cond_sites,
                loop_sites: program.loop_sites,
                call_sites: program.call_sites,
                switch_sites: program.switch_sites,
                recent: RecentOutcomes::new(),
                pending_gap: 0,
                buffer: VecDeque::new(),
                limit: 1 << 16,
            },
            name: "synthetic".to_owned(),
        }
    }

    /// Builds the random program for `params`/`seed` and wraps it.
    pub fn from_params(params: &ProgramParams, seed: u64) -> Self {
        Self::new(Program::random(params, seed))
    }

    /// Sets the trace name reported to the simulator.
    pub fn with_name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Materializes the next `n` records.
    pub fn take_records(&mut self, n: usize) -> Vec<BranchRecord> {
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            match self.next_record() {
                Ok(Some(r)) => out.push(r),
                _ => break,
            }
        }
        out
    }

    /// Materializes records until at least `n` instructions are covered.
    pub fn take_instructions(&mut self, n: u64) -> Vec<BranchRecord> {
        let mut out = Vec::new();
        let mut instructions = 0u64;
        while instructions < n {
            match self.next_record() {
                Ok(Some(r)) => {
                    instructions += r.instructions();
                    out.push(r);
                }
                _ => break,
            }
        }
        out
    }

    fn refill(&mut self) {
        // One full pass through `main`. Programs always contain at least a
        // return-less main body; if a pathological parameter set produced a
        // branch-free program, synthesize a heartbeat branch so the stream
        // never stalls.
        let stats = &mbp_stats::pipeline().workload;
        let _span = stats.generate.span();
        stats.refills.inc();
        let before = self.state.buffer.len();
        exec_block(&self.functions, 0, &mut self.state);
        if self.state.buffer.len() == before {
            self.state.emit(Branch::new(
                0x40_0000,
                0x40_0000,
                Opcode::unconditional_direct(),
                true,
            ));
        }
        stats
            .records_generated
            .add((self.state.buffer.len() - before) as u64);
    }
}

fn exec_block(functions: &[Vec<Stmt>], fi: usize, st: &mut GenState) {
    // Work on a borrowed statement list via index to keep borrows disjoint.
    let stmts: &[Stmt] = &functions[fi];
    exec_stmts(functions, fi, stmts, st);
}

fn exec_stmts(functions: &[Vec<Stmt>], fi: usize, stmts: &[Stmt], st: &mut GenState) {
    for stmt in stmts {
        if st.full() {
            return;
        }
        match stmt {
            Stmt::Straight(n) => st.pending_gap = st.pending_gap.saturating_add(*n),
            Stmt::If {
                site,
                then_arm,
                else_arm,
            } => {
                let (ip, target, taken) = {
                    // Destructure for disjoint field borrows: the behaviour
                    // needs &mut, the outcome history needs &.
                    let GenState {
                        cond_sites, recent, ..
                    } = st;
                    let s = &mut cond_sites[*site];
                    (s.ip, s.target, s.behavior.next_outcome(recent))
                };
                st.emit_conditional(ip, target, taken);
                if taken {
                    exec_stmts(functions, fi, then_arm, st);
                } else {
                    exec_stmts(functions, fi, else_arm, st);
                }
            }
            Stmt::Loop { site, trips, body } => {
                let trips = match trips {
                    TripModel::Fixed(n) => *n,
                    TripModel::Uniform { lo, hi } => st.loop_sites[*site]
                        .rng
                        .range_inclusive(*lo as u64, *hi as u64)
                        as u32,
                };
                let (ip, target) = {
                    let s = &st.loop_sites[*site];
                    (s.ip, s.target)
                };
                for i in 0..trips {
                    if st.full() {
                        return;
                    }
                    exec_stmts(functions, fi, body, st);
                    st.emit_conditional(ip, target, i + 1 != trips);
                }
            }
            Stmt::Call { callee, site } => {
                let cs = st.call_sites[*site];
                let absolute = fi + 1 + callee;
                st.emit(Branch::new(
                    cs.ip,
                    cs.target,
                    Opcode::new(false, false, mbp_trace::BranchKind::Call),
                    true,
                ));
                exec_block(functions, absolute, st);
                st.emit(Branch::new(cs.ret_ip, cs.ip + 4, Opcode::ret(), true));
            }
            Stmt::Switch { site, arms } => {
                let (ip, target, arm) = {
                    let GenState {
                        switch_sites,
                        recent,
                        ..
                    } = st;
                    let s = &mut switch_sites[*site];
                    // Derive an arm index from the behaviour's bit stream so
                    // correlated selectors make targets path-predictable.
                    let bits_needed = usize::BITS - (arms.len() - 1).leading_zeros();
                    let mut idx = 0usize;
                    for _ in 0..bits_needed.max(1) {
                        idx = (idx << 1) | s.selector.next_outcome(recent) as usize;
                    }
                    let arm = idx % arms.len();
                    (s.ip, s.targets[arm % s.targets.len()], arm)
                };
                st.emit(Branch::new(ip, target, Opcode::indirect_jump(), true));
                exec_stmts(functions, fi, &arms[arm], st);
            }
        }
    }
}

impl TraceSource for TraceGenerator {
    fn next_record(&mut self) -> Result<Option<BranchRecord>, TraceError> {
        while self.state.buffer.is_empty() {
            self.refill();
        }
        Ok(self.state.buffer.pop_front())
    }

    fn description(&self) -> mbp_core::Value {
        mbp_core::Value::from(self.name.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_is_endless_and_deterministic() {
        let mut a = TraceGenerator::from_params(&ProgramParams::mobile(), 11);
        let mut b = TraceGenerator::from_params(&ProgramParams::mobile(), 11);
        let ra = a.take_records(5000);
        let rb = b.take_records(5000);
        assert_eq!(ra.len(), 5000);
        assert_eq!(ra, rb);
    }

    #[test]
    fn records_are_sbbt_encodable() {
        let mut g = TraceGenerator::from_params(&ProgramParams::server(), 13);
        for rec in g.take_records(20_000) {
            assert!(rec.gap <= MAX_GAP);
            assert!(rec.branch.is_valid(), "{rec:?}");
            mbp_trace::sbbt::encode_packet(&rec).expect("encodable");
        }
    }

    #[test]
    fn branch_density_is_realistic() {
        // §IV-C cites 15–25 % of instructions being branches; accept a
        // generous envelope.
        let mut g = TraceGenerator::from_params(&ProgramParams::int_speed(), 17);
        let recs = g.take_records(50_000);
        let instructions: u64 = recs.iter().map(|r| r.instructions()).sum();
        let density = recs.len() as f64 / instructions as f64;
        assert!(
            (0.07..0.5).contains(&density),
            "branch density {density:.3} out of range"
        );
    }

    #[test]
    fn mix_includes_all_branch_kinds() {
        let mut g = TraceGenerator::from_params(&ProgramParams::server(), 19);
        let recs = g.take_records(100_000);
        let cond = recs.iter().filter(|r| r.branch.is_conditional()).count();
        let calls = recs
            .iter()
            .filter(|r| r.branch.opcode().kind() == mbp_trace::BranchKind::Call)
            .count();
        let rets = recs
            .iter()
            .filter(|r| r.branch.opcode().kind() == mbp_trace::BranchKind::Ret)
            .count();
        let indirect = recs
            .iter()
            .filter(|r| r.branch.opcode().is_indirect() && !r.branch.is_conditional())
            .count();
        assert!(cond > recs.len() / 2, "conditional majority expected");
        // A stream prefix (and the refill budget) can split call/ret pairs
        // at the cut, but never by more than the call-tree depth.
        assert!(
            (calls as i64 - rets as i64).abs() <= 64,
            "calls {calls} and rets {rets} diverge"
        );
        assert!(calls > 0);
        assert!(indirect > rets, "switches + rets are both indirect");
    }

    #[test]
    fn predictability_ordering_holds() {
        // TAGE-class prediction should beat bimodal on these streams —
        // the structural property behind every MPKI claim downstream.
        use mbp_core::{simulate, SimConfig};
        use mbp_predictors::{Bimodal, Gshare};

        for (params, name) in [
            (ProgramParams::mobile(), "mobile"),
            (ProgramParams::server(), "server"),
            (ProgramParams::media(), "media"),
        ] {
            let mut gen = TraceGenerator::from_params(&params, 23);
            let recs = gen.take_records(60_000);
            let mut src = mbp_core::SliceSource::new(&recs);
            let bim = simulate(&mut src, &mut Bimodal::new(13), &SimConfig::default()).unwrap();
            src.reset();
            let gsh = simulate(&mut src, &mut Gshare::new(17, 13), &SimConfig::default()).unwrap();
            assert!(
                gsh.metrics.mpki < bim.metrics.mpki * 1.05,
                "{name}: gshare {:.2} should not lose to bimodal {:.2}",
                gsh.metrics.mpki,
                bim.metrics.mpki
            );
        }
    }
}
