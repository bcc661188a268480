//! The framework loop: parse a BT9 trace and drive a [`CbpPredictor`].

use std::fs::File;
use std::io::Read;
use std::path::Path;
use std::time::Instant;

use mbp_trace::bt9;
use mbp_trace::TraceError;

use crate::interface::{CbpPredictor, OpType};

/// Summary statistics printed by the framework, in the spirit of the
/// original's end-of-run report.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Cbp5Result {
    /// Total instructions in the trace.
    pub instructions: u64,
    /// Dynamic conditional branches simulated.
    pub num_conditional_branches: u64,
    /// Dynamic branches of all kinds.
    pub num_branches: u64,
    /// Mispredicted conditional branches.
    pub mispredictions: u64,
    /// Mispredictions per kilo-instruction.
    pub mpki: f64,
    /// Correct predictions over conditional branches.
    pub accuracy: f64,
    /// Wall-clock simulation time in seconds (includes trace parsing, as in
    /// the original framework).
    pub simulation_time: f64,
}

impl Cbp5Result {
    /// Renders the result as a JSON document, so framework runs can be
    /// post-processed with the same tooling as MBPlib output.
    pub fn to_json(&self) -> mbp_core::Value {
        mbp_core::json!({
            "metadata": {
                "simulator": "CBP5-style framework",
                "num_instructions": self.instructions,
                "num_branches": self.num_branches,
                "num_conditional_branches": self.num_conditional_branches,
            },
            "metrics": {
                "mpki": self.mpki,
                "mispredictions": self.mispredictions,
                "accuracy": self.accuracy,
                "simulation_time": self.simulation_time,
            },
        })
    }
}

/// Runs the framework over BT9 `text`.
///
/// The node and edge tables are parsed up front; the edge *sequence* — the
/// bulk of a BT9 file — is lexed line by line inside the simulation loop,
/// and every dynamic branch goes through the edge and node tables, exactly
/// the indirection §VII-D blames for the slowdown relative to SBBT.
///
/// # Errors
///
/// Propagates BT9 parsing errors.
pub fn run_framework_text<P: CbpPredictor>(
    text: &str,
    predictor: &mut P,
) -> Result<Cbp5Result, TraceError> {
    let start = Instant::now();

    // Phase 1: parse the graph header (everything before the sequence).
    let (graph, sequence_text) = bt9::parse_graph(text)?;

    // The original framework's BT9 reader keeps nodes and edges in hashed
    // id-keyed containers (std::unordered_map); every dynamic branch pays
    // two hashed lookups — "the cache misses from accessing a big hashed
    // structure to read the branch metadata" that §VII-D contrasts with
    // SBBT's stream format. The baseline reproduces that design.
    let edges: std::collections::HashMap<u32, (u32, bool, u64, u32)> = graph
        .edges
        .iter()
        .enumerate()
        .map(|(id, &e)| (id as u32, e))
        .collect();
    let nodes: std::collections::HashMap<u32, (u64, crate::interface::OpType)> = graph
        .nodes
        .iter()
        .enumerate()
        .map(|(id, &(ip, op))| (id as u32, (ip, OpType::from_opcode(op))))
        .collect();

    // Phase 2: the simulation loop, lexing one edge id per line.
    let mut result = Cbp5Result::default();
    for line in sequence_text.lines() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if line == "EOF" {
            break;
        }
        let edge: u32 = line.parse().map_err(|_| TraceError::Invalid {
            what: "bad sequence entry",
            position: 0,
        })?;
        let &(node, taken, target, gap) = edges.get(&edge).ok_or(TraceError::Invalid {
            what: "dangling edge",
            position: 0,
        })?;
        let &(pc, op) = nodes.get(&node).ok_or(TraceError::Invalid {
            what: "dangling node",
            position: 0,
        })?;

        result.instructions += gap as u64 + 1;
        result.num_branches += 1;
        if op.is_conditional() {
            result.num_conditional_branches += 1;
            let pred = predictor.get_prediction(pc);
            if pred != taken {
                result.mispredictions += 1;
            }
            predictor.update_predictor(pc, op, taken, pred, target);
        } else {
            predictor.track_other_inst(pc, op, taken, target);
        }
    }

    result.mpki = if result.instructions == 0 {
        0.0
    } else {
        result.mispredictions as f64 * 1000.0 / result.instructions as f64
    };
    result.accuracy = if result.num_conditional_branches == 0 {
        1.0
    } else {
        (result.num_conditional_branches - result.mispredictions) as f64
            / result.num_conditional_branches as f64
    };
    result.simulation_time = start.elapsed().as_secs_f64();
    Ok(result)
}

/// Runs the framework over a (possibly compressed) BT9 byte stream.
///
/// # Errors
///
/// I/O, decompression and BT9 parsing errors.
pub fn run_framework<P: CbpPredictor, R: Read>(
    mut source: R,
    predictor: &mut P,
) -> Result<Cbp5Result, TraceError> {
    let mut data = Vec::new();
    source.read_to_end(&mut data)?;
    let data = mbp_compress::inflate_if_compressed(data)?;
    let text = String::from_utf8(data).map_err(|_| TraceError::BadSignature { format: "BT9" })?;
    run_framework_text(&text, predictor)
}

/// Runs the framework over a trace file.
///
/// # Errors
///
/// Same as [`run_framework`].
pub fn run_framework_file<P: CbpPredictor>(
    path: impl AsRef<Path>,
    predictor: &mut P,
) -> Result<Cbp5Result, TraceError> {
    run_framework(File::open(path)?, predictor)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::McbpAdapter;
    use mbp_predictors::{Bimodal, Gshare};
    use mbp_trace::{translate, Branch, BranchRecord, Opcode};

    fn bt9_text(records: &[BranchRecord]) -> String {
        translate::records_to_bt9(records).to_text()
    }

    fn sample_records(n: usize) -> Vec<BranchRecord> {
        (0..n)
            .map(|i| {
                BranchRecord::new(
                    Branch::new(
                        0x1000 + (i as u64 % 7) * 16,
                        0x2000,
                        Opcode::conditional_direct(),
                        i % 3 != 0,
                    ),
                    4,
                )
            })
            .collect()
    }

    #[test]
    fn framework_counts_match_trace() {
        let recs = sample_records(300);
        let mut p = McbpAdapter::new(Bimodal::new(10));
        let r = run_framework_text(&bt9_text(&recs), &mut p).unwrap();
        assert_eq!(r.num_branches, 300);
        assert_eq!(r.num_conditional_branches, 300);
        assert_eq!(r.instructions, 300 * 5);
        assert!(r.mpki > 0.0);
        assert!(r.accuracy > 0.5);
    }

    #[test]
    fn results_identical_to_mbplib_simulator() {
        // §VII-C: "we checked that the simulation results of both
        // frameworks were identical."
        use mbp_core::{simulate, SimConfig, SliceSource};

        let recs = sample_records(2000);

        let mut framework_pred = McbpAdapter::new(Gshare::new(12, 12));
        let fw = run_framework_text(&bt9_text(&recs), &mut framework_pred).unwrap();

        let mut lib_pred = Gshare::new(12, 12);
        let lib = simulate(
            &mut SliceSource::new(&recs),
            &mut lib_pred,
            &SimConfig::default(),
        )
        .unwrap();

        assert_eq!(fw.mispredictions, lib.metrics.mispredictions);
        assert_eq!(
            fw.num_conditional_branches,
            lib.metadata.num_conditional_branches
        );
        assert_eq!(fw.instructions, lib.metadata.simulation_instr);
        assert_eq!(fw.mpki, lib.metrics.mpki);
    }

    #[test]
    fn unconditional_branches_are_tracked_not_predicted() {
        let recs = vec![
            BranchRecord::new(Branch::new(0x10, 0x20, Opcode::call(), true), 0),
            BranchRecord::new(
                Branch::new(0x30, 0x40, Opcode::conditional_direct(), true),
                0,
            ),
        ];
        let mut p = McbpAdapter::new(Bimodal::new(8));
        let r = run_framework_text(&bt9_text(&recs), &mut p).unwrap();
        assert_eq!(r.num_branches, 2);
        assert_eq!(r.num_conditional_branches, 1);
    }

    #[test]
    fn rejects_missing_sequence_section() {
        let mut p = McbpAdapter::new(Bimodal::new(8));
        assert!(run_framework_text("BT9_SPA_TRACE_FORMAT\n", &mut p).is_err());
    }

    #[test]
    fn runs_from_compressed_source() {
        let recs = sample_records(100);
        let text = bt9_text(&recs);
        let packed = mbp_compress::compress(text.as_bytes(), mbp_compress::Codec::Mgz, 6).unwrap();
        let mut p = McbpAdapter::new(Bimodal::new(8));
        let r = run_framework(&packed[..], &mut p).unwrap();
        assert_eq!(r.num_branches, 100);
        // A corrupt stream fails as the codec's error, as `bt9::parse` does.
        let cut = &packed[..packed.len() - 1];
        assert!(matches!(
            run_framework(cut, &mut p),
            Err(TraceError::Decompress(_))
        ));
    }
}
