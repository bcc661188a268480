//! A BT9-flavoured plain-text trace format, as used by the CBP5 framework.
//!
//! BT9 describes "a graph where the nodes are the branches present in a
//! program and their possible outcomes are the edges and then follows with a
//! section that describes the sequence of edges taken" (§IV). Reading it
//! requires text parsing plus an indirection through the edge table for
//! every dynamic branch — the two costs SBBT removes.
//!
//! Layout:
//!
//! ```text
//! BT9_SPA_TRACE_FORMAT
//! total_instruction_count: 1024
//! branch_instruction_count: 3
//! BT9_NODES
//! NODE 0 0x401000 JMP+DIR+CND
//! BT9_EDGES
//! EDGE 0 0 T 0x402000 12
//! BT9_EDGE_SEQUENCE
//! 0
//! 0
//! EOF
//! ```

use std::collections::HashMap;

use mbp_utils::FastHashBuilder;
use std::fmt::Write as _;
use std::fs::File;
use std::io::Read;
use std::path::Path;

use crate::{Branch, BranchKind, BranchRecord, Opcode, TraceError};

const SIGNATURE: &str = "BT9_SPA_TRACE_FORMAT";

fn opcode_mnemonic(op: Opcode) -> String {
    format!(
        "{}+{}+{}",
        match op.kind() {
            BranchKind::Jump => "JMP",
            BranchKind::Call => "CALL",
            BranchKind::Ret => "RET",
        },
        if op.is_indirect() { "IND" } else { "DIR" },
        if op.is_conditional() { "CND" } else { "UCD" },
    )
}

fn parse_mnemonic(s: &str, line: u64) -> Result<Opcode, TraceError> {
    let mut parts = s.split('+');
    let kind = match parts.next() {
        Some("JMP") => BranchKind::Jump,
        Some("CALL") => BranchKind::Call,
        Some("RET") => BranchKind::Ret,
        _ => return Err(TraceError::invalid("unknown branch class", line)),
    };
    let indirect = match parts.next() {
        Some("IND") => true,
        Some("DIR") => false,
        _ => return Err(TraceError::invalid("unknown directness", line)),
    };
    let conditional = match parts.next() {
        Some("CND") => true,
        Some("UCD") => false,
        _ => return Err(TraceError::invalid("unknown conditionality", line)),
    };
    Ok(Opcode::new(conditional, indirect, kind))
}

fn parse_hex(s: &str, line: u64) -> Result<u64, TraceError> {
    let digits = s
        .strip_prefix("0x")
        .ok_or_else(|| TraceError::invalid("address missing 0x prefix", line))?;
    u64::from_str_radix(digits, 16).map_err(|_| TraceError::invalid("bad hex address", line))
}

/// In-memory representation of a BT9 trace: the branch graph plus the edge
/// sequence.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Bt9Trace {
    /// Static branches: instruction address and opcode per node.
    pub nodes: Vec<(u64, Opcode)>,
    /// Dynamic outcomes: `(node, taken, target, gap)` per edge.
    pub edges: Vec<(u32, bool, u64, u32)>,
    /// The trace proper: indices into `edges`.
    pub sequence: Vec<u32>,
    /// Total instructions executed while tracing.
    pub instruction_count: u64,
}

impl Bt9Trace {
    /// Number of dynamic branches in the trace.
    pub fn branch_count(&self) -> u64 {
        self.sequence.len() as u64
    }

    /// Reconstructs the `i`-th dynamic branch by following the graph.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range (construction validates edge/node ids).
    pub fn record(&self, i: usize) -> BranchRecord {
        let (node, taken, target, gap) = self.edges[self.sequence[i] as usize];
        let (ip, opcode) = self.nodes[node as usize];
        BranchRecord::new(Branch::new(ip, target, opcode, taken), gap)
    }

    /// Iterates the dynamic branches in order.
    pub fn records(&self) -> impl Iterator<Item = BranchRecord> + '_ {
        (0..self.sequence.len()).map(move |i| self.record(i))
    }

    /// Serializes the trace as BT9 text.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{SIGNATURE}");
        let _ = writeln!(out, "total_instruction_count: {}", self.instruction_count);
        let _ = writeln!(out, "branch_instruction_count: {}", self.branch_count());
        let _ = writeln!(out, "BT9_NODES");
        for (id, (ip, op)) in self.nodes.iter().enumerate() {
            let _ = writeln!(out, "NODE {id} {ip:#x} {}", opcode_mnemonic(*op));
        }
        let _ = writeln!(out, "BT9_EDGES");
        for (id, (node, taken, target, gap)) in self.edges.iter().enumerate() {
            let _ = writeln!(
                out,
                "EDGE {id} {node} {} {target:#x} {gap}",
                if *taken { 'T' } else { 'N' }
            );
        }
        let _ = writeln!(out, "BT9_EDGE_SEQUENCE");
        for e in &self.sequence {
            let _ = writeln!(out, "{e}");
        }
        let _ = writeln!(out, "EOF");
        out
    }
}

/// Builds BT9 traces from a stream of branch records.
///
/// The builder interns the static branch (node) and its dynamic outcome
/// (edge) on the fly, exactly like the original tracer. A node is an
/// address under one opcode, so an address seen under two opcodes gets two
/// nodes and every record comes back as written.
#[derive(Debug, Default)]
pub struct Bt9Writer {
    trace: Bt9Trace,
    node_ids: HashMap<(u64, Opcode), u32, FastHashBuilder>,
    edge_ids: HashMap<(u32, bool, u64, u32), u32, FastHashBuilder>,
}

impl Bt9Writer {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a dynamic branch.
    pub fn write_record(&mut self, rec: &BranchRecord) {
        let b = rec.branch;
        let next_node = self.node_ids.len() as u32;
        let node = *self
            .node_ids
            .entry((b.ip(), b.opcode()))
            .or_insert(next_node);
        if node == next_node {
            self.trace.nodes.push((b.ip(), b.opcode()));
        }
        let key = (node, b.is_taken(), b.target(), rec.gap);
        let next_edge = self.edge_ids.len() as u32;
        let edge = *self.edge_ids.entry(key).or_insert(next_edge);
        if edge == next_edge {
            self.trace.edges.push(key);
        }
        self.trace.sequence.push(edge);
        self.trace.instruction_count += rec.instructions();
    }

    /// Finishes the build.
    pub fn finish(self) -> Bt9Trace {
        self.trace
    }
}

/// Parses BT9 text (raw or compressed source).
///
/// # Errors
///
/// Signature, structure and reference-validity errors, with 1-based line
/// numbers in [`TraceError::Invalid::position`].
pub fn parse<R: Read>(mut source: R) -> Result<Bt9Trace, TraceError> {
    let mut data = Vec::new();
    source.read_to_end(&mut data)?;
    let data = mbp_compress::inflate_if_compressed(data)?;
    let text =
        std::str::from_utf8(&data).map_err(|_| TraceError::BadSignature { format: "BT9" })?;
    parse_text(text)
}

/// Opens and parses a BT9 trace file.
///
/// # Errors
///
/// Same as [`parse`].
pub fn open<P: AsRef<Path>>(path: P) -> Result<Bt9Trace, TraceError> {
    parse(File::open(path)?)
}

/// Parses BT9 text.
///
/// # Errors
///
/// Same as [`parse`].
pub fn parse_text(text: &str) -> Result<Bt9Trace, TraceError> {
    parse_text_impl(text, true)
}

/// Parses only the graph header (headers, nodes and edges), returning the
/// trace with an empty sequence plus the raw sequence text. Lets streaming
/// consumers (like the CBP5-style framework) lex the sequence themselves.
///
/// # Errors
///
/// [`TraceError::Truncated`] when the sequence marker is missing, plus the
/// header/node/edge errors of [`parse_text`].
pub fn parse_graph(text: &str) -> Result<(Bt9Trace, &str), TraceError> {
    const MARKER: &str = "BT9_EDGE_SEQUENCE";
    let at = text.find(MARKER).ok_or(TraceError::Truncated)?;
    let mut patched = String::with_capacity(at + 32);
    patched.push_str(&text[..at]);
    patched.push_str("BT9_EDGE_SEQUENCE\nEOF\n");
    let trace = parse_text_impl(&patched, false)?;
    Ok((trace, &text[at + MARKER.len()..]))
}

fn parse_text_impl(text: &str, enforce_counts: bool) -> Result<Bt9Trace, TraceError> {
    #[derive(PartialEq)]
    enum Section {
        Header,
        Nodes,
        Edges,
        Sequence,
        Done,
    }
    let mut section = Section::Header;
    let mut trace = Bt9Trace::default();
    let mut declared_branches = 0u64;
    let mut lines = text.lines().enumerate();

    let (_, first) = lines.next().ok_or(TraceError::Truncated)?;
    if first.trim() != SIGNATURE {
        return Err(TraceError::BadSignature { format: "BT9" });
    }

    for (idx, raw) in lines {
        let line_no = idx as u64 + 1;
        let line = raw.trim();
        if line.is_empty() {
            continue;
        }
        match line {
            "BT9_NODES" => {
                section = Section::Nodes;
                continue;
            }
            "BT9_EDGES" => {
                section = Section::Edges;
                continue;
            }
            "BT9_EDGE_SEQUENCE" => {
                section = Section::Sequence;
                continue;
            }
            "EOF" => {
                section = Section::Done;
                continue;
            }
            _ => {}
        }
        match section {
            Section::Header => {
                let (key, value) = line
                    .split_once(':')
                    .ok_or_else(|| TraceError::invalid("malformed header line", line_no))?;
                let value: u64 = value
                    .trim()
                    .parse()
                    .map_err(|_| TraceError::invalid("bad header number", line_no))?;
                match key.trim() {
                    "total_instruction_count" => trace.instruction_count = value,
                    "branch_instruction_count" => declared_branches = value,
                    _ => {} // Unknown header keys are ignored for forward compat.
                }
            }
            Section::Nodes => {
                let mut f = line.split_whitespace();
                if f.next() != Some("NODE") {
                    return Err(TraceError::invalid("expected NODE line", line_no));
                }
                let id: usize = f
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| TraceError::invalid("bad node id", line_no))?;
                if id != trace.nodes.len() {
                    return Err(TraceError::invalid("non-sequential node id", line_no));
                }
                let ip = parse_hex(
                    f.next()
                        .ok_or_else(|| TraceError::invalid("missing node address", line_no))?,
                    line_no,
                )?;
                let op = parse_mnemonic(
                    f.next()
                        .ok_or_else(|| TraceError::invalid("missing node opcode", line_no))?,
                    line_no,
                )?;
                trace.nodes.push((ip, op));
            }
            Section::Edges => {
                let mut f = line.split_whitespace();
                if f.next() != Some("EDGE") {
                    return Err(TraceError::invalid("expected EDGE line", line_no));
                }
                let id: usize = f
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| TraceError::invalid("bad edge id", line_no))?;
                if id != trace.edges.len() {
                    return Err(TraceError::invalid("non-sequential edge id", line_no));
                }
                let node: u32 = f
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| TraceError::invalid("bad edge node", line_no))?;
                if node as usize >= trace.nodes.len() {
                    return Err(TraceError::invalid("edge references unknown node", line_no));
                }
                let taken = match f.next() {
                    Some("T") => true,
                    Some("N") => false,
                    _ => return Err(TraceError::invalid("bad edge outcome", line_no)),
                };
                let target = parse_hex(
                    f.next()
                        .ok_or_else(|| TraceError::invalid("missing edge target", line_no))?,
                    line_no,
                )?;
                let gap: u32 = f
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| TraceError::invalid("bad edge inst count", line_no))?;
                trace.edges.push((node, taken, target, gap));
            }
            Section::Sequence => {
                let edge: u32 = line
                    .parse()
                    .map_err(|_| TraceError::invalid("bad sequence entry", line_no))?;
                if edge as usize >= trace.edges.len() {
                    return Err(TraceError::invalid(
                        "sequence references unknown edge",
                        line_no,
                    ));
                }
                trace.sequence.push(edge);
            }
            Section::Done => {
                return Err(TraceError::invalid("content after EOF", line_no));
            }
        }
    }
    if section != Section::Done {
        return Err(TraceError::Truncated);
    }
    if enforce_counts && declared_branches != trace.branch_count() {
        return Err(TraceError::invalid("branch count mismatch", 0));
    }
    Ok(trace)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_records() -> Vec<BranchRecord> {
        let cond = Opcode::conditional_direct();
        let call = Opcode::call();
        let ret = Opcode::ret();
        vec![
            BranchRecord::new(Branch::new(0x1000, 0x2000, cond, true), 3),
            BranchRecord::new(Branch::new(0x1000, 0x2000, cond, false), 3),
            BranchRecord::new(Branch::new(0x3000, 0x4000, call, true), 0),
            BranchRecord::new(Branch::new(0x4010, 0x3008, ret, true), 2),
            BranchRecord::new(Branch::new(0x1000, 0x2000, cond, true), 3),
        ]
    }

    #[test]
    fn text_roundtrip() {
        let mut w = Bt9Writer::new();
        for r in sample_records() {
            w.write_record(&r);
        }
        let text = w.finish().to_text();
        let trace = parse_text(&text).unwrap();
        let back: Vec<_> = trace.records().collect();
        assert_eq!(back, sample_records());
        assert_eq!(trace.instruction_count, (5 + 3 + 3) + 2 + 3);
    }

    #[test]
    fn graph_is_deduplicated() {
        let mut w = Bt9Writer::new();
        for r in sample_records() {
            w.write_record(&r);
        }
        let t = w.finish();
        assert_eq!(t.nodes.len(), 3, "three static branches");
        assert_eq!(t.edges.len(), 4, "taken+not-taken for the loop branch");
        assert_eq!(t.sequence.len(), 5);
    }

    #[test]
    fn an_address_under_two_opcodes_keeps_both() {
        let (cond, call) = (Opcode::conditional_direct(), Opcode::call());
        let cond_ind = Opcode::new(true, true, BranchKind::Jump);
        let recs = [
            BranchRecord::new(Branch::new(0x1000, 0x2000, cond, true), 1),
            BranchRecord::new(Branch::new(0x1000, 0x2000, call, true), 1),
            BranchRecord::new(
                Branch::new(0x3000, 0x4000, Opcode::unconditional_direct(), true),
                2,
            ),
            BranchRecord::new(Branch::new(0x3000, 0, cond_ind, false), 2),
        ];
        let mut w = Bt9Writer::new();
        for r in &recs {
            w.write_record(r);
        }
        let trace = parse_text(&w.finish().to_text()).unwrap();
        assert_eq!(trace.nodes.len(), 4);
        assert_eq!(trace.records().collect::<Vec<_>>(), recs);
    }

    #[test]
    fn mnemonics_roundtrip() {
        for op in [
            Opcode::conditional_direct(),
            Opcode::unconditional_direct(),
            Opcode::call(),
            Opcode::ret(),
            Opcode::indirect_jump(),
            Opcode::new(true, true, BranchKind::Jump),
        ] {
            assert_eq!(parse_mnemonic(&opcode_mnemonic(op), 0).unwrap(), op);
        }
    }

    #[test]
    fn rejects_missing_signature() {
        assert!(matches!(
            parse_text("NOT_A_TRACE\nEOF\n"),
            Err(TraceError::BadSignature { format: "BT9" })
        ));
    }

    #[test]
    fn rejects_dangling_edge_reference() {
        let text = format!(
            "{SIGNATURE}\ntotal_instruction_count: 1\nbranch_instruction_count: 1\n\
             BT9_NODES\nNODE 0 0x10 JMP+DIR+CND\nBT9_EDGES\nEDGE 0 5 T 0x20 0\n\
             BT9_EDGE_SEQUENCE\n0\nEOF\n"
        );
        assert!(matches!(parse_text(&text), Err(TraceError::Invalid { .. })));
    }

    #[test]
    fn rejects_missing_eof() {
        let mut w = Bt9Writer::new();
        w.write_record(&sample_records()[0]);
        let text = w.finish().to_text();
        let truncated = text.trim_end_matches("EOF\n");
        assert!(matches!(parse_text(truncated), Err(TraceError::Truncated)));
    }

    #[test]
    fn rejects_branch_count_mismatch() {
        let mut w = Bt9Writer::new();
        w.write_record(&sample_records()[0]);
        let text = w
            .finish()
            .to_text()
            .replace("branch_instruction_count: 1", "branch_instruction_count: 9");
        assert!(matches!(parse_text(&text), Err(TraceError::Invalid { .. })));
    }

    #[test]
    fn parses_compressed_source() {
        let mut w = Bt9Writer::new();
        for r in sample_records() {
            w.write_record(&r);
        }
        let text = w.finish().to_text();
        let packed = mbp_compress::compress(text.as_bytes(), mbp_compress::Codec::Mgz, 6).unwrap();
        let trace = parse(&packed[..]).unwrap();
        assert_eq!(trace.branch_count(), 5);
    }
}
