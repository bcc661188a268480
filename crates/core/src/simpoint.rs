//! SimPoint-style phase sampling: basic-block-vector (BBV) feature
//! extraction, a small deterministic k-means clusterer, the versioned
//! phases document, and the sampled executor that replays only weighted
//! representative slices.
//!
//! The pipeline is `extract_phases` (trace → [`PhasesDoc`]) followed by
//! `simulate_sampled` (records + doc + predictor → [`SimResult`] with
//! reconstructed whole-trace metrics). Everything here is bit-stable
//! across runs and platforms: hashing is FNV-1a, centroid seeding is
//! farthest-point with lowest-index tie-breaks, assignment ties go to the
//! lowest cluster index, and every floating-point reduction runs in a
//! fixed order on a single thread. Two invocations on the same trace with
//! the same parameters produce byte-identical documents (`doc_hash`
//! pins this, and `--resume` uses it to refuse mismatched sampling plans).

use mbp_json::{json, Value};
use mbp_stats::events::{self, EventName};
use mbp_trace::{BranchRecord, TraceError};

use crate::metrics::{accuracy, mpki};
use crate::simulator::{open_run, SimConfig, SimResult, SimState};
use crate::timeseries::window_end;
use crate::{Predictor, SliceSource, TraceSource};

/// Version of the phases-document schema; bumped on incompatible change.
pub const PHASES_SCHEMA_VERSION: u64 = 1;

/// Dimensionality of the per-window BBV: branch IPs hash into this many
/// buckets, each weighted by the instructions attributed to the branch.
pub const BBV_FEATURE_DIM: usize = 32;

/// Fixed iteration cap for the clusterer (part of the determinism
/// contract: no convergence-dependent platform drift).
pub const KMEANS_MAX_ITERATIONS: usize = 100;

/// FNV-1a 64-bit over a byte slice; the only hash used in this module
/// (IP bucketing and the document hash), chosen for platform stability.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// One instruction-window of the trace with its L1-normalized BBV.
#[derive(Clone, Debug, PartialEq)]
pub struct BbvWindow {
    /// Index of the first record of the window.
    pub start_record: usize,
    /// Number of records in the window.
    pub num_records: usize,
    /// Cumulative instruction count at the start of the window.
    pub start_instruction: u64,
    /// Instructions the window spans (the last window may overshoot or
    /// undershoot the nominal size; see [`extract_bbv`]).
    pub instructions: u64,
    /// L1-normalized execution-frequency vector over hashed IP buckets.
    pub features: [f64; BBV_FEATURE_DIM],
}

/// Tiles `records` into windows of `window_size` instructions and builds
/// one BBV per window.
///
/// Window boundaries follow the timeseries discipline: a window closes on
/// the first record that carries the cumulative instruction count to or
/// past the next multiple of `window_size` (so windows can overshoot by one
/// record's gap), and a final partial window is flushed. Each record adds
/// its instruction weight (gap + 1) to the bucket
/// `fnv1a64(ip) % BBV_FEATURE_DIM`; the vector is L1-normalized when the
/// window closes. `window_size` is clamped to at least 1.
pub fn extract_bbv(records: &[BranchRecord], window_size: u64) -> Vec<BbvWindow> {
    bbv(records, &tile(records, window_size.max(1)))
}

/// One window of the tiling that extraction and [`PhasesDoc::validate`]
/// share: its records and the instructions they span.
#[derive(Clone, Copy, Debug)]
struct Tile {
    start_record: usize,
    num_records: usize,
    start_instruction: u64,
    instructions: u64,
}

/// The windows of [`extract_bbv`], without their BBVs; `window_size` must
/// not be 0.
fn tile(records: &[BranchRecord], window_size: u64) -> Vec<Tile> {
    let mut tiles = Vec::new();
    let (mut start_record, mut start_instruction, mut cum) = (0, 0, 0);
    let mut next_boundary = window_size;
    for (i, rec) in records.iter().enumerate() {
        cum += rec.instructions();
        if cum >= next_boundary || i + 1 == records.len() {
            tiles.push(Tile {
                start_record,
                num_records: i + 1 - start_record,
                start_instruction,
                instructions: cum - start_instruction,
            });
            (start_record, start_instruction) = (i + 1, cum);
            next_boundary = window_end(cum, window_size);
        }
    }
    tiles
}

/// Each tile's window with its L1-normalized BBV.
fn bbv(records: &[BranchRecord], tiles: &[Tile]) -> Vec<BbvWindow> {
    let window = |t: &Tile| {
        let mut raw = [0.0f64; BBV_FEATURE_DIM];
        for rec in &records[t.start_record..t.start_record + t.num_records] {
            let bucket = fnv1a64(&rec.branch.ip().to_le_bytes()) % BBV_FEATURE_DIM as u64;
            raw[bucket as usize] += rec.instructions() as f64;
        }
        let sum: f64 = raw.iter().sum();
        let mut features = [0.0f64; BBV_FEATURE_DIM];
        if sum > 0.0 {
            for (f, r) in features.iter_mut().zip(raw) {
                *f = r / sum;
            }
        }
        BbvWindow {
            start_record: t.start_record,
            num_records: t.num_records,
            start_instruction: t.start_instruction,
            instructions: t.instructions,
            features,
        }
    };
    tiles.iter().map(window).collect()
}

/// Squared Euclidean distance in fixed index order.
fn d2(a: &[f64; BBV_FEATURE_DIM], b: &[f64; BBV_FEATURE_DIM]) -> f64 {
    let mut acc = 0.0;
    for i in 0..BBV_FEATURE_DIM {
        let d = a[i] - b[i];
        acc += d * d;
    }
    acc
}

/// Deterministic k-means over the window BBVs.
///
/// Seeding is farthest-point: centroid 0 is window 0; each subsequent
/// centroid is the unchosen window maximizing its minimum distance to the
/// already-chosen set (ties → lowest window index; all-identical inputs
/// still pick the lowest unchosen index, which may leave clusters empty —
/// that is fine, empty clusters are dropped downstream). Assignment ties
/// go to the lowest cluster index; empty clusters keep their previous
/// centroid; iteration stops when assignments are unchanged or after
/// [`KMEANS_MAX_ITERATIONS`]. Returns `(assignments, k_used, iterations)`
/// where `k_used = k.clamp(1, windows.len())`.
pub fn kmeans(windows: &[BbvWindow], k: usize) -> (Vec<usize>, usize, usize) {
    let n = windows.len();
    if n == 0 {
        return (Vec::new(), 0, 0);
    }
    let k = k.clamp(1, n);

    // Farthest-point seeding.
    let mut chosen: Vec<usize> = vec![0];
    let mut min_dist: Vec<f64> = windows
        .iter()
        .map(|w| d2(&w.features, &windows[0].features))
        .collect();
    while chosen.len() < k {
        let mut best = usize::MAX;
        let mut best_d = -1.0f64;
        for (i, &d) in min_dist.iter().enumerate() {
            if chosen.contains(&i) {
                continue;
            }
            if d > best_d {
                best_d = d;
                best = i;
            }
        }
        chosen.push(best);
        for (i, slot) in min_dist.iter_mut().enumerate() {
            let d = d2(&windows[i].features, &windows[best].features);
            if d < *slot {
                *slot = d;
            }
        }
    }
    let mut centroids: Vec<[f64; BBV_FEATURE_DIM]> =
        chosen.iter().map(|&i| windows[i].features).collect();

    let mut assignments = vec![0usize; n];
    let mut iterations = 0usize;
    while iterations < KMEANS_MAX_ITERATIONS {
        iterations += 1;
        // Assign: nearest centroid, ties to the lowest cluster index.
        let mut changed = false;
        for (i, w) in windows.iter().enumerate() {
            let mut best = 0usize;
            let mut best_d = d2(&w.features, &centroids[0]);
            for (c, centroid) in centroids.iter().enumerate().skip(1) {
                let d = d2(&w.features, centroid);
                if d < best_d {
                    best_d = d;
                    best = c;
                }
            }
            if assignments[i] != best {
                assignments[i] = best;
                changed = true;
            }
        }
        if !changed && iterations > 1 {
            break;
        }
        // Recompute: mean of members in fixed window order; an empty
        // cluster keeps its previous centroid.
        for (c, centroid) in centroids.iter_mut().enumerate() {
            let mut sum = [0.0f64; BBV_FEATURE_DIM];
            let mut count = 0usize;
            for (i, w) in windows.iter().enumerate() {
                if assignments[i] == c {
                    for (s, f) in sum.iter_mut().zip(w.features.iter()) {
                        *s += f;
                    }
                    count += 1;
                }
            }
            if count > 0 {
                for s in sum.iter_mut() {
                    *s /= count as f64;
                }
                *centroid = sum;
            }
        }
    }
    (assignments, k, iterations)
}

/// One phase of the sampling plan: a representative window plus the
/// window immediately before it (warmup replay) and the phase's weight.
#[derive(Clone, Debug, PartialEq)]
pub struct Phase {
    /// Original cluster index this phase represents.
    pub cluster: usize,
    /// Index of the representative window (closest member to the
    /// centroid; ties → lowest window index).
    pub representative_window: usize,
    /// Fraction of all windows assigned to this cluster; weights over
    /// all phases sum to 1.
    pub weight: f64,
    /// Number of windows in the cluster.
    pub windows_in_cluster: usize,
    /// First record of the representative window.
    pub start_record: usize,
    /// Record count of the representative window.
    pub num_records: usize,
    /// Cumulative instruction count at the start of the window.
    pub start_instruction: u64,
    /// Instructions the representative window spans.
    pub instructions: u64,
    /// First record of the warmup slice (the windows immediately before
    /// the representative; 0 records when the representative is window 0).
    pub warmup_start_record: usize,
    /// Record count of the warmup slice.
    pub warmup_records: usize,
    /// Instructions the warmup slice spans.
    pub warmup_instructions: u64,
}

impl Phase {
    /// The phase whose representative is window `rep` of `tiles`, warmed up
    /// on up to `warmup_windows` windows before it, for the cluster
    /// `assignments` puts `rep` in.
    fn new(tiles: &[Tile], assignments: &[usize], rep: usize, warmup_windows: usize) -> Self {
        let cluster = assignments[rep];
        let windows_in_cluster = assignments.iter().filter(|&&a| a == cluster).count();
        let window = tiles[rep];
        let warm = &tiles[rep - rep.min(warmup_windows)..rep];
        Self {
            cluster,
            representative_window: rep,
            weight: windows_in_cluster as f64 / tiles.len() as f64,
            windows_in_cluster,
            start_record: window.start_record,
            num_records: window.num_records,
            start_instruction: window.start_instruction,
            instructions: window.instructions,
            warmup_start_record: warm.first().map_or(0, |w| w.start_record),
            warmup_records: warm.iter().map(|w| w.num_records).sum(),
            warmup_instructions: warm.iter().map(|w| w.instructions).sum(),
        }
    }
}

/// The versioned phases document emitted by `mbpsim simpoint` and
/// consumed by `mbpsim sweep --phases`.
#[derive(Clone, Debug, PartialEq)]
pub struct PhasesDoc {
    /// Window size in instructions used for tiling.
    pub window_size: u64,
    /// BBV dimensionality ([`BBV_FEATURE_DIM`]).
    pub feature_dim: usize,
    /// Number of non-empty clusters (== `phases.len()`).
    pub clusters: usize,
    /// k-means iterations executed.
    pub kmeans_iterations: usize,
    /// Records in the trace the plan was extracted from.
    pub record_count: u64,
    /// Instructions in the trace the plan was extracted from.
    pub instruction_count: u64,
    /// Windows the trace tiled into.
    pub num_windows: usize,
    /// Per-window cluster assignment (original cluster indices).
    pub assignments: Vec<usize>,
    /// One entry per non-empty cluster, ascending cluster index.
    pub phases: Vec<Phase>,
}

impl PhasesDoc {
    /// The document body in canonical field order, without `doc_hash`.
    fn body_json(&self) -> Value {
        json!({
            "schema_version": PHASES_SCHEMA_VERSION,
            "window_size": self.window_size,
            "feature_dim": self.feature_dim as u64,
            "clusters": self.clusters as u64,
            "kmeans_iterations": self.kmeans_iterations as u64,
            "record_count": self.record_count,
            "instruction_count": self.instruction_count,
            "num_windows": self.num_windows as u64,
            "assignments": self.assignments.iter().map(|&a| Value::from(a as u64)).collect::<Vec<_>>(),
            "phases": self.phases.iter().map(|p| json!({
                "cluster": p.cluster as u64,
                "representative_window": p.representative_window as u64,
                "weight": p.weight,
                "windows_in_cluster": p.windows_in_cluster as u64,
                "start_record": p.start_record as u64,
                "num_records": p.num_records as u64,
                "start_instruction": p.start_instruction,
                "instructions": p.instructions,
                "warmup_start_record": p.warmup_start_record as u64,
                "warmup_records": p.warmup_records as u64,
                "warmup_instructions": p.warmup_instructions,
            })).collect::<Vec<_>>(),
        })
    }

    /// Content hash of the canonical body, `"fnv1a64:<16 hex digits>"`.
    ///
    /// Checkpoint records carry this so `--resume` can refuse a
    /// checkpoint written under a different sampling plan.
    pub fn doc_hash(&self) -> String {
        let body = self.body_json().to_compact_string();
        format!("fnv1a64:{:016x}", fnv1a64(body.as_bytes()))
    }

    /// Renders the document with `doc_hash` as the final key.
    pub fn to_json(&self) -> Value {
        let mut doc = self.body_json();
        let hash = self.doc_hash();
        if let Some(obj) = doc.as_object_mut() {
            obj.insert("doc_hash", hash);
        }
        doc
    }

    /// Parses and verifies a phases document: the schema version must be
    /// [`PHASES_SCHEMA_VERSION`] and `doc_hash` must match the
    /// recomputed hash of the body.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first structural problem.
    pub fn from_json(doc: &Value) -> Result<Self, String> {
        let version = doc
            .get("schema_version")
            .and_then(Value::as_u64)
            .ok_or("phases document has no schema_version")?;
        if version != PHASES_SCHEMA_VERSION {
            return Err(format!(
                "unsupported phases schema_version {version} (expected {PHASES_SCHEMA_VERSION})"
            ));
        }
        let u = |key: &str| -> Result<u64, String> {
            doc.get(key)
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("phases document missing {key}"))
        };
        let assignments = match doc.get("assignments") {
            Some(Value::Array(items)) => items
                .iter()
                .map(|v| v.as_u64().map(|a| a as usize))
                .collect::<Option<Vec<_>>>()
                .ok_or("non-integer cluster assignment")?,
            _ => return Err("phases document missing assignments".into()),
        };
        let phase_docs = match doc.get("phases") {
            Some(Value::Array(items)) => items,
            _ => return Err("phases document missing phases".into()),
        };
        let mut phases = Vec::with_capacity(phase_docs.len());
        for p in phase_docs {
            let pu = |key: &str| -> Result<u64, String> {
                p.get(key)
                    .and_then(Value::as_u64)
                    .ok_or_else(|| format!("phase entry missing {key}"))
            };
            phases.push(Phase {
                cluster: pu("cluster")? as usize,
                representative_window: pu("representative_window")? as usize,
                weight: p
                    .get("weight")
                    .and_then(Value::as_f64)
                    .ok_or("phase entry missing weight")?,
                windows_in_cluster: pu("windows_in_cluster")? as usize,
                start_record: pu("start_record")? as usize,
                num_records: pu("num_records")? as usize,
                start_instruction: pu("start_instruction")?,
                instructions: pu("instructions")?,
                warmup_start_record: pu("warmup_start_record")? as usize,
                warmup_records: pu("warmup_records")? as usize,
                warmup_instructions: pu("warmup_instructions")?,
            });
        }
        let parsed = Self {
            window_size: u("window_size")?,
            feature_dim: u("feature_dim")? as usize,
            clusters: u("clusters")? as usize,
            kmeans_iterations: u("kmeans_iterations")? as usize,
            record_count: u("record_count")?,
            instruction_count: u("instruction_count")?,
            num_windows: u("num_windows")? as usize,
            assignments,
            phases,
        };
        let declared = doc
            .get("doc_hash")
            .and_then(Value::as_str)
            .ok_or("phases document has no doc_hash")?;
        let actual = parsed.doc_hash();
        if declared != actual {
            return Err(format!(
                "phases document hash mismatch: declared {declared}, computed {actual}"
            ));
        }
        Ok(parsed)
    }

    /// Checks the plan against the records of the trace it is about to
    /// sample: the trace's totals, its tiling into windows, one phase per
    /// assigned cluster, and each phase rebuilt from its representative
    /// window and warm-up depth as extraction builds it.
    ///
    /// # Errors
    ///
    /// A description of the first mismatch.
    pub fn validate(&self, records: &[BranchRecord]) -> Result<(), String> {
        let record_count = records.len() as u64;
        if self.record_count != record_count {
            return Err(format!(
                "phases document was extracted from a trace with {} records, \
                 this trace has {record_count}",
                self.record_count
            ));
        }
        if self.window_size == 0 || self.feature_dim != BBV_FEATURE_DIM {
            return Err(format!(
                "phases document has window_size {} and feature_dim {}; it needs a \
                 non-zero window and {BBV_FEATURE_DIM} features",
                self.window_size, self.feature_dim
            ));
        }
        let tiles = tile(records, self.window_size);
        let instruction_count: u64 = tiles.iter().map(|t| t.instructions).sum();
        if self.instruction_count != instruction_count {
            return Err(format!(
                "phases document was extracted from a trace with {} instructions, \
                 this trace has {instruction_count}",
                self.instruction_count
            ));
        }
        if self.num_windows != tiles.len() || self.assignments.len() != tiles.len() {
            return Err(format!(
                "phases document claims {} windows and assigns {}, the trace tiles into {}",
                self.num_windows,
                self.assignments.len(),
                tiles.len()
            ));
        }
        let mut assigned = self.assignments.clone();
        assigned.sort_unstable();
        assigned.dedup();
        let listed = self.phases.iter().map(|p| p.cluster);
        if self.clusters != self.phases.len() || !listed.eq(assigned.iter().copied()) {
            return Err(format!(
                "phases document lists {} phases for {} assigned clusters",
                self.phases.len(),
                assigned.len()
            ));
        }
        for p in &self.phases {
            let rep = p.representative_window;
            if rep >= tiles.len() {
                return Err(format!(
                    "phase for cluster {} names window {rep} of {}",
                    p.cluster,
                    tiles.len()
                ));
            }
            // Its warm-up depth: how many windows back its first record is.
            let first = match p.warmup_records {
                0 => Ok(rep),
                _ => tiles[..rep].binary_search_by_key(&p.warmup_start_record, |t| t.start_record),
            };
            let rebuilt =
                first.map(|first| Phase::new(&tiles, &self.assignments, rep, rep - first));
            if rebuilt.as_ref() != Ok(p) {
                return Err(format!(
                    "phase for cluster {} does not match window {rep} of this trace",
                    p.cluster
                ));
            }
        }
        Ok(())
    }

    /// Instructions the sampled executor will touch (warmup + measured),
    /// as a fraction of the whole trace. Read before the plan is checked
    /// against a trace, so the sum is wide enough for any declared counts.
    pub fn planned_fraction(&self) -> f64 {
        if self.instruction_count == 0 {
            return 0.0;
        }
        let touched: u128 = (self.phases.iter())
            .map(|p| u128::from(p.instructions) + u128::from(p.warmup_instructions))
            .sum();
        touched as f64 / self.instruction_count as f64
    }
}

/// Extracts a sampling plan from a fully decoded trace: BBV windows,
/// k-means clustering, one representative window per non-empty cluster,
/// with one window of warmup replay before each representative.
///
/// Emits a `simpoint.extract` event instant carrying the window count.
pub fn extract_phases(records: &[BranchRecord], window_size: u64, k: usize) -> PhasesDoc {
    extract_phases_with_warmup(records, window_size, k, 1)
}

/// [`extract_phases`] with an explicit warmup depth: up to `warmup_windows`
/// whole windows immediately preceding each representative are replayed
/// (training only, not measured) before its slice is scored. Long-history
/// predictors (TAGE-, perceptron-family) need more than one window of
/// replay before their tables resemble full-run state; the cost is counted
/// in [`PhasesDoc::planned_fraction`], so callers can trade accuracy
/// against simulated instructions explicitly.
pub fn extract_phases_with_warmup(
    records: &[BranchRecord],
    window_size: u64,
    k: usize,
    warmup_windows: usize,
) -> PhasesDoc {
    let window_size = window_size.max(1);
    let tiles = tile(records, window_size);
    let windows = bbv(records, &tiles);
    let (assignments, k_used, iterations) = kmeans(&windows, k);
    events::instant(EventName::SimpointExtract, windows.len() as u64);
    // One centroid per cluster, recomputed from the final assignment so
    // representative selection matches what the clusterer converged to.
    let mut phases = Vec::new();
    for c in 0..k_used {
        let members: Vec<usize> = (0..windows.len())
            .filter(|&i| assignments[i] == c)
            .collect();
        if members.is_empty() {
            continue;
        }
        let mut centroid = [0.0f64; BBV_FEATURE_DIM];
        for &i in &members {
            for (s, f) in centroid.iter_mut().zip(windows[i].features.iter()) {
                *s += f;
            }
        }
        for s in centroid.iter_mut() {
            *s /= members.len() as f64;
        }
        let mut rep = members[0];
        let mut rep_d = d2(&windows[rep].features, &centroid);
        for &i in &members[1..] {
            let d = d2(&windows[i].features, &centroid);
            if d < rep_d {
                rep_d = d;
                rep = i;
            }
        }
        phases.push(Phase::new(&tiles, &assignments, rep, warmup_windows));
    }
    let instruction_count: u64 = windows.iter().map(|w| w.instructions).sum();
    PhasesDoc {
        window_size,
        feature_dim: BBV_FEATURE_DIM,
        clusters: phases.len(),
        kmeans_iterations: iterations,
        record_count: records.len() as u64,
        instruction_count,
        num_windows: windows.len(),
        assignments,
        phases,
    }
}

/// Outcome of one measured slice.
struct SliceStats {
    instructions: u64,
    conditional: u64,
    mispredictions: u64,
}

/// `records[start..start + len]`, clamped to the trace.
fn slice(records: &[BranchRecord], start: usize, len: usize) -> &[BranchRecord] {
    let start = start.min(records.len());
    &records[start..start.saturating_add(len).min(records.len())]
}

/// Simulates only the weighted representative slices of `phases` and
/// reconstructs whole-trace metrics.
///
/// Phases run in trace order through one predictor instance; each
/// representative slice is preceded by a replay of the window immediately
/// before it, so table state at the start of the measured slice is honest
/// (the replay trains and tracks but its mispredictions are not counted).
/// Every slice goes through the batched driver, so sampled runs ride the
/// `predict_batch` kernels like full ones.
///
/// `metrics.mpki` and `metrics.accuracy` are the weight-reconstructed
/// whole-trace estimates; `metrics.mispredictions` is the implied
/// whole-trace count. The rendered result carries a top-level `simpoint`
/// section with the per-phase measurements, the simulated-instruction
/// fraction, and a cross-validation error estimate: each warmup window is
/// itself a cluster member, so the difference between its measured MPKI
/// and its cluster's representative MPKI bounds how well representatives
/// generalize (instruction-weighted mean residual, relative to the
/// reconstructed MPKI).
///
/// Out-of-range slices are clamped, so this never fails on a plan/trace
/// mismatch — callers gate with [`PhasesDoc::validate`] first.
pub fn simulate_sampled<P: Predictor + ?Sized>(
    records: &[BranchRecord],
    predictor: &mut P,
    phases: &PhasesDoc,
    config: &SimConfig,
) -> SimResult {
    sample(records, predictor, phases, config, SliceSource::new)
        .expect("in-memory slices always decode")
}

/// [`simulate_sampled`] reading each slice through the source `open`
/// wraps it in (the sweep's cancellable source); propagates its errors.
pub(crate) fn sample<'r, S, P>(
    records: &'r [BranchRecord],
    predictor: &mut P,
    phases: &PhasesDoc,
    config: &SimConfig,
    mut open: impl FnMut(&'r [BranchRecord]) -> S,
) -> Result<SimResult, TraceError>
where
    S: TraceSource,
    P: Predictor + ?Sized,
{
    let run = open_run();
    let stats = mbp_stats::pipeline();

    let mut order: Vec<&Phase> = phases.phases.iter().collect();
    order.sort_by_key(|p| p.start_record);

    // Slices are not contiguous, so the time series and forensics (whole-
    // run analyses) stay off; only the live status slot rides along.
    let config = &SimConfig {
        timeseries_window: None,
        forensics: None,
        ..config.clone()
    };
    let mut st = SimState::new(config);
    // (phase, measured stats, warmup mpki or None)
    let mut slices: Vec<(&Phase, SliceStats, Option<f64>)> = Vec::with_capacity(order.len());

    for phase in order {
        let warmup = if phase.warmup_records > 0 {
            let (instructions, mispredictions) = (st.instructions, st.warmup_mispredictions);
            let warm = slice(records, phase.warmup_start_record, phase.warmup_records);
            st.replay(
                &mut open(warm),
                predictor,
                u64::MAX,
                None,
                config.track_only_conditional,
            )?;
            let replayed = st.instructions - instructions;
            stats.sweep.replayed_instructions.add(replayed);
            Some(mpki(st.warmup_mispredictions - mispredictions, replayed))
        } else {
            None
        };
        let before = (st.measured_instructions, st.conditional, st.mispredictions);
        let measured = slice(records, phase.start_record, phase.num_records);
        st.replay(
            &mut open(measured),
            predictor,
            0,
            None,
            config.track_only_conditional,
        )?;
        let m = SliceStats {
            instructions: st.measured_instructions - before.0,
            conditional: st.conditional - before.1,
            mispredictions: st.mispredictions - before.2,
        };
        events::instant(
            EventName::SimpointSampledSlice,
            phase.representative_window as u64,
        );
        stats.sweep.sampled_slices.inc();
        stats.sweep.sampled_instructions.add(m.instructions);
        slices.push((phase, m, warmup));
    }
    let measured_instr = st.measured_instructions;
    let replayed_instr = st.instructions - measured_instr;

    // Weight-reconstructed whole-trace metrics, fixed phase order.
    let mut recon_mpki = 0.0f64;
    let mut recon_accuracy = 0.0f64;
    let mut weight_sum = 0.0f64;
    for (phase, m, _) in &slices {
        recon_mpki += phase.weight * mpki(m.mispredictions, m.instructions);
        recon_accuracy += phase.weight * accuracy(m.mispredictions, m.conditional);
        weight_sum += phase.weight;
    }
    if weight_sum > 0.0 && (weight_sum - 1.0).abs() > 1e-9 {
        // A plan whose clusters were clamped still reconstructs sanely.
        recon_mpki /= weight_sum;
        recon_accuracy /= weight_sum;
    }

    // Cross-validation error estimate: predict each warmup window's MPKI
    // from its own cluster's representative and compare with what the
    // replay actually measured.
    let cluster_mpki: Vec<(usize, f64)> = slices
        .iter()
        .map(|(phase, m, _)| (phase.cluster, mpki(m.mispredictions, m.instructions)))
        .collect();
    let mut residual_sum = 0.0f64;
    let mut residual_weight = 0.0f64;
    for (phase, _, warmup) in &slices {
        let Some(warmup_mpki) = warmup else { continue };
        if phase.representative_window == 0 {
            continue;
        }
        let warmup_window = phase.representative_window - 1;
        let Some(&cluster) = phases.assignments.get(warmup_window) else {
            continue;
        };
        let Some(&(_, predicted)) = cluster_mpki.iter().find(|(c, _)| *c == cluster) else {
            continue;
        };
        let w = phase.warmup_instructions as f64;
        residual_sum += w * (warmup_mpki - predicted).abs();
        residual_weight += w;
    }
    let error_estimate = if residual_weight > 0.0 {
        (residual_sum / residual_weight) / recon_mpki.max(1e-9)
    } else {
        0.0
    };

    let simulated_fraction = if phases.instruction_count > 0 {
        (measured_instr + replayed_instr) as f64 / phases.instruction_count as f64
    } else {
        0.0
    };

    let sampling = json!({
        "schema_version": PHASES_SCHEMA_VERSION,
        "doc_hash": phases.doc_hash(),
        "window_size": phases.window_size,
        "clusters": phases.clusters as u64,
        "num_windows": phases.num_windows as u64,
        "total_instructions": phases.instruction_count,
        "sampled_instructions": measured_instr,
        "replayed_instructions": replayed_instr,
        "simulated_fraction": simulated_fraction,
        "reconstructed_mpki": recon_mpki,
        "reconstructed_accuracy": recon_accuracy,
        "error_estimate": error_estimate,
        "phases": slices.iter().map(|(phase, m, warmup)| json!({
            "cluster": phase.cluster as u64,
            "representative_window": phase.representative_window as u64,
            "weight": phase.weight,
            "instructions": m.instructions,
            "conditional_branches": m.conditional,
            "mispredictions": m.mispredictions,
            "mpki": mpki(m.mispredictions, m.instructions),
            "warmup_instructions": phase.warmup_instructions,
            "warmup_mpki": warmup.unwrap_or(0.0),
        })).collect::<Vec<_>>(),
    });

    // The whole-run sections come from the driver's state; the headline
    // metrics are the reconstructed estimates.
    let mut result = st.into_result(Value::from("in-memory trace"), predictor, config, run);
    result.metadata.warmup_instr = replayed_instr;
    result.metrics.mpki = recon_mpki;
    result.metrics.mispredictions =
        (recon_mpki * phases.instruction_count as f64 / 1000.0).round() as u64;
    result.metrics.accuracy = recon_accuracy;
    result.sampling = Some(sampling);
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbp_json::json;
    use mbp_trace::{Branch, Opcode};

    /// Tiny deterministic PRNG (xorshift64) — no external dependencies.
    struct Rng(u64);
    impl Rng {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.0 = x;
            x
        }
    }

    fn cond(ip: u64, taken: bool, gap: u32) -> BranchRecord {
        BranchRecord::new(
            Branch::new(ip, 0x9000, Opcode::conditional_direct(), taken),
            gap,
        )
    }

    /// A trace alternating between two distinct branch working sets, so
    /// the clusterer has real phases to find.
    fn phase_heavy_trace(n: usize) -> Vec<BranchRecord> {
        let mut rng = Rng(0x5eed);
        (0..n)
            .map(|i| {
                let phase = (i / 100) % 2;
                let base = if phase == 0 { 0x1000 } else { 0x8_0000 };
                let ip = base + (rng.next() % 16) * 8;
                cond(ip, !rng.next().is_multiple_of(3), 9)
            })
            .collect()
    }

    struct Taken;
    impl Predictor for Taken {
        fn predict(&mut self, _ip: u64) -> bool {
            true
        }
        fn train(&mut self, _b: &Branch) {}
        fn track(&mut self, _b: &Branch) {}
        fn metadata(&self) -> Value {
            json!({"name": "taken"})
        }
    }

    #[test]
    fn extraction_is_deterministic_across_runs() {
        let recs = phase_heavy_trace(1000);
        let a = extract_phases(&recs, 500, 4);
        let b = extract_phases(&recs, 500, 4);
        assert_eq!(a, b);
        assert_eq!(a.doc_hash(), b.doc_hash());
    }

    #[test]
    fn every_window_is_assigned_to_exactly_one_cluster() {
        let recs = phase_heavy_trace(1000);
        let doc = extract_phases(&recs, 500, 4);
        assert_eq!(doc.assignments.len(), doc.num_windows);
        let k_used = 4.min(doc.num_windows);
        for &a in &doc.assignments {
            assert!(a < k_used, "assignment {a} out of range");
        }
        // Every assigned cluster has a phase entry.
        for &a in &doc.assignments {
            assert!(
                doc.phases.iter().any(|p| p.cluster == a),
                "cluster {a} has members but no phase"
            );
        }
    }

    #[test]
    fn weights_sum_to_one() {
        for k in [1, 2, 4, 7] {
            let recs = phase_heavy_trace(900);
            let doc = extract_phases(&recs, 300, k);
            let total: f64 = doc.phases.iter().map(|p| p.weight).sum();
            assert!((total - 1.0).abs() < 1e-9, "k={k}: weights sum to {total}");
        }
    }

    #[test]
    fn degenerate_inputs_never_panic() {
        // Empty trace.
        let doc = extract_phases(&[], 100, 4);
        assert_eq!(doc.num_windows, 0);
        assert!(doc.phases.is_empty());
        // One window.
        let recs = vec![cond(0x10, true, 9); 3];
        let doc = extract_phases(&recs, 1_000_000, 4);
        assert_eq!(doc.num_windows, 1);
        assert_eq!(doc.phases.len(), 1);
        assert_eq!(doc.phases[0].weight, 1.0);
        // All-identical windows.
        let recs = vec![cond(0x10, true, 9); 100];
        let doc = extract_phases(&recs, 50, 8);
        let total: f64 = doc.phases.iter().map(|p| p.weight).sum();
        assert!((total - 1.0).abs() < 1e-9);
        // k far larger than the number of windows.
        let recs = phase_heavy_trace(40);
        let doc = extract_phases(&recs, 100, 64);
        assert!(doc.clusters <= doc.num_windows);
        // Zero window size is clamped, not divided by.
        let doc = extract_phases(&recs, 0, 2);
        assert!(doc.window_size >= 1);
    }

    #[test]
    fn windows_tile_the_whole_trace() {
        let recs = phase_heavy_trace(777);
        let windows = extract_bbv(&recs, 430);
        let records: usize = windows.iter().map(|w| w.num_records).sum();
        assert_eq!(records, recs.len());
        let instrs: u64 = windows.iter().map(|w| w.instructions).sum();
        let expected: u64 = recs.iter().map(|r| r.instructions()).sum();
        assert_eq!(instrs, expected);
        // Contiguous, in order.
        let mut next = 0usize;
        for w in &windows {
            assert_eq!(w.start_record, next);
            next += w.num_records;
            let sum: f64 = w.features.iter().sum();
            assert!((sum - 1.0).abs() < 1e-9, "BBV is L1-normalized");
        }
    }

    #[test]
    fn document_round_trips_and_detects_tampering() {
        let recs = phase_heavy_trace(600);
        let doc = extract_phases(&recs, 200, 3);
        let rendered = doc.to_json();
        assert_eq!(
            rendered.get("schema_version").and_then(Value::as_u64),
            Some(PHASES_SCHEMA_VERSION)
        );
        let parsed = PhasesDoc::from_json(&rendered).expect("round trip");
        assert_eq!(parsed, doc);
        // Tampered body fails the hash check.
        let mut tampered = rendered.clone();
        if let Some(obj) = tampered.as_object_mut() {
            obj.insert("window_size", 999u64);
        }
        assert!(PhasesDoc::from_json(&tampered)
            .unwrap_err()
            .contains("hash mismatch"));
        // Unknown schema version is rejected before anything else.
        let mut vnext = rendered.clone();
        if let Some(obj) = vnext.as_object_mut() {
            obj.insert("schema_version", 2u64);
        }
        assert!(PhasesDoc::from_json(&vnext)
            .unwrap_err()
            .contains("schema_version"));
    }

    #[test]
    fn validate_rejects_a_different_trace() {
        let recs = phase_heavy_trace(600);
        let doc = extract_phases(&recs, 200, 3);
        assert!(doc.validate(&recs).is_ok());
        // One record more.
        let mut longer = recs.clone();
        longer.push(recs[0]);
        assert!(doc.validate(&longer).is_err());
        // One instruction more.
        let mut wider = recs.clone();
        let last = wider.pop().expect("a record");
        wider.push(BranchRecord::new(last.branch, last.gap + 1));
        assert!(doc.validate(&wider).is_err());
    }

    #[test]
    fn validate_rejects_slices_that_overflow_or_do_not_meet() {
        let recs = phase_heavy_trace(600);
        let doc = extract_phases(&recs, 200, 3);
        let warmed = (doc.phases.iter())
            .position(|p| p.warmup_records > 0)
            .expect("a phase with a warm-up slice");
        let tampered: [fn(&mut Phase); 4] = [
            |p| p.start_record = usize::MAX - 5,
            |p| p.warmup_start_record = usize::MAX - 5,
            |p| p.warmup_records += 1,
            |p| p.warmup_records -= 1,
        ];
        for tamper in tampered {
            let mut plan = doc.clone();
            tamper(&mut plan.phases[warmed]);
            // Rendered and parsed back, so `doc_hash` matches the body.
            let parsed = PhasesDoc::from_json(&plan.to_json()).expect("hash matches");
            assert!(parsed.validate(&recs).is_err());
        }
    }

    #[test]
    fn validate_checks_the_instruction_counts_each_phase_declares() {
        let recs = phase_heavy_trace(600);
        let doc = extract_phases(&recs, 200, 3);
        let warmed = (doc.phases.iter())
            .position(|p| p.warmup_records > 0)
            .expect("a phase with a warm-up slice");
        let tampered: [fn(&mut Phase); 5] = [
            // Bit 40 of a warm-up count: the plan would claim to touch
            // millions of times the trace.
            |p| p.warmup_instructions ^= 1 << 40,
            |p| p.warmup_instructions += 1,
            |p| p.instructions -= 1,
            |p| p.instructions = u64::MAX,
            |p| p.start_instruction += 1,
        ];
        for tamper in tampered {
            let mut plan = doc.clone();
            tamper(&mut plan.phases[warmed]);
            let parsed = PhasesDoc::from_json(&plan.to_json()).expect("hash matches");
            assert!(parsed.validate(&recs).is_err());
            // Read before validation (the sweep's progress line does), the
            // fraction stays finite and positive.
            assert!(parsed.planned_fraction().is_finite() && parsed.planned_fraction() > 0.0);
        }
    }

    #[test]
    fn validate_rebuilds_what_extraction_derives() {
        let recs = phase_heavy_trace(600);
        let doc = extract_phases(&recs, 200, 3);
        assert!(doc.phases.len() >= 2 && doc.validate(&recs).is_ok());
        // Each edit keeps every slice and instruction count in range and
        // consistent, so only rebuilding the phases catches it.
        let tampered: [fn(&mut PhasesDoc); 5] = [
            |d| d.phases[0].weight *= 4.0,
            |d| d.phases[1].cluster = d.phases[0].cluster,
            |d| {
                let reps: Vec<usize> = d.phases.iter().map(|p| p.representative_window).collect();
                let other = (0..d.num_windows)
                    .find(|w| !reps.contains(w))
                    .expect("a member");
                d.assignments[other] = (d.phases.iter().map(|p| p.cluster))
                    .find(|&c| c != d.assignments[other])
                    .expect("another cluster");
            },
            |d| d.phases[0].windows_in_cluster += 1,
            |d| {
                let p = &mut d.phases[0];
                p.representative_window = (p.representative_window + 1) % d.num_windows;
            },
        ];
        for tamper in tampered {
            let mut plan = doc.clone();
            tamper(&mut plan);
            let parsed = PhasesDoc::from_json(&plan.to_json()).expect("hash matches");
            assert_ne!(parsed, doc);
            assert!(parsed.validate(&recs).is_err(), "{parsed:?}");
        }
    }

    #[test]
    fn sampled_simulation_reports_reconstruction() {
        let recs = phase_heavy_trace(1000);
        let doc = extract_phases(&recs, 1000, 4);
        let r = simulate_sampled(&recs, &mut Taken, &doc, &SimConfig::default());
        let sampling = r.sampling.expect("sampled runs carry a simpoint section");
        let fraction = sampling
            .get("simulated_fraction")
            .and_then(Value::as_f64)
            .expect("fraction");
        assert!(fraction > 0.0 && fraction <= 1.0, "fraction {fraction}");
        assert_eq!(
            sampling.get("doc_hash").and_then(Value::as_str),
            Some(doc.doc_hash().as_str())
        );
        assert!(r.metrics.mpki > 0.0, "always-taken mispredicts sometimes");
        // Deterministic: a second run is identical.
        let r2 = simulate_sampled(&recs, &mut Taken, &doc, &SimConfig::default());
        assert_eq!(r.metrics.mpki, r2.metrics.mpki);
        assert_eq!(
            r2.sampling.unwrap().to_compact_string(),
            sampling.to_compact_string()
        );
    }

    #[test]
    fn planned_fraction_matches_executed_fraction() {
        let recs = phase_heavy_trace(2000);
        let doc = extract_phases(&recs, 1000, 4);
        let r = simulate_sampled(&recs, &mut Taken, &doc, &SimConfig::default());
        let executed = r
            .sampling
            .unwrap()
            .get("simulated_fraction")
            .and_then(Value::as_f64)
            .unwrap();
        assert!((doc.planned_fraction() - executed).abs() < 1e-9);
    }
}
