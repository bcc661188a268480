#!/usr/bin/env bash
# Repository CI gate: formatting, lints, tier-1 build + tests, and the
# driver-equivalence suite that pins the batch pipeline to the scalar
# reference. Everything runs offline against the vendored toolchain.
set -euo pipefail
cd "$(dirname "$0")"

echo "== fmt =="
cargo fmt --all -- --check

echo "== clippy =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== clippy (panic-free decode paths) =="
# Library code of the crates that parse untrusted bytes must not contain
# unwrap/expect at all — every failure is a typed error. That covers the
# trace decoders and codecs, and mbp-json, which parses every file the CLI
# reads back (checkpoints, phase plans, stats-diff and report inputs).
# Test code (the --lib target excludes it) is exempt.
cargo clippy -p mbp-trace -p mbp-compress -p mbp-json --lib -- \
  -D warnings -D clippy::unwrap_used -D clippy::expect_used

echo "== build (release) =="
cargo build --release

echo "== tests =="
cargo test -q

echo "== driver equivalence (batch pipeline vs scalar reference) =="
cargo test -q -p mbp --test driver_equivalence
cargo test -q -p mbp --test equivalence

echo "== fault injection (readers fail closed on corrupt traces, checkpoints, phases documents and observability documents) =="
cargo test -q -p mbp-faultsim --test fault_injection
cargo test -q -p mbp-faultsim --test alloc_bounds
cargo test -q -p mbp-faultsim --test checkpoint_faults
cargo test -q -p mbp-faultsim --test phases_faults
cargo test -q -p mbp-faultsim --test observability_faults

echo "== observability layer (mbp-stats) =="
cargo test -q -p mbp-stats

echo "== golden vectors (bit-exact predictor conformance) =="
cargo test -q -p mbp-predictors --test golden_vectors

echo "== reference oracle (composites vs naive full-history references) =="
# Golden vectors pin stability; this pins truth: TAGE, BATAGE, the hashed
# perceptron, 2bc-gskew and the tournament must predict bit for bit what
# references with no ip memo, no fold bank, no lookup cache and no batch
# kernel predict.
cargo test -q -p mbp-predictors --test reference_oracle

echo "== batch equivalence (SoA kernels vs scalar call sequence) =="
cargo test -q -p mbp-predictors --test batch_equivalence

echo "== cache discipline (predict -> train lookup caches never read stale) =="
cargo test -q -p mbp-predictors --test cache_discipline

echo "== utils property suite =="
cargo test -q -p mbp-utils --test properties

echo "== event timeline + stats-diff gate =="
# An instrumented smoke sweep must produce a Chrome trace that parses back
# (strictly monotonic per-thread timestamps), and its metrics must diff
# cleanly against the committed baseline. The threshold is deliberately
# loose: counts are deterministic (seeded workloads) and informational,
# so the gate really fires on faults appearing (0 -> N is +inf%) or a
# catastrophic slowdown — not on machine-to-machine timing noise.
obs_tmp="$(mktemp -d)"
trap 'rm -rf "$obs_tmp"' EXIT
target/release/mbpsim gen --suite smoke --out "$obs_tmp/traces" >/dev/null
target/release/mbpsim sweep --predictors gshare,bimodal \
  --trace "$obs_tmp/traces/SMOKE-mobile.sbbt.mzst" --jobs 2 --quiet \
  --introspect --timeseries-out "$obs_tmp/sweep_ts.csv" \
  --trace-out "$obs_tmp/run.trace.json" \
  --metrics-out "$obs_tmp/metrics.json" >/dev/null
target/release/mbpsim validate-trace "$obs_tmp/run.trace.json"
target/release/mbpsim stats-diff tests/fixtures/ci_metrics_baseline.json \
  "$obs_tmp/metrics.json" --threshold 5000
grep -q "^predictor,window," "$obs_tmp/sweep_ts.csv" \
  || { echo "sweep timeseries CSV missing its header" >&2; exit 1; }

echo "== introspection + timeseries + HTML report gate =="
# An introspected run must carry timeseries and probe sections that diff
# cleanly against the committed fixture, and `mbpsim report` must render
# the document as well-formed self-contained HTML (sparklines included).
target/release/mbpsim run --predictor tage \
  --trace "$obs_tmp/traces/SMOKE-mobile.sbbt.mzst" --quiet \
  --introspect --window 10000 --timeseries-out "$obs_tmp/run_ts.csv" \
  --metrics --metrics-out "$obs_tmp/introspect.json" >/dev/null 2>/dev/null
target/release/mbpsim stats-diff tests/fixtures/ci_introspect_baseline.json \
  "$obs_tmp/introspect.json" --threshold 5000
target/release/mbpsim report "$obs_tmp/introspect.json" \
  --out "$obs_tmp/report.html" 2>/dev/null
grep -q "</html>" "$obs_tmp/report.html" \
  || { echo "report is not well-formed HTML" >&2; exit 1; }
grep -q "<svg" "$obs_tmp/report.html" \
  || { echo "report is missing its sparklines" >&2; exit 1; }

echo "== batch kernels engaged (kernel_branches > 0 in metrics) =="
# A plain smoke run must ride the predict_batch fast path; a driver change
# that silently diverts everything to the scalar fallback shows up here as
# kernel_branches = 0 long before it shows up as a throughput regression.
metric_of() { # metric_of <name> <metrics.json>
  grep -o "\"$1\": *[0-9]*" "$2" | grep -o '[0-9]*$' | head -n 1
}
target/release/mbpsim run --predictor gshare \
  --trace "$obs_tmp/traces/SMOKE-mobile.sbbt.mzst" --quiet \
  --metrics --metrics-out "$obs_tmp/kernel_metrics.json" >/dev/null 2>/dev/null
kb="$(metric_of kernel_branches "$obs_tmp/kernel_metrics.json")"
if [ -z "$kb" ] || [ "$kb" -eq 0 ]; then
  echo "batched driver did not take the kernel path (kernel_branches=${kb:-missing})" >&2
  exit 1
fi
# Warm-up, a cut-off, a time series and a phase-sampled sweep stay on the
# same path: only forensics (per-record component blame) may leave it.
target/release/mbpsim run --predictor gshare \
  --trace "$obs_tmp/traces/SMOKE-mobile.sbbt.mzst" --quiet \
  --warmup 5000 --max 90000 --window 10000 \
  --timeseries-out "$obs_tmp/kernel_ts.csv" \
  --metrics-out "$obs_tmp/kernel_observed.json" >/dev/null 2>/dev/null
target/release/mbpsim simpoint --trace "$obs_tmp/traces/SMOKE-mobile.sbbt.mzst" \
  --window 2000 --clusters 8 --warmup-windows 2 \
  --out "$obs_tmp/kernel_phases.json" 2>/dev/null
target/release/mbpsim sweep --predictors gshare,tage \
  --trace "$obs_tmp/traces/SMOKE-mobile.sbbt.mzst" --jobs 1 --quiet \
  --phases "$obs_tmp/kernel_phases.json" \
  --metrics-out "$obs_tmp/kernel_sampled.json" >/dev/null 2>/dev/null
for m in kernel_observed kernel_sampled; do
  kb="$(metric_of kernel_branches "$obs_tmp/$m.json")"
  fb="$(metric_of scalar_fallback_branches "$obs_tmp/$m.json")"
  if [ -z "$kb" ] || [ "$kb" -eq 0 ] || [ "${fb:-missing}" != 0 ]; then
    echo "$m left the kernel path (kernel_branches=${kb:-missing}," \
      "scalar_fallback_branches=${fb:-missing})" >&2
    exit 1
  fi
done

echo "== sweep resilience gate (checkpoint -> torn tail -> resume) =="
# A checkpointed smoke sweep whose checkpoint is torn mid-record (as a
# crash or kill -9 would leave it) must resume to a document identical to
# the clean run, byte for byte, once the wall-clock-derived fields are
# stripped. The torn third record exercises the loader's tolerate-the-tail
# path; the metrics assert the resume actually skipped settled work.
canon() {
  grep -vE '"(decode_time|wall_time|cumulative_simulation_time|parallel_speedup|simulation_time)":' "$1"
}
res_args=(sweep --predictors gshare,bimodal,gselect,two-level
  --trace "$obs_tmp/traces/SMOKE-mobile.sbbt.mzst" --jobs 1 --quiet)
ck="$obs_tmp/sweep.ckpt.jsonl"
target/release/mbpsim "${res_args[@]}" > "$obs_tmp/sweep_clean.json"
target/release/mbpsim "${res_args[@]}" --checkpoint "$ck" > /dev/null
records="$(wc -l < "$ck")"
if [ "$records" -ne 4 ]; then
  echo "checkpoint holds $records records, expected 4" >&2; exit 1
fi
l1="$(sed -n 1p "$ck" | wc -c)"; l2="$(sed -n 2p "$ck" | wc -c)"
head -c "$(( l1 + l2 / 2 ))" "$ck" > "$ck.torn" && mv "$ck.torn" "$ck"
cp "$ck" "$ck.instrumented"
target/release/mbpsim "${res_args[@]}" --checkpoint "$ck" --resume \
  > "$obs_tmp/sweep_resumed.json"
diff <(canon "$obs_tmp/sweep_clean.json") <(canon "$obs_tmp/sweep_resumed.json") \
  || { echo "resumed sweep diverged from the clean run" >&2; exit 1; }
# A second resume from the same torn tail, instrumented: metrics (which
# merge into the stdout document, hence the separate run) must show the
# settled predictor being skipped, and the lifecycle instants must land in
# the event timeline.
target/release/mbpsim "${res_args[@]}" --checkpoint "$ck.instrumented" --resume \
  --metrics-out "$obs_tmp/resume_metrics.json" \
  --trace-out "$obs_tmp/resume.trace.json" > /dev/null 2>/dev/null
grep -q '"resume_skips": 1' "$obs_tmp/resume_metrics.json" \
  || { echo "resume did not skip the checkpointed predictor" >&2; exit 1; }
target/release/mbpsim validate-trace "$obs_tmp/resume.trace.json"
grep -q 'sweep.checkpoint_write' "$obs_tmp/resume.trace.json" \
  || { echo "checkpoint writes missing from the event timeline" >&2; exit 1; }
# Resume the file the first resume appended to, twice more: a resume cuts
# a torn line off before it appends, so every predictor is now settled
# from the checkpoint. No worker starts (`workers_used` 0, the one line
# that differs from the clean run), nothing is written, and the file keeps
# its four records.
target/release/mbpsim "${res_args[@]}" --checkpoint "$ck" --resume \
  > "$obs_tmp/sweep_resumed_again.json"
grep -q '"workers_used": 0,' "$obs_tmp/sweep_resumed_again.json" \
  || { echo "a resume of a settled checkpoint started workers" >&2; exit 1; }
diff <(canon "$obs_tmp/sweep_clean.json" | grep -v '"workers_used":') \
  <(canon "$obs_tmp/sweep_resumed_again.json" | grep -v '"workers_used":') \
  || { echo "a second resume diverged from the clean run" >&2; exit 1; }
target/release/mbpsim "${res_args[@]}" --checkpoint "$ck" --resume \
  --metrics-out "$obs_tmp/resume_again_metrics.json" > /dev/null 2>/dev/null
grep -q '"resume_skips": 4' "$obs_tmp/resume_again_metrics.json" \
  || { echo "a second resume did not settle every predictor from the checkpoint" >&2; exit 1; }
grep -q '"checkpoint_writes": 0' "$obs_tmp/resume_again_metrics.json" \
  || { echo "a second resume appended to the checkpoint" >&2; exit 1; }
records="$(wc -l < "$ck")"
if [ "$records" -ne 4 ]; then
  echo "resumed checkpoint holds $records records, expected 4" >&2; exit 1
fi
cargo test -q -p mbp --test sweep_resilience

echo "== simpoint gate (sampled sweep reconstructs full-sweep MPKI) =="
# Phase-sample the smoke trace, then sweep all eight stock predictors both
# ways. The sampled sweep must touch < 50% of the trace's instructions and
# reconstruct each predictor's whole-trace MPKI within the documented
# bound: |sampled - full| <= max(15% of full, 1.0 MPKI). The absolute floor
# exists because the smoke trace is tiny (100k instructions) and the best
# predictors sit under 1 MPKI, where relative error is dominated by a
# handful of mispredictions. The lifecycle instants must land in the event
# timeline on both surfaces.
sp="gshare,bimodal,gselect,two-level,tournament,hashed-perceptron,tage,batage"
target/release/mbpsim simpoint --trace "$obs_tmp/traces/SMOKE-mobile.sbbt.mzst" \
  --window 2000 --clusters 8 --warmup-windows 2 \
  --out "$obs_tmp/phases.json" --trace-out "$obs_tmp/simpoint.trace.json" \
  2>/dev/null
target/release/mbpsim validate-trace "$obs_tmp/simpoint.trace.json"
grep -q 'simpoint.extract' "$obs_tmp/simpoint.trace.json" \
  || { echo "simpoint.extract missing from the event timeline" >&2; exit 1; }
grep -q '"schema_version": 1' "$obs_tmp/phases.json" \
  || { echo "phases document is missing its schema version" >&2; exit 1; }
target/release/mbpsim sweep --predictors "$sp" \
  --trace "$obs_tmp/traces/SMOKE-mobile.sbbt.mzst" --jobs 2 --quiet \
  > "$obs_tmp/sp_full.json"
target/release/mbpsim sweep --predictors "$sp" \
  --trace "$obs_tmp/traces/SMOKE-mobile.sbbt.mzst" --jobs 2 --quiet \
  --phases "$obs_tmp/phases.json" \
  --trace-out "$obs_tmp/sampled.trace.json" \
  > "$obs_tmp/sp_sampled.json" 2>/dev/null
target/release/mbpsim validate-trace "$obs_tmp/sampled.trace.json"
grep -q 'simpoint.sampled_slice' "$obs_tmp/sampled.trace.json" \
  || { echo "simpoint.sampled_slice missing from the event timeline" >&2; exit 1; }
# Every worker reads its slices from the one decoded store, so one worker
# must produce the same document as two, apart from the clock fields and
# the two lines that record the worker count.
target/release/mbpsim sweep --predictors "$sp" \
  --trace "$obs_tmp/traces/SMOKE-mobile.sbbt.mzst" --jobs 1 --quiet \
  --phases "$obs_tmp/phases.json" > "$obs_tmp/sp_sampled_jobs1.json"
diff <(canon "$obs_tmp/sp_sampled.json" | grep -vE '"(jobs|workers_used)":') \
  <(canon "$obs_tmp/sp_sampled_jobs1.json" | grep -vE '"(jobs|workers_used)":') \
  || { echo "the sampled sweep at --jobs 1 diverged from --jobs 2" >&2; exit 1; }
# Leaderboard rows render "predictor" then "mpki" on consecutive pretty-
# printed lines; pair them up per document and compare per predictor.
mpki_of() {
  awk '/"predictor": "/ {gsub(/[",]/,"",$2); p=$2}
       /"mpki":/ {if (p!="") {gsub(/,/,"",$2); print p, $2; p=""}}' "$1"
}
paste <(mpki_of "$obs_tmp/sp_full.json" | sort) \
      <(mpki_of "$obs_tmp/sp_sampled.json" | sort) \
  | awk '{
      if ($1 != $3) { printf "predictor mismatch: %s vs %s\n", $1, $3; bad=1 }
      f=$2; s=$4; e=(s>f)?s-f:f-s; lim=(0.15*f>1.0)?0.15*f:1.0
      if (e > lim) {
        printf "%s: sampled %.3f vs full %.3f MPKI (err %.3f > %.3f)\n", $1, s, f, e, lim
        bad=1
      }
    } END { exit bad }' \
  || { echo "sampled sweep missed the reconstruction bound" >&2; exit 1; }
frac="$(grep -o '"simulated_fraction": *[0-9.]*' "$obs_tmp/sp_sampled.json" \
  | head -n 1 | grep -o '[0-9.]*$')"
awk -v f="$frac" 'BEGIN { exit !(f > 0 && f < 0.5) }' \
  || { echo "sampled sweep fraction $frac not under 50%" >&2; exit 1; }
grep -q '"max_error_estimate":' "$obs_tmp/sp_sampled.json" \
  || { echo "sampled sweep is missing its error estimate" >&2; exit 1; }
cargo test -q -p mbp --test simpoint_accuracy

echo "== live telemetry gate (scrape /metrics + /snapshot from a serving sweep) =="
# A telemetry-serving sweep must answer /metrics with OpenMetrics text
# (TYPE lines, monotone cumulative histogram buckets) and /snapshot with
# the versioned JSON while its listener is live. Port 0 picks an ephemeral
# port; the binding is parsed from the greppable stderr line, and scraping
# rides bash's /dev/tcp so the gate needs no curl. --telemetry-hold-ms
# keeps the listener serving the final state long enough to scrape even
# if the smoke sweep itself finishes first.
scrape() { # scrape <port> <path> <outfile>
  exec 3<>"/dev/tcp/127.0.0.1/$1" &&
    printf 'GET %s HTTP/1.1\r\nHost: 127.0.0.1\r\nConnection: close\r\n\r\n' "$2" >&3 &&
    cat <&3 > "$3"
  local rc=$?
  exec 3<&- 3>&- 2>/dev/null || true
  return "$rc"
}
target/release/mbpsim sweep --predictors "$sp" \
  --trace "$obs_tmp/traces/SMOKE-mobile.sbbt.mzst" --jobs 2 --quiet \
  --telemetry-listen 127.0.0.1:0 --telemetry-hold-ms 3000 \
  > "$obs_tmp/tele_sweep.json" 2> "$obs_tmp/tele_stderr.txt" &
tele_pid=$!
port=""
for _ in $(seq 1 100); do
  port="$(grep -o 'telemetry listening on http://127\.0\.0\.1:[0-9]*' \
    "$obs_tmp/tele_stderr.txt" 2>/dev/null | grep -o '[0-9]*$' | head -n 1 || true)"
  [ -n "$port" ] && break
  sleep 0.05
done
if [ -z "$port" ]; then
  echo "telemetry listener address never appeared on stderr" >&2
  kill "$tele_pid" 2>/dev/null || true
  exit 1
fi
scrape "$port" /healthz "$obs_tmp/tele_health.txt" \
  || { echo "cannot scrape /healthz" >&2; exit 1; }
grep -q 'ok' "$obs_tmp/tele_health.txt" \
  || { echo "/healthz did not answer ok" >&2; exit 1; }
scrape "$port" /metrics "$obs_tmp/tele_metrics.txt" \
  || { echo "cannot scrape /metrics" >&2; exit 1; }
grep -q '^# TYPE mbp_sim_instructions counter' "$obs_tmp/tele_metrics.txt" \
  || { echo "/metrics is missing its TYPE lines" >&2; exit 1; }
grep -q '^mbp_sim_instructions_total [0-9]' "$obs_tmp/tele_metrics.txt" \
  || { echo "/metrics is missing the instruction counter" >&2; exit 1; }
grep '^mbp_sweep_predictor_us_bucket' "$obs_tmp/tele_metrics.txt" \
  | awk '{ v=$NF+0; if (v < prev) exit 1; prev=v } END { exit (NR == 0) }' \
  || { echo "histogram buckets are missing or not cumulative" >&2; exit 1; }
scrape "$port" /snapshot "$obs_tmp/tele_snapshot.json" \
  || { echo "cannot scrape /snapshot" >&2; exit 1; }
grep -q '"schema_version": 2' "$obs_tmp/tele_snapshot.json" \
  || { echo "/snapshot is missing its schema version" >&2; exit 1; }
grep -q '"predictors": \[' "$obs_tmp/tele_snapshot.json" \
  || { echo "/snapshot is missing the predictor board" >&2; exit 1; }
grep -q '"worst_branch":' "$obs_tmp/tele_snapshot.json" \
  || { echo "/snapshot rows are missing the worst_branch drill-down" >&2; exit 1; }
grep -q '^mbp_h2p_worst_branch_mispredictions' "$obs_tmp/tele_metrics.txt" \
  || { echo "/metrics is missing the mbp_h2p_* family" >&2; exit 1; }
target/release/mbpsim top "127.0.0.1:$port" --once > "$obs_tmp/tele_top.txt" \
  || { echo "mbpsim top could not attach" >&2; exit 1; }
grep -q '^mbpsim sweep | elapsed' "$obs_tmp/tele_top.txt" \
  || { echo "top dashboard header missing" >&2; exit 1; }
grep -q 'worst branch 0x' "$obs_tmp/tele_top.txt" \
  || { echo "top dashboard is missing the hot-branch drill-down row" >&2; exit 1; }
wait "$tele_pid" \
  || { echo "telemetry-serving sweep failed" >&2; exit 1; }
# Settled rows are the documents: a sampled sweep's settled /snapshot
# row must carry its leaderboard row's (reconstructed) MPKI. The sweep
# prints its document after the hold closes the listener, so the gate
# scrapes until every row has settled, then pairs rows with the document.
target/release/mbpsim sweep --predictors "$sp" \
  --trace "$obs_tmp/traces/SMOKE-mobile.sbbt.mzst" --jobs 2 --quiet \
  --phases "$obs_tmp/phases.json" \
  --telemetry-listen 127.0.0.1:0 --telemetry-hold-ms 3000 \
  > "$obs_tmp/tele_sampled.json" 2> "$obs_tmp/tele_sampled_stderr.txt" &
tele_pid=$!
port=""
for _ in $(seq 1 100); do
  port="$(grep -o 'telemetry listening on http://127\.0\.0\.1:[0-9]*' \
    "$obs_tmp/tele_sampled_stderr.txt" 2>/dev/null | grep -o '[0-9]*$' | head -n 1 || true)"
  [ -n "$port" ] && break
  sleep 0.05
done
[ -n "$port" ] \
  || { echo "sampled sweep's telemetry address never appeared" >&2; kill "$tele_pid" 2>/dev/null || true; exit 1; }
rows="$(echo "$sp" | tr ',' '\n' | wc -l)"
for _ in $(seq 1 200); do
  scrape "$port" /snapshot "$obs_tmp/tele_settled.json" 2>/dev/null || true
  settled="$(grep -c '"state": "settled"' "$obs_tmp/tele_settled.json" 2>/dev/null || true)"
  [ "${settled:-0}" -eq "$rows" ] && break
  sleep 0.05
done
wait "$tele_pid" \
  || { echo "telemetry-serving sampled sweep failed" >&2; exit 1; }
snapshot_rows() { # name, mpki and state of each /snapshot predictor row
  awk '/"name": "/ {gsub(/[",]/,"",$2); p=$2}
       /"state": "/ {gsub(/[",]/,"",$2); s=$2}
       /"mpki":/ {if (p!="") {gsub(/,/,"",$2); print p, $2, s; p=""}}' "$1"
}
paste <(mpki_of "$obs_tmp/tele_sampled.json" | sort) \
      <(snapshot_rows "$obs_tmp/tele_settled.json" | sort) \
  | awk -v rows="$rows" '{
      n++
      if ($1 != $3 || $2 != $4 || $5 != "settled") {
        printf "%s: leaderboard %s MPKI, /snapshot row %s %s MPKI (%s)\n", $1, $2, $3, $4, $5
        bad=1
      }
    } END { exit bad || n != rows }' \
  || { echo "settled /snapshot rows differ from the sampled sweep's document" >&2; exit 1; }

echo "== misprediction forensics gate (explain coverage + report stability) =="
# `mbpsim explain` on the smoke trace must produce a versioned forensic
# report whose top-10 hard-to-predict set explains at least the committed
# floor of all mispredictions (the smoke workload concentrates its miss
# mass: measured coverage is 1.0 for every stock predictor, so the floor
# is strict), must attribute mispredictions to a component for a composite
# predictor, must hash identically across two runs once wall-clock
# fields are stripped, and must reach `stats-diff` through --metrics-out.
target/release/mbpsim explain "$obs_tmp/traces/SMOKE-mobile.sbbt.mzst" \
  tournament --quiet > "$obs_tmp/explain_a.json" 2>/dev/null
target/release/mbpsim explain "$obs_tmp/traces/SMOKE-mobile.sbbt.mzst" \
  tournament --quiet > "$obs_tmp/explain_b.json" 2>/dev/null
grep -q '"schema_version": 2' "$obs_tmp/explain_a.json" \
  || { echo "forensic report is missing its schema version" >&2; exit 1; }
cov="$(grep -o '"fraction": *[0-9.]*' "$obs_tmp/explain_a.json" \
  | tail -n 1 | grep -o '[0-9.]*$')"
awk -v c="$cov" 'BEGIN { exit !(c >= 0.9) }' \
  || { echo "top-10 forensic coverage ${cov:-missing} under the committed 0.9 floor" >&2; exit 1; }
grep -Eq '"(chooser_wrong|both_wrong)":' "$obs_tmp/explain_a.json" \
  || { echo "tournament report carries no component attribution" >&2; exit 1; }
hash_a="$(canon "$obs_tmp/explain_a.json" | sha256sum | cut -d' ' -f1)"
hash_b="$(canon "$obs_tmp/explain_b.json" | sha256sum | cut -d' ' -f1)"
if [ "$hash_a" != "$hash_b" ]; then
  echo "forensic report hash unstable across identical runs" >&2
  diff <(canon "$obs_tmp/explain_a.json") <(canon "$obs_tmp/explain_b.json") >&2 || true
  exit 1
fi
# Two more identical runs, with metrics files: the forensic counts diff as
# unchanged; the loose threshold keeps wall-clock noise in the timing
# leaves from gating.
for run in a b; do
  target/release/mbpsim explain "$obs_tmp/traces/SMOKE-mobile.sbbt.mzst" \
    tournament --quiet --metrics-out "$obs_tmp/explain_$run.metrics.json" \
    > /dev/null 2>&1
done
target/release/mbpsim stats-diff "$obs_tmp/explain_a.metrics.json" \
  "$obs_tmp/explain_b.metrics.json" --threshold 5000 > "$obs_tmp/explain_diff.txt"
grep -q ' forensics\.' "$obs_tmp/explain_diff.txt" \
  || { echo "stats-diff skipped the forensics section" >&2; exit 1; }
# Forensics and introspection together: the only document with two
# top-level opt-in sections, so the only one whose order the section table
# decides (forensics first). Its metrics file must diff both sections, in
# that order, and `mbpsim report` must render both.
target/release/mbpsim explain "$obs_tmp/traces/SMOKE-mobile.sbbt.mzst" \
  tournament --quiet --introspect --window 10000 \
  --metrics-out "$obs_tmp/explain_intro.metrics.json" > /dev/null 2>&1
target/release/mbpsim stats-diff "$obs_tmp/explain_intro.metrics.json" \
  "$obs_tmp/explain_intro.metrics.json" > "$obs_tmp/explain_intro_diff.txt"
first_line() { # first_line <section> <file>
  grep -n -m1 " $1\." "$2" | cut -d: -f1
}
f_at="$(first_line forensics "$obs_tmp/explain_intro_diff.txt")"
i_at="$(first_line introspection "$obs_tmp/explain_intro_diff.txt")"
if [ -z "$f_at" ] || [ -z "$i_at" ] || [ "$f_at" -gt "$i_at" ]; then
  echo "stats-diff did not list forensics, then introspection (lines ${f_at:-none}, ${i_at:-none})" >&2
  exit 1
fi
target/release/mbpsim report "$obs_tmp/explain_intro.metrics.json" \
  --out "$obs_tmp/explain_intro.html" 2>/dev/null
for heading in "Misprediction forensics" "Predictor introspection"; do
  grep -q "<h2>$heading</h2>" "$obs_tmp/explain_intro.html" \
    || { echo "report is missing its $heading section" >&2; exit 1; }
done
cargo test -q -p mbp --test forensics

echo "== checksum drain (a flipped checksum fails runs that stop early) =="
# A compressed trace is inflated, checksummed and decoded in one pass, and
# a run that stops early drains the rest of it through the checksum, so a
# run, a comparison and an explain cut off after a thousand instructions,
# and a sweep, must all reject a smoke trace whose checksum trailer (its
# last eight bytes) has one bit flipped: exit 3, naming the mismatch. So
# must `info` and a translation to either format, and a translation of a
# compressed BT9 trace with a flipped trailer, which inflates it whole;
# a failed translation writes no output file.
flip_last_byte() { # flip_last_byte <file>
  local size last
  size="$(stat -c %s "$1")"
  last="$(tail -c 1 "$1" | od -An -tu1 | tr -d ' ')"
  printf "$(printf '\\%03o' $((last ^ 1)))" \
    | dd of="$1" bs=1 seek=$((size - 1)) conv=notrunc 2>/dev/null
}
flipped="$obs_tmp/flipped.sbbt.mzst"
cp "$obs_tmp/traces/SMOKE-mobile.sbbt.mzst" "$flipped"
flip_last_byte "$flipped"
flipped_bt9="$obs_tmp/flipped.bt9.mgz"
target/release/mbpsim translate --from "$obs_tmp/traces/SMOKE-mobile.sbbt.mzst" \
  --to "$flipped_bt9" >/dev/null
flip_last_byte "$flipped_bt9"
for cmd in "run --predictor gshare --max 1000 --trace $flipped" \
  "sweep --predictors gshare,bimodal --trace $flipped" \
  "compare --predictors gshare,bimodal --max 1000 --trace $flipped" \
  "explain --predictor gshare --max 1000 --trace $flipped" \
  "info --trace $flipped" \
  "translate --from $flipped --to $obs_tmp/x.sbbt" \
  "translate --from $flipped --to $obs_tmp/x.bt9" \
  "translate --from $flipped_bt9 --to $obs_tmp/y.sbbt"; do
  code=0
  # shellcheck disable=SC2086
  target/release/mbpsim $cmd >/dev/null 2>"$obs_tmp/flipped.err" || code=$?
  [ "$code" -eq 3 ] \
    || { echo "mbpsim $cmd on a flipped trailer exited $code, not 3" >&2; exit 1; }
  grep -q "content checksum mismatch" "$obs_tmp/flipped.err" \
    || { echo "mbpsim $cmd did not report the checksum mismatch" >&2; exit 1; }
done
for out in x.sbbt x.bt9 y.sbbt; do
  [ ! -e "$obs_tmp/$out" ] \
    || { echo "a failed translation left $out behind" >&2; exit 1; }
done

echo "== benchmark self-tests (mbpbench units, smoke runs, seed-1 digests) =="
# The benchmark's full-scale seed-1 digest pass pins every predictor's
# output on its workloads, so a change in predictor output fails here, not
# only when the benchmark next runs.
cargo test --offline -q --manifest-path mbpbench/Cargo.toml

echo "== bench guard (instrumented batch pipeline within 5% of baseline) =="
# MBP_BENCH_TELEMETRY=1 runs the guard beside a live but unscraped
# telemetry listener, so the 5% envelope also covers its standing cost.
MBP_BENCH_TELEMETRY=1 cargo run -q --release -p mbp-bench --bin bench_guard

echo "CI OK"
