//! End-to-end tests of the `mbpsim` command-line tool.

use std::path::PathBuf;
use std::process::Command;

fn mbpsim() -> Command {
    Command::new(env!("CARGO_BIN_EXE_mbpsim"))
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("mbplib-cli-tests").join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

#[test]
fn list_names_every_stock_predictor() {
    let out = mbpsim().arg("list").output().expect("spawn");
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).expect("utf8");
    for name in mbp::examples::PREDICTOR_NAMES {
        assert!(stdout.lines().any(|l| l == name), "missing {name}");
    }
}

#[test]
fn gen_run_info_pipeline() {
    let dir = temp_dir("pipeline");
    let out = mbpsim()
        .args(["gen", "--suite", "smoke", "--out"])
        .arg(&dir)
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let trace = dir.join("SMOKE-mobile.sbbt.mzst");
    assert!(trace.exists());

    let out = mbpsim()
        .args(["info", "--trace"])
        .arg(&trace)
        .output()
        .expect("spawn");
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).expect("utf8");
    assert!(stdout.contains("branch density"), "{stdout}");

    let out = mbpsim()
        .args(["run", "--predictor", "gshare", "--trace"])
        .arg(&trace)
        .args(["--warmup", "1000"])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let doc: mbp::json::Value = String::from_utf8(out.stdout)
        .expect("utf8")
        .parse()
        .expect("run output is valid JSON");
    assert_eq!(doc["metadata"]["warmup_instr"].as_u64(), Some(1000));
    assert!(doc["metrics"]["mpki"].as_f64().is_some());
}

#[test]
fn explain_emits_versioned_forensic_report() {
    let dir = temp_dir("explain");
    assert!(mbpsim()
        .args(["gen", "--suite", "smoke", "--out"])
        .arg(&dir)
        .status()
        .expect("spawn")
        .success());
    let trace = dir.join("SMOKE-mobile.sbbt.mzst");

    let out = mbpsim()
        .arg("explain")
        .arg(&trace)
        .args(["tournament", "--top", "5"])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let doc: mbp::json::Value = String::from_utf8(out.stdout)
        .expect("utf8")
        .parse()
        .expect("json");
    let forensics = doc.get("forensics").expect("forensics section");
    assert_eq!(
        forensics["schema_version"].as_u64(),
        Some(mbp::sim::FORENSICS_SCHEMA_VERSION)
    );
    let top = forensics["top"].as_array().expect("top array");
    assert!(!top.is_empty() && top.len() <= 5, "top-K honored");
    assert!(
        top[0]["attribution"].as_object().is_some(),
        "tournament attributes its mispredictions"
    );
    let coverage = forensics["coverage"].as_array().expect("coverage curve");
    assert_eq!(coverage.len(), top.len());

    // Unknown predictor stays a usage error on the explain path too.
    let out = mbpsim()
        .arg("explain")
        .arg(&trace)
        .arg("frobnicator")
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn explain_writes_the_timeseries_csv() {
    let dir = temp_dir("explain-timeseries");
    assert!(mbpsim()
        .args(["gen", "--suite", "smoke", "--out"])
        .arg(&dir)
        .status()
        .expect("spawn")
        .success());
    let csv = dir.join("explain_ts.csv");
    let out = mbpsim()
        .arg("explain")
        .arg(dir.join("SMOKE-mobile.sbbt.mzst"))
        .args(["gshare", "--quiet", "--window", "10000", "--timeseries-out"])
        .arg(&csv)
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let doc: mbp::json::Value = String::from_utf8(out.stdout)
        .expect("utf8")
        .parse()
        .expect("json");
    let windows = doc["metrics"]["timeseries"]["num_windows"]
        .as_u64()
        .expect("metrics.timeseries");
    let text = std::fs::read_to_string(&csv).expect("explain wrote the CSV");
    assert!(text.starts_with("window,start_instruction,"), "{text}");
    assert_eq!(
        text.lines().count() as u64,
        windows + 1,
        "one row per window below the header"
    );
}

/// A zero time-series window is a usage error, as it is for `simpoint`:
/// without the check a run wrote one window per branch record.
#[test]
fn a_zero_window_exits_2_for_every_time_series_command() {
    let dir = temp_dir("zero-window");
    assert!(mbpsim()
        .args(["gen", "--suite", "smoke", "--out"])
        .arg(&dir)
        .status()
        .expect("spawn")
        .success());
    let path = dir.join("SMOKE-server.sbbt.mzst");
    let trace = path.to_str().expect("utf8 path");
    for command in [
        ["run", "--predictor", "gshare"],
        ["explain", "--predictor", "gshare"],
        ["sweep", "--predictors", "gshare,tage"],
    ] {
        for csv in [&[][..], &["--timeseries-out", "ts.csv"]] {
            let out = mbpsim()
                .args(command)
                .args(["--trace", trace, "--window", "0"])
                .args(csv)
                .current_dir(&dir)
                .output()
                .expect("spawn");
            assert_eq!(out.status.code(), Some(2), "{command:?} {csv:?}");
            assert!(out.stdout.is_empty(), "{command:?} {csv:?}");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(
                stderr.contains("--window must be a positive instruction count"),
                "{stderr}"
            );
            assert!(!dir.join("ts.csv").exists(), "{command:?} wrote the CSV");
        }
    }
}

#[test]
fn translate_roundtrip_through_bt9() {
    let dir = temp_dir("translate");
    assert!(mbpsim()
        .args(["gen", "--suite", "smoke", "--out"])
        .arg(&dir)
        .status()
        .expect("spawn")
        .success());
    let sbbt = dir.join("SMOKE-mobile.sbbt.mzst");
    let bt9 = dir.join("mobile.bt9.mgz");
    let back = dir.join("mobile-back.sbbt");

    assert!(mbpsim()
        .args(["translate", "--from"])
        .arg(&sbbt)
        .arg("--to")
        .arg(&bt9)
        .status()
        .expect("spawn")
        .success());
    assert!(mbpsim()
        .args(["translate", "--from"])
        .arg(&bt9)
        .arg("--to")
        .arg(&back)
        .status()
        .expect("spawn")
        .success());

    // The double translation preserves the branch stream exactly.
    let original = mbp::trace::sbbt::SbbtReader::open(&sbbt)
        .expect("open")
        .read_all()
        .expect("read");
    let roundtripped = mbp::trace::sbbt::SbbtReader::open(&back)
        .expect("open")
        .read_all()
        .expect("read");
    assert_eq!(original, roundtripped);
}

#[test]
fn compare_emits_comparison_json() {
    let dir = temp_dir("compare");
    assert!(mbpsim()
        .args(["gen", "--suite", "smoke", "--out"])
        .arg(&dir)
        .status()
        .expect("spawn")
        .success());
    let trace = dir.join("SMOKE-server.sbbt.mzst");
    let out = mbpsim()
        .args(["compare", "--predictors", "bimodal,gshare", "--trace"])
        .arg(&trace)
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let doc: mbp::json::Value = String::from_utf8(out.stdout)
        .expect("utf8")
        .parse()
        .expect("valid JSON");
    assert!(doc["metrics"]["mpki_0"].as_f64().is_some());
    assert!(doc["metrics"]["mpki_1"].as_f64().is_some());
    // Like run, explain and sweep, compare names the trace it was given.
    assert_eq!(doc["metadata"]["trace"].as_str(), trace.to_str());
}

#[test]
fn helpful_errors_for_bad_input() {
    let out = mbpsim()
        .args([
            "run",
            "--predictor",
            "nonexistent",
            "--trace",
            "/does/not/matter",
        ])
        .output()
        .expect("spawn");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown predictor"), "{stderr}");

    let out = mbpsim().arg("frobnicate").output().expect("spawn");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));

    let out = mbpsim()
        .args(["run", "--predictor", "gshare"])
        .output()
        .expect("spawn");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("missing --trace"));
}

/// `mbpsim help`, parsed: its text, the commands it lists, and each flag
/// row's flag with the commands that take it.
struct Help {
    text: String,
    commands: Vec<String>,
    flags: Vec<(String, Vec<String>)>,
}

impl Help {
    fn new() -> Self {
        let out = mbpsim().arg("help").output().expect("spawn");
        assert!(out.status.success());
        let text = String::from_utf8(out.stdout).expect("utf8");
        let commands = (text.lines())
            .filter_map(|line| line.strip_prefix("  mbpsim "))
            .map(|line| line.split_whitespace().next().expect("name").to_string())
            .collect();
        // `  --flag [<value>]   command, command, ...`
        let flags = (text.lines())
            .filter(|line| line.starts_with("  --"))
            .map(|line| {
                let mut words = line.split_whitespace().peekable();
                let flag = words.next().expect("flag").to_string();
                words.next_if(|w| w.starts_with('<'));
                let rest = words.collect::<Vec<_>>().join(" ");
                (flag, rest.split(", ").map(str::to_string).collect())
            })
            .collect();
        Help {
            text,
            commands,
            flags,
        }
    }

    /// The commands that take `flag`, over all of its rows, sorted.
    fn commands_of(&self, flag: &str) -> Vec<&str> {
        let rows = self.flags.iter().filter(|(f, _)| f == flag);
        let mut commands: Vec<&str> = rows.flat_map(|(_, c)| c).map(String::as_str).collect();
        commands.sort();
        commands
    }
}

/// Each of these exits 2 before any work, so a mistyped, foreign, repeated
/// or valueless flag, or a stray operand, is never silently ignored.
#[test]
fn usage_errors_exit_with_code_2() {
    let dir = temp_dir("usage-errors");
    assert!(mbpsim()
        .args(["gen", "--suite", "smoke", "--out"])
        .arg(&dir)
        .status()
        .expect("spawn")
        .success());
    let path = dir.join("SMOKE-server.sbbt.mzst");
    let trace = path.to_str().expect("utf8 path");
    let run = ["run", "--predictor", "gshare", "--trace", trace];
    let compare = ["compare", "--predictors", "gshare,tage", "--trace", trace];
    for argv in [
        vec!["frobnicate"],
        vec!["run", "--predictor", "nonexistent", "--trace", "/x"],
        vec!["run", "--predictor", "gshare"],
        vec!["gen", "--suite", "bogus", "--out", "/tmp"],
        [&run[..], &["--warmpu", "500000"]].concat(),
        [&compare[..], &["--timeseries-out", "c.csv"]].concat(),
        [&run[..], &["--max"]].concat(),
        [&run[..], &["--out", "x.json"]].concat(),
        [&run[..], &["--warmup", "5", "--warmup", "10"]].concat(),
        vec!["sweep", "--predictors", "gshare,", "tage", "--trace", trace],
        vec!["info", "--trace", trace, "--introspect"],
        vec!["simpoint", "--trace", trace, "--jobs", "3"],
        vec![
            "explain",
            trace,
            "gshare",
            "--trace",
            "/nonexistent",
            "--predictor",
            "tage",
        ],
        [&run[..], &["--sample-every", "abc"]].concat(),
        [&run[..], &["--telemetry-hold-ms", "xyz"]].concat(),
    ] {
        let out = mbpsim()
            .args(&argv)
            .current_dir(&dir)
            .output()
            .expect("spawn");
        assert_eq!(out.status.code(), Some(2), "{argv:?}");
        assert!(out.stdout.is_empty(), "{argv:?}");
    }
    assert!(!dir.join("c.csv").exists() && !dir.join("x.json").exists());
}

/// Every command `mbpsim help` lists refuses an unknown flag and a flag
/// only other commands take, with the usage text on stderr.
#[test]
fn every_command_refuses_a_flag_it_does_not_take() {
    let help = Help::new();
    assert!(help.commands.len() >= 14, "{}", help.text);
    for command in &help.commands {
        let (foreign, _) = (help.flags.iter())
            .find(|(flag, _)| !help.commands_of(flag).contains(&command.as_str()))
            .expect("a flag another command takes");
        for flag in ["--frobnicate", foreign] {
            let out = mbpsim().args([command, flag]).output().expect("spawn");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(2), "{command} {flag}: {stderr}");
            assert!(stderr.contains(flag), "{command} {flag}: {stderr}");
            assert!(
                stderr.contains(help.text.trim_end()),
                "{command} {flag}: {stderr}"
            );
        }
    }
}

/// The README agrees with the flag table `mbpsim help` renders: each
/// `mbpsim <command>` line in its code blocks (with its `\` continuation
/// lines) uses only flags that command takes, and each flag row of its
/// "Applies to" table names exactly the commands that take the flag.
#[test]
fn readme_flags_match_mbpsim_help() {
    let help = Help::new();
    let readme = include_str!("../README.md");
    let mut invocations = Vec::new();
    let (mut in_code, mut line) = (false, String::new());
    for text in readme.lines() {
        if text.starts_with("```") {
            in_code = !in_code;
            continue;
        }
        let code = text.split('#').next().unwrap_or_default().trim_end();
        if in_code {
            line = format!("{line} {}", code.trim_end_matches('\\'));
            if !code.ends_with('\\') {
                invocations.push(std::mem::take(&mut line));
            }
        }
    }
    let mut checked = 0;
    for line in &invocations {
        let words: Vec<&str> = line.split_whitespace().collect();
        let Some(at) = words.iter().position(|&w| w == "mbpsim") else {
            continue;
        };
        let mut rest = words[at + 1..].iter().filter(|&&w| w != "--");
        let Some(command) = rest
            .next()
            .filter(|c| help.commands.contains(&c.to_string()))
        else {
            continue;
        };
        for flag in rest.filter(|w| w.starts_with("--")) {
            let takers = help.commands_of(flag);
            assert!(
                takers.contains(command),
                "README: `{line}`: {command} takes no {flag}"
            );
        }
        checked += 1;
    }
    assert!(checked >= 15, "only {checked} README invocations found");

    let table = readme
        .split_once("| Applies to |")
        .expect("README has an Applies-to table")
        .1;
    let mut rows = 0;
    for row in table.lines().skip(2).take_while(|l| l.starts_with('|')) {
        let cells: Vec<&str> = row.split('|').map(str::trim).collect();
        let Some(flag) = cells[1].trim_matches('`').split_whitespace().next() else {
            continue;
        };
        if !flag.starts_with("--") {
            continue;
        }
        let mut named: Vec<&str> = cells[2].split(',').map(str::trim).collect();
        named.sort();
        assert_eq!(named, help.commands_of(flag), "README row: {row}");
        rows += 1;
    }
    assert_eq!(rows, 2, "the telemetry flag rows");
}

#[test]
fn corrupt_trace_exits_3_with_one_line_error() {
    let dir = temp_dir("corrupt");
    let trace = dir.join("bad.sbbt");
    // A valid signature followed by a header declaring u64::MAX branches.
    let mut bytes = b"SBBT\n\x01\x00\x00".to_vec();
    bytes.extend_from_slice(&u64::MAX.to_le_bytes());
    bytes.extend_from_slice(&u64::MAX.to_le_bytes());
    std::fs::write(&trace, bytes).expect("write");

    for cmd in ["run", "info"] {
        let mut invocation = mbpsim();
        invocation.arg(cmd);
        if cmd == "run" {
            invocation.args(["--predictor", "gshare"]);
        }
        let out = invocation
            .arg("--trace")
            .arg(&trace)
            .output()
            .expect("spawn");
        assert_eq!(out.status.code(), Some(3), "{cmd}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        // One structured line, not a panic backtrace.
        assert_eq!(stderr.lines().count(), 1, "{cmd}: {stderr}");
        assert!(stderr.starts_with("mbpsim: "), "{cmd}: {stderr}");
        assert!(!stderr.contains("panicked at"), "{cmd}: {stderr}");
        assert!(!stderr.contains("RUST_BACKTRACE"), "{cmd}: {stderr}");
    }
}

#[test]
fn truncated_compressed_trace_exits_3() {
    let dir = temp_dir("truncated");
    assert!(mbpsim()
        .args(["gen", "--suite", "smoke", "--out"])
        .arg(&dir)
        .status()
        .expect("spawn")
        .success());
    let path = dir.join("SMOKE-mobile.sbbt.mzst");
    let mut bytes = std::fs::read(&path).expect("read");
    bytes.truncate(bytes.len() / 2);
    std::fs::write(&path, bytes).expect("write");

    let out = mbpsim()
        .args(["info", "--trace"])
        .arg(&path)
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(3));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked at"), "{stderr}");
}

/// A run that stops after the first thousand instructions still checks
/// the whole file: the rest of a compressed trace is drained through the
/// content checksum before anything is printed.
#[test]
fn checksum_mismatch_exits_3_even_when_the_run_stops_early() {
    let dir = temp_dir("checksum-trailer");
    assert!(mbpsim()
        .args(["gen", "--suite", "smoke", "--out"])
        .arg(&dir)
        .status()
        .expect("spawn")
        .success());
    let path = dir.join("SMOKE-mobile.sbbt.mzst");
    let mut bytes = std::fs::read(&path).expect("read");
    // The trailer is the file's last eight bytes.
    let last = bytes.len() - 1;
    bytes[last] ^= 0x01;
    std::fs::write(&path, bytes).expect("write");

    let run = ["run", "--predictor", "gshare", "--max", "1000", "--trace"];
    let sweep = ["sweep", "--predictors", "gshare,bimodal", "--trace"];
    for args in [&run[..], &sweep[..]] {
        let out = mbpsim().args(args).arg(&path).output().expect("spawn");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(3), "{args:?}: {stderr}");
        assert!(
            stderr.contains("content checksum mismatch"),
            "{args:?}: {stderr}"
        );
        assert!(!stderr.contains("panicked at"), "{args:?}: {stderr}");
        assert!(
            out.stdout.is_empty(),
            "{args:?}: no document on a bad trace"
        );
    }
}

/// Every command that stops before the end of a compressed trace still
/// checks the rest of it: a comparison and an explain cut off after a
/// thousand instructions, and a resumed sweep whose checkpoint already
/// settles every predictor, all reject a trace whose checksum trailer has
/// one bit flipped before printing anything, and the resume leaves its
/// checkpoint as it was.
#[test]
fn corrupt_trailer_fails_every_early_stop() {
    let dir = temp_dir("trailer-early-stops");
    assert!(mbpsim()
        .args(["gen", "--suite", "smoke", "--out"])
        .arg(&dir)
        .status()
        .expect("spawn")
        .success());
    let path = dir.join("SMOKE-mobile.sbbt.mzst");
    let checkpoint = dir.join("sweep.ckpt.jsonl");
    let sweep = |extra: &[&str]| {
        let mut cmd = mbpsim();
        cmd.args(["sweep", "--predictors", "gshare,bimodal", "--quiet"])
            .args(extra)
            .arg("--checkpoint")
            .arg(&checkpoint)
            .arg("--trace")
            .arg(&path);
        cmd
    };
    let out = sweep(&[]).output().expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let settled = std::fs::read(&checkpoint).expect("checkpoint written");
    let mut bytes = std::fs::read(&path).expect("read");
    let last = bytes.len() - 1;
    bytes[last] ^= 0x01;
    std::fs::write(&path, bytes).expect("write");

    let mut compare = mbpsim();
    compare
        .args(["compare", "--predictors", "gshare,bimodal", "--max", "1000"])
        .arg("--trace")
        .arg(&path);
    let mut explain = mbpsim();
    explain
        .args(["explain", "--predictor", "gshare", "--max", "1000"])
        .arg("--trace")
        .arg(&path);
    for (what, mut cmd) in [
        ("compare", compare),
        ("explain", explain),
        ("resume", sweep(&["--resume"])),
    ] {
        let out = cmd.output().expect("spawn");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(3), "{what}: {stderr}");
        assert!(
            stderr.contains("content checksum mismatch"),
            "{what}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{what}: no document on a bad trace");
    }
    assert_eq!(
        std::fs::read(&checkpoint).expect("checkpoint kept"),
        settled,
        "the failed resume left the checkpoint as it was"
    );
}

/// A run inflates its compressed trace once: as many bytes as the reader
/// walks. A run cut off after a thousand instructions inflates as much,
/// the rest through the checksum, but decodes fewer packets than the trace
/// holds.
#[test]
fn a_run_inflates_its_trace_once_even_when_it_stops_early() {
    let dir = temp_dir("one-inflate");
    assert!(mbpsim()
        .args(["gen", "--suite", "smoke", "--out"])
        .arg(&dir)
        .status()
        .expect("spawn")
        .success());
    let path = dir.join("SMOKE-mobile.sbbt.mzst");
    let branches = mbp::trace::sbbt::SbbtReader::open(&path)
        .expect("open")
        .header()
        .branch_count;
    let metrics = dir.join("metrics.json");
    for max in [None, Some("1000")] {
        let mut cmd = mbpsim();
        cmd.args(["run", "--predictor", "gshare", "--quiet", "--trace"])
            .arg(&path)
            .arg("--metrics-out")
            .arg(&metrics);
        if let Some(max) = max {
            cmd.args(["--max", max]);
        }
        let out = cmd.output().expect("spawn");
        assert!(
            out.status.success(),
            "{max:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let doc: mbp::json::Value = std::fs::read_to_string(&metrics)
            .expect("metrics written")
            .parse()
            .expect("valid JSON");
        let counter = |section: &str, key: &str| {
            doc[section][key]
                .as_u64()
                .unwrap_or_else(|| panic!("{max:?}: no {section}.{key}"))
        };
        let read = counter("decode", "bytes_read");
        assert_eq!(read, 24 + 16 * branches, "{max:?}");
        assert_eq!(counter("compress", "inflated_bytes"), read, "{max:?}");
        let decoded = counter("decode", "packets_decoded");
        match max {
            None => assert_eq!(decoded, branches),
            Some(_) => assert!(decoded < branches, "decoded {decoded} of {branches}"),
        }
    }
}

#[test]
fn sweep_with_faulty_predictor_exits_4_and_reports_failure() {
    let dir = temp_dir("faulty-sweep");
    assert!(mbpsim()
        .args(["gen", "--suite", "smoke", "--out"])
        .arg(&dir)
        .status()
        .expect("spawn")
        .success());
    let out = mbpsim()
        .args(["sweep", "--predictors", "bimodal,faulty,gshare", "--trace"])
        .arg(dir.join("SMOKE-mobile.sbbt.mzst"))
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(4));

    // The JSON document is complete: survivors ranked, the failure listed.
    let doc: mbp::json::Value = String::from_utf8(out.stdout)
        .expect("utf8")
        .parse()
        .expect("sweep output is valid JSON");
    assert_eq!(doc["metadata"]["num_predictors"].as_u64(), Some(3));
    assert_eq!(doc["metadata"]["num_failures"].as_u64(), Some(1));
    assert_eq!(doc["failures"][0]["predictor"].as_str(), Some("faulty"));
    assert_eq!(doc["failures"][0]["kind"].as_str(), Some("panic"));
    let leaderboard: Vec<&str> = (0..2)
        .map(|i| doc["leaderboard"][i]["predictor"].as_str().expect("name"))
        .collect();
    assert!(leaderboard.contains(&"bimodal"), "{leaderboard:?}");
    assert!(leaderboard.contains(&"gshare"), "{leaderboard:?}");

    // The failure is also summarized on stderr, without a backtrace.
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("\"faulty\" failed (panic)"), "{stderr}");
    assert!(!stderr.contains("RUST_BACKTRACE"), "{stderr}");
}

/// `validate-trace` reads an untrusted document: one without a
/// `traceEvents` array fails with one line and exit 1, never a panic, and
/// one without `otherData` validates with no dropped events.
#[test]
fn validate_trace_rejects_documents_that_are_not_traces() {
    let dir = temp_dir("validate-trace");
    for (name, text, code) in [
        ("object.json", r#"{"foo": 1}"#, 1),
        ("array.json", "[1,2]", 1),
        ("bare.json", r#"{"traceEvents": []}"#, 0),
    ] {
        let path = dir.join(name);
        std::fs::write(&path, text).expect("write");
        let out = mbpsim()
            .arg("validate-trace")
            .arg(&path)
            .output()
            .expect("spawn");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(code), "{name}: {stderr}");
        if code == 0 {
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(
                stdout.contains("0 events across 0 threads (0 dropped"),
                "{name}: {stdout}"
            );
        } else {
            assert_eq!(stderr.lines().count(), 1, "{name}: {stderr}");
            assert!(
                stderr.contains("missing traceEvents array"),
                "{name}: {stderr}"
            );
        }
    }
}

/// A timeline whose span end has lost its begin, as a journal that dropped
/// its oldest events leaves one, fails with one line and exit 1.
#[test]
fn validate_trace_rejects_a_span_end_without_its_begin() {
    let dir = temp_dir("validate-trace-spans");
    let path = dir.join("unpaired.json");
    let trace = r#"{"traceEvents": [
        {"name": "sim.simulate", "ph": "E", "ts": 1.0, "pid": 1, "tid": 1}
    ], "otherData": {"dropped_events": 287}}"#;
    std::fs::write(&path, trace).expect("write");
    let out = mbpsim()
        .arg("validate-trace")
        .arg(&path)
        .output()
        .expect("spawn");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert_eq!(stderr.lines().count(), 1, "{stderr}");
    assert!(
        stderr.contains(r#"end of span "sim.simulate" on tid 1 closes no open begin"#)
            && stderr.contains("dropped 287 events"),
        "{stderr}"
    );
}
