//! Constructing a stock predictor writes none of its tables. Each table is
//! a zeroed allocation, so its pages cost nothing until a run touches
//! them; a constructor that fills a table makes every run pay for every
//! page of it, in set-up time and in resident memory, whether the run
//! touches it or not.
//!
//! The file holds one test, so no other test allocates or frees memory in
//! this process while it reads the resident set.

#![cfg(target_os = "linux")]

use mbp_predictors::{by_name, PREDICTOR_NAMES};

/// The process's resident set in KiB, from `/proc/self/status`.
fn resident_kib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is readable");
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmRSS:"))
        .and_then(|kib| kib.trim().strip_suffix("kB"))
        .and_then(|kib| kib.trim().parse().ok())
        .expect("a VmRSS line in kB")
}

#[test]
fn constructing_a_stock_predictor_touches_under_a_mebibyte() {
    // Every predictor stays alive to the end: freeing a large table raises
    // glibc's mmap threshold, and the next table would then come from the
    // heap, where a zeroed allocation is written.
    let mut alive = Vec::new();
    for name in PREDICTOR_NAMES {
        let before = resident_kib();
        alive.push(by_name(name).expect("a stock name"));
        let grown = resident_kib().saturating_sub(before);
        assert!(
            grown < 1024,
            "constructing {name} made {grown} KiB resident"
        );
    }
}
