//! Every bd-bench bin refuses a bad command line with exit status 2
//! before doing any work: an unknown flag, a missing value, a value that
//! does not parse, a flag where a value belongs, and for `table1` a timed
//! run combined with `--store` or `--trace-out`.

use std::process::{Command, Stdio};

fn status(exe: &str, argv: &[&str]) -> Option<i32> {
    Command::new(exe)
        .args(argv)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .expect("spawn bin")
        .code()
}

#[test]
fn every_bin_exits_2_on_a_bad_command_line() {
    let cases: &[(&str, &[&str])] = &[
        (env!("CARGO_BIN_EXE_table1"), &["--quikc"]),
        (
            env!("CARGO_BIN_EXE_table1"),
            &["--quick", "--min-ratio", "0.25"],
        ),
        (env!("CARGO_BIN_EXE_series"), &["--store", "--quick"]),
        (env!("CARGO_BIN_EXE_fuzz"), &["--case", "3"]),
        (env!("CARGO_BIN_EXE_fuzz"), &["--cases"]),
        (env!("CARGO_BIN_EXE_dynamic"), &["--n", "ten"]),
        (env!("CARGO_BIN_EXE_profile"), &["--quick", "extra"]),
        (env!("CARGO_BIN_EXE_chaos"), &["--quick", "--cycles", "abc"]),
        (
            env!("CARGO_BIN_EXE_load"),
            &["--quick", "--addr", "nowhere"],
        ),
        (
            env!("CARGO_BIN_EXE_load"),
            &["--quick", "--concurrency", "0"],
        ),
        (
            env!("CARGO_BIN_EXE_table1"),
            &["--quick", "--bench-out", "b.json", "--store", "dir"],
        ),
        (
            env!("CARGO_BIN_EXE_table1"),
            &[
                "--quick",
                "--gate",
                "BENCH_table1.json",
                "--trace-out",
                "t.jsonl",
            ],
        ),
    ];
    for (exe, argv) in cases {
        assert_eq!(status(exe, argv), Some(2), "{exe} {argv:?}");
    }
}

#[test]
fn an_unreadable_gate_baseline_exits_2_before_the_run() {
    let missing = "/nonexistent/bd-bench-baseline.json";
    for exe in [env!("CARGO_BIN_EXE_table1"), env!("CARGO_BIN_EXE_load")] {
        assert_eq!(
            status(exe, &["--quick", "--gate", missing]),
            Some(2),
            "{exe}"
        );
    }
}
