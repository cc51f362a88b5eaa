//! Differential oracle fuzzing from the command line.
//!
//! Draws random scenario cells — algorithm × adversary × graph family ×
//! sizes × seeds — and runs each on both the arena-backed fast engine and
//! the deliberately naive `bd-oracle` reference engine, asserting
//! full-trajectory equality. On a divergence the case is greedily
//! minimized and printed with the round of first mismatch; the process
//! exits 1 so CI can gate on it.
//!
//! `--broken` injects a known fault (fast-forward overshoots its idle
//! horizon by one round) into the fast engine — the way to demonstrate the
//! harness has teeth: a run with `--broken` is *expected* to exit 1.
//!
//! `--trace-out FILE` switches span recording on and exports the fuzzed
//! cells as a Chrome trace-event JSONL file (cell → phase tree).
//!
//! After the static pass, a **dynamic pass** samples event-scheduled
//! worlds (robot churn, edge failure/heal, adversary switches) on top of
//! the same case space and checks whole epoch sequences against the
//! event-aware oracle; `--static-only` / `--dynamic-only` select one pass.
//!
//! Usage:
//!   cargo run --release -p bd-bench --bin fuzz -- \
//!     [--cases N] [--seed S] [--max-n N] [--budget-secs T] [--broken] \
//!     [--trace-out FILE] [--static-only] [--dynamic-only]

use bd_bench::cli::{self, Flag};
use bd_bench::TraceOut;
use bd_oracle::{run_dynamic_fuzz_with, run_fuzz_with, FuzzConfig};
use std::time::Duration;

const FLAGS: &[Flag] = &[
    Flag::value::<usize>("--cases", "N"),
    Flag::value::<u64>("--seed", "S"),
    Flag::value::<usize>("--max-n", "N"),
    Flag::value::<u64>("--budget-secs", "T"),
    Flag::switch("--broken"),
    cli::TRACE_OUT,
    Flag::switch("--static-only"),
    Flag::switch("--dynamic-only"),
];

fn main() {
    let args = cli::parse_env("fuzz", FLAGS);
    let mut config = FuzzConfig::default();
    if let Some(cases) = args.get("--cases") {
        config.cases = cases;
    }
    if let Some(seed) = args.get("--seed") {
        config.seed = seed;
    }
    if let Some(max_n) = args.get("--max-n") {
        config.max_n = max_n;
    }
    if let Some(secs) = args.get("--budget-secs") {
        config.time_budget = Some(Duration::from_secs(secs));
    }
    let broken = args.has("--broken");
    let static_pass = !args.has("--dynamic-only");
    let dynamic_pass = !args.has("--static-only");
    let trace = TraceOut::from_args(&args);

    println!(
        "differential fuzz: {} cases, seed {:#x}, n <= {}, budget {:?}{}",
        config.cases,
        config.seed,
        config.max_n,
        config.time_budget,
        if broken {
            " [BROKEN fast engine: ff overshoot +1]"
        } else {
            ""
        }
    );

    let mut failed = false;
    if static_pass {
        let report = run_fuzz_with(&config, |c| if broken { c.with_ff_overshoot(1) } else { c });
        println!(
            "static pass: checked {} cells: {} full-trajectory matches, {} identical-error \
             agreements",
            report.cases_run, report.matched, report.match_err
        );
        match report.failure {
            None => {
                println!("no divergence: the fast path is trajectory-equivalent to the oracle")
            }
            Some(failure) => {
                println!("{failure}");
                failed = true;
            }
        }
    }

    if dynamic_pass && !failed {
        // Dynamic cells run whole epoch sequences on both engines, so a
        // quarter of the static case count keeps the pass comparable in
        // wall-clock terms.
        let mut dyn_config = config.clone();
        dyn_config.cases = (config.cases / 4).max(5);
        let report =
            run_dynamic_fuzz_with(
                &dyn_config,
                |c| if broken { c.with_ff_overshoot(1) } else { c },
            );
        println!(
            "dynamic pass: checked {} event-scheduled cells ({} draws discarded): {} matches, \
             {} identical-error agreements",
            report.cases_run, report.discarded, report.matched, report.match_err
        );
        match report.failure {
            None => {
                println!("no divergence: epoch sequences are trajectory-equivalent across engines")
            }
            Some(failure) => {
                println!("{failure}");
                failed = true;
            }
        }
    }

    if let Some(trace) = trace {
        trace.finish();
    }
    if failed {
        std::process::exit(1);
    }
}
