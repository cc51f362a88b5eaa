//! Regenerate the paper's Table 1 empirically.
//!
//! For each of the seven rows: run the algorithm at its maximum Byzantine
//! tolerance in its starting configuration across a range of `n`, report
//! the measured rounds, the fitted growth exponent, and whether every run
//! dispersed; print the paper's claimed columns next to the measured ones.
//! The paper columns (theorem, running time, start, tolerance, strong) are
//! read off each row's `TableRow` registry descriptor — this binary holds
//! only the sweep sizes and adversary choices. Finishes with the Theorem 8
//! impossibility boundary check.
//!
//! With `--store DIR`, results read and write a content-addressed
//! [`bd_service::ResultStore`]: a second identical invocation replays the
//! whole table from the journal with zero rounds simulated (the closing
//! cache summary says exactly how much was served vs simulated).
//!
//! With `--trace-out FILE`, span recording is switched on and the whole
//! sweep is exported as a Chrome trace-event JSONL file (batch → cell →
//! phase tree; wrap with `jq -s .` for trace viewers).
//!
//! **Throughput benchmark.** Each row runs as its own timed batch, so the
//! same run also measures the perf trajectory. With `--bench-out PATH` it
//! prints a per-row timing table and writes `BENCH_table1.json`'s
//! document: per-row wall-clock milliseconds, simulated rounds, stepped
//! rounds and rounds-per-second throughput, plus sweep totals. Record
//! before/after numbers whenever a change touches the engine hot path.
//! `rounds_per_sec` divides *simulated* rounds by wall time, and simulated
//! rounds include the ones fast-forward jumped (idle stretches and route
//! jumps along precomputed walks). A row whose rounds stop being stepped
//! therefore shows a higher `rounds_per_sec` without stepping getting any
//! faster; `stepped_rounds` (`sim_rounds − rounds_skipped`) is the work
//! the engine actually did, so read the two together. Measured rounds
//! come from the row timelines, so two runs differ only in wall-clock.
//!
//! With `--gate BASELINE.json`, each row's rounds-per-second is compared
//! with the baseline's (a previous `--bench-out`) and the run exits 1 if
//! any row falls below [`bd_bench::gate::MIN_RATIO`] × baseline. The
//! baseline is read before the run starts. `--bench-out` and `--gate`
//! refuse `--store` and `--trace-out` (exit 2): timing store hits or a
//! traced run does not measure the engine.
//!
//! Usage: `cargo run --release -p bd-bench --bin table1 [--quick] [--store DIR]
//! [--trace-out FILE] [--bench-out PATH] [--gate BASELINE.json]`

use bd_bench::cli::{self, Flag};
use bd_bench::gate::{self, Baseline};
use bd_bench::{
    mean_cost_estimate, mean_elapsed_micros, mean_rounds, open_store, success_rate, table1_batch,
    Table1Row, TraceOut,
};
use bd_dispersion::impossibility::replay_experiment;
use bd_exploration::cost::fit_exponent;
use bd_graphs::generators::erdos_renyi_connected;

const FLAGS: &[Flag] = &[
    Flag::switch("--quick"),
    cli::STORE,
    cli::TRACE_OUT,
    Flag::value::<String>("--bench-out", "PATH"),
    Flag::value::<String>("--gate", "BASELINE"),
];

/// Reject a timed run (`--bench-out`, `--gate`) that would time store
/// hits or tracing instead of the engine.
fn check_timed(args: &cli::Args) -> Result<(), String> {
    let timed = args.has("--bench-out") || args.has("--gate");
    if timed && (args.has("--store") || args.has("--trace-out")) {
        return Err("--bench-out and --gate time the engine: drop --store and --trace-out".into());
    }
    Ok(())
}

/// Print the per-row timing table and build the `BENCH_table1.json`
/// document.
fn bench_doc(quick: bool, reps: u64, rows: &[Table1Row], wall_ms: f64) -> serde_json::Value {
    let per_sec = |rounds: u64, ms: f64| rounds as f64 / (ms / 1e3).max(1e-9);
    let line = |name: &str, ms: f64, rounds: u64, stepped: u64| {
        let rps = per_sec(rounds, ms);
        println!("{name:<20} {ms:>12.1} {rounds:>14} {stepped:>14} {rps:>14.0}");
    };
    println!("\nrow                       wall ms     sim rounds        stepped     rounds/sec");
    let (mut total_rounds, mut total_stepped) = (0u64, 0u64);
    let mut json_rows = Vec::new();
    for row in rows {
        let (sweep, name) = (row.sweep, row.sweep.algo.row().name());
        let rounds: u64 = row.cells.iter().map(|c| c.rounds).sum();
        let stepped: u64 = row.cells.iter().map(|c| c.rounds - c.rounds_skipped).sum();
        line(name, row.wall_ms, rounds, stepped);
        total_rounds += rounds;
        total_stepped += stepped;
        json_rows.push(serde_json::json!({
            "row": name,
            "adversary": format!("{:?}", sweep.adversary),
            "ns": if quick { sweep.quick_ns } else { sweep.ns },
            "reps": reps,
            "wall_ms": row.wall_ms,
            "sim_rounds": rounds,
            "stepped_rounds": stepped,
            "rounds_per_sec": per_sec(rounds, row.wall_ms),
        }));
    }
    line("TOTAL", wall_ms, total_rounds, total_stepped);
    serde_json::json!({
        "mode": if quick { "quick" } else { "full" },
        "rows": json_rows,
        "total_wall_ms": wall_ms,
        "total_sim_rounds": total_rounds,
        "total_stepped_rounds": total_stepped,
        "note": "rounds_per_sec counts simulated rounds, including fast-forwarded ones; \
                 stepped_rounds is what the engine actually stepped",
        "total_rounds_per_sec": per_sec(total_rounds, wall_ms),
    })
}

fn main() {
    let args = cli::parse_env("table1", FLAGS);
    if let Err(e) = check_timed(&args) {
        cli::fail("table1", FLAGS, &e);
    }
    let baseline = args
        .get::<String>("--gate")
        .map(|path| Baseline::load(&path).unwrap_or_else(|e| cli::fail("table1", FLAGS, &e)));
    let bench_out: Option<String> = args.get("--bench-out");
    let quick = args.has("--quick");
    let store = open_store("table1", &args);
    let trace = TraceOut::from_args(&args);
    bd_telemetry::init_from_env();
    let reps: u64 = if quick { 2 } else { 3 };

    println!("Reproducing Table 1 of 'Byzantine Dispersion on Graphs' (IPDPS 2021)");
    println!("graphs: seeded G(n,p); f at each row's maximum tolerance; {reps} seeds per n\n");
    println!(
        "{:<3} {:<6} {:<20} {:<22} {:<10} {:<16} {:<7} {:<9} {:<8} {:<10} {:<10} measured rounds by n",
        "row",
        "thm",
        "algorithm",
        "paper time",
        "start",
        "paper tolerance",
        "strong",
        "fit n^b",
        "success",
        "est steps",
        "us/cell",
    );
    // Each row is one batch: the planner shares a session per distinct
    // graph and schedules the row's most expensive cells first.
    let t0 = std::time::Instant::now();
    let (rows, stats) = table1_batch(quick, reps, store.as_ref());
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    for (serial, Table1Row { sweep, cells, .. }) in rows.iter().enumerate() {
        let row = sweep.algo.row();
        let means = mean_rounds(cells);
        let fit = fit_exponent(&means);
        let ok = success_rate(cells);
        let series: Vec<String> = means.iter().map(|(n, r)| format!("{n}:{:.0}", r)).collect();
        println!(
            "{:<3} {:<6} {:<20} {:<22} {:<10} {:<16} {:<7} {:<9.2} {:<8.2} {:<10.0} {:<10.0} {}",
            serial + 1,
            row.theorem(),
            row.name(),
            row.paper_time(),
            row.start_column(),
            row.paper_tolerance(),
            if row.strong() { "Yes" } else { "No" },
            fit,
            ok,
            // The planner's cost model (rounds × k robot-steps) next to the
            // measured per-cell wall-clock.
            mean_cost_estimate(cells),
            mean_elapsed_micros(cells),
            series.join(" ")
        );
    }
    if store.is_some() {
        println!(
            "\nstore: {} hits / {} misses; {} rounds simulated, {} served from the journal \
             ({} us spent simulating)",
            stats.hits,
            stats.misses,
            stats.rounds_simulated,
            stats.rounds_saved,
            stats.elapsed_simulated_micros,
        );
    }
    println!(
        "\n* Thm 7's exponential bound comes from [24]'s black-box gathering; our \
         Byzantine-immune view-based gathering substrate runs it in polynomial \
         measured rounds (DESIGN.md, substitution 4)."
    );

    // Theorem 8 boundary.
    println!(
        "\nTheorem 8: Byzantine dispersion of k robots impossible iff ceil(k/n) > ceil((k-f)/n)"
    );
    println!(
        "{:<6} {:<6} {:<6} {:<10} {:<10} {:<9} predicted",
        "k", "f", "n", "ceil(k/n)", "allowed", "violated"
    );
    let g = erdos_renyi_connected(6, 0.4, 1).expect("graph");
    let mut agree = true;
    for k in [6usize, 9, 12, 18, 24] {
        for f in [0usize, 1, 3, 6, 9] {
            if let Some(r) = replay_experiment(&g, k, f, 7) {
                agree &= r.violated == r.theorem_predicts;
                println!(
                    "{:<6} {:<6} {:<6} {:<10} {:<10} {:<9} {}",
                    r.k,
                    r.f,
                    r.n,
                    r.load_faultfree,
                    r.capacity_allowed,
                    r.violated,
                    r.theorem_predicts
                );
            }
        }
    }
    println!(
        "\nexperiment {} the theorem across the grid",
        if agree { "MATCHES" } else { "CONTRADICTS" }
    );

    if bench_out.is_some() || baseline.is_some() {
        let doc = bench_doc(quick, reps, &rows, wall_ms);
        if let Some(path) = bench_out {
            gate::write(&path, &doc);
        }
        if let Some(baseline) = baseline {
            if !baseline.check(&doc, "rows", "row", "rounds_per_sec") {
                std::process::exit(1);
            }
        }
    }

    if let Some(trace) = trace {
        trace.finish();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check(argv: &[&str]) -> Result<(), String> {
        let argv: Vec<String> = argv.iter().map(|s| s.to_string()).collect();
        check_timed(&cli::parse(FLAGS, &argv)?)
    }

    #[test]
    fn timed_runs_refuse_store_and_trace_out() {
        for timed in [["--bench-out", "b.json"], ["--gate", "BENCH_table1.json"]] {
            for other in [["--store", "dir"], ["--trace-out", "t.jsonl"]] {
                let argv = [&["--quick"][..], &timed, &other].concat();
                assert!(check(&argv).is_err(), "{argv:?}");
            }
            assert_eq!(check(&[&["--quick"][..], &timed].concat()), Ok(()));
        }
        assert_eq!(check(&["--store", "dir", "--trace-out", "t.jsonl"]), Ok(()));
    }
}
