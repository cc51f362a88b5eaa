//! Wall-clock perf harness for the Table 1 sweep.
//!
//! Times each Table 1 row's full sweep (same cells, seeds, and adversaries
//! as the `table1` bin) and emits `BENCH_table1.json`: per-row wall-clock
//! milliseconds, simulated rounds, stepped rounds, and rounds-per-second
//! throughput, plus sweep totals.
//!
//! `rounds_per_sec` divides *simulated* rounds by wall time, and simulated
//! rounds include the ones fast-forward jumped (idle stretches and route
//! jumps along precomputed walks). A row whose rounds stop being stepped
//! therefore shows a higher `rounds_per_sec` without stepping getting any
//! faster; `stepped_rounds` (`sim_rounds − rounds_skipped`) is the work the
//! engine actually did, so read the two together. This is the perf-trajectory baseline the repo regresses
//! against — record before/after numbers whenever a PR touches the engine
//! hot path.
//!
//! Measured rounds are asserted deterministic (they come from the row
//! timelines), so two runs of this harness differ only in wall-clock.
//!
//! With `--gate BASELINE.json [--min-ratio R]`, the run additionally
//! compares each row's measured rounds-per-second throughput against the
//! named baseline file (a previous `--out` of this harness) and exits 1 if
//! any row falls below `R × baseline` (default `R = 0.25` — generous
//! enough to absorb machine variance and quick-vs-full mode differences
//! while still catching order-of-magnitude hot-loop regressions).
//!
//! Usage:
//! `cargo run --release -p bd-bench --bin bench_table1 [--quick] [--out PATH] [--gate BASELINE.json] [--min-ratio R]`

use bd_bench::{sweep_n, table1_sweeps};
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map_or("BENCH_table1.json", |s| s.as_str());
    let gate_path = args.iter().position(|a| a == "--gate").map(|i| {
        args.get(i + 1).cloned().unwrap_or_else(|| {
            eprintln!("bench_table1: --gate needs a baseline file");
            std::process::exit(2);
        })
    });
    let min_ratio: f64 = args
        .iter()
        .position(|a| a == "--min-ratio")
        .and_then(|i| args.get(i + 1))
        .map_or(0.25, |s| {
            s.parse().unwrap_or_else(|_| {
                eprintln!("bench_table1: --min-ratio: cannot parse {s:?}");
                std::process::exit(2);
            })
        });
    let reps: u64 = if quick { 2 } else { 3 };

    let mut rows = Vec::new();
    let mut total_rounds = 0u64;
    let mut total_stepped = 0u64;
    println!(
        "{:<20} {:>12} {:>14} {:>14} {:>14}",
        "row", "wall ms", "sim rounds", "stepped", "rounds/sec"
    );
    let sweep_start = Instant::now();
    for sweep in table1_sweeps() {
        let ns = if quick { sweep.quick_ns } else { sweep.ns };
        let t0 = Instant::now();
        let (cells, _) = sweep_n(
            sweep.algo,
            ns,
            |n| sweep.algo.tolerance(n),
            sweep.adversary,
            reps,
            None,
        );
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        let rounds: u64 = cells.iter().map(|c| c.rounds).sum();
        let stepped: u64 = cells.iter().map(|c| c.rounds - c.rounds_skipped).sum();
        let rps = rounds as f64 / (ms / 1e3).max(1e-9);
        println!(
            "{:<20} {:>12.1} {:>14} {:>14} {:>14.0}",
            sweep.algo.row().name(),
            ms,
            rounds,
            stepped,
            rps
        );
        total_rounds += rounds;
        total_stepped += stepped;
        rows.push(serde_json::json!({
            "row": sweep.algo.row().name(),
            "adversary": format!("{:?}", sweep.adversary),
            "ns": ns,
            "reps": reps,
            "wall_ms": ms,
            "sim_rounds": rounds,
            "stepped_rounds": stepped,
            "rounds_per_sec": rps,
        }));
    }
    let wall_total = sweep_start.elapsed().as_secs_f64() * 1e3;
    println!(
        "{:<20} {:>12.1} {:>14} {:>14} {:>14.0}",
        "TOTAL",
        wall_total,
        total_rounds,
        total_stepped,
        total_rounds as f64 / (wall_total / 1e3).max(1e-9)
    );

    let doc = serde_json::json!({
        "mode": if quick { "quick" } else { "full" },
        "rows": rows,
        "total_wall_ms": wall_total,
        "total_sim_rounds": total_rounds,
        "total_stepped_rounds": total_stepped,
        "note": "rounds_per_sec counts simulated rounds, including fast-forwarded ones; \
                 stepped_rounds is what the engine actually stepped",
        "total_rounds_per_sec": total_rounds as f64 / (wall_total / 1e3).max(1e-9),
    });
    std::fs::write(
        out_path,
        format!("{}\n", serde_json::to_string_pretty(&doc).unwrap()),
    )
    .unwrap_or_else(|e| panic!("writing {out_path}: {e}"));
    println!("\nwrote {out_path}");

    // Per-row throughput regression gate against a committed baseline.
    if let Some(gate_path) = gate_path {
        let text = std::fs::read_to_string(&gate_path)
            .unwrap_or_else(|e| panic!("reading gate baseline {gate_path}: {e}"));
        let baseline: serde_json::Value =
            serde_json::from_str(&text).unwrap_or_else(|e| panic!("parsing {gate_path}: {e}"));
        let base_rows = baseline
            .get("rows")
            .and_then(|r| r.as_array())
            .unwrap_or_else(|| panic!("{gate_path}: no rows array"));
        println!("\ngate vs {gate_path} (min ratio {min_ratio}):");
        let mut failed = false;
        for row in &rows {
            let name = row.get("row").and_then(|v| v.as_str()).expect("row name");
            let rps = row
                .get("rounds_per_sec")
                .and_then(|v| v.as_f64())
                .expect("rounds_per_sec");
            let base = base_rows.iter().find_map(|b| {
                (b.get("row").and_then(|v| v.as_str()) == Some(name))
                    .then(|| b.get("rounds_per_sec").and_then(|v| v.as_f64()))
                    .flatten()
            });
            let Some(base) = base else {
                println!("  {name:<20} (no baseline row, skipped)");
                continue;
            };
            let ratio = rps / base.max(1e-9);
            let ok = ratio >= min_ratio;
            failed |= !ok;
            println!(
                "  {name:<20} {rps:>12.0} vs {base:>12.0} rounds/sec  ratio {ratio:>5.2}  {}",
                if ok { "ok" } else { "REGRESSION" }
            );
        }
        if failed {
            eprintln!("bench_table1: throughput regression against {gate_path}");
            std::process::exit(1);
        }
        println!("gate passed: every row within {min_ratio}x of baseline");
    }
}
