//! Dynamic-world driver: run an event-scheduled scenario end-to-end,
//! print the per-epoch verification table, and export or replay `bdtr1`
//! trace documents.
//!
//! The built-in scenario is a churn gauntlet on a ring: an edge fails, a
//! robot joins while another leaves, the Byzantine strategy switches, and
//! the edge heals — every epoch re-planned from the registry and verified
//! independently, with the event-aware oracle cross-checking the whole
//! epoch sequence when asked.
//!
//! Usage:
//!   cargo run --release -p bd-bench --bin dynamic -- \
//!     [--n N] [--robots K] [--byzantine F] [--seed S] \
//!     [--export FILE]   write the run as a bdtr1 document
//!     [--replay FILE]   re-execute a bdtr1 document; exit 1 unless the
//!                       fresh outcome is byte-identical to the recorded one
//!     [--oracle]        differentially check the run against the naive engine

use bd_bench::cli::{self, Flag};
use bd_dispersion::adversaries::AdversaryKind;
use bd_dispersion::runner::Algorithm;
use bd_dispersion::ScenarioSpec;
use bd_dynamic::{replay, DynamicSession, DynamicSpec, EventKind, EventSchedule, ReplayVerdict};
use bd_graphs::generators::ring;

const FLAGS: &[Flag] = &[
    Flag::value::<usize>("--n", "N"),
    Flag::value::<usize>("--robots", "K"),
    Flag::value::<usize>("--byzantine", "F"),
    Flag::value::<u64>("--seed", "S"),
    Flag::value::<String>("--export", "FILE"),
    Flag::value::<String>("--replay", "FILE"),
    Flag::switch("--oracle"),
];

fn main() {
    let args = cli::parse_env("dynamic", FLAGS);

    if let Some(path) = args.get::<String>("--replay") {
        let doc = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            eprintln!("cannot read {path}: {e}");
            std::process::exit(2);
        });
        match replay::replay(&doc) {
            Ok(ReplayVerdict::Identical) => {
                println!("replay of {path}: byte-identical to the recorded outcome");
            }
            Ok(ReplayVerdict::Diverged { at_byte, detail }) => {
                eprintln!("replay of {path}: DIVERGED at byte {at_byte}: {detail}");
                std::process::exit(1);
            }
            Err(e) => {
                eprintln!("replay of {path} failed: {e}");
                std::process::exit(1);
            }
        }
        return;
    }

    let n: usize = args.get("--n").unwrap_or(10);
    let k: usize = args.get("--robots").unwrap_or(n.saturating_sub(2).max(2));
    let f: usize = args.get("--byzantine").unwrap_or(1);
    let seed: u64 = args.get("--seed").unwrap_or(2026);

    let graph = ring(n).unwrap_or_else(|e| {
        eprintln!("bad graph parameters: {e}");
        std::process::exit(2);
    });
    let span = n as u64; // event spacing scales with the ring
    let base = ScenarioSpec::arbitrary(Algorithm::ArbitrarySqrtTh5, &graph)
        .with_robots(k)
        .with_byzantine(f, AdversaryKind::Silent)
        .with_seed(seed);
    let schedule = EventSchedule::default()
        .with(span, EventKind::EdgeFail { u: 0, v: 1 })
        .with(
            2 * span,
            EventKind::Join {
                node: n / 2,
                honest: true,
            },
        )
        .with(2 * span, EventKind::Leave { robot: k - 1 })
        .with(
            3 * span,
            EventKind::AdversarySwitch {
                adversary: AdversaryKind::Wanderer,
            },
        )
        .with(3 * span, EventKind::EdgeHeal { u: 0, v: 1 });
    let spec = DynamicSpec { base, schedule };

    let session = DynamicSession::new(graph.clone());
    println!(
        "dynamic churn gauntlet: ring(n={n}), k={k}, f={f}, seed={seed}, {} events",
        spec.schedule.events.len()
    );
    let outcome = session.run(&spec).unwrap_or_else(|e| {
        eprintln!("dynamic run failed: {e}");
        std::process::exit(1);
    });

    println!("epoch  rounds [start..end)  terminated  dispersed  robots");
    for ep in &outcome.epochs {
        println!(
            "{:>5}  {:>6} [{:>5}..{:>5})  {:>10}  {:>9}  {:>6}",
            ep.epoch,
            ep.outcome.rounds,
            ep.start_round,
            ep.end_round,
            ep.terminated,
            ep.outcome.dispersed,
            ep.outcome.final_positions.len(),
        );
    }
    println!(
        "total rounds: {}, trace events: {}, all epochs dispersed: {}",
        outcome.total_rounds,
        outcome.trace.events.len(),
        outcome.all_dispersed()
    );

    if args.has("--oracle") {
        let verdict = bd_oracle::check_dynamic_cell(&session, &spec);
        if verdict.agreed() {
            println!("oracle: epoch-for-epoch agreement with the naive engine");
        } else {
            eprintln!("oracle: DIVERGENCE: {verdict:?}");
            std::process::exit(1);
        }
    }

    if let Some(path) = args.get::<String>("--export") {
        let doc = replay::export(&graph, &spec, &outcome);
        if let Err(e) = std::fs::write(&path, &doc) {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(2);
        }
        println!("bdtr1 document written to {path} ({} bytes)", doc.len());
    }
}
