//! `load` — closed-loop load generator for the serving path.
//!
//! Spawns an in-process `bd-service` daemon on an ephemeral port (or
//! targets a running one via `--addr`), drives mixed traffic from
//! `--concurrency` closed-loop clients, and reports requests/sec plus
//! p50/p90/p99 latency per traffic class (a class's rate is computed
//! over the time the clients spent in that class, the overall rate over
//! total wall). This is the serving twin of
//! `table1 --bench-out`: `--out PATH` writes the `BENCH_serve.json`
//! document (nothing is written without it), and `--gate BASELINE.json`
//! exits 1 if any class's (or the overall) req/s falls below
//! [`bd_bench::gate::MIN_RATIO`] × the baseline, which is read before the
//! run starts. Latency percentiles are reported but never gated —
//! wall-clock percentiles on shared runners are too noisy to fail a build
//! on.
//!
//! Three traffic classes, each a `POST /batches` + poll-to-done cycle:
//!
//! * `hit` — a 4-cell batch drawn from a pool warmed before measurement;
//!   every cell is answered from the store.
//! * `miss` — a fresh 1-cell batch with a run-unique seed; always
//!   simulated.
//! * `dedup` — one fresh spec repeated 4× in a single batch; the planner
//!   simulates it once and aliases the rest (1 miss + 3 dedup).
//!
//! The miss/dedup classes assume a fresh store: the in-process daemon
//! gets a throwaway directory, but against `--addr` a store left over
//! from a previous run turns misses into hits (the per-reply class
//! checks will say so).
//!
//! Usage:
//! `cargo run --release -p bd-bench --bin load [-- --quick] [--concurrency N] \
//!  [--seed S] [--addr HOST:PORT] [--out PATH] [--gate BASELINE.json]`

use bd_bench::cli::{self, Flag};
use bd_bench::gate::{self, Baseline};
use bd_dispersion::adversaries::AdversaryKind;
use bd_dispersion::runner::{Algorithm, ScenarioSpec};
use bd_graphs::PortGraph;
use bd_service::protocol::BatchRequest;
use bd_service::{Client, Daemon, GraphSource, ServeConfig};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

const CLASSES: [&str; 3] = ["hit", "miss", "dedup"];
const POOL: usize = 8;
const WAIT: Duration = Duration::from_secs(120);

const FLAGS: &[Flag] = &[
    Flag::switch("--quick"),
    Flag::value::<usize>("--concurrency", "N"),
    Flag::value::<u64>("--seed", "S"),
    Flag::value::<SocketAddr>("--addr", "HOST:PORT"),
    Flag::value::<String>("--out", "PATH"),
    Flag::value::<String>("--gate", "BASELINE"),
];

/// One Table 1-style evaluation cell on the bench graph at tolerance.
fn spec(graph: &PortGraph, n: usize, seed: u64) -> ScenarioSpec {
    let algo = Algorithm::GatheredThirdTh4;
    ScenarioSpec::evaluation(algo, graph)
        .with_byzantine(algo.tolerance(n), AdversaryKind::TokenHijacker)
        .with_seed(seed)
}

/// Latency percentile over a sorted sample, nearest-rank on the scaled
/// index (p50 of one element is that element).
fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = (q * (sorted.len() - 1) as f64).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Submit one batch, poll it to completion, and return (latency µs,
/// reply stats as (hits, misses, deduped)).
fn drive(client: &Client, request: &BatchRequest) -> (u64, (u64, u64, u64)) {
    let t0 = Instant::now();
    let accepted = client.submit(request).unwrap_or_else(|e| {
        eprintln!("load: submit failed: {e}");
        std::process::exit(1);
    });
    let reply = client.wait(accepted.id, WAIT).unwrap_or_else(|e| {
        eprintln!("load: wait failed: {e}");
        std::process::exit(1);
    });
    let micros = t0.elapsed().as_micros() as u64;
    if reply.status != "done" {
        eprintln!("load: batch {} failed: {:?}", accepted.id, reply.error);
        std::process::exit(1);
    }
    let s = reply.stats.unwrap_or_default();
    (micros, (s.hits, s.misses, s.deduped))
}

fn main() {
    let args = cli::parse_env("load", FLAGS);
    let quick = args.has("--quick");
    let concurrency: usize = args.get("--concurrency").unwrap_or(8);
    let seed_base: u64 = args.get("--seed").unwrap_or(1000);
    let out_path: Option<String> = args.get("--out");
    let baseline = args
        .get::<String>("--gate")
        .map(|path| Baseline::load(&path).unwrap_or_else(|e| cli::fail("load", FLAGS, &e)));
    let reps: usize = if quick { 2 } else { 16 };
    if concurrency == 0 {
        cli::fail("load", FLAGS, "--concurrency must be at least 1");
    }

    // In-process daemon on a throwaway store unless --addr points at one.
    let external: Option<SocketAddr> = args.get("--addr");
    let store_dir = std::env::temp_dir().join(format!("bd-load-{}", std::process::id()));
    let daemon = if external.is_none() {
        let _ = std::fs::remove_dir_all(&store_dir);
        Some(
            Daemon::start(ServeConfig::ephemeral(&store_dir)).unwrap_or_else(|e| {
                eprintln!("load: start daemon: {e}");
                std::process::exit(1);
            }),
        )
    } else {
        None
    };
    let addr = match (external, &daemon) {
        (Some(a), _) => a,
        (None, Some(d)) => d.local_addr(),
        (None, None) => unreachable!(),
    };
    println!(
        "load: {} mode, {concurrency} clients x {reps} iterations against {addr}",
        if quick { "quick" } else { "full" }
    );

    let n = 9;
    let graph_src = GraphSource::BenchEr { n, seed: seed_base };
    let graph = graph_src.materialize().unwrap_or_else(|e| {
        eprintln!("load: materialize graph: {e}");
        std::process::exit(1);
    });

    // Warm the hit pool: POOL distinct cells simulated once, before the
    // clock starts. Every `hit` batch below draws only from these.
    let client = Client::new(addr);
    let pool: Vec<ScenarioSpec> = (0..POOL)
        .map(|k| spec(&graph, n, seed_base + 10_000 + k as u64))
        .collect();
    for s in &pool {
        drive(
            &client,
            &BatchRequest::new(graph_src.clone(), vec![s.clone()]),
        );
    }

    // Measured phase: closed-loop clients, each cycling hit → miss →
    // dedup per iteration. Miss/dedup seeds are unique per (thread,
    // iteration) so no two measured cells ever share a digest.
    let run_start = Instant::now();
    let mut per_thread: Vec<[Vec<u64>; 3]> = Vec::new();
    let mut class_counts = [(0u64, 0u64, 0u64); 3];
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..concurrency)
            .map(|t| {
                let graph = &graph;
                let graph_src = &graph_src;
                let pool = &pool;
                scope.spawn(move || {
                    let client = Client::new(addr);
                    let mut lat: [Vec<u64>; 3] = Default::default();
                    let mut counts = [(0u64, 0u64, 0u64); 3];
                    for iter in 0..reps {
                        let lane = (t as u64) * 100_000 + iter as u64;
                        let hit_specs: Vec<ScenarioSpec> = (0..4)
                            .map(|k| pool[(t + iter + k) % POOL].clone())
                            .collect();
                        let miss = spec(graph, n, seed_base + 1_000_000 + lane);
                        let dedup = spec(graph, n, seed_base + 2_000_000 + lane);
                        let batches = [
                            BatchRequest::new(graph_src.clone(), hit_specs),
                            BatchRequest::new(graph_src.clone(), vec![miss]),
                            BatchRequest::new(graph_src.clone(), vec![dedup; 4]),
                        ];
                        for (class, request) in batches.iter().enumerate() {
                            let (micros, (h, m, d)) = drive(&client, request);
                            lat[class].push(micros);
                            counts[class].0 += h;
                            counts[class].1 += m;
                            counts[class].2 += d;
                        }
                    }
                    (lat, counts)
                })
            })
            .collect();
        for handle in handles {
            let (lat, counts) = handle.join().expect("client thread");
            for (total, add) in class_counts.iter_mut().zip(counts) {
                total.0 += add.0;
                total.1 += add.1;
                total.2 += add.2;
            }
            per_thread.push(lat);
        }
    });
    let wall_secs = run_start.elapsed().as_secs_f64().max(1e-9);

    // Class integrity: hits come only from the pool, misses simulate,
    // dedup batches alias 3 of 4 cells. Violations mean a stale store
    // (or a broken planner) and would silently skew the numbers.
    let requests_per_class = (concurrency * reps) as u64;
    let expect = [
        ("hit", class_counts[0], (4 * requests_per_class, 0, 0)),
        ("miss", class_counts[1], (0, requests_per_class, 0)),
        (
            "dedup",
            class_counts[2],
            (0, requests_per_class, 3 * requests_per_class),
        ),
    ];
    for (name, got, want) in expect {
        if got != want {
            eprintln!(
                "load: {name} class saw (hits, misses, deduped) = {got:?}, expected {want:?} \
                 — stale store at --addr?"
            );
            std::process::exit(1);
        }
    }

    // Per-class report + JSON rows.
    println!(
        "{:<8} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "class", "requests", "req/s", "mean us", "p50 us", "p90 us", "p99 us"
    );
    let mut classes = Vec::new();
    for (class, name) in CLASSES.iter().enumerate() {
        let mut all: Vec<u64> = per_thread.iter().flat_map(|t| t[class].clone()).collect();
        all.sort_unstable();
        // Per-class rate over the time the clients spent *in this class*
        // (summed latency spread over the client count) — total wall
        // would make every class's rate identical, since the closed loop
        // issues the same number of requests per class.
        let class_secs = (all.iter().sum::<u64>() as f64 / 1e6 / concurrency as f64).max(1e-9);
        let rps = all.len() as f64 / class_secs;
        let mean = all.iter().sum::<u64>() as f64 / all.len().max(1) as f64;
        let (p50, p90, p99) = (
            percentile(&all, 0.50),
            percentile(&all, 0.90),
            percentile(&all, 0.99),
        );
        println!(
            "{name:<8} {:>10} {rps:>10.1} {mean:>10.0} {p50:>10} {p90:>10} {p99:>10}",
            all.len()
        );
        classes.push(serde_json::json!({
            "class": name,
            "requests": all.len(),
            "req_per_sec": rps,
            "mean_us": mean,
            "p50_us": p50,
            "p90_us": p90,
            "p99_us": p99,
        }));
    }
    let total_requests = 3 * requests_per_class;
    let total_rps = total_requests as f64 / wall_secs;
    println!(
        "{:<8} {:>10} {:>10.1}   ({wall_secs:.2}s wall)",
        "TOTAL", total_requests, total_rps
    );

    // The serving path's own instrumentation must have seen this run:
    // every lifecycle stage observed, queue-wait accounted.
    let exposition = client.metrics_parsed().unwrap_or_else(|e| {
        eprintln!("load: scrape /metrics: {e}");
        std::process::exit(1);
    });
    for stage in [
        "read_parse",
        "queue_wait",
        "simulate",
        "store_write",
        "respond",
    ] {
        let count = exposition
            .histogram_count("bd_request_duration_micros", &[("stage", stage)])
            .unwrap_or(0.0);
        if count <= 0.0 {
            eprintln!("load: bd_request_duration_micros{{stage=\"{stage}\"}} never observed");
            std::process::exit(1);
        }
    }
    if exposition.value("bd_queue_wait_micros_total").is_none() {
        eprintln!("load: bd_queue_wait_micros_total missing from /metrics");
        std::process::exit(1);
    }

    if let Some(daemon) = daemon {
        client.shutdown().unwrap_or_else(|e| {
            eprintln!("load: shutdown: {e}");
            std::process::exit(1);
        });
        daemon.join();
        let _ = std::fs::remove_dir_all(&store_dir);
    }

    let doc = serde_json::json!({
        "mode": if quick { "quick" } else { "full" },
        "concurrency": concurrency,
        "reps_per_class": reps,
        "classes": classes,
        "total_requests": total_requests,
        "wall_secs": wall_secs,
        "req_per_sec": total_rps,
    });
    if let Some(path) = out_path {
        gate::write(&path, &doc);
    }

    // Throughput regression gate against the baseline read at start-up:
    // every class's req/s plus the overall rate; latency never gated.
    if let Some(baseline) = baseline {
        if !baseline.check(&doc, "classes", "class", "req_per_sec") {
            std::process::exit(1);
        }
    }
}
