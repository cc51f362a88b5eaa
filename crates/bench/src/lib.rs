//! # bd-bench
//!
//! The benchmark harness that regenerates the paper's evaluation:
//!
//! * **Table 1** (the paper's only exhibit): per-row Criterion benches under
//!   `benches/`, and the [`bin/table1`](../../src/bin/table1.rs) binary that
//!   prints measured-vs-paper columns (running time shape, starting
//!   configuration, Byzantine tolerance, strong handling) straight from the
//!   `TableRow` registry, and with `--bench-out`/`--gate` records and gates
//!   each row's throughput ([`gate`]);
//! * **Theorem 8**: the impossibility boundary sweep;
//! * **series** (our additions a systems evaluation would include): rounds
//!   vs `n` per row with fitted exponents, success rate vs `f` around each
//!   tolerance bound, a per-adversary ablation, and `k ≠ n` capacity bins.
//!
//! All cells run on seeded Erdős–Rényi graphs (view-asymmetric w.h.p., so
//! every row's precondition holds) and are embarrassingly parallel. Every
//! sweep is one [`CachedPlanner`] batch: cost-ordered over the pool, with
//! graphs shared per `(n, seed)` coordinate, and backed by a
//! [`ResultStore`] only when the bin was given `--store DIR`.
//!
//! Every bin parses its flags through [`cli`], which rejects anything the
//! bin does not declare.

pub mod cli;
pub mod gate;

use bd_dispersion::adversaries::AdversaryKind;
use bd_dispersion::runner::{Algorithm, ByzPlacement, ScenarioSpec};
use bd_dispersion::Session;
use bd_graphs::PortGraph;
use bd_service::{CacheStats, CachedPlanner, ResultStore};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// One measured cell of a sweep.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Cell {
    pub algo: String,
    pub n: usize,
    pub k: usize,
    pub f: usize,
    pub adversary: String,
    pub seed: u64,
    pub rounds: u64,
    /// Rounds the engine fast-forwarded over (part of `rounds`). Nonzero
    /// in adversarial sweeps since the adversary idle-horizon work; the
    /// measured `rounds` are timeline-derived and unaffected.
    pub rounds_skipped: u64,
    pub total_moves: u64,
    /// Measured wall-clock of the run, microseconds — the *real* per-cell
    /// cost next to the planner's `round_budget × k` estimate. For cells
    /// served from a result store this is the stored run's cost, not the
    /// (near-zero) lookup time.
    pub elapsed_micros: u64,
    pub dispersed: bool,
    /// The run's rounds attributed to the row's phase schedule (clipped to
    /// the rounds actually run) — `RunMetrics::rounds_by_phase` verbatim.
    pub rounds_by_phase: Vec<(String, u64)>,
}

/// Sweep shape of one Table 1 row: the `n` grid and the adversary the row
/// is evaluated against. Everything else (tolerance, start, budget) comes
/// from the row's registry descriptor. [`table1_batch`] runs these shapes
/// for the `table1` bin, whose `--bench-out` timings therefore measure the
/// very sweep it prints; `profile` and the serving benchmark draw their
/// cells from the same shapes.
pub struct Table1Sweep {
    /// The Table 1 row.
    pub algo: Algorithm,
    /// Full-mode `n` grid.
    pub ns: &'static [usize],
    /// `--quick` `n` grid.
    pub quick_ns: &'static [usize],
    /// Adversary at the row's maximum tolerance.
    pub adversary: AdversaryKind,
}

/// The Table 1 sweep shapes, in the paper's print order
/// (Thm 1, 2, 5, 3, 4, 7, 6).
pub fn table1_sweeps() -> &'static [Table1Sweep] {
    const SWEEPS: &[Table1Sweep] = &[
        Table1Sweep {
            algo: Algorithm::QuotientTh1,
            ns: &[8, 12, 16, 24, 32],
            quick_ns: &[8, 12, 16],
            adversary: AdversaryKind::FakeSettler,
        },
        Table1Sweep {
            algo: Algorithm::ArbitraryHalfTh2,
            ns: &[6, 8, 10, 12],
            quick_ns: &[6, 8],
            adversary: AdversaryKind::Wanderer,
        },
        Table1Sweep {
            algo: Algorithm::ArbitrarySqrtTh5,
            ns: &[9, 12, 16, 25],
            quick_ns: &[9, 16],
            adversary: AdversaryKind::TokenHijacker,
        },
        Table1Sweep {
            algo: Algorithm::GatheredHalfTh3,
            ns: &[6, 8, 12, 16, 20],
            quick_ns: &[6, 8, 12],
            adversary: AdversaryKind::Wanderer,
        },
        Table1Sweep {
            algo: Algorithm::GatheredThirdTh4,
            ns: &[9, 12, 16, 24, 32],
            quick_ns: &[9, 12, 16],
            adversary: AdversaryKind::TokenHijacker,
        },
        Table1Sweep {
            algo: Algorithm::StrongArbitraryTh7,
            ns: &[8, 12, 16, 24],
            quick_ns: &[8, 12],
            adversary: AdversaryKind::StrongSpoofer,
        },
        Table1Sweep {
            algo: Algorithm::StrongGatheredTh6,
            ns: &[8, 12, 16, 24, 32],
            quick_ns: &[8, 12, 16],
            adversary: AdversaryKind::StrongSpoofer,
        },
    ];
    SWEEPS
}

/// The benchmark graph family: seeded `G(n, p)` with `p` high enough for
/// view asymmetry at small `n` and bounded density at large `n`.
///
/// Delegates to [`bd_graphs::generators::asymmetric_gnp`] — the same pure
/// function the serving layer's `BenchEr` graph source materializes
/// through, so a sweep cell and a daemon submission of the same
/// coordinates share one content digest (and therefore one store entry).
pub fn bench_graph(n: usize, seed: u64) -> PortGraph {
    bd_graphs::generators::asymmetric_gnp(n, seed).expect("bench graph")
}

/// The start configuration each algorithm is evaluated in (Table 1 column
/// "Starting Configuration", read from the row registry).
pub fn starting_config(algo: Algorithm, g: &PortGraph) -> ScenarioSpec {
    ScenarioSpec::evaluation(algo, g)
}

/// Open the store named by the bins' shared [`cli::STORE`] flag, if
/// given. Exits the process on an unopenable store — bin-level behavior,
/// shared by `table1` and `series` so the flag cannot drift between them.
pub fn open_store(bin: &str, args: &cli::Args) -> Option<ResultStore> {
    let dir: String = args.get("--store")?;
    Some(ResultStore::open(&dir).unwrap_or_else(|e| {
        eprintln!("{bin}: cannot open store {dir}: {e}");
        std::process::exit(1);
    }))
}

/// A pending trace export, requested by the bins' shared
/// [`cli::TRACE_OUT`] flag.
pub struct TraceOut {
    path: String,
}

impl TraceOut {
    /// When `--trace-out FILE` was given, switch span *and* engine-counter
    /// recording on process-wide (the phase level of the span tree is
    /// emitted by the engine recorder) and return the handle that writes
    /// the collected Chrome trace-event JSONL to FILE — call
    /// [`TraceOut::finish`] at the end of `main`.
    pub fn from_args(args: &cli::Args) -> Option<TraceOut> {
        let path = args.get("--trace-out")?;
        bd_telemetry::enable_spans(true);
        bd_telemetry::enable_counters(true);
        Some(TraceOut { path })
    }

    /// Drain every recorded span event and write the JSONL trace (one
    /// Chrome trace event object per line; wrap with `jq -s .` for trace
    /// viewers). Also drains the engine-report buffer the instrumented
    /// runs filled, so nothing accumulates across exports.
    pub fn finish(self) {
        use std::io::Write;
        let events = bd_telemetry::spans::drain();
        let _ = bd_telemetry::drain_engine_reports();
        let file = std::fs::File::create(&self.path).unwrap_or_else(|e| {
            eprintln!("--trace-out {}: {e}", self.path);
            std::process::exit(1);
        });
        let mut w = std::io::BufWriter::new(file);
        bd_telemetry::spans::write_chrome_trace(&mut w, &events)
            .and_then(|()| w.flush())
            .unwrap_or_else(|e| panic!("writing trace {}: {e}", self.path));
        eprintln!("wrote {} trace events to {}", events.len(), self.path);
    }
}

/// Memoizes [`bench_graph`] instances as shared `Arc` handles, so sweeps
/// that revisit a `(n, seed)` coordinate (e.g. success-vs-`f` series that
/// vary only `f`) reuse one graph — and therefore one planner
/// session — instead of regenerating and re-owning it per cell.
#[derive(Default)]
pub struct GraphCache(std::collections::BTreeMap<(usize, u64), Arc<PortGraph>>);

impl GraphCache {
    /// An empty cache.
    pub fn new() -> Self {
        GraphCache::default()
    }

    /// The shared graph for `(n, seed)`, generated on first use.
    pub fn get(&mut self, n: usize, seed: u64) -> Arc<PortGraph> {
        Arc::clone(
            self.0
                .entry((n, seed))
                .or_insert_with(|| Arc::new(bench_graph(n, seed))),
        )
    }
}

/// Run `(graph, spec)` cells as one planner batch and fold the results
/// into [`Cell`]s in input order; `store` as in [`sweep_n`].
fn run_batch(
    cells: Vec<(Arc<PortGraph>, ScenarioSpec)>,
    store: Option<&ResultStore>,
) -> (Vec<Cell>, CacheStats) {
    let mut planner = CachedPlanner::with_store(store);
    for (graph, spec) in &cells {
        planner.add(graph, spec.clone());
    }
    let (results, stats) = planner.run().expect("result store I/O");
    let cells = results
        .into_iter()
        .zip(&cells)
        .map(|(result, (graph, spec))| cell_of(spec, graph.n(), result))
        .collect();
    (cells, stats)
}

/// Run one cell. Panics on scenario errors (callers pick valid cells);
/// a round-limit overrun is reported as a failed cell instead.
///
/// `allow_overload` is set **only** when `f` exceeds the row's tolerance —
/// beyond-tolerance probe sweeps run, while in-budget sweeps keep the
/// session's tolerance guardrail: a silently mis-sized `f` panics instead
/// of producing an undefined-behavior cell.
pub fn run_cell(
    algo: Algorithm,
    n: usize,
    f: usize,
    adversary: AdversaryKind,
    placement: ByzPlacement,
    seed: u64,
) -> Cell {
    // One-cell batch: the spec construction and the tolerance/overload
    // guard live in `run_series_cells` only, shared with every sweep.
    let coord = SeriesCoord {
        algo,
        n,
        f,
        adversary,
        placement,
        seed,
    };
    run_series_cells(&[coord], None).0.remove(0)
}

/// Fold one run result into a [`Cell`]. Graph-shape errors (symmetric
/// instance drawn) are skipped by resampling upstream; anything else is a
/// harness bug, so failures panic with the cell coordinates.
fn cell_of(
    spec: &ScenarioSpec,
    n: usize,
    result: Result<bd_dispersion::Outcome, bd_dispersion::DispersionError>,
) -> Cell {
    match result {
        Ok(out) => Cell {
            algo: format!("{:?}", spec.algo),
            n,
            k: spec.num_robots,
            f: spec.num_byzantine,
            adversary: format!("{:?}", spec.adversary),
            seed: spec.seed,
            rounds: out.rounds,
            rounds_skipped: out.metrics.rounds_skipped,
            total_moves: out.metrics.total_moves,
            elapsed_micros: out.metrics.elapsed_micros,
            dispersed: out.dispersed,
            rounds_by_phase: out.metrics.rounds_by_phase,
        },
        Err(e) => panic!(
            "cell ({:?}, n={n}, k={}, f={}, seed={}) failed: {e}",
            spec.algo, spec.num_robots, spec.num_byzantine, spec.seed
        ),
    }
}

/// Run one prepared spec in `session` and record it as a [`Cell`].
pub fn run_spec_cell(session: &Session, spec: &ScenarioSpec) -> Cell {
    cell_of(spec, session.graph().n(), session.run(spec))
}

/// Sweep `n` values with `reps` seeds each as one planner batch: every
/// cell's graph is a shared handle, and the pool executes cells
/// largest-first (biggest `n` never straggles at the tail of the sweep).
/// With a [`ResultStore`], stored cells replay without simulating and
/// fresh cells write back; the [`CacheStats`] account for the batch
/// either way. Store I/O failures panic: a half-written benchmark cache is
/// a harness failure, not a measurement.
pub fn sweep_n(
    algo: Algorithm,
    ns: &[usize],
    f_of_n: impl Fn(usize) -> usize + Sync,
    adversary: AdversaryKind,
    reps: u64,
    store: Option<&ResultStore>,
) -> (Vec<Cell>, CacheStats) {
    let f_of_n = &f_of_n;
    let coords: Vec<SeriesCoord> = ns
        .iter()
        .flat_map(|&n| {
            (0..reps).map(move |rep| SeriesCoord {
                algo,
                n,
                f: f_of_n(n),
                adversary,
                placement: ByzPlacement::Random,
                seed: 1000 + rep,
            })
        })
        .collect();
    run_series_cells(&coords, store)
}

/// One Table 1 row's sweep result from [`table1_batch`].
pub struct Table1Row {
    /// The row's sweep shape.
    pub sweep: &'static Table1Sweep,
    /// The row's cells, `n`-major then seed, as [`sweep_n`] returns them.
    pub cells: Vec<Cell>,
    /// Wall-clock of the row's batch, milliseconds.
    pub wall_ms: f64,
}

/// The whole Table 1 sweep: each row of [`table1_sweeps`] runs as its own
/// [`sweep_n`] batch (the grid `quick` selects, `reps` seeds per `n`, `f`
/// at the row's tolerance) and is timed on its own, so the rows double as
/// the per-row throughput benchmark (`table1 --bench-out`). Returns the
/// rows in [`table1_sweeps`] order and the summed [`CacheStats`].
///
/// With a [`ResultStore`] (the opt-in `table1 --store DIR` path), a warm
/// store replays the whole table with **zero rounds simulated** (the stats
/// say so); outcomes are the exact stored `Outcome`s, so full-mode
/// BASELINES stay byte-identical.
pub fn table1_batch(
    quick: bool,
    reps: u64,
    store: Option<&ResultStore>,
) -> (Vec<Table1Row>, CacheStats) {
    let mut stats = CacheStats::default();
    let rows = table1_sweeps()
        .iter()
        .map(|sweep| {
            let ns = if quick { sweep.quick_ns } else { sweep.ns };
            let t0 = std::time::Instant::now();
            let (cells, row_stats) = sweep_n(
                sweep.algo,
                ns,
                |n| sweep.algo.tolerance(n),
                sweep.adversary,
                reps,
                store,
            );
            stats.merge(&row_stats);
            Table1Row {
                sweep,
                cells,
                wall_ms: t0.elapsed().as_secs_f64() * 1e3,
            }
        })
        .collect();
    (rows, stats)
}

/// One sweep coordinate for [`run_series_cells`]: everything `run_cell`
/// takes, as data, so heterogeneous series can batch through one planner.
#[derive(Debug, Clone, Copy)]
pub struct SeriesCoord {
    /// The Table 1 row.
    pub algo: Algorithm,
    /// Graph size.
    pub n: usize,
    /// Byzantine contingent.
    pub f: usize,
    /// Adversary strategy.
    pub adversary: AdversaryKind,
    /// Byzantine ID placement.
    pub placement: ByzPlacement,
    /// Cell seed (also the graph seed).
    pub seed: u64,
}

/// Run an arbitrary list of sweep coordinates as one planner batch:
/// graphs are shared per `(n, seed)` coordinate, cells execute
/// largest-cost-first, and results come back in `coords` order. Equivalent
/// to mapping [`run_cell`] over `coords`, minus the redundant graph
/// builds and with deliberate scheduling; `store` as in [`sweep_n`].
pub fn run_series_cells(
    coords: &[SeriesCoord],
    store: Option<&ResultStore>,
) -> (Vec<Cell>, CacheStats) {
    let mut cache = GraphCache::new();
    let cells = coords
        .iter()
        .map(|c| {
            let graph = cache.get(c.n, c.seed);
            let spec = starting_config(c.algo, &graph)
                .with_byzantine(c.f, c.adversary)
                .with_placement(c.placement)
                .with_seed(c.seed);
            let spec = if c.f > c.algo.row().tolerance(c.n, spec.num_robots) {
                spec.overloaded()
            } else {
                spec
            };
            (graph, spec)
        })
        .collect();
    run_batch(cells, store)
}

/// Sweep robot-count bins on one shared graph: for each `k` in `ks`,
/// `reps` seeded cells of `algo` at the row's `(n, k)` tolerance, all
/// batched through one planner on one `Arc<PortGraph>`. The §5 capacity
/// regime (`k ≠ n`) made measurable; `store` as in [`sweep_n`].
pub fn sweep_k(
    algo: Algorithm,
    n: usize,
    ks: &[usize],
    adversary: AdversaryKind,
    reps: u64,
    store: Option<&ResultStore>,
) -> (Vec<Cell>, CacheStats) {
    let graph = Arc::new(bench_graph(n, 1000));
    let cells = ks
        .iter()
        .flat_map(|&k| (0..reps).map(move |rep| (k, rep)))
        .map(|(k, rep)| {
            let spec = starting_config(algo, &graph)
                .with_robots(k)
                .with_byzantine(algo.row().tolerance(n, k), adversary)
                .with_seed(4000 + rep);
            (Arc::clone(&graph), spec)
        })
        .collect();
    run_batch(cells, store)
}

/// Mean of an arbitrary cell quantity grouped by an arbitrary cell key.
fn mean_by(
    cells: &[Cell],
    key: impl Fn(&Cell) -> usize,
    value: impl Fn(&Cell) -> f64,
) -> Vec<(usize, f64)> {
    let mut groups: std::collections::BTreeMap<usize, (f64, usize)> = Default::default();
    for c in cells {
        let e = groups.entry(key(c)).or_insert((0.0, 0));
        e.0 += value(c);
        e.1 += 1;
    }
    groups
        .into_iter()
        .map(|(g, (sum, count))| (g, sum / count as f64))
        .collect()
}

/// Mean rounds grouped by an arbitrary cell key.
pub fn mean_rounds_by(cells: &[Cell], key: impl Fn(&Cell) -> usize) -> Vec<(usize, f64)> {
    mean_by(cells, key, |c| c.rounds as f64)
}

/// Mean fast-forwarded rounds per `n` — the observable that adversarial
/// sweeps exercise the skip path (must be > 0 on every row with idle
/// phases, while `mean_rounds` stays pinned to the timelines).
pub fn mean_skipped_rounds(cells: &[Cell]) -> Vec<(usize, f64)> {
    mean_by(cells, |c| c.n, |c| c.rounds_skipped as f64)
}

/// Mean rounds per `n` from a sweep.
pub fn mean_rounds(cells: &[Cell]) -> Vec<(usize, f64)> {
    mean_rounds_by(cells, |c| c.n)
}

/// Mean measured wall-clock per cell, microseconds — the real per-cell
/// cost the satellite metrics report next to the planner's estimate.
pub fn mean_elapsed_micros(cells: &[Cell]) -> f64 {
    if cells.is_empty() {
        return 0.0;
    }
    cells.iter().map(|c| c.elapsed_micros as f64).sum::<f64>() / cells.len() as f64
}

/// Mean of the planner's per-cell cost estimate (`rounds × k` robot-steps;
/// the registry budget is exact, so measured rounds equal it on successful
/// cells). The table1 bin prints this next to the measured microseconds so
/// the cost model can be eyeballed against reality.
pub fn mean_cost_estimate(cells: &[Cell]) -> f64 {
    if cells.is_empty() {
        return 0.0;
    }
    cells
        .iter()
        .map(|c| (c.rounds * c.k as u64) as f64)
        .sum::<f64>()
        / cells.len() as f64
}

/// Mean rounds per `k` from a k-bin sweep.
pub fn mean_rounds_by_k(cells: &[Cell]) -> Vec<(usize, f64)> {
    mean_rounds_by(cells, |c| c.k)
}

/// Fraction of dispersed cells.
pub fn success_rate(cells: &[Cell]) -> f64 {
    if cells.is_empty() {
        return 0.0;
    }
    cells.iter().filter(|c| c.dispersed).count() as f64 / cells.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_graph_is_connected_and_seeded() {
        let a = bench_graph(12, 3);
        let b = bench_graph(12, 3);
        assert_eq!(a, b);
        assert!(a.is_connected());
    }

    #[test]
    fn run_cell_smoke() {
        let c = run_cell(
            Algorithm::Baseline,
            8,
            0,
            AdversaryKind::Squatter,
            ByzPlacement::Random,
            5,
        );
        assert!(c.dispersed);
        assert!(c.rounds > 0);
    }

    #[test]
    #[should_panic(expected = "exceeds the algorithm's tolerance")]
    fn in_budget_sweeps_keep_the_tolerance_guardrail() {
        // f beyond what k robots can possibly contain is a harness bug,
        // not a probe: run_cell must panic through the session's typed
        // error rather than run it silently overloaded. (Beyond-tolerance
        // probes where f < k still run, now explicitly overloaded.)
        let n = 9;
        let session = Session::new(bench_graph(n, 7));
        let spec = starting_config(Algorithm::GatheredThirdTh4, session.graph()).with_byzantine(
            Algorithm::GatheredThirdTh4.tolerance(n) + 1,
            AdversaryKind::Wanderer,
        );
        // Strip the overload flag run_cell would have added.
        assert!(!spec.allow_overload);
        run_spec_cell(&session, &spec);
    }

    #[test]
    fn beyond_tolerance_probe_is_overloaded_and_runs() {
        let n = 9;
        let f = Algorithm::GatheredThirdTh4.tolerance(n) + 1;
        let c = run_cell(
            Algorithm::GatheredThirdTh4,
            n,
            f,
            AdversaryKind::Wanderer,
            ByzPlacement::LowIds,
            3,
        );
        assert_eq!(c.f, f, "probe cell records the overloaded f");
    }

    #[test]
    fn sweep_k_covers_all_bins_on_one_graph() {
        let cells = sweep_k(
            Algorithm::Baseline,
            8,
            &[4, 8, 16],
            AdversaryKind::Squatter,
            2,
            None,
        )
        .0;
        assert_eq!(cells.len(), 6);
        for k in [4usize, 8, 16] {
            let bin: Vec<_> = cells.iter().filter(|c| c.k == k).collect();
            assert_eq!(bin.len(), 2, "k = {k}");
            assert!(bin.iter().all(|c| c.dispersed), "k = {k}");
        }
    }

    #[test]
    fn aggregations() {
        let mk = |k: usize, rounds: u64, dispersed: bool, seed: u64| Cell {
            algo: "x".into(),
            n: 8,
            k,
            f: 0,
            adversary: "a".into(),
            seed,
            rounds,
            rounds_skipped: 0,
            total_moves: 5,
            elapsed_micros: 7,
            dispersed,
            rounds_by_phase: vec![("run".into(), rounds)],
        };
        let cells = vec![mk(8, 10, true, 0), mk(8, 20, false, 1)];
        assert_eq!(mean_rounds(&cells), vec![(8, 15.0)]);
        assert!((success_rate(&cells) - 0.5).abs() < 1e-9);
        let kcells = vec![mk(4, 10, true, 0), mk(16, 30, true, 1)];
        assert_eq!(mean_rounds_by_k(&kcells), vec![(4, 10.0), (16, 30.0)]);
    }
}
