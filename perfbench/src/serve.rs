//! `serve-hit` and `serve-miss`: closed-loop callers of an in-process
//! `bd-serve` daemon (`ServeConfig::ephemeral`, 2 workers) over a store
//! pre-populated from a seeded fixture.
//!
//! * serve-hit: each request is 4 cells drawn from the fixture records,
//!   so every cell is answered from the store; the engine does no work.
//! * serve-miss: each request is 1 fresh cell (run-unique seed) on a
//!   Table 1 row at `n ≤ 12`; every cell simulates and is appended.
//!
//! [`CLIENTS`] threads each `Client::submit` then `Client::wait`. Set-up
//! is `Daemon::start` on a copy of the fixture journal (store replay
//! included), timed [`START_REPS`] times before the phase and as many
//! after it (see [`time_starts`]). The traced run follows the untraced
//! phase with a second phase in which spans wrap the client calls and
//! side calls into the layers the daemon uses for that request (digest,
//! cache planner, store lookup; on misses also plan and verify), and the
//! daemon's `/metrics` stage histograms are scraped around it.

use crate::report::{reset_peak_rss, EngineSums, Metrics, RunResult, ROWS};
use crate::stats::{
    attribute, mean, median, nearest_rank, tail_percentile, StageReading, E2E_TAIL_CAP, STAGES,
};
use crate::trace::Tracer;
use crate::{Args, Rng};
use bd_bench::{starting_config, table1_sweeps};
use bd_dispersion::runner::ByzPlacement;
use bd_dispersion::verify::verify_with_capacity;
use bd_dispersion::{Outcome, Plan, ScenarioSpec, Session};
use bd_graphs::PortGraph;
use bd_service::protocol::{BatchReply, BatchRequest};
use bd_service::{CachedPlanner, Client, Daemon, GraphSource, ResultStore, ServeConfig};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Which traffic class the callers send.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    Hit,
    Miss,
}

/// Closed-loop callers (one per core of the reference 2-core machine).
const CLIENTS: usize = 2;
/// Records in the pre-populated journal.
const FIXTURE_RECORDS: usize = 2000;
/// Cells per serve-hit request.
const HIT_CELLS: usize = 4;
/// Requests a phase must complete so the per-layer p99s have 10 samples
/// beyond them.
const MIN_REQUESTS: u64 = 1000;
/// Hard cap on one phase, whatever the request count.
const MAX_PHASE: Duration = Duration::from_secs(60);
/// Timed `Daemon::start`s on each side of the measured phase.
const START_REPS: usize = 15;
/// Pause before each timed start, so the starts sample the host over a
/// longer stretch than back-to-back calls would.
const START_GAP: Duration = Duration::from_millis(50);
/// `ResultStore::open` repetitions behind the `store.open_us` median.
const OPEN_REPS: usize = 11;
/// `GET /healthz` round trips behind `http.healthz_rtt_us`.
const HEALTHZ_PROBES: usize = 50;
/// Pause before a `/metrics` scrape (see `stage_readings`).
const SETTLE: Duration = Duration::from_millis(50);
/// How long one request may wait for its batch.
const WAIT: Duration = Duration::from_secs(60);
/// Graph seeds every serve cell draws its `BenchEr` graph from (the
/// Table 1 grid's), so the daemon's graph memo stays small and warm.
const GRAPH_SEEDS: [u64; 3] = [1000, 1001, 1002];
/// Cheap Table 1 coordinates the fixture is built from: (index into
/// `table1_sweeps()`, n). StrongGatheredTh6 fast-forwards most rounds,
/// so 2,000 records take about a second to simulate.
const FIXTURE_SHAPES: [(usize, usize); 2] = [(6, 8), (6, 12)];
/// Fixture cells simulated per planner batch (bounds the build's memory).
const FIXTURE_CHUNK: usize = 100;
/// Largest n a serve-miss cell uses.
const MISS_MAX_N: usize = 12;

/// A graph and the fixture specs recorded on it.
struct Group {
    source: GraphSource,
    graph: Arc<PortGraph>,
    specs: Vec<ScenarioSpec>,
}

/// The spec the `table1` bin runs for row `row` (index into
/// `table1_sweeps()`) at `n` on `graph` with `seed`: the row's evaluation
/// start, its maximum tolerance, random placement.
fn table1_spec(row: usize, n: usize, graph: &PortGraph, seed: u64) -> ScenarioSpec {
    let sweep = &table1_sweeps()[row];
    let f = sweep.algo.tolerance(n);
    let spec = starting_config(sweep.algo, graph)
        .with_byzantine(f, sweep.adversary)
        .with_placement(ByzPlacement::Random)
        .with_seed(seed);
    if f > sweep.algo.row().tolerance(n, spec.num_robots) {
        spec.overloaded()
    } else {
        spec
    }
}

/// A spec seed from `rng` in the fixture's half of the seed space; miss
/// seeds take the other half, so the two never share a digest.
fn fixture_seed(rng: &mut Rng) -> u64 {
    rng.next_u64() >> 1
}

fn miss_seed(rng: &mut Rng) -> u64 {
    (1 << 63) | (rng.next_u64() >> 1)
}

fn materialize(source: &GraphSource) -> Result<Arc<PortGraph>, String> {
    source
        .materialize()
        .map(Arc::new)
        .map_err(|e| format!("materialize {source:?}: {e}"))
}

/// Build the seeded serve fixture: `records` simulated cells on
/// [`FIXTURE_SHAPES`] × [`GRAPH_SEEDS`], written to a fresh store in
/// `dir`. The same seed always writes the same records.
fn build_fixture(dir: &Path, seed: u64, records: usize) -> Result<Vec<Group>, String> {
    let mut rng = Rng::new(seed);
    let per_group = records.div_ceil(FIXTURE_SHAPES.len() * GRAPH_SEEDS.len());
    let mut groups = Vec::new();
    for &(row, n) in &FIXTURE_SHAPES {
        for &graph_seed in &GRAPH_SEEDS {
            let source = GraphSource::BenchEr {
                n,
                seed: graph_seed,
            };
            let graph = materialize(&source)?;
            let want = per_group.min(records - groups.len() * per_group);
            let specs = (0..want)
                .map(|_| table1_spec(row, n, &graph, fixture_seed(&mut rng)))
                .collect();
            groups.push(Group {
                source,
                graph,
                specs,
            });
        }
    }
    let store = ResultStore::open(dir).map_err(|e| format!("open fixture store: {e}"))?;
    for group in &groups {
        for chunk in group.specs.chunks(FIXTURE_CHUNK) {
            let mut planner = CachedPlanner::new(&store);
            for spec in chunk {
                planner.add(&group.graph, spec.clone());
            }
            let (results, _) = planner.run().map_err(|e| format!("writing fixture: {e}"))?;
            if results.iter().any(|r| !matches!(r, Ok(o) if o.dispersed)) {
                return Err("a fixture cell failed to disperse".into());
            }
        }
    }
    if store.len() != records {
        return Err(format!(
            "fixture holds {} records, expected {records} (duplicate seeds?)",
            store.len()
        ));
    }
    Ok(groups)
}

/// The `(row, n)` coordinates serve-miss draws from: every Table 1 row at
/// each of its grid sizes up to [`MISS_MAX_N`].
fn miss_shapes() -> Vec<(usize, usize)> {
    table1_sweeps()
        .iter()
        .enumerate()
        .flat_map(|(row, s)| {
            s.ns.iter()
                .filter(|&&n| n <= MISS_MAX_N)
                .map(move |&n| (row, n))
        })
        .collect()
}

/// One request's inputs: the graph source and specs on the wire, plus
/// the bench-side graph handle and, for a miss, the cell's row.
struct Request {
    wire: BatchRequest,
    graph: Arc<PortGraph>,
    miss_row: Option<usize>,
}

/// Generates requests for one client from its own seeded stream.
struct Traffic<'a> {
    class: Class,
    rng: Rng,
    groups: &'a [Group],
    miss_graphs: &'a [((usize, u64), Arc<PortGraph>)],
    /// Every serve-miss coordinate: `(row, n)` from [`miss_shapes`] on
    /// each of [`GRAPH_SEEDS`].
    miss_cells: &'a [(usize, usize, u64)],
    /// The coordinates left in this client's current pass over
    /// `miss_cells`. Each pass visits every coordinate once, in a seeded
    /// order, so a run's mix of cheap and costly cells does not depend on
    /// the seed (cell costs span 1 to over 50 ms).
    deck: Vec<(usize, usize, u64)>,
}

impl Traffic<'_> {
    fn next(&mut self) -> Request {
        match self.class {
            Class::Hit => {
                let group = &self.groups[self.rng.below(self.groups.len())];
                let mut picked: Vec<usize> = Vec::with_capacity(HIT_CELLS);
                while picked.len() < HIT_CELLS {
                    let i = self.rng.below(group.specs.len());
                    if !picked.contains(&i) {
                        picked.push(i);
                    }
                }
                let specs = picked.iter().map(|&i| group.specs[i].clone()).collect();
                Request {
                    wire: BatchRequest::new(group.source.clone(), specs),
                    graph: Arc::clone(&group.graph),
                    miss_row: None,
                }
            }
            Class::Miss => {
                if self.deck.is_empty() {
                    self.deck = self.miss_cells.to_vec();
                    self.rng.shuffle(&mut self.deck);
                }
                let (row, n, graph_seed) = self.deck.pop().expect("miss_cells is not empty");
                let graph = self
                    .miss_graphs
                    .iter()
                    .find(|(key, _)| *key == (n, graph_seed))
                    .map(|(_, g)| Arc::clone(g))
                    .expect("every miss graph is materialized up front");
                let spec = table1_spec(row, n, &graph, miss_seed(&mut self.rng));
                let source = GraphSource::BenchEr {
                    n,
                    seed: graph_seed,
                };
                Request {
                    wire: BatchRequest::new(source, vec![spec]),
                    graph,
                    miss_row: Some(row),
                }
            }
        }
    }
}

/// What one client thread measured in one phase.
#[derive(Default)]
struct ClientLog {
    latency_us: Vec<f64>,
    attempted: u64,
    failed: u64,
    wrong: u64,
    hits: u64,
    misses: u64,
    rows: [EngineSums; ROWS.len()],
    /// serve-miss outcomes (traced phase only), for the store-put probe.
    outcomes: Vec<(ScenarioSpec, Arc<PortGraph>, Outcome)>,
}

/// Whether a finished reply is what its class promises: serve-hit = all
/// cells from the store (4 hits, 0 misses); serve-miss = 1 simulated
/// cell (0 hits, 1 miss). Every outcome must be dispersed. A stale store
/// (a miss answered from the journal) fails this check.
fn class_ok(class: Class, reply: &BatchReply) -> bool {
    let Some(stats) = reply.stats else {
        return false;
    };
    let (hits, misses, cached) = match class {
        Class::Hit => (HIT_CELLS as u64, 0, true),
        Class::Miss => (0, 1, false),
    };
    reply.status == "done"
        && stats.hits == hits
        && stats.misses == misses
        && reply.cells.len() == (hits + misses) as usize
        && reply
            .cells
            .iter()
            .all(|c| c.cached == cached && c.outcome.as_ref().is_some_and(|o| o.dispersed))
}

/// Everything a phase's clients share.
struct Phase<'a> {
    class: Class,
    addr: std::net::SocketAddr,
    seed: u64,
    /// Distinguishes the traced phase's request stream from the untraced
    /// one, so serve-miss cells stay fresh across both phases.
    stream: u64,
    seconds: u64,
    groups: &'a [Group],
    miss_graphs: &'a [((usize, u64), Arc<PortGraph>)],
    /// Bench-side handle on the fixture store for the traced side calls;
    /// `None` in an untraced phase.
    probe_store: Option<&'a ResultStore>,
    epoch: Instant,
}

/// Run one closed-loop phase: [`CLIENTS`] threads until `seconds` have
/// passed and at least [`MIN_REQUESTS`] requests finished (capped at
/// [`MAX_PHASE`]). Returns the merged log, spans, and the phase wall.
fn run_phase(phase: &Phase) -> (ClientLog, Tracer, f64) {
    let miss_cells: Vec<(usize, usize, u64)> = miss_shapes()
        .into_iter()
        .flat_map(|(row, n)| GRAPH_SEEDS.map(|seed| (row, n, seed)))
        .collect();
    let done = AtomicU64::new(0);
    let start = Instant::now();
    let min_end = start + Duration::from_secs(phase.seconds);
    let hard_end = start + MAX_PHASE;
    let mut merged = ClientLog::default();
    let mut tracer = Tracer::new(phase.epoch, false);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|t| {
                let done = &done;
                let miss_cells = &miss_cells;
                scope.spawn(move || {
                    let mut traffic = Traffic {
                        class: phase.class,
                        rng: Rng::new(
                            phase.seed ^ (0x5bd1_e995 * (t as u64 + 1)) ^ (phase.stream << 56),
                        ),
                        groups: phase.groups,
                        miss_graphs: phase.miss_graphs,
                        miss_cells,
                        deck: Vec::new(),
                    };
                    let mut tracer = Tracer::new(phase.epoch, phase.probe_store.is_some());
                    let mut log = ClientLog::default();
                    let client = Client::new(phase.addr);
                    let mut req = (t as u64) << 40;
                    loop {
                        let now = Instant::now();
                        if now >= hard_end
                            || (now >= min_end && done.load(Ordering::Relaxed) >= MIN_REQUESTS)
                        {
                            break;
                        }
                        req += 1;
                        let request = traffic.next();
                        let plan = phase
                            .probe_store
                            .and_then(|store| side_calls(&mut tracer, store, &request, req));
                        one_request(
                            &client,
                            &request,
                            req,
                            phase.class,
                            &mut tracer,
                            &mut log,
                            plan,
                        );
                        done.fetch_add(1, Ordering::Relaxed);
                    }
                    (log, tracer)
                })
            })
            .collect();
        for handle in handles {
            let (log, spans) = handle.join().expect("client thread");
            merged.latency_us.extend(log.latency_us);
            merged.attempted += log.attempted;
            merged.failed += log.failed;
            merged.wrong += log.wrong;
            merged.hits += log.hits;
            merged.misses += log.misses;
            for (sum, add) in merged.rows.iter_mut().zip(&log.rows) {
                sum.add(add);
            }
            merged.outcomes.extend(log.outcomes);
            tracer.absorb(spans);
        }
    });
    (merged, tracer, start.elapsed().as_secs_f64())
}

/// The traced run's side calls for one request, made before it is sent:
/// the layers the daemon will use on it, called from here under spans.
/// Returns the miss cell's plan and its µs (for the verify call after the
/// reply).
fn side_calls(
    tracer: &mut Tracer,
    store: &ResultStore,
    request: &Request,
    req: u64,
) -> Option<(Plan, f64)> {
    let specs = &request.wire.specs;
    let digests: Vec<_> = tracer.span("canon.digest", req, Some("request"), || {
        specs
            .iter()
            .map(|s| CachedPlanner::digest(&request.graph, s))
            .collect()
    });
    tracer.span("store.get", req, Some("request"), || {
        digests.iter().filter_map(|d| store.get(d)).count()
    });
    tracer.span("cached.add", req, Some("request"), || {
        let mut planner = CachedPlanner::new(store);
        for s in specs {
            planner.add(&request.graph, s.clone());
        }
        planner.pending_misses()
    });
    request.miss_row?;
    let session = Session::new(Arc::clone(&request.graph));
    let plan = tracer.span("plan", req, Some("request"), || session.plan(&specs[0]));
    plan.ok().map(|plan| (plan, tracer.last_us()))
}

/// Submit, wait, time and check one request.
fn one_request(
    client: &Client,
    request: &Request,
    req: u64,
    class: Class,
    tracer: &mut Tracer,
    log: &mut ClientLog,
    plan: Option<(Plan, f64)>,
) {
    log.attempted += 1;
    let t0 = Instant::now();
    let accepted = client
        .submit(&request.wire)
        .map_err(|e| format!("submit: {e}"));
    let t1 = Instant::now();
    let reply = accepted.and_then(|a| client.wait(a.id, WAIT).map_err(|e| format!("wait: {e}")));
    let t2 = Instant::now();
    tracer.record("request", req, None, t0, t2);
    tracer.record("client.submit", req, Some("request"), t0, t1);
    tracer.record("client.wait", req, Some("request"), t1, t2);
    let micros = (t2 - t0).as_secs_f64() * 1e6;
    let reply = match reply {
        Ok(reply) => reply,
        Err(e) => {
            log.failed += 1;
            eprintln!("serve: request failed: {e}");
            return;
        }
    };
    if !class_ok(class, &reply) {
        log.failed += 1;
        log.wrong += 1;
        return;
    }
    log.latency_us.push(micros);
    let stats = reply.stats.unwrap_or_default();
    log.hits += stats.hits;
    log.misses += stats.misses;
    if let Some(row) = request.miss_row {
        let spec = &request.wire.specs[0];
        let out = reply.cells[0].outcome.clone().expect("checked by class_ok");
        let plan_us = plan.as_ref().map_or(0.0, |(_, us)| *us);
        log.rows[row].cell(
            plan_us,
            out.metrics.elapsed_micros as f64,
            out.rounds,
            out.metrics.rounds_skipped,
            spec.num_robots,
        );
        if let Some((plan, _)) = plan {
            let capacity = (plan.k - plan.f).div_ceil(plan.n);
            let report = tracer.span("verify", req, Some("request"), || {
                verify_with_capacity(&out.final_positions, &plan.honest, &plan.ids, capacity)
            });
            if !report.ok {
                log.wrong += 1;
            }
        }
        if tracer.enabled() {
            log.outcomes
                .push((spec.clone(), Arc::clone(&request.graph), out));
        }
    }
}

/// Scrape the stage histograms. The daemon records a connection's
/// `read_parse` and `respond` stages after it has answered, so the scrape
/// first waits [`SETTLE`] for the previous requests' records to land.
fn stage_readings(client: &Client) -> Result<[StageReading; 5], String> {
    std::thread::sleep(SETTLE);
    let exposition = client
        .metrics_parsed()
        .map_err(|e| format!("scrape /metrics: {e}"))?;
    let mut readings = [StageReading::default(); 5];
    for (slot, stage) in readings.iter_mut().zip(STAGES) {
        let read = |suffix: &str| {
            exposition
                .sample_value(
                    &format!("bd_request_duration_micros_{suffix}"),
                    &[("stage", stage)],
                )
                .ok_or(format!("/metrics lacks the {stage} stage {suffix}"))
        };
        *slot = StageReading {
            sum_us: read("sum")?,
            count: read("count")?,
        };
    }
    Ok(readings)
}

/// Start a daemon on the journal in `dir`, refusing a degraded one: the
/// store must have opened.
fn start_daemon(dir: &Path) -> Result<Daemon, String> {
    let daemon =
        Daemon::start(ServeConfig::ephemeral(dir)).map_err(|e| format!("start daemon: {e}"))?;
    if daemon.is_degraded() {
        daemon.shutdown();
        daemon.join();
        return Err("daemon started degraded: the fixture store did not open".into());
    }
    Ok(daemon)
}

/// Time [`START_REPS`] starts of a daemon on the journal in `dir`, each
/// after a [`START_GAP`] pause and stopped again, into `times` (seconds).
///
/// `setup_s` is the fastest of these starts. On the shared 2-core VM the
/// benchmark was tuned on, the same start took either about 19 ms or
/// about 27 ms depending on the host's state, which holds for a second or
/// more and changes between processes; a median flipped between the two
/// modes from run to run, while the fastest of starts spread over both
/// sides of the phase kept to the program's own cost.
fn time_starts(dir: &Path, times: &mut Vec<f64>) -> Result<(), String> {
    for _ in 0..START_REPS {
        std::thread::sleep(START_GAP);
        let t0 = Instant::now();
        let daemon = start_daemon(dir)?;
        times.push(t0.elapsed().as_secs_f64());
        daemon.shutdown();
        daemon.join();
    }
    Ok(())
}

/// Copy the store files in `from` to a new directory `to`.
fn copy_store(from: &Path, to: &Path) -> Result<(), String> {
    let copy = || -> std::io::Result<()> {
        std::fs::create_dir_all(to)?;
        for entry in std::fs::read_dir(from)? {
            let entry = entry?;
            std::fs::copy(entry.path(), to.join(entry.file_name()))?;
        }
        Ok(())
    };
    copy().map_err(|e| format!("copying {from:?} to {to:?}: {e}"))
}

pub fn run(args: &Args, work: &Path, class: Class) -> Result<RunResult, String> {
    let epoch = Instant::now();
    let name = match class {
        Class::Hit => "serve-hit",
        Class::Miss => "serve-miss",
    };
    let store_dir = work.join("store");
    let t0 = Instant::now();
    let groups = build_fixture(&store_dir, args.seed, FIXTURE_RECORDS)?;
    println!(
        "{name}: fixture of {FIXTURE_RECORDS} records built in {:.2} s (not part of set-up)",
        t0.elapsed().as_secs_f64()
    );
    // The graphs every miss cell draws from, materialized once here as
    // the daemon's graph memo does once per source.
    let t0 = Instant::now();
    let mut miss_graphs = Vec::new();
    for (_, n) in miss_shapes() {
        for &seed in &GRAPH_SEEDS {
            if !miss_graphs.iter().any(|(k, _)| *k == (n, seed)) {
                miss_graphs.push(((n, seed), materialize(&GraphSource::BenchEr { n, seed })?));
            }
        }
    }
    let mut layers = Metrics::default();
    layers.set("graphs.gen_us", t0.elapsed().as_secs_f64() * 1e6);
    // From here on the peak RSS is the daemon's and the callers', not the
    // fixture build's.
    reset_peak_rss()?;

    // Store-layer probes on the untouched fixture, before any daemon has
    // it open (traced run only).
    let probe_store = if args.trace {
        Some(store_probes(&store_dir, &mut layers)?)
    } else {
        None
    };

    // The timed starts run on a copy of the fixture: on serve-miss the
    // serving daemon appends to the original.
    let setup_dir = work.join("setup-store");
    copy_store(&store_dir, &setup_dir)?;
    let mut start_times = Vec::new();
    time_starts(&setup_dir, &mut start_times)?;
    let daemon = start_daemon(&store_dir)?;
    let client = Client::new(daemon.local_addr());
    let mut phase = Phase {
        class,
        addr: daemon.local_addr(),
        seed: args.seed,
        stream: 0,
        seconds: args.seconds,
        groups: &groups,
        miss_graphs: &miss_graphs,
        probe_store: None,
        epoch,
    };
    let (log, _, wall) = run_phase(&phase);
    let mut result = RunResult {
        correct: log.wrong == 0,
        attempted: log.attempted,
        failed: log.failed,
        ..RunResult::default()
    };
    let mut latency = log.latency_us.clone();
    latency.sort_by(f64::total_cmp);
    let q = tail_percentile(latency.len(), E2E_TAIL_CAP).ok_or("too few successful requests")?;
    let e2e = &mut result.end_to_end;
    e2e.set("throughput_per_s", latency.len() as f64 / wall);
    e2e.set(
        "latency_p50_ms",
        nearest_rank(&latency, 50).unwrap_or(0.0) / 1e3,
    );
    e2e.set(
        "latency_tail_ms",
        nearest_rank(&latency, q).unwrap_or(0.0) / 1e3,
    );
    println!(
        "{name}: {} requests ({} failed) in {wall:.2} s, {} latency samples, tail = p{q}",
        log.attempted,
        log.failed,
        latency.len()
    );
    time_starts(&setup_dir, &mut start_times)?;
    let setup_s = start_times.iter().copied().fold(f64::INFINITY, f64::min);
    e2e.set("setup_s", setup_s);
    println!(
        "{name}: set-up {setup_s:.6} s (fastest of {} starts; median {:.6} s)",
        start_times.len(),
        median(&start_times).expect("START_REPS > 0")
    );

    if let Some(store) = &probe_store {
        phase.probe_store = Some(store);
        phase.stream = 1;
        let untraced_mean = mean(&log.latency_us);
        traced_phase(
            &phase,
            &client,
            untraced_mean,
            work,
            name,
            &mut layers,
            &mut result,
        )?;
    }
    client
        .shutdown()
        .map_err(|e| format!("shutdown daemon: {e}"))?;
    daemon.join();
    result.per_layer = layers;
    Ok(result)
}

/// Open the fixture store [`OPEN_REPS`] times and audit its chain,
/// filling the `store.*` metrics; returns the last handle for the side
/// calls.
fn store_probes(dir: &Path, layers: &mut Metrics) -> Result<ResultStore, String> {
    let mut times = Vec::new();
    let mut store = None;
    for _ in 0..OPEN_REPS {
        let t0 = Instant::now();
        let opened = ResultStore::open(dir).map_err(|e| format!("open store: {e}"))?;
        times.push(t0.elapsed().as_secs_f64() * 1e6);
        store = Some(opened);
    }
    let store = store.expect("OPEN_REPS > 0");
    let open_us = median(&times).expect("OPEN_REPS > 0");
    let records = store.len().max(1) as f64;
    let t0 = Instant::now();
    store
        .verify_chain()
        .map_err(|e| format!("fixture chain does not verify: {e}"))?;
    layers.set("store.verify_chain_us", t0.elapsed().as_secs_f64() * 1e6);
    layers.set("store.open_us", open_us);
    layers.set("store.open_us_per_record", open_us / records);
    let bytes = std::fs::metadata(store.path())
        .map_err(|e| format!("stat journal: {e}"))?
        .len();
    layers.set("store.bytes_per_record", bytes as f64 / records);
    Ok(store)
}

/// The traced phase: spans around every client call and side call, the
/// `/metrics` stage deltas around the phase, and the unattributed rest.
fn traced_phase(
    phase: &Phase,
    client: &Client,
    untraced_mean_us: f64,
    work: &Path,
    name: &str,
    layers: &mut Metrics,
    result: &mut RunResult,
) -> Result<(), String> {
    let mut rtt = Vec::new();
    for _ in 0..HEALTHZ_PROBES {
        let t0 = Instant::now();
        client.healthz().map_err(|e| format!("healthz: {e}"))?;
        rtt.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    layers.set("http.healthz_rtt_us", median(&rtt).unwrap_or(0.0));

    let before = stage_readings(client)?;
    let (log, mut tracer, wall) = run_phase(phase);
    let after = stage_readings(client)?;
    result.correct &= log.wrong == 0;
    result.attempted += log.attempted;
    result.failed += log.failed;

    let requests = log.latency_us.len().max(1) as f64;
    let latency_mean = mean(&log.latency_us);
    let a = attribute(&before, &after, log.attempted, 1, latency_mean);
    for (stage, us) in STAGES.iter().zip(a.stage_us) {
        layers.set(format!("daemon.{stage}_us"), us);
    }
    layers.set("daemon.unattributed_us", a.unattributed_us);
    layers.set("daemon.polls_per_batch", a.polls_per_batch);
    layers.set("client.latency_mean_us", latency_mean);
    layers.set(
        "trace.overhead_share",
        latency_mean / untraced_mean_us - 1.0,
    );
    for (span, metric) in [
        ("client.submit", "client.submit_us"),
        ("client.wait", "client.wait_us"),
    ] {
        let mut v = tracer.micros(span);
        v.sort_by(f64::total_cmp);
        layers.set(format!("{metric}.p50"), nearest_rank(&v, 50).unwrap_or(0.0));
        let q = tail_percentile(v.len(), 99).unwrap_or(50);
        layers.set(format!("{metric}.p99"), nearest_rank(&v, q).unwrap_or(0.0));
    }
    layers.set(
        "canon.digest_us",
        tracer.total_us("canon.digest") / requests,
    );
    layers.set("cached.add_us", tracer.total_us("cached.add") / requests);
    layers.set("store.get_us", tracer.total_us("store.get") / requests);
    layers.set("verify.us", tracer.total_us("verify") / requests);
    layers.set(
        "cached.hit_ratio",
        log.hits as f64 / (log.hits + log.misses).max(1) as f64,
    );

    // Engine split of the miss cells, from each reply's outcome metrics
    // and the plan side calls.
    let mut total = EngineSums::default();
    for (row, sums) in ROWS.iter().zip(&log.rows) {
        total.add(sums);
        sums.report(layers, &format!(".{row}"));
    }
    total.report(layers, "");
    layers.set(
        "plan.share",
        total.plan_us / (total.plan_us + total.engine_us).max(1e-9),
    );
    layers.set("batch.cores_busy", total.engine_us / 1e6 / wall);

    // Store writes: append every miss outcome to a scratch journal.
    if !log.outcomes.is_empty() {
        let put_dir = work.join("put-store");
        let store = ResultStore::open(&put_dir).map_err(|e| format!("open put store: {e}"))?;
        let mut put_us = Vec::new();
        for (spec, graph, out) in &log.outcomes {
            let digest = CachedPlanner::digest(graph, spec);
            let t0 = Instant::now();
            store
                .put(digest, spec, out)
                .map_err(|e| format!("store put: {e}"))?;
            put_us.push(t0.elapsed().as_secs_f64() * 1e6);
        }
        layers.set("store.put_us", mean(&put_us));
    }
    layers.set("trace.spans", tracer.len() as f64);
    println!(
        "{name}: traced phase {} requests in {wall:.2} s; client mean {latency_mean:.0} us = stages {:.0} us + unattributed {:.0} us; {:.2} polls/batch",
        log.attempted,
        a.stage_us.iter().sum::<f64>(),
        a.unattributed_us,
        a.polls_per_batch
    );
    let path = work
        .parent()
        .unwrap_or(work)
        .join("traces")
        .join(format!("{name}.jsonl"));
    tracer
        .write_jsonl(&path)
        .map_err(|e| format!("writing {path:?}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A scratch directory under the package's `.bench_work/`, removed on
    /// drop.
    struct Scratch(std::path::PathBuf);

    impl Scratch {
        fn new(name: &str) -> Self {
            let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
                .join(".bench_work")
                .join(format!("test-{name}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            Scratch(dir)
        }
    }

    impl Drop for Scratch {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    #[test]
    fn fixture_is_seeded() {
        let (a, b, c) = (Scratch::new("fa"), Scratch::new("fb"), Scratch::new("fc"));
        build_fixture(&a.0, 5, 24).unwrap();
        build_fixture(&b.0, 5, 24).unwrap();
        build_fixture(&c.0, 6, 24).unwrap();
        // Record digests in journal order (outcomes carry wall-clock
        // metrics, so the bytes themselves differ run to run).
        let digests = |dir: &Path| -> Vec<String> {
            std::fs::read_to_string(dir.join("results.jsonl"))
                .unwrap()
                .lines()
                .map(|l| l.split("\"digest\":\"").nth(1).unwrap()[..32].to_string())
                .collect()
        };
        assert_eq!(digests(&a.0).len(), 24);
        assert_eq!(digests(&a.0), digests(&b.0));
        assert_ne!(digests(&a.0), digests(&c.0));
        assert_eq!(ResultStore::open(&c.0).unwrap().len(), 24);
    }

    /// A miss answered from the journal — the store already held the cell
    /// — fails the serve-miss class check; real hits and real misses pass
    /// their own class and fail the other.
    #[test]
    fn stale_store_fails_the_class_check() {
        let dir = Scratch::new("stale");
        let groups = build_fixture(&dir.0, 9, 24).unwrap();
        let group = &groups[0];
        assert_eq!(group.specs.len(), HIT_CELLS);
        let daemon = Daemon::start(ServeConfig::ephemeral(&dir.0)).unwrap();
        let client = Client::new(daemon.local_addr());
        let send = |specs: Vec<ScenarioSpec>| {
            let accepted = client
                .submit(&BatchRequest::new(group.source.clone(), specs))
                .unwrap();
            client.wait(accepted.id, WAIT).unwrap()
        };

        let hit = send(group.specs.clone());
        assert!(class_ok(Class::Hit, &hit));
        assert!(!class_ok(Class::Miss, &hit));
        // A stored cell sent as a fresh one: the stale-store case.
        let stale = send(vec![group.specs[0].clone()]);
        assert!(!class_ok(Class::Miss, &stale));
        let fresh_spec = group.specs[0].clone().with_seed(1 << 63);
        let fresh = send(vec![fresh_spec.clone()]);
        assert!(class_ok(Class::Miss, &fresh));
        assert!(!class_ok(Class::Hit, &fresh));
        // The fresh cell is now stored, so resending it is stale too.
        assert!(!class_ok(Class::Miss, &send(vec![fresh_spec])));
        client.shutdown().unwrap();
        daemon.join();
    }
}
