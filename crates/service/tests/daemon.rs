//! In-process daemon integration: the full request lifecycle over real
//! sockets, and the acceptance observable — a second identical submission
//! is served entirely from the store, zero rounds simulated. Also the
//! long-poll contract of `GET /batches/:id?wait_ms=N`, the shutdown
//! wake-up, and the completed-record retention bound.

use bd_chaos::{Chaos, FaultPlan};
use bd_dispersion::adversaries::AdversaryKind;
use bd_dispersion::runner::{Algorithm, ScenarioSpec};
use bd_graphs::generators::asymmetric_gnp;
use bd_service::daemon::COMPLETED_RETENTION;
use bd_service::protocol::{BatchReply, BatchRequest};
use bd_service::{http, Client, ClientConfig, Daemon, GraphSource, ServeConfig, ServiceError};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::time::{Duration, Instant};

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bd-daemon-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

const WAIT: Duration = Duration::from_secs(120);

fn quick_request() -> BatchRequest {
    let n = 9;
    let graph_src = GraphSource::BenchEr { n, seed: 1000 };
    let graph = graph_src.materialize().unwrap();
    BatchRequest::new(
        graph_src,
        (0..2)
            .map(|seed| {
                ScenarioSpec::gathered(Algorithm::GatheredThirdTh4, &graph, 0)
                    .with_byzantine(1, AdversaryKind::TokenHijacker)
                    .with_seed(seed)
            })
            .collect(),
    )
}

#[test]
fn repeat_submission_is_served_from_the_store() {
    let dir = tmpdir("repeat");
    let daemon = Daemon::start(ServeConfig::ephemeral(&dir)).unwrap();
    let client = Client::new(daemon.local_addr());

    let health = client.healthz().unwrap();
    assert!(health.ok);
    assert_eq!(health.store_entries, 0);

    // Cold submission: everything simulates.
    let request = quick_request();
    let accepted = client.submit(&request).unwrap();
    assert_eq!(accepted.cells, 2);
    let first = client.wait(accepted.id, WAIT).unwrap();
    assert_eq!(first.status, "done", "error: {:?}", first.error);
    let s1 = first.stats.unwrap();
    assert_eq!((s1.hits, s1.misses), (0, 2));
    assert!(s1.rounds_simulated > 0);
    assert!(first.cells.iter().all(|c| !c.cached));
    assert!(first
        .cells
        .iter()
        .all(|c| c.outcome.as_ref().unwrap().dispersed));

    // Warm submission of the identical batch: zero rounds simulated.
    let accepted2 = client.submit(&request).unwrap();
    assert_ne!(accepted2.id, accepted.id);
    let second = client.wait(accepted2.id, WAIT).unwrap();
    assert_eq!(second.status, "done");
    let s2 = second.stats.unwrap();
    assert_eq!((s2.hits, s2.misses), (2, 0), "served entirely from store");
    assert_eq!(s2.rounds_simulated, 0, "zero rounds simulated");
    assert!(s2.rounds_saved > 0);
    assert!(second.cells.iter().all(|c| c.cached));
    // The replay is the exact stored outcome.
    for (a, b) in first.cells.iter().zip(&second.cells) {
        assert_eq!(
            serde_json::to_string(a.outcome.as_ref().unwrap()).unwrap(),
            serde_json::to_string(b.outcome.as_ref().unwrap()).unwrap(),
            "byte-identical replay"
        );
    }

    // /stats aggregates both batches.
    let stats = client.stats().unwrap();
    assert_eq!(stats.store_entries, 2);
    assert_eq!(stats.batches_submitted, 2);
    assert_eq!(stats.batches_completed, 2);
    assert_eq!(stats.queue_depth, 0);
    assert_eq!(stats.totals.hits, 2);
    assert_eq!(stats.totals.misses, 2);
    assert_eq!(stats.totals.rounds_simulated, s1.rounds_simulated);

    client.shutdown().unwrap();
    daemon.join();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The torn-read pin: `/stats` snapshots all batch-level counters in one
/// lock acquisition, so concurrent readers must never observe a state
/// where `completed` and `totals` (or `submitted` and `queue_depth`)
/// disagree. Before the single-lock fix, a reader could catch the gap
/// between the totals merge and the `completed` bump (separate atomics),
/// seeing totals from N batches next to `batches_completed == N ± 1`.
#[test]
fn concurrent_stats_readers_never_see_a_torn_snapshot() {
    let dir = tmpdir("torn");
    let daemon = Daemon::start(ServeConfig::ephemeral(&dir)).unwrap();
    let client = Client::new(daemon.local_addr());

    // Readers hammer /stats while batches flow, checking the invariants
    // every snapshot must satisfy: one cell per batch, all simulated
    // (distinct seeds), so completed batches and accounted cells agree
    // exactly — and the queue arithmetic is exact, not saturated.
    let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let readers: Vec<_> = (0..3)
        .map(|_| {
            let stop = std::sync::Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut violations = Vec::new();
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    let s = match client.stats() {
                        Ok(s) => s,
                        Err(_) => continue,
                    };
                    let cells =
                        s.totals.hits + s.totals.misses + s.totals.errors + s.totals.deduped;
                    if cells != s.batches_completed {
                        violations.push(format!(
                            "totals account for {cells} cells but batches_completed is {}",
                            s.batches_completed
                        ));
                    }
                    if s.queue_depth != s.batches_submitted - s.batches_completed {
                        violations.push(format!(
                            "queue_depth {} != submitted {} - completed {}",
                            s.queue_depth, s.batches_submitted, s.batches_completed
                        ));
                    }
                }
                violations
            })
        })
        .collect();

    let n = 9;
    let graph_src = GraphSource::BenchEr { n, seed: 1000 };
    let graph = graph_src.materialize().unwrap();
    let batches = 12;
    let mut ids = Vec::new();
    for seed in 0..batches {
        let request = BatchRequest::new(
            graph_src.clone(),
            vec![
                ScenarioSpec::gathered(Algorithm::GatheredThirdTh4, &graph, 0)
                    .with_byzantine(1, AdversaryKind::TokenHijacker)
                    .with_seed(seed),
            ],
        );
        ids.push(client.submit(&request).unwrap().id);
    }
    // Two workers drain out of order; wait on every id, not just the last.
    for id in ids {
        assert_eq!(client.wait(id, WAIT).unwrap().status, "done");
    }

    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    for reader in readers {
        let violations = reader.join().unwrap();
        assert!(violations.is_empty(), "torn snapshots: {violations:?}");
    }

    let final_stats = client.stats().unwrap();
    assert_eq!(final_stats.batches_completed, batches);
    assert_eq!(final_stats.totals.misses, batches);
    assert_eq!(final_stats.queue_depth, 0);

    client.shutdown().unwrap();
    daemon.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stalled_connection_does_not_block_the_daemon() {
    let dir = tmpdir("stall");
    let daemon = Daemon::start(ServeConfig::ephemeral(&dir)).unwrap();
    let client = Client::new(daemon.local_addr());

    // A client that connects and never sends a byte. Requests are handled
    // on per-connection threads, so this must not stall anyone else.
    let stalled = std::net::TcpStream::connect(daemon.local_addr()).unwrap();
    std::thread::sleep(Duration::from_millis(50)); // acceptor picks it up
    let t0 = std::time::Instant::now();
    assert!(client.healthz().unwrap().ok);
    assert!(
        t0.elapsed() < Duration::from_secs(5),
        "healthz answered behind a stalled connection in {:?}",
        t0.elapsed()
    );
    // Work still flows end-to-end.
    let accepted = client.submit(&quick_request()).unwrap();
    assert_eq!(client.wait(accepted.id, WAIT).unwrap().status, "done");

    drop(stalled);
    client.shutdown().unwrap();
    daemon.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn store_survives_daemon_restart() {
    let dir = tmpdir("restart");
    let request = quick_request();
    let cold_stats;
    {
        let daemon = Daemon::start(ServeConfig::ephemeral(&dir)).unwrap();
        let client = Client::new(daemon.local_addr());
        let accepted = client.submit(&request).unwrap();
        cold_stats = client.wait(accepted.id, WAIT).unwrap().stats.unwrap();
        client.shutdown().unwrap();
        daemon.join();
    }
    assert_eq!(cold_stats.misses, 2);

    // A fresh daemon on the same store dir serves the batch without
    // simulating a single round: the journal is the cache.
    let daemon = Daemon::start(ServeConfig::ephemeral(&dir)).unwrap();
    let client = Client::new(daemon.local_addr());
    assert_eq!(client.healthz().unwrap().store_entries, 2);
    let accepted = client.submit(&request).unwrap();
    let reply = client.wait(accepted.id, WAIT).unwrap();
    let stats = reply.stats.unwrap();
    assert_eq!((stats.hits, stats.misses), (2, 0));
    assert_eq!(stats.rounds_simulated, 0);
    client.shutdown().unwrap();
    daemon.join();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The shutdown drain race: a shutdown arriving while a slow batch is
/// still queued or mid-simulation must not drop its store write-backs.
/// `POST /shutdown` stops the acceptor, but the workers drain the queue
/// and flush every append before `join` returns — a restarted daemon
/// (or a cold open here) finds all cells journaled and chain-valid.
#[test]
fn shutdown_drains_in_flight_write_backs() {
    let dir = tmpdir("drain");
    let daemon = Daemon::start(ServeConfig::ephemeral(&dir)).unwrap();
    let client = Client::new(daemon.local_addr());

    // Slow cells: a larger graph, several seeds, all distinct digests.
    let graph_src = GraphSource::BenchEr { n: 32, seed: 1000 };
    let graph = graph_src.materialize().unwrap();
    let cells = 3;
    let request = BatchRequest::new(
        graph_src,
        (0..cells)
            .map(|seed| {
                ScenarioSpec::gathered(Algorithm::GatheredThirdTh4, &graph, 0).with_seed(seed)
            })
            .collect(),
    );
    client.submit(&request).unwrap();
    // Shutdown races the batch: it is queued or mid-simulation now.
    client.shutdown().unwrap();
    daemon.join();

    let store = bd_service::ResultStore::open(&dir).unwrap();
    assert_eq!(
        store.len(),
        cells as usize,
        "shutdown dropped in-flight write-backs"
    );
    assert_eq!(store.verify_chain().unwrap().entries, cells as usize);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn per_cell_errors_and_bad_requests_are_reported() {
    let dir = tmpdir("errors");
    let daemon = Daemon::start(ServeConfig::ephemeral(&dir)).unwrap();
    let client = Client::new(daemon.local_addr());

    // A batch mixing a good cell and an impossible one: the batch is
    // "done", the bad cell carries its error, the good one its outcome.
    let mut request = quick_request();
    request.specs[1] = request.specs[1].clone().with_robots(0);
    let accepted = client.submit(&request).unwrap();
    let reply = client.wait(accepted.id, WAIT).unwrap();
    assert_eq!(reply.status, "done");
    assert!(reply.cells[0].outcome.is_some());
    let err = reply.cells[1].error.as_ref().unwrap();
    assert!(err.contains("no robots"), "{err}");
    assert_eq!(reply.stats.unwrap().errors, 1);

    // Unknown batch id → 404; malformed body → 400; bad route → 404.
    match client.batch(999) {
        Err(ServiceError::Http { status: 404, .. }) => {}
        other => panic!("expected 404, got {other:?}"),
    }
    match client.submit_raw("not json at all") {
        Err(ServiceError::Http { status: 400, .. }) => {}
        other => panic!("expected 400, got {other:?}"),
    }
    // Empty batches are rejected up front.
    let empty = BatchRequest::new(GraphSource::Ring { n: 6 }, Vec::new());
    match client.submit(&empty) {
        Err(ServiceError::Http { status: 400, .. }) => {}
        other => panic!("expected 400, got {other:?}"),
    }

    // A graph source that cannot materialize fails the whole batch.
    let graph = asymmetric_gnp(9, 1000).unwrap();
    let bad_graph = BatchRequest::new(
        GraphSource::Ring { n: 0 },
        vec![ScenarioSpec::gathered(Algorithm::RingOptimal, &graph, 0)],
    );
    let accepted = client.submit(&bad_graph).unwrap();
    let reply = client.wait(accepted.id, WAIT).unwrap();
    assert_eq!(reply.status, "failed");
    assert!(reply.error.is_some());

    client.shutdown().unwrap();
    daemon.join();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Cells of [`slow_request`]: one 32-node cell takes over a second in a
/// debug build and about a tenth of that optimized.
const SLOW_CELLS: u64 = if cfg!(debug_assertions) { 1 } else { 16 };

/// A batch on a 32-node graph that runs for over a second, so polls
/// observe it queued or running.
fn slow_request(seed: u64) -> BatchRequest {
    let graph_src = GraphSource::BenchEr { n: 32, seed: 1000 };
    let graph = graph_src.materialize().unwrap();
    BatchRequest::new(
        graph_src,
        (0..SLOW_CELLS)
            .map(|cell| {
                ScenarioSpec::gathered(Algorithm::GatheredThirdTh4, &graph, 0)
                    .with_seed(seed * 100 + cell)
            })
            .collect(),
    )
}

/// A cheap one-cell batch with its own seed, so every submission misses.
fn one_cell(seed: u64) -> BatchRequest {
    let graph_src = GraphSource::BenchEr { n: 8, seed: 1000 };
    let graph = graph_src.materialize().unwrap();
    BatchRequest::new(
        graph_src,
        vec![ScenarioSpec::gathered(Algorithm::GatheredThirdTh4, &graph, 0).with_seed(seed)],
    )
}

/// A raw `GET` of `path`: the status, the decoded reply on a 200, and the
/// wall time the daemon took to answer.
fn get_batch(addr: SocketAddr, path: &str) -> (u16, Option<BatchReply>, Duration) {
    let t0 = Instant::now();
    let (status, body) = http::call(addr, "GET", path, None).unwrap();
    let reply = (status == 200).then(|| serde_json::from_str(&body).unwrap());
    (status, reply, t0.elapsed())
}

fn read_parse_count(client: &Client) -> f64 {
    client
        .metrics_parsed()
        .unwrap()
        .sample_value(
            "bd_request_duration_micros_count",
            &[("stage", "read_parse")],
        )
        .unwrap()
}

/// A worker publishes a batch as done or failed only after its accounting
/// has landed: a caller that saw its batch finish and then reads `/stats`
/// must find it counted, on every batch, panicked ones included.
#[test]
fn a_finished_batch_is_already_counted_in_stats() {
    for (tag, plan) in [
        ("clean", None),
        (
            "panics",
            Some(FaultPlan {
                seed: 7,
                worker_panic_one_in: 3,
                ..FaultPlan::default()
            }),
        ),
    ] {
        let dir = tmpdir(&format!("counted-{tag}"));
        let mut config = ServeConfig::ephemeral(&dir);
        let panics_armed = plan.is_some();
        if let Some(plan) = plan {
            config.chaos = Chaos::from_plan(plan);
        }
        let daemon = Daemon::start(config).unwrap();
        let client = Client::new(daemon.local_addr());
        let mut failed = 0;
        for i in 0..15u64 {
            let accepted = client.submit(&one_cell(100 + i)).unwrap();
            let reply = client.wait(accepted.id, WAIT).unwrap();
            failed += u64::from(reply.status == "failed");
            let stats = client.stats().unwrap();
            assert_eq!(
                stats.batches_completed,
                i + 1,
                "{tag}: batch {} was seen {} before it was counted",
                accepted.id,
                reply.status
            );
            assert_eq!(stats.worker_panics, failed, "{tag}");
        }
        if panics_armed {
            assert!(failed > 0, "the 1-in-3 panic plan never fired");
        }
        client.shutdown().unwrap();
        daemon.join();
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Shutdown releases held polls at once instead of at their cap, so
/// `Daemon::join` (which waits for open connections) does not stall.
#[test]
fn shutdown_releases_a_held_poll() {
    let dir = tmpdir("held");
    let mut config = ServeConfig::ephemeral(&dir);
    config.workers = 1;
    let daemon = Daemon::start(config).unwrap();
    let addr = daemon.local_addr();
    let client = Client::new(addr);
    let id = client.submit(&slow_request(1)).unwrap().id;

    let poll = std::thread::spawn(move || {
        let (status, reply, _) = get_batch(addr, &format!("/batches/{id}?wait_ms=5000"));
        (status, reply.unwrap().status, Instant::now())
    });
    std::thread::sleep(Duration::from_millis(200)); // the poll is held by now
    let stopped = Instant::now();
    daemon.shutdown();
    let (status, batch_status, answered) = poll.join().unwrap();
    assert_eq!(status, 200);
    let after = answered.saturating_duration_since(stopped);
    assert!(
        after < Duration::from_secs(1),
        "held poll answered {after:?} after shutdown (status {batch_status})"
    );
    daemon.join();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The shutdown wake-up reaches a daemon bound to an unspecified address
/// through loopback.
#[test]
fn daemon_on_an_unspecified_address_joins_promptly() {
    let dir = tmpdir("unspecified");
    let mut config = ServeConfig::ephemeral(&dir);
    config.addr = "0.0.0.0:0".into();
    let daemon = Daemon::start(config).unwrap();
    assert!(daemon.local_addr().ip().is_unspecified());
    let loopback = SocketAddr::from(([127, 0, 0, 1], daemon.local_addr().port()));
    assert!(Client::new(loopback).healthz().unwrap().ok);
    let t0 = Instant::now();
    daemon.shutdown();
    daemon.join();
    assert!(
        t0.elapsed() < Duration::from_secs(2),
        "join took {:?}",
        t0.elapsed()
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The long-poll protocol edges: no hold without `wait_ms`, none for a
/// finished batch, `404`/`400` at once, and the hold clamped to the
/// daemon's deadline.
#[test]
fn long_poll_protocol_edges() {
    let dir = tmpdir("edges");
    let mut config = ServeConfig::ephemeral(&dir);
    config.workers = 1;
    // Holds are clamped to the total request deadline.
    config.deadlines = http::Deadlines::uniform(Duration::from_millis(400));
    let daemon = Daemon::start(config).unwrap();
    let addr = daemon.local_addr();
    let client = Client::new(addr);
    // One slow batch pins the single worker; the second waits behind it.
    let blocker = client.submit(&slow_request(2)).unwrap().id;
    let queued = client.submit(&slow_request(3)).unwrap().id;
    let prompt = Duration::from_millis(300);

    for path in [
        format!("/batches/{queued}"),
        format!("/batches/{queued}?wait_ms=0"),
    ] {
        let (status, reply, took) = get_batch(addr, &path);
        assert_eq!(status, 200, "{path}");
        assert_eq!(reply.unwrap().status, "queued", "{path}");
        assert!(took < prompt, "{path} held for {took:?}");
    }

    // Far beyond the cap: held for the 400 ms deadline, then answered
    // with the batch still queued.
    let (status, reply, took) = get_batch(addr, &format!("/batches/{queued}?wait_ms=600000"));
    assert_eq!(status, 200);
    assert_eq!(reply.unwrap().status, "queued");
    assert!(
        took >= Duration::from_millis(350) && took < Duration::from_secs(3),
        "an over-cap hold lasted {took:?}"
    );

    let (status, _, took) = get_batch(addr, "/batches/999?wait_ms=5000");
    assert_eq!(status, 404);
    assert!(took < prompt, "unknown id held for {took:?}");

    let (status, _, took) = get_batch(addr, &format!("/batches/{queued}?wait_ms=abc"));
    assert_eq!(status, 400);
    assert!(took < prompt, "malformed wait_ms held for {took:?}");

    for id in [blocker, queued] {
        assert_eq!(client.wait(id, WAIT).unwrap().status, "done");
    }
    let (status, reply, took) = get_batch(addr, &format!("/batches/{blocker}?wait_ms=5000"));
    assert_eq!(status, 200);
    assert_eq!(reply.unwrap().status, "done");
    assert!(took < prompt, "a done batch held for {took:?}");

    client.shutdown().unwrap();
    daemon.join();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The guard against a return to sleep-polling: waiting on a batch that
/// runs for a while costs at most two status requests, counted by the
/// daemon's own `read_parse` stage.
#[test]
fn waiting_on_a_running_batch_takes_at_most_two_polls() {
    let dir = tmpdir("polls");
    let daemon = Daemon::start(ServeConfig::ephemeral(&dir)).unwrap();
    let client = Client::new(daemon.local_addr());
    let accepted = client.submit(&slow_request(4)).unwrap();
    let before = read_parse_count(&client);
    let t0 = Instant::now();
    assert_eq!(client.wait(accepted.id, WAIT).unwrap().status, "done");
    let waited = t0.elapsed();
    // The delta also holds the first scrape itself.
    let polls = read_parse_count(&client) - before - 1.0;
    assert!(
        polls <= 2.0,
        "waiting {waited:?} took {polls} status requests"
    );
    client.shutdown().unwrap();
    daemon.join();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every held poll fits inside the client's own read deadline, so an
/// impatient client waits out a batch slower than that deadline.
#[test]
fn impatient_client_waits_out_a_slower_batch() {
    let dir = tmpdir("impatient");
    let daemon = Daemon::start(ServeConfig::ephemeral(&dir)).unwrap();
    let deadline = Duration::from_millis(200);
    let client = Client::with_config(daemon.local_addr(), ClientConfig::impatient(deadline));
    let accepted = client.submit(&slow_request(5)).unwrap();
    let t0 = Instant::now();
    let reply = client.wait(accepted.id, WAIT).unwrap();
    assert_eq!(reply.status, "done", "after {:?}", t0.elapsed());
    client.shutdown().unwrap();
    daemon.join();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The retention bound: after one completion more than
/// [`COMPLETED_RETENTION`], the earliest-finished batch is gone and every
/// later one still answers.
#[test]
fn completed_records_beyond_the_retention_bound_are_evicted() {
    let dir = tmpdir("retention");
    let mut config = ServeConfig::ephemeral(&dir);
    // One worker finishes batches in id order; a deep queue takes them all.
    config.workers = 1;
    config.queue_depth = COMPLETED_RETENTION + 1;
    let daemon = Daemon::start(config).unwrap();
    let client = Client::new(daemon.local_addr());
    // A graph source that cannot materialize: each batch fails at once,
    // which is a completion like any other.
    let graph = asymmetric_gnp(9, 1000).unwrap();
    let failing = BatchRequest::new(
        GraphSource::Ring { n: 0 },
        vec![ScenarioSpec::gathered(Algorithm::RingOptimal, &graph, 0)],
    );
    let ids: Vec<u64> = (0..=COMPLETED_RETENTION)
        .map(|_| client.submit(&failing).unwrap().id)
        .collect();
    let last = *ids.last().unwrap();
    assert_eq!(client.wait(last, WAIT).unwrap().status, "failed");
    assert_eq!(client.stats().unwrap().batches_completed, ids.len() as u64);
    match client.batch(ids[0]) {
        Err(ServiceError::Http { status: 404, .. }) => {}
        other => panic!("the oldest record survived eviction: {other:?}"),
    }
    for &id in &ids[1..] {
        assert_eq!(client.batch(id).unwrap().status, "failed", "batch {id}");
    }
    client.shutdown().unwrap();
    daemon.join();
    let _ = std::fs::remove_dir_all(&dir);
}
