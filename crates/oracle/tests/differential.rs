//! The differential harness, tested against itself.
//!
//! Three layers:
//!
//! 1. **Spot agreement** — hand-picked adversarial cells (the ones with the
//!    hairiest phase timelines) agree between the fast engine and the
//!    oracle. The full conformance matrix lives in
//!    `crates/dispersion/tests/determinism.rs`; this is the oracle crate's
//!    own quick gate.
//! 2. **Sensitivity** — the harness must have teeth: with the engine's
//!    fault-injection knob (`ff_overshoot`, which makes fast-forward
//!    deliberately skip one round too many — idle jumps and route jumps
//!    alike) the fuzzer is REQUIRED to find and minimize a divergence. A harness that cannot catch a known-broken
//!    engine proves nothing when it reports a clean run.
//! 3. **Fuzz smoke** — a small random batch stays clean. The deep batch
//!    (500+ cases) runs in CI's non-blocking fuzz job and via
//!    `cargo run --release -p bd-bench --bin fuzz`.

use bd_dispersion::adversaries::AdversaryKind;
use bd_dispersion::runner::{Algorithm, ByzPlacement, ScenarioSpec};
use bd_dispersion::Session;
use bd_graphs::generators::{lollipop, ring};
use bd_oracle::{
    check_cell, check_cell_tuned, run_fuzz, run_fuzz_with, CaseSketch, CellVerdict, FuzzConfig,
    GraphFamily,
};

/// The hand-minimized regression from the bug this harness caught during
/// bring-up: GatheredHalfTh3 on a lollipop, where a fast-forward jump
/// crossing the pairing→settle boundary made controllers derive their
/// sub-round request from a stale round. Kept as a named cell so the exact
/// trajectory stays pinned.
#[test]
fn pairing_settle_boundary_jump_regression() {
    let graph = lollipop(3, 2).unwrap();
    let session = Session::new(graph);
    let spec = ScenarioSpec::evaluation(Algorithm::GatheredHalfTh3, session.graph())
        .with_byzantine(1, AdversaryKind::MapLiar)
        .with_placement(ByzPlacement::Random)
        .with_seed(15969449143089021078);
    match check_cell(&session, &spec) {
        CellVerdict::Match { .. } => {}
        v => panic!("regression cell no longer agrees: {v:?}"),
    }
}

#[test]
fn spot_cells_agree() {
    let cells = [
        (Algorithm::RingOptimal, AdversaryKind::FakeSettler),
        (Algorithm::StrongGatheredTh6, AdversaryKind::StrongSpoofer),
        (Algorithm::GatheredThirdTh4, AdversaryKind::CrashMidway),
    ];
    let session = Session::new(ring(6).unwrap());
    for (algo, kind) in cells {
        let f = algo.tolerance(6);
        let spec = ScenarioSpec::evaluation(algo, session.graph())
            .with_byzantine(f.min(2), kind)
            .with_placement(ByzPlacement::Random)
            .with_seed(17);
        let verdict = check_cell(&session, &spec);
        assert!(verdict.agreed(), "{algo:?}/{kind:?}: {verdict:?}");
    }
}

/// Tuning must apply to the fast side only — here it is the identity, so
/// the tuned and untuned verdicts coincide.
#[test]
fn tuned_identity_matches_untuned() {
    let session = Session::new(ring(5).unwrap());
    let spec = ScenarioSpec::evaluation(Algorithm::RingOptimal, session.graph()).with_seed(3);
    let a = check_cell(&session, &spec);
    let b = check_cell_tuned(&session, &spec, std::convert::identity);
    assert!(a.agreed() && b.agreed(), "{a:?} / {b:?}");
}

/// The teeth test: a deliberately broken fast engine (fast-forward
/// overshoots its idle horizon by one round) must be caught, and the
/// failure must come back minimized with the round of first mismatch.
#[test]
fn fuzzer_catches_overshooting_fast_forward() {
    let config = FuzzConfig {
        cases: 60,
        seed: 0xB12A,
        max_n: 8,
        time_budget: None,
    };
    let report = run_fuzz_with(&config, |c| c.with_ff_overshoot(1));
    let failure = report
        .failure
        .expect("a fast-forward overshoot of one full round must diverge");
    assert!(
        failure.minimized.n <= failure.original.n,
        "minimizer grew the case: {failure}"
    );
    assert!(
        failure.divergence.round().is_some(),
        "divergence must locate a round: {failure}"
    );
}

/// The teeth test for route jumps: a fault-free Theorem 1 cell has no idle
/// robot, so its only jump is the route jump along the `Find-Map` walk.
/// With the overshoot injected that jump lands past the walk's end, the
/// robots lose their first settle round, and the fuzzer's cell check must
/// see it; the correct engine must agree with the oracle on the same cell.
#[test]
fn fuzzer_catches_overshooting_route_jump() {
    let sketch = CaseSketch {
        family: GraphFamily::Ring,
        n: 7,
        algo: Algorithm::QuotientTh1,
        adversary: AdversaryKind::Squatter,
        k: 7,
        f: 0,
        placement: ByzPlacement::Random,
        overloaded: false,
        explicit_starts: false,
        graph_seed: 1,
        spec_seed: 0xC0FE,
    };
    let clean = sketch.check(std::convert::identity);
    assert!(clean.agreed(), "correct engine: {clean:?}");
    match sketch.check(|c| c.with_ff_overshoot(1)) {
        CellVerdict::Diverged(d) => {
            assert!(d.round().is_some(), "divergence must locate a round: {d}")
        }
        v => panic!("an overshooting route jump must diverge, got {v:?}"),
    }
}

/// A small clean batch — the smoke version of the acceptance fuzz run.
#[test]
fn fuzz_smoke_batch_is_clean() {
    let report = run_fuzz(&FuzzConfig {
        cases: 25,
        seed: 0xD1FF,
        max_n: 8,
        time_budget: None,
    });
    assert_eq!(report.cases_run, 25);
    assert!(
        report.clean(),
        "differential fuzz found a divergence:\n{}",
        report.failure.unwrap()
    );
    assert!(report.matched > 0, "batch never exercised a full run");
}
