//! # bd-runtime
//!
//! The synchronous multi-robot simulation engine for Byzantine dispersion
//! (paper §1.1).
//!
//! Each **round** consists of:
//!
//! 1. a configurable number of **sub-rounds** of local communication —
//!    co-located robots publish messages onto the node's bulletin and read
//!    what was published in earlier sub-rounds of the same round (the paper
//!    breaks rounds into `n` sub-rounds for `Dispersion-Using-Map`, §2.2);
//! 2. a simultaneous **move** step — each robot may leave through a port; a
//!    robot that crosses an edge learns the port numbers on both sides.
//!
//! Robots are [`controller::Controller`] implementations driven by the
//! [`engine::Engine`]. The engine enforces the **weak/strong Byzantine
//! distinction** at the identity layer: publications from honest and weak
//! Byzantine robots are stamped with their true ID (a weak Byzantine robot
//! "cannot fake its ID"), while strong Byzantine robots choose any claimed
//! ID each round (§4).
//!
//! Controllers never see the graph; they observe only the local degree, the
//! co-located roster, the bulletin, and arrival port pairs — exactly the
//! information the paper's model grants.
//!
//! ## The hot loop: scratch arenas
//!
//! Table 1 rows are Θ(n³)–O(n⁴)-round protocols, so [`engine::Engine::step`]
//! is the hot path of every sweep. Its per-round state lives in
//! engine-owned, reusable **arenas** rather than per-round maps: occupancy
//! and rosters are flat vectors indexed by the dense [`bd_graphs::NodeId`],
//! maintained incrementally via a moved-robots dirty list (a round that
//! moves nothing re-sorts nothing; nodes hosting ID-faking robots re-sort
//! every round), and bulletins are reusable per-node buffers cleared
//! through a touched list. The steady-state round performs **zero heap
//! allocation**; see the `engine` module docs for the layout.
//!
//! ## The fast-forward contract: idle horizons and routes
//!
//! [`controller::Controller::idle_until`] lets a controller promise that
//! skipping its `act`/`decide_move` calls until a given round changes
//! nothing observable. [`controller::Controller::route`] lets it promise
//! instead that it will take a fixed sequence of ports, one per round,
//! without reading or publishing (a [`Route`] is the shared representation
//! of such a walk). When **every** active robot reports a horizon or a
//! route the engine jumps straight to the earliest horizon (a route ends
//! after its last port), applying the routed moves itself and reporting
//! them back through [`controller::Controller::advance_route`]
//! ([`EngineConfig::fast_forward`] gates this;
//! [`metrics::RunMetrics::rounds_skipped`] records it). Because no robot
//! reads in a jumped round, no jumped round has a bulletin or roster
//! reader — which is what makes the promise checkable locally: a robot
//! need only guarantee it would neither read nor deviate from its route.
//! Honest controllers derive horizons and route ends from their phase
//! timelines; adversary controllers declare horizons consistent with their
//! strategy (see `bd-dispersion`'s `adversaries` module for the burst-grid
//! design).
//! Measured rounds are timeline-derived, so fast-forwarding never drifts
//! them — the determinism suite replays scenarios with the feature
//! disabled and asserts bit-identical trajectories.
//!
//! ## Instrumentation
//!
//! When `bd_telemetry::counters_enabled()` is set at engine construction,
//! the engine carries a `bd-telemetry` recorder: per-phase
//! `EngineCounters` deltas keyed to marks installed via
//! [`engine::Engine::set_phase_marks`], round-window snapshots, and an
//! `EngineReport` published at run end. Disabled, the whole layer is one
//! relaxed atomic load at construction and a `None` check per round.
//! `OBSERVABILITY.md` at the repo root documents every counter.

pub mod config;
pub mod controller;
pub mod engine;
pub mod error;
pub mod ids;
pub mod metrics;
pub mod observation;
pub mod route;
pub mod trace;
pub mod world;

pub use config::EngineConfig;
pub use controller::{Controller, MoveChoice};
pub use engine::{Engine, EpochOutcome, RunOutcome, WorldEvent};
pub use error::RunError;
pub use ids::{Flavor, RobotId};
pub use metrics::RunMetrics;
pub use observation::{ArrivalInfo, Observation, Publication};
pub use route::Route;
pub use trace::{Event, Trace, TraceDivergence};
pub use world::World;
