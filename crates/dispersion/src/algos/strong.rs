//! Theorems 6 and 7: **strong** Byzantine robots, `f ≤ ⌊n/4 − 1⌋` (§4).
//!
//! Strong Byzantine robots fake IDs, so all trust is by *counting distinct
//! claimed IDs against the `⌊n/4⌋` threshold*: with `f ≤ ⌊n/4⌋ − 1`
//! Byzantine robots, no forged quorum can reach `⌊n/4⌋`, while each
//! ID-ordered half of the gathering retains at least `⌊n/4⌋` honest
//! members.
//!
//! * Phase 1 — one group map-finding run: lower half `A` agents, upper half
//!   `B` the token, all thresholds `⌊n/4⌋`.
//! * Phase 2 — **rank dispersion** (no DUM, no communication): the robots
//!   order the `k` snapshot IDs; the robot of rank `i` walks to node `v(i)`
//!   of the agreed map's deterministic node ordering and settles. `O(n³)`
//!   rounds total, dominated by phase 1.
//!
//! Theorem 7 (arbitrary start) prepends the gathering substrate, which is
//! immune to strong Byzantine robots by construction (DESIGN.md,
//! substitution 4 explains why this replaces the paper's exponential
//! black-box gathering).

use crate::algos::common::{partition2, snapshot_ids, GroupRun, GroupRunSpec};
use crate::msg::Msg;
use crate::registry::{Plan, StartRequirement, TableRow};
use crate::timeline::{group_run_len, rank_walk_budget, t2_work_budget, Timeline};
use bd_graphs::navigate::shortest_path_ports;
use bd_graphs::Port;
use bd_runtime::{Controller, MoveChoice, Observation, RobotId, Route};

/// Controller for Theorems 6 (gathered) and 7 (arbitrary start).
pub struct StrongController {
    id: RobotId,
    n: usize,
    gather_script: Route,
    snapshot_round: u64,
    /// Snapshot IDs (set at the snapshot round).
    ids: Vec<RobotId>,
    run: Option<GroupRun>,
    walk_start: u64,
    walk_end: u64,
    /// Rank walk to the assigned node, computed when the walk phase starts.
    walk_path: Option<Route>,
    round_seen: u64,
}

impl StrongController {
    /// `gather_script` empty = Theorem 6 (gathered start); otherwise the
    /// robot's gathering route and shared budget (Theorem 7).
    pub fn new(id: RobotId, n: usize, gather_script: Route, gather_budget: u64) -> Self {
        let snapshot_round = if gather_script.is_empty() {
            0
        } else {
            gather_budget
        };
        StrongController {
            id,
            n,
            gather_script,
            snapshot_round,
            ids: Vec::new(),
            run: None,
            walk_start: u64::MAX,
            walk_end: u64::MAX,
            walk_path: None,
            round_seen: 0,
        }
    }

    fn threshold(&self) -> usize {
        (self.n / 4).max(1)
    }
}

impl Controller<Msg> for StrongController {
    fn id(&self) -> RobotId {
        self.id
    }

    fn subrounds_wanted(&self, round: u64) -> usize {
        if round > self.snapshot_round {
            2
        } else {
            1
        }
    }

    fn act(&mut self, obs: &Observation<'_, Msg>) -> Option<Msg> {
        self.round_seen = obs.round;
        if obs.round == self.snapshot_round && self.run.is_none() && obs.subround == 0 {
            // Snapshot of *claimed* IDs: duplicates collapse; every honest
            // robot records the identical set.
            self.ids = snapshot_ids(obs.roster);
            let (a, b) = partition2(&self.ids);
            let t = self.threshold();
            let spec = GroupRunSpec {
                agents: a.into_iter().collect(),
                token: b.into_iter().collect(),
                instr_threshold: t,
                presence_threshold: t,
                vote_threshold: t,
                start: self.snapshot_round + 1,
                work: t2_work_budget(self.n),
            };
            self.walk_start = spec.end();
            self.walk_end = self.walk_start + rank_walk_budget(self.n);
            self.run = Some(GroupRun::new(spec, self.id, self.n));
            return None;
        }
        if let Some(run) = self.run.as_mut() {
            if run.active(obs.round) {
                return run.act(obs);
            }
        }
        if obs.round >= self.walk_start && self.walk_path.is_none() {
            // Phase 2: rank dispersion. The robot of rank i settles at
            // node v(i) of the agreed map's canonical node ordering.
            let map = self
                .run
                .as_ref()
                .and_then(|r| r.accepted())
                .map(|f| f.to_graph());
            let path = map
                .and_then(|map| {
                    let rank = self.ids.iter().position(|&r| r == self.id)?;
                    if rank >= map.n() {
                        return None;
                    }
                    shortest_path_ports(&map, 0, rank)
                })
                .unwrap_or_default();
            self.walk_path = Some(Route::from(path));
        }
        None
    }

    fn decide_move(&mut self, obs: &Observation<'_, Msg>) -> MoveChoice {
        self.round_seen = obs.round;
        if obs.round < self.snapshot_round {
            return match self.gather_script.pop() {
                Some(p) => MoveChoice::Move(p),
                None => MoveChoice::Stay,
            };
        }
        if let Some(run) = self.run.as_mut() {
            if run.active(obs.round) {
                return run.decide_move(obs.round, obs.degree);
            }
        }
        if obs.round >= self.walk_start && obs.round < self.walk_end {
            if let Some(p) = self.walk_path.as_mut().and_then(Route::pop) {
                return MoveChoice::Move(p);
            }
        }
        MoveChoice::Stay
    }

    fn terminated(&self) -> bool {
        self.walk_end != u64::MAX && self.round_seen + 1 >= self.walk_end
    }

    fn idle_until(&self) -> Option<u64> {
        if self.round_seen < self.snapshot_round && self.gather_script.is_empty() {
            return Some(self.snapshot_round);
        }
        if let Some(run) = self.run.as_ref() {
            if run.active(self.round_seen) {
                return run.idle_until(self.round_seen);
            }
        }
        // Walk phase: once the path is exhausted, idle to the phase's last
        // round (acting there flips `terminated`, so the fast-forwarded
        // round count equals the budget exactly).
        if self.round_seen >= self.walk_start
            && self.walk_path.as_ref().is_some_and(|p| p.is_empty())
        {
            return Some(self.walk_end.saturating_sub(1));
        }
        None
    }

    fn route(&self, round: u64) -> &[Port] {
        if round < self.snapshot_round {
            return self.gather_script.before(round, self.snapshot_round);
        }
        // The rank walk, once the first walk round has computed it. The
        // phase's last round stays stepped: acting there flips `terminated`.
        match &self.walk_path {
            Some(path) if round >= self.walk_start => path.before(round, self.walk_end - 1),
            _ => &[],
        }
    }

    fn advance_route(&mut self, taken: usize, last_round: u64) {
        if last_round < self.snapshot_round {
            self.gather_script.advance(taken);
        } else if let Some(path) = self.walk_path.as_mut() {
            path.advance(taken);
        }
        self.round_seen = last_round;
    }
}

/// Table 1 rows: Theorem 6 (gathered start) and Theorem 7 (arbitrary
/// start, gathers first) share one descriptor parameterized on the start.
pub struct StrongRow {
    gathers: bool,
}

/// Theorem 6's descriptor (gathered start).
pub static STRONG_TH6: StrongRow = StrongRow { gathers: false };
/// Theorem 7's descriptor (arbitrary start).
pub static STRONG_TH7: StrongRow = StrongRow { gathers: true };

impl TableRow for StrongRow {
    fn name(&self) -> &'static str {
        if self.gathers {
            "StrongArbitraryTh7"
        } else {
            "StrongGatheredTh6"
        }
    }

    fn theorem(&self) -> &'static str {
        if self.gathers {
            "Thm 7"
        } else {
            "Thm 6"
        }
    }

    fn paper_time(&self) -> &'static str {
        if self.gathers {
            "exponential(n)*"
        } else {
            "O(n^3)"
        }
    }

    fn paper_tolerance(&self) -> &'static str {
        "floor(n/4) - 1"
    }

    /// `⌊n/4⌋ − 1`, additionally clamped to what the roster supports when
    /// `k < n` (the `⌊n/4⌋` counting threshold must stay out of the
    /// coalition's reach among the gathered robots).
    fn tolerance(&self, n: usize, k: usize) -> usize {
        (n.min(k) / 4).saturating_sub(1)
    }

    fn start_requirement(&self) -> StartRequirement {
        if self.gathers {
            StartRequirement::GathersFirst
        } else {
            StartRequirement::Gathered
        }
    }

    fn strong(&self) -> bool {
        true
    }

    fn round_budget(&self, plan: &Plan) -> u64 {
        plan.gather_budget + 1 + group_run_len(plan.n) + rank_walk_budget(plan.n)
    }

    fn phase_schedule(&self, plan: &Plan) -> Timeline {
        let mut t = Timeline::default();
        if plan.gather_budget > 0 {
            t.push("gather", plan.gather_budget);
        }
        t.push("snapshot", 1);
        t.push("map_run", group_run_len(plan.n));
        t.push("rank_walk", rank_walk_budget(plan.n));
        t
    }

    fn build_controller(&self, plan: &Plan, i: usize) -> Box<dyn Controller<Msg>> {
        Box::new(StrongController::new(
            plan.ids[i],
            plan.n,
            plan.gather_script(i),
            plan.gather_budget,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threshold_is_quarter_n() {
        let c = StrongController::new(RobotId(1), 16, Route::default(), 0);
        assert_eq!(c.threshold(), 4);
        let c = StrongController::new(RobotId(1), 3, Route::default(), 0);
        assert_eq!(c.threshold(), 1);
    }
}
