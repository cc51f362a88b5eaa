//! Theorem 4: faster group-based map finding (§3.2).
//!
//! * **Theorem 4** (`Scheme::Thirds`): gathered start, `f ≤ ⌊n/3 − 1⌋`. The
//!   `k` gathered robots split into ID-ordered thirds `A`, `B`, `C`; three
//!   map-finding runs follow, with each group once in the agent seat
//!   (`A`/`B∪C`, `B`/`A∪C`, `C`/`B∪A`). Trust thresholds: a token obeys
//!   instructions from `≥ ⌊k/6⌋+1` distinct agent-group IDs; the agent
//!   senses the token via `≥ ⌊k/3⌋+1` distinct token-group IDs. At most one
//!   group can be Byzantine-heavy, so at least two runs produce the true
//!   map, and the per-run quorum votes let every robot take the 2-of-3
//!   majority. Total `O(n³)` rounds.
//! * `Scheme::Halves` keeps the historical single-run half-split variant
//!   available for experiments (it served as a stand-in for Theorem 5
//!   before the dedicated [`crate::algos::sqrt`] token-replication
//!   subsystem existed; the registry no longer dispatches to it).
//!
//! Both schemes end with the capacity-aware `Dispersion-Using-Map` settle
//! from the gathering node, so `k ≠ n` rosters run first-class (§5's
//! `⌈k/n⌉` regime). The controller scaffold (gather → snapshot → runs →
//! settle) is the shared [`GroupPhaseController`]; this module only
//! contributes the run layout and the 2-of-3 majority.

use crate::algos::common::{
    partition2, partition3, GroupPhaseController, GroupRunSpec, GroupScheme,
};
use crate::mapvote::majority_map;
use crate::msg::Msg;
use crate::registry::{Plan, StartRequirement, TableRow};
use crate::timeline::{dum_budget, group_run_len, t2_work_budget, Timeline};
use bd_graphs::CanonicalForm;
use bd_runtime::{Controller, RobotId, Route};

/// Which group construction to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scheme {
    /// Three runs over ID-ordered thirds (Theorem 4).
    Thirds,
    /// One run over ID-ordered halves with the given quorum threshold for
    /// instructions, presence, and votes (kept for experiments; Theorem 5
    /// proper lives in [`crate::algos::sqrt`]).
    Halves { threshold: usize },
}

impl GroupScheme for Scheme {
    fn plan_runs(&mut self, ids: &[RobotId], n: usize, first_start: u64) -> Vec<GroupRunSpec> {
        let k = ids.len();
        let run_len = group_run_len(n);
        let mut specs: Vec<GroupRunSpec> = Vec::new();
        match self {
            Scheme::Thirds => {
                let (a, b, c) = partition3(ids);
                let instr = k / 6 + 1;
                let presence = k / 3 + 1;
                let seats: [(Vec<RobotId>, Vec<RobotId>); 3] = [
                    (a.clone(), [b.clone(), c.clone()].concat()),
                    (b.clone(), [a.clone(), c.clone()].concat()),
                    (c, [b, a].concat()),
                ];
                for (i, (agents, token)) in seats.into_iter().enumerate() {
                    specs.push(GroupRunSpec {
                        agents: agents.into_iter().collect(),
                        token: token.into_iter().collect(),
                        instr_threshold: instr,
                        presence_threshold: presence,
                        vote_threshold: instr,
                        start: first_start + i as u64 * run_len,
                        work: t2_work_budget(n),
                    });
                }
            }
            Scheme::Halves { threshold } => {
                let (a, b) = partition2(ids);
                specs.push(GroupRunSpec {
                    agents: a.into_iter().collect(),
                    token: b.into_iter().collect(),
                    instr_threshold: *threshold,
                    presence_threshold: *threshold,
                    vote_threshold: *threshold,
                    start: first_start,
                    work: t2_work_budget(n),
                });
            }
        }
        specs
    }

    fn choose_map(&self, votes: &[Option<CanonicalForm>]) -> Option<CanonicalForm> {
        majority_map(votes)
    }
}

/// Controller for Theorem 4 (and the experimental halves scheme): the
/// shared group-phase scaffold driven by [`Scheme`].
pub type GroupController = GroupPhaseController<Scheme>;

impl GroupController {
    /// `gather_script` empty means gathered start (Theorem 4); otherwise the
    /// robot's gathering route with its shared budget.
    pub fn new(
        id: RobotId,
        n: usize,
        scheme: Scheme,
        gather_script: Route,
        gather_budget: u64,
    ) -> Self {
        GroupPhaseController::with_scheme(id, n, scheme, gather_script, gather_budget)
    }
}

/// Table 1 row: Theorem 4.
pub struct ThirdRow;

impl TableRow for ThirdRow {
    fn name(&self) -> &'static str {
        "GatheredThirdTh4"
    }

    fn theorem(&self) -> &'static str {
        "Thm 4"
    }

    fn paper_time(&self) -> &'static str {
        "O(n^3)"
    }

    fn paper_tolerance(&self) -> &'static str {
        "floor(n/3) - 1"
    }

    /// `⌊n/3⌋ − 1`, additionally clamped to what the roster supports when
    /// `k < n` (the 2-of-3 majority needs at most one Byzantine-heavy
    /// third of the *gathered* robots).
    fn tolerance(&self, n: usize, k: usize) -> usize {
        (n.min(k) / 3).saturating_sub(1)
    }

    fn start_requirement(&self) -> StartRequirement {
        StartRequirement::Gathered
    }

    fn round_budget(&self, plan: &Plan) -> u64 {
        1 + 3 * group_run_len(plan.n) + dum_budget(plan.n)
    }

    fn phase_schedule(&self, plan: &Plan) -> Timeline {
        let mut t = Timeline::default();
        t.push("snapshot", 1);
        t.push("replicate", 3 * group_run_len(plan.n));
        t.push("settle", dum_budget(plan.n));
        t
    }

    fn build_controller(&self, plan: &Plan, i: usize) -> Box<dyn Controller<Msg>> {
        Box::new(GroupController::new(
            plan.ids[i],
            plan.n,
            Scheme::Thirds,
            plan.gather_script(i),
            plan.gather_budget,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_unset_before_snapshot() {
        let c = GroupController::new(RobotId(1), 9, Scheme::Thirds, Route::default(), 0);
        assert!(!c.terminated());
        assert!(c.runs().is_empty());
    }

    #[test]
    fn snapshot_schedules_three_runs_and_settle() {
        let mut c = GroupController::new(RobotId(1), 9, Scheme::Thirds, Route::default(), 0);
        let ids: Vec<RobotId> = (1..=9).map(RobotId).collect();
        c.snapshot(&ids);
        assert_eq!(c.runs().len(), 3);
        let (start, end) = c.settle().bounds();
        assert_eq!(start, 1 + 3 * group_run_len(9));
        assert_eq!(end, start + dum_budget(9));
        assert_eq!(c.settle().capacity(), 1);
    }

    #[test]
    fn capacity_follows_roster_size() {
        // §5 regime: a 2n roster settles two honest robots per node.
        let mut c = GroupController::new(RobotId(1), 8, Scheme::Thirds, Route::default(), 0);
        let ids: Vec<RobotId> = (1..=16).map(RobotId).collect();
        c.snapshot(&ids);
        assert_eq!(c.settle().k_seen(), 16);
        assert_eq!(c.settle().capacity(), 2);
    }
}
