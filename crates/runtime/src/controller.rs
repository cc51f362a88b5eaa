//! The controller interface implemented by every robot — honest or
//! Byzantine.

use crate::ids::RobotId;
use crate::observation::Observation;
use bd_graphs::Port;

/// A robot's movement decision at the end of a round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MoveChoice {
    /// Remain at the current node.
    Stay,
    /// Leave through the given local port.
    Move(Port),
}

/// A robot's behavior. The engine drives one controller per robot.
///
/// The same trait serves honest and Byzantine robots: Byzantine behavior is
/// just a controller that deviates. What a Byzantine robot *cannot* do —
/// fake its ID when weak — is enforced by the engine, not trusted to the
/// controller.
pub trait Controller<M> {
    /// The robot's true ID (assigned at setup, immutable).
    fn id(&self) -> RobotId;

    /// The ID this robot claims this round. The engine ignores the result
    /// unless the robot is registered [`crate::Flavor::StrongByzantine`].
    fn claimed_id(&self) -> RobotId {
        self.id()
    }

    /// How many communication sub-rounds this robot wants in `round` (the
    /// round the engine is about to step). The engine runs the maximum
    /// requested over all robots (the paper fixes `n` sub-rounds where
    /// needed; phases that only walk request 1 so simulation stays cheap).
    ///
    /// The round is a parameter — not inferred from the last `act` call —
    /// because fast-forwarding skips `act` calls: a controller that derived
    /// its phase from remembered state would request the *old* phase's
    /// sub-round count in the first round after a jump across a phase
    /// boundary (a bug class the oracle-differential harness caught for
    /// real; see `bd-oracle`).
    fn subrounds_wanted(&self, _round: u64) -> usize {
        1
    }

    /// Called once per sub-round. May publish one message onto the node's
    /// bulletin, visible to co-located robots in later sub-rounds.
    fn act(&mut self, obs: &Observation<'_, M>) -> Option<M>;

    /// Called after the final sub-round: choose where to move.
    fn decide_move(&mut self, obs: &Observation<'_, M>) -> MoveChoice;

    /// Whether this robot has terminated (stays put and goes silent
    /// forever). The engine stops once every *honest* robot terminates.
    fn terminated(&self) -> bool {
        false
    }

    /// The idle-fast-forward contract. Returning `Some(r)` promises: *if
    /// the engine stops calling this controller until absolute round `r`,
    /// nothing observable changes* — the robot would neither move nor read,
    /// and anything it might have published would go unread (the engine
    /// only skips rounds in which **every** active robot is idle or on a
    /// route, so no bulletin of a skipped round has a reader). When all
    /// active robots report idleness (or a route, see [`Controller::route`])
    /// the engine jumps the round counter to the earliest horizon and
    /// records the jump in `RunMetrics::rounds_skipped`.
    ///
    /// Honest controllers derive horizons from their phase timelines
    /// (e.g. "construction finished; next action at the vote round").
    /// Byzantine controllers may report any horizon consistent with their
    /// *strategy* (an adversary that only acts on a burst grid is idle
    /// until the next burst). Declaring idleness while actually wanting to
    /// act is a controller bug; the determinism suite catches it by running
    /// scenarios with fast-forward disabled and comparing trajectories.
    fn idle_until(&self) -> Option<u64> {
        None
    }

    /// The route contract: the ports this robot will take in rounds
    /// `round, round + 1, …` (epoch-local, like every controller round),
    /// one per round, with nothing else happening in those rounds — its
    /// `act` calls would publish nothing and read nothing, and its
    /// `decide_move` calls would return exactly these ports. An empty
    /// slice (the default) makes no promise.
    ///
    /// Routes compose with [`Controller::idle_until`]: when every
    /// non-terminated robot is either on a route or idle, the engine jumps
    /// to the earliest horizon (a route ends after its last port), applying
    /// each route's moves itself, and then reports what it consumed through
    /// [`Controller::advance_route`]. Since no robot reads in a jumped
    /// round, nothing a skipped call would have observed can matter; moves,
    /// final positions and the arrival port pair of the last jumped round
    /// are exact. A robot that reports a route is treated as routed even if
    /// it also reports an idle horizon, and `terminated` must not change
    /// while it walks one. Controllers clip the route to the phase it
    /// belongs to (the gathering walk ends at the snapshot round), which is
    /// why the round is a parameter ([`crate::Route::before`]).
    fn route(&self, _round: u64) -> &[Port] {
        &[]
    }

    /// The engine walked the first `taken` ports of the route reported by
    /// [`Controller::route`]; the last of them was taken in (epoch-local)
    /// `last_round`, the round a stepped robot would have seen last. Called
    /// only after a jump that consumed at least one port.
    fn advance_route(&mut self, _taken: usize, _last_round: u64) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observation::Publication;

    struct Echo {
        id: RobotId,
    }

    impl Controller<u32> for Echo {
        fn id(&self) -> RobotId {
            self.id
        }
        fn act(&mut self, obs: &Observation<'_, u32>) -> Option<u32> {
            Some(obs.bulletin.len() as u32)
        }
        fn decide_move(&mut self, _obs: &Observation<'_, u32>) -> MoveChoice {
            MoveChoice::Stay
        }
    }

    #[test]
    fn default_trait_methods() {
        let e = Echo { id: RobotId(9) };
        assert_eq!(e.claimed_id(), RobotId(9));
        assert_eq!(e.subrounds_wanted(0), 1);
        assert!(!e.terminated());
    }

    #[test]
    fn act_sees_bulletin() {
        let mut e = Echo { id: RobotId(1) };
        let bulletin = vec![Publication {
            sender: RobotId(2),
            subround: 0,
            body: 7u32,
        }];
        let roster = vec![RobotId(1), RobotId(2)];
        let obs = Observation {
            round: 3,
            subround: 1,
            subrounds: 2,
            degree: 2,
            roster: &roster,
            bulletin: &bulletin,
            arrival: None,
        };
        assert_eq!(e.act(&obs), Some(1));
    }
}
