//! Run metrics: the quantities the paper's Table 1 is about.

use serde::{DeError, Deserialize, Serialize, Value};

/// Aggregate measurements from one simulation run.
///
/// Equality deliberately ignores [`RunMetrics::elapsed_micros`] and
/// [`RunMetrics::rounds_by_phase`]: wall-clock time is a *measurement of
/// the host*, and the phase breakdown is a session-layer annotation derived
/// from the controller schedule — neither is part of the simulated
/// trajectory, so reruns (and oracle comparisons) compare equal whether or
/// not the annotations were attached. Serialization keeps both — a stored
/// run's cost and phase breakdown travel with it.
#[derive(Debug, Clone, Default, Serialize)]
pub struct RunMetrics {
    /// Synchronous rounds elapsed (the paper's complexity measure).
    pub rounds: u64,
    /// Total edge traversals across all robots.
    pub total_moves: u64,
    /// Maximum edge traversals by any single robot.
    pub max_moves_per_robot: u64,
    /// Total messages published.
    pub messages: u64,
    /// Sub-rounds actually executed (the engine collapses rounds where no
    /// robot requested communication).
    pub subrounds_executed: u64,
    /// Rounds fast-forwarded over because every active robot declared
    /// idleness or a route (counted inside [`RunMetrics::rounds`], never in
    /// addition to it). `rounds - rounds_skipped` is the number of rounds the engine
    /// actually stepped.
    pub rounds_skipped: u64,
    /// Wall-clock cost of the run in microseconds, measured by the session
    /// layer around engine construction + execution (the engine itself does
    /// not read clocks). Zero for runs predating the measurement or served
    /// from a result store snapshot taken before it existed.
    pub elapsed_micros: u64,
    /// Rounds per controller phase, in schedule order — the run's round
    /// budget decomposed along the controller's phase timeline (e.g.
    /// `[("gather", 1200), ("pairing", 9000), ("settle", 80)]`), populated
    /// by the session layer from the registry row's phase schedule and
    /// clipped to the measured rounds. Empty for runs predating the field
    /// or decoded from older stored results.
    pub rounds_by_phase: Vec<(String, u64)>,
}

impl PartialEq for RunMetrics {
    fn eq(&self, other: &Self) -> bool {
        // Everything except wall-clock and the phase annotation (see the
        // type-level note).
        self.rounds == other.rounds
            && self.total_moves == other.total_moves
            && self.max_moves_per_robot == other.max_moves_per_robot
            && self.messages == other.messages
            && self.subrounds_executed == other.subrounds_executed
            && self.rounds_skipped == other.rounds_skipped
    }
}

impl Eq for RunMetrics {}

/// Hand-written (not derived) so stored results from before
/// `elapsed_micros` / `rounds_by_phase` still decode: the derive treats
/// every field as required, while these two annotation fields default to
/// zero/empty when absent.
impl Deserialize for RunMetrics {
    fn de(v: &Value) -> Result<Self, DeError> {
        Ok(RunMetrics {
            rounds: serde::__field(v, "rounds")?,
            total_moves: serde::__field(v, "total_moves")?,
            max_moves_per_robot: serde::__field(v, "max_moves_per_robot")?,
            messages: serde::__field(v, "messages")?,
            subrounds_executed: serde::__field(v, "subrounds_executed")?,
            rounds_skipped: serde::__field(v, "rounds_skipped")?,
            elapsed_micros: match v.get("elapsed_micros") {
                Some(inner) => u64::de(inner)?,
                None => 0,
            },
            rounds_by_phase: match v.get("rounds_by_phase") {
                Some(inner) => Vec::<(String, u64)>::de(inner)?,
                None => Vec::new(),
            },
        })
    }
}

impl RunMetrics {
    /// Merge a per-robot move count into the aggregates.
    pub(crate) fn record_moves(&mut self, per_robot: &[u64]) {
        self.total_moves = per_robot.iter().sum();
        self.max_moves_per_robot = per_robot.iter().copied().max().unwrap_or(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_moves_aggregates() {
        let mut m = RunMetrics::default();
        m.record_moves(&[3, 7, 5]);
        assert_eq!(m.total_moves, 15);
        assert_eq!(m.max_moves_per_robot, 7);
    }

    #[test]
    fn equality_ignores_wall_clock() {
        let mut a = RunMetrics {
            rounds: 10,
            ..Default::default()
        };
        let mut b = a.clone();
        a.elapsed_micros = 1;
        b.elapsed_micros = 99;
        assert_eq!(a, b, "wall-clock is not part of the trajectory");
        b.rounds = 11;
        assert_ne!(a, b);
    }

    #[test]
    fn equality_ignores_phase_annotation() {
        let a = RunMetrics {
            rounds: 10,
            rounds_by_phase: vec![("gather".into(), 4), ("settle".into(), 6)],
            ..Default::default()
        };
        let b = RunMetrics {
            rounds: 10,
            ..Default::default()
        };
        assert_eq!(a, b, "the phase breakdown is an annotation, not physics");
    }

    #[test]
    fn roundtrips_and_tolerates_missing_annotations() {
        let m = RunMetrics {
            rounds: 12,
            total_moves: 3,
            max_moves_per_robot: 2,
            messages: 5,
            subrounds_executed: 12,
            rounds_skipped: 4,
            elapsed_micros: 77,
            rounds_by_phase: vec![("walk".into(), 8), ("settle".into(), 4)],
        };
        let back = RunMetrics::de(&m.ser()).unwrap();
        assert_eq!(back, m);
        assert_eq!(back.rounds_by_phase, m.rounds_by_phase);
        assert_eq!(back.elapsed_micros, 77);

        // A record written before the annotation fields existed.
        let mut legacy = match m.ser() {
            Value::Object(pairs) => pairs,
            other => panic!("metrics serialize to an object, got {other:?}"),
        };
        legacy.retain(|(k, _)| k != "rounds_by_phase" && k != "elapsed_micros");
        let decoded = RunMetrics::de(&Value::Object(legacy)).unwrap();
        assert_eq!(decoded, m, "trajectory fields survive");
        assert!(decoded.rounds_by_phase.is_empty());
        assert_eq!(decoded.elapsed_micros, 0);
    }
}
