//! Per-robot gathering routes: the exact port script a robot follows.

use crate::error::GatherError;
use crate::plan::{gathering_target, GatherPlan};
use bd_exploration::walks::{cover_walk_length, SharedWalk};
use bd_graphs::navigate::shortest_path_ports;
use bd_graphs::{NodeId, Port, PortGraph};
use bd_runtime::Route;

/// Protocol tag for the gathering phase's shared walk (phases use distinct
/// tags so their pseudorandom walks are independent).
pub const GATHER_WALK_TAG: u64 = 0x6761_7468; // "gath"

/// A robot's precomputed gathering script.
#[derive(Debug, Clone)]
pub struct GatherRoute {
    /// Port sequence to execute, one port per round. After the script the
    /// robot idles in place until `budget_rounds` have elapsed.
    pub ports: Vec<Port>,
    /// Where the script ends (the gathering node).
    pub end: NodeId,
    /// Shared phase budget (same for all robots).
    pub budget_rounds: u64,
}

/// Compute the gathering route for a robot starting at `start`.
///
/// The route is: the shared exploration walk of `cover_walk_length(n)`
/// steps (the view-learning phase, charged as real movement), then the
/// quotient-path navigation to the canonical singleton class. Deterministic
/// and independent of other robots, hence Byzantine-immune.
pub fn gather_route(g: &PortGraph, start: NodeId) -> Result<GatherRoute, GatherError> {
    let plan: GatherPlan = gathering_target(g)?;
    let n = g.n();
    let mut ports = Vec::with_capacity(cover_walk_length(n) as usize + n);
    let mut walk = SharedWalk::for_size(n, GATHER_WALK_TAG);
    let mut cur = start;
    for _ in 0..cover_walk_length(n) {
        let p = walk.next_port(g.degree(cur));
        ports.push(p);
        cur = g.neighbor(cur, p).0;
    }
    let end = navigate_to_target(g, &plan, cur, &mut ports);
    Ok(GatherRoute {
        ports,
        end,
        budget_rounds: plan.budget_rounds,
    })
}

/// The gathering routes of a whole roster, one per entry of `starts`, plus
/// the shared phase budget. Equal to calling [`gather_route`] per robot,
/// but the [`GatherPlan`] (quotient graph and canonical forms) is computed
/// once, robots that start on the same node share one [`Route`]
/// allocation, and the distinct starts walk in lockstep: every walk
/// consumes the same draws, so two walks that meet on a node take the same
/// ports from then on, and the later one copies the rest of the earlier
/// one's route instead of drawing it again.
pub fn gather_routes(g: &PortGraph, starts: &[NodeId]) -> Result<(Vec<Route>, u64), GatherError> {
    let plan = gathering_target(g)?;
    let n = g.n();
    let mut distinct = starts.to_vec();
    distinct.sort_unstable();
    distinct.dedup();
    let mut walks: Vec<SharedWalk> = distinct
        .iter()
        .map(|_| SharedWalk::for_size(n, GATHER_WALK_TAG))
        .collect();
    let mut ports: Vec<Vec<Port>> = distinct
        .iter()
        .map(|_| Vec::with_capacity(cover_walk_length(n) as usize + n))
        .collect();
    let mut cur = distinct.clone();
    // `joined[w] = Some((l, t))`: walk `w` met walk `l < w` after `t` ports.
    let mut joined: Vec<Option<(usize, usize)>> = vec![None; distinct.len()];
    let mut live: Vec<usize> = (0..distinct.len()).collect();
    let mut owner: Vec<Option<usize>> = vec![None; n];
    for t in 1..=cover_walk_length(n) as usize {
        for &w in &live {
            let p = walks[w].next_port(g.degree(cur[w]));
            ports[w].push(p);
            cur[w] = g.neighbor(cur[w], p).0;
        }
        if live.len() > 1 {
            live.retain(|&w| match owner[cur[w]] {
                Some(l) => {
                    joined[w] = Some((l, t));
                    false
                }
                None => {
                    owner[cur[w]] = Some(w);
                    true
                }
            });
            for &w in &live {
                owner[cur[w]] = None;
            }
        }
    }
    for &w in &live {
        navigate_to_target(g, &plan, cur[w], &mut ports[w]);
    }
    // Leaders have lower indices, so their routes are complete first.
    for w in 0..distinct.len() {
        if let Some((l, t)) = joined[w] {
            let (done, rest) = ports.split_at_mut(w);
            rest[0].extend_from_slice(&done[l][t..]);
        }
    }
    let by_start: Vec<Route> = ports.into_iter().map(Route::from).collect();
    let routes = starts
        .iter()
        .map(|s| by_start[distinct.binary_search(s).expect("start is listed")].clone())
        .collect();
    Ok((routes, plan.budget_rounds))
}

/// Append the navigation from `cur` to the gathering node to `ports` and
/// return that node. A path of quotient classes projects onto a real path;
/// the target class is a singleton, so the endpoint is the unique
/// gathering node.
fn navigate_to_target(
    g: &PortGraph,
    plan: &GatherPlan,
    mut cur: NodeId,
    ports: &mut Vec<Port>,
) -> NodeId {
    let class_path = shortest_path_ports(
        &plan.quotient.graph,
        plan.quotient.class_of[cur],
        plan.target_class,
    )
    .expect("quotient graph of a connected graph is connected");
    for p in class_path {
        ports.push(p);
        cur = g.neighbor(cur, p).0;
    }
    debug_assert_eq!(cur, plan.target_node, "projection lands on the singleton");
    cur
}

#[cfg(test)]
mod tests {
    use super::*;
    use bd_graphs::generators::{asymmetric_gnp, erdos_renyi_connected, lollipop, ring, star};
    use bd_graphs::navigate::follow_ports;

    #[test]
    fn all_starts_converge_to_same_node() {
        for (g, label) in [
            (ring(9).unwrap(), "ring"),
            (star(7).unwrap(), "star"),
            (lollipop(4, 3).unwrap(), "lollipop"),
            (erdos_renyi_connected(12, 0.3, 8).unwrap(), "gnp"),
        ] {
            let mut ends = std::collections::HashSet::new();
            for start in 0..g.n() {
                let route = gather_route(&g, start).unwrap();
                // Verify the script really lands at the claimed end.
                assert_eq!(
                    follow_ports(&g, start, &route.ports).unwrap(),
                    route.end,
                    "{label}: script end mismatch"
                );
                ends.insert(route.end);
            }
            assert_eq!(ends.len(), 1, "{label}: all robots gather at one node");
        }
    }

    #[test]
    fn route_fits_budget() {
        let g = erdos_renyi_connected(10, 0.3, 4).unwrap();
        for start in 0..g.n() {
            let route = gather_route(&g, start).unwrap();
            assert!(route.ports.len() as u64 <= route.budget_rounds);
        }
    }

    #[test]
    fn routes_deterministic() {
        let g = ring(8).unwrap();
        let a = gather_route(&g, 3).unwrap();
        let b = gather_route(&g, 3).unwrap();
        assert_eq!(a.ports, b.ports);
        assert_eq!(a.end, b.end);
    }

    #[test]
    fn memoized_roster_routes_equal_per_robot_routes() {
        for (g, label) in [
            (ring(9).unwrap(), "ring"),
            (star(7).unwrap(), "star"),
            (lollipop(4, 3).unwrap(), "lollipop"),
            (asymmetric_gnp(12, 5).unwrap(), "asymmetric_gnp"),
        ] {
            // Repeated starts exercise the memo; every node appears.
            let starts: Vec<NodeId> = (0..2 * g.n()).map(|i| (i * 7) % g.n()).collect();
            let (routes, budget) = gather_routes(&g, &starts).unwrap();
            assert_eq!(routes.len(), starts.len());
            for (&s, route) in starts.iter().zip(&routes) {
                let single = gather_route(&g, s).unwrap();
                assert_eq!(route.remaining(), &single.ports[..], "{label}: start {s}");
                assert_eq!(budget, single.budget_rounds, "{label}");
            }
        }
        let infeasible = bd_graphs::generators::oriented_ring(6).unwrap();
        assert!(gather_routes(&infeasible, &[0, 1]).is_err());
    }

    #[test]
    fn infeasible_graph_reports_error() {
        let g = bd_graphs::generators::oriented_ring(6).unwrap();
        assert!(gather_route(&g, 0).is_err());
    }
}
