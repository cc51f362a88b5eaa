//! Precomputed port scripts: the one representation of "walk these ports,
//! one per round" that controllers hand to the engine's route jumps.

use bd_graphs::Port;
use std::sync::Arc;

/// A shared port script plus a cursor. The ports live behind an `Arc`, so
/// robots following the same walk (every robot that starts on one node
/// follows the identical gathering route) share one allocation; each robot
/// only owns its cursor.
#[derive(Debug, Clone)]
pub struct Route {
    ports: Arc<[Port]>,
    next: usize,
}

impl Default for Route {
    fn default() -> Self {
        Route::new(Arc::from(Vec::new()))
    }
}

impl From<Vec<Port>> for Route {
    fn from(ports: Vec<Port>) -> Self {
        Route::new(ports.into())
    }
}

impl Route {
    /// A route over `ports`, starting at its first port.
    pub fn new(ports: Arc<[Port]>) -> Self {
        Route { ports, next: 0 }
    }

    /// The ports not taken yet.
    pub fn remaining(&self) -> &[Port] {
        &self.ports[self.next..]
    }

    /// Whether every port has been taken.
    pub fn is_empty(&self) -> bool {
        self.next >= self.ports.len()
    }

    /// The remaining ports that fall before round `end`, for a robot about
    /// to step `round` — how a controller clips its route to the phase the
    /// route belongs to (see `Controller::route`).
    pub fn before(&self, round: u64, end: u64) -> &[Port] {
        let rest = self.remaining();
        let fit = usize::try_from(end.saturating_sub(round)).unwrap_or(usize::MAX);
        &rest[..rest.len().min(fit)]
    }

    /// Take the next port, if any.
    pub fn pop(&mut self) -> Option<Port> {
        let port = *self.ports.get(self.next)?;
        self.next += 1;
        Some(port)
    }

    /// Mark the next `taken` ports as taken (the engine walked them in a
    /// route jump).
    pub fn advance(&mut self, taken: usize) {
        self.next = (self.next + taken).min(self.ports.len());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pop_advance_and_clip() {
        let mut r = Route::from(vec![3, 1, 4, 1, 5]);
        assert_eq!(r.pop(), Some(3));
        assert_eq!(r.remaining(), &[1, 4, 1, 5]);
        // About to step round 8 of a phase ending at round 10: two fit.
        assert_eq!(r.before(8, 10), &[1, 4]);
        assert_eq!(r.before(10, 10), &[] as &[Port]);
        r.advance(3);
        assert_eq!(r.remaining(), &[5]);
        r.advance(9);
        assert!(r.is_empty());
        assert_eq!(r.pop(), None);
        assert!(Route::default().is_empty());
    }

    #[test]
    fn clones_share_the_ports() {
        let a = Route::from(vec![0, 1]);
        let mut b = a.clone();
        b.pop();
        assert!(Arc::ptr_eq(&a.ports, &b.ports));
        assert_eq!(a.remaining(), &[0, 1], "cursors are per robot");
    }
}
