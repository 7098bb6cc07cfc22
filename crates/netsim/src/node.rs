//! The [`Node`] trait: a simulated host.
//!
//! A node is a sans-IO state machine. The engine drives it with packets and
//! timer expirations; the node reacts by sending packets and arming timers
//! through [`Ctx`]. Nodes never block and never observe
//! wall-clock time.

use std::any::Any;

use crate::engine::Ctx;
use crate::packet::Packet;

/// Identifier of an armed timer, used for cancellation.
///
/// Carries the engine-wide timer id plus the timer wheel slab slot the
/// timer occupies, so cancellation is O(1): the wheel checks that the
/// slot still holds this id (a recycled slot holds a newer one, a fired
/// or cancelled timer's slot holds nothing of it) and unlinks the entry.
#[derive(Debug, Clone, Copy)]
pub struct TimerId {
    pub(crate) id: u64,
    pub(crate) slot: u32,
}

/// Application-defined timer payload.
///
/// `kind` discriminates timer purposes within a node; `a` carries a small
/// operand (e.g. a connection id) so nodes rarely need side tables keyed
/// by timer.
///
/// # Examples
///
/// ```
/// use yoda_netsim::TimerToken;
///
/// const RETRANSMIT: u32 = 1;
/// let t = TimerToken::new(RETRANSMIT).with_a(42);
/// assert_eq!(t.kind, RETRANSMIT);
/// assert_eq!(t.a, 42);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct TimerToken {
    /// Application-defined discriminator.
    pub kind: u32,
    /// Operand.
    pub a: u64,
}

impl TimerToken {
    /// Creates a token with its operand zero.
    pub const fn new(kind: u32) -> Self {
        TimerToken { kind, a: 0 }
    }

    /// Sets the operand.
    pub const fn with_a(mut self, a: u64) -> Self {
        self.a = a;
        self
    }
}

/// A simulated host.
///
/// Implementations must be deterministic: any randomness must come from
/// the node's private stream, [`Ctx::node_rng`](crate::engine::Ctx::node_rng),
/// so a node's draws do not depend on what other nodes draw (the
/// engine-global stream is the link model's, and private to the engine).
///
/// The `Send` supertrait makes [`Engine`](crate::engine::Engine) `Send`,
/// so independent engines (one per seed) can run on separate threads:
/// node state must never hold `Rc`, `RefCell`-of-shared, raw pointers, or
/// other thread-bound constructs.
pub trait Node: Any + Send {
    /// Invoked once when the simulation starts (or the node is restarted
    /// after a failure). Use it to arm periodic timers.
    fn on_start(&mut self, _ctx: &mut Ctx<'_>) {}

    /// Invoked for every packet delivered to one of this node's addresses.
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, pkt: Packet);

    /// Invoked when a timer armed via [`Ctx::set_timer`](crate::engine::Ctx::set_timer)
    /// fires. Cancelled timers and timers armed before a crash never fire.
    /// The default does nothing, for a node that arms no timer.
    fn on_timer(&mut self, _ctx: &mut Ctx<'_>, _token: TimerToken) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_builders() {
        let t = TimerToken::new(9).with_a(1);
        assert_eq!((t.kind, t.a), (9, 1));
    }

    #[test]
    fn token_default_is_zero() {
        let t = TimerToken::default();
        assert_eq!((t.kind, t.a), (0, 0));
    }
}
