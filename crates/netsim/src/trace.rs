//! Packet/event tracing.
//!
//! A [`TraceSink`] records a tcpdump-like timeline of simulation events.
//! The failure-recovery experiment (paper Figure 12(b)) is regenerated by
//! filtering this trace for one flow observed at the backend server.

use std::fmt::Write as _;

use crate::addr::Endpoint;
use crate::engine::{Engine, NodeId};
use crate::packet::Protocol;
use crate::time::SimTime;

/// What happened.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceKind {
    /// A packet was handed to the network by a node.
    PacketSent,
    /// A packet was delivered to a node.
    PacketDelivered,
    /// A packet was dropped (dead destination, link loss, or overload).
    PacketDropped,
    /// A link duplicated a packet: a second, independent copy was put on
    /// the wire (the copy's own delivery shows up as `PacketDelivered`).
    PacketDuplicated,
    /// A node failed.
    NodeFailed,
    /// A node was restored.
    NodeRestored,
    /// Application-defined annotation (e.g. "flow recovered from TCPStore").
    Note,
}

/// One record in the timeline.
#[derive(Debug, Clone)]
pub struct TraceEvent {
    /// When it happened.
    pub time: SimTime,
    /// Node the event is attributed to — plain `Copy` data, so recording
    /// an event never clones the name. Resolve via [`TraceEvent::render`]
    /// or [`Engine::node_name`].
    pub node: NodeId,
    /// Event class.
    pub kind: TraceKind,
    /// Packet source (if the event concerns a packet).
    pub src: Option<Endpoint>,
    /// Packet destination (if the event concerns a packet).
    pub dst: Option<Endpoint>,
    /// Packet protocol (if the event concerns a packet).
    pub protocol: Option<Protocol>,
    /// Free-form detail (TCP flags, sequence numbers, annotations, ...).
    pub detail: String,
}

impl TraceEvent {
    /// Formats the event as a tcpdump-like line, naming the node through
    /// `engine` (the engine that recorded it).
    pub fn render(&self, engine: &Engine) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{:>12} {:16} {:?}",
            self.time.to_string(),
            engine.node_name(self.node),
            self.kind
        );
        if let (Some(s), Some(d)) = (self.src, self.dst) {
            let _ = write!(out, " {s} > {d}");
        }
        if !self.detail.is_empty() {
            let _ = write!(out, " {}", self.detail);
        }
        out
    }
}

/// A bounded in-memory event log.
///
/// Tracing is off by default (`capacity == 0`); scenario harnesses enable
/// it for the runs that need timelines. When the log is full the oldest
/// events are discarded.
#[derive(Debug, Default)]
pub struct TraceSink {
    events: Vec<TraceEvent>,
    capacity: usize,
    head: usize,
    enabled: bool,
}

impl TraceSink {
    /// Creates a disabled sink.
    pub fn disabled() -> Self {
        TraceSink::default()
    }

    /// Creates an enabled sink holding up to `capacity` events.
    pub fn with_capacity(capacity: usize) -> Self {
        TraceSink {
            events: Vec::with_capacity(capacity.min(1 << 20)),
            capacity,
            head: 0,
            enabled: capacity > 0,
        }
    }

    /// Whether events are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Records an event (no-op when disabled).
    pub fn record(&mut self, ev: TraceEvent) {
        if !self.enabled {
            return;
        }
        if self.events.len() < self.capacity {
            self.events.push(ev);
        } else if let Some(slot) = self.events.get_mut(self.head) {
            // Ring-buffer overwrite of the oldest entry.
            *slot = ev;
            self.head = (self.head + 1) % self.capacity;
        }
    }

    /// Returns the recorded events in chronological order.
    pub fn events(&self) -> Vec<&TraceEvent> {
        let (older, newer) = self.events.split_at(self.head.min(self.events.len()));
        newer.iter().chain(older.iter()).collect()
    }

    /// Clears all recorded events.
    pub fn clear(&mut self) {
        self.events.clear();
        self.head = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::Addr;
    use crate::node::{Node, TimerToken};
    use crate::packet::Packet;
    use crate::topology::Zone;
    use crate::Ctx;

    fn ev(t: u64, node: NodeId) -> TraceEvent {
        TraceEvent {
            time: SimTime::from_micros(t),
            node,
            kind: TraceKind::Note,
            src: None,
            dst: None,
            protocol: None,
            detail: String::new(),
        }
    }

    #[test]
    fn disabled_records_nothing() {
        let mut s = TraceSink::disabled();
        s.record(ev(1, NodeId(0)));
        assert!(s.events().is_empty());
    }

    #[test]
    fn ring_buffer_keeps_latest() {
        let mut s = TraceSink::with_capacity(3);
        for i in 0..5 {
            s.record(ev(i, NodeId(0)));
        }
        let times: Vec<u64> = s.events().iter().map(|e| e.time.as_micros()).collect();
        assert_eq!(times, vec![2, 3, 4]);
    }

    struct Idle;
    impl Node for Idle {
        fn on_packet(&mut self, _: &mut Ctx<'_>, _: Packet) {}
        fn on_timer(&mut self, _: &mut Ctx<'_>, _: TimerToken) {}
    }

    #[test]
    fn render_contains_node_and_time() {
        let mut eng = Engine::new(1);
        let id = eng.add_node("mux-1", Addr::new(10, 0, 2, 1), Zone::Dc, Box::new(Idle));
        let text = ev(1_500, id).render(&eng);
        assert!(text.contains("mux-1"));
        assert!(text.contains("1.500ms"));
    }

    #[test]
    fn render_survives_foreign_id() {
        // An id the engine never handed out must not panic — trace
        // rendering can't be able to take down a run.
        let eng = Engine::new(1);
        assert!(ev(1, NodeId(7)).render(&eng).contains('?'));
    }
}
