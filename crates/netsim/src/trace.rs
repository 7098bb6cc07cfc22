//! Packet/event tracing.
//!
//! A [`TraceSink`] records a timeline of typed simulation events. What a
//! figure or a test reads from the trace is a field of a [`What`]
//! variant, never text: the failure-recovery experiment (paper Figure
//! 12(b)) picks its flow from a [`Note::Recovered`] and matches the
//! backend's packets by endpoint. Only [`Note`] renders, for the
//! annotations that figure prints.

use std::fmt;

use crate::addr::{Addr, Endpoint};
use crate::engine::NodeId;
use crate::packet::Protocol;
use crate::time::SimTime;

/// One record in the timeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceEvent {
    /// When it happened.
    pub time: SimTime,
    /// Node the event is attributed to: the sender of a sent, duplicated
    /// or send-side dropped packet, the receiver of a delivered one or
    /// of one dropped on arrival. Resolve via [`Engine::node_name`].
    ///
    /// [`Engine::node_name`]: crate::Engine::node_name
    pub node: NodeId,
    /// What happened.
    pub what: What,
}

/// What happened.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum What {
    /// A packet event; the packet's addressing, not its bytes.
    Packet {
        /// Packet source.
        src: Endpoint,
        /// Packet destination.
        dst: Endpoint,
        /// Packet protocol.
        protocol: Protocol,
        /// What became of it.
        fate: Fate,
    },
    /// A node failed.
    NodeFailed,
    /// A node was restored.
    NodeRestored,
    /// A node's partition changed; both `false` is healed.
    Partition {
        /// Packets addressed to the node are dropped.
        cut_in: bool,
        /// Packets the node sends are dropped.
        cut_out: bool,
    },
    /// A node's link degrade changed; both zero is cleared.
    LinkDegrade {
        /// Extra loss probability on the node's links.
        loss: f64,
        /// Extra jitter bound on the node's links.
        jitter: SimTime,
    },
    /// A node explained itself.
    Note(Note),
}

/// What became of a packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fate {
    /// A node handed it to the network.
    Sent,
    /// It reached its node.
    Delivered,
    /// A link put a second, independent copy on the wire (the copy's
    /// own delivery is a `Delivered` of its own).
    Duplicated,
    /// The engine dropped it.
    Dropped(DropCause),
}

/// Why the engine dropped a packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropCause {
    /// No node owns the destination address.
    NoRoute,
    /// The sender's egress or the receiver's ingress is partitioned.
    Partitioned,
    /// A degraded link lost it.
    LinkDegrade,
    /// The link model lost it.
    LinkLoss,
    /// The destination node is dead.
    DeadNode,
}

/// A node's annotation: one variant per place a node explains itself.
/// `src -> dst` is the packet that started a recovery lookup; `client ->
/// vip` is the flow a lookup found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Note {
    /// A degraded instance shed a recovery lookup (store brownout).
    RecoveryShed { src: Endpoint, dst: Endpoint },
    /// An instance asked TCPStore about a flow it has never seen.
    RecoveryLookup { src: Endpoint, dst: Endpoint },
    /// A lookup found a flow the instance already holds live; its record
    /// is ignored, and parked packets that resolve to no live flow are
    /// dropped.
    StaleRecovery {
        client: Endpoint,
        vip: Endpoint,
        dropped: usize,
    },
    /// TCPStore knew nothing of the flow; its parked packets were dropped.
    RecoveryMiss {
        src: Endpoint,
        dst: Endpoint,
        dropped: usize,
    },
    /// An instance rebuilt a flow from TCPStore: an established flow with
    /// its `backend`, or a connection-phase one (`None`).
    Recovered {
        client: Endpoint,
        vip: Endpoint,
        backend: Option<Endpoint>,
    },
    /// An instance entered degraded mode after `timeouts` consecutive
    /// store-write timeouts.
    Degraded { timeouts: u32 },
    /// The store healed; the instance drains its write-behind records.
    StoreHealed { write_behind: usize },
    /// A backend's health probe timed out; it is quarantined.
    ProbeQuarantine { backend: Endpoint },
    /// The controller declared a member dead.
    FailureDetected { member: Endpoint },
    /// The controller saw a dead member answer again.
    RecoveryDetected { member: Endpoint },
    /// The controller took a suspect instance out of rotation.
    Derated { instance: Addr },
    /// The controller put a derated instance back into rotation.
    Readmitted { instance: Addr },
    /// The autoscaler activated a spare instance.
    SpareActivated { instance: Addr },
}

impl Note {
    /// The endpoints the note names.
    pub fn endpoints(&self) -> impl Iterator<Item = Endpoint> {
        use Note::*;
        let named = match *self {
            RecoveryShed { src, dst } | RecoveryLookup { src, dst } => [Some(src), Some(dst), None],
            RecoveryMiss { src, dst, .. } => [Some(src), Some(dst), None],
            StaleRecovery { client, vip, .. } => [Some(client), Some(vip), None],
            Recovered {
                client,
                vip,
                backend,
            } => [Some(client), Some(vip), backend],
            ProbeQuarantine { backend: ep } => [Some(ep), None, None],
            FailureDetected { member } | RecoveryDetected { member } => [Some(member), None, None],
            Degraded { .. } | StoreHealed { .. } | Derated { .. } => [None; 3],
            Readmitted { .. } | SpareActivated { .. } => [None; 3],
        };
        named.into_iter().flatten()
    }
}

impl fmt::Display for Note {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use Note::*;
        match self {
            RecoveryShed { src, dst } => write!(f, "degraded: shed recovery lookup {src}->{dst}"),
            RecoveryLookup { src, dst } => write!(f, "recovery lookup for {src}->{dst}"),
            StaleRecovery {
                client: c,
                vip: v,
                dropped,
            } => write!(
                f,
                "ignored stale recovery for {c}->{v} (flow is live, {dropped} pkts dropped)"
            ),
            RecoveryMiss { src, dst, dropped } => {
                write!(f, "recovery MISS for {src}->{dst} ({dropped} pkts dropped)")
            }
            Recovered {
                client: c,
                vip: v,
                backend,
            } => match backend {
                Some(b) => write!(f, "recovered flow {c}->{v} backend {b} from TCPStore"),
                None => write!(f, "recovered connection-phase flow {c}->{v} from TCPStore"),
            },
            Degraded { timeouts: n } => {
                write!(
                    f,
                    "entering degraded mode after {n} consecutive store-write timeouts"
                )
            }
            StoreHealed { write_behind: n } => {
                write!(f, "store healed: draining {n} write-behind records")
            }
            ProbeQuarantine { backend } => write!(f, "probe timeout: quarantine {backend}"),
            FailureDetected { member } => write!(f, "controller detected failure of {member}"),
            RecoveryDetected { member } => write!(f, "controller detected recovery of {member}"),
            Derated { instance } => write!(f, "controller derated suspect instance {instance}"),
            Readmitted { instance } => write!(f, "controller re-admitted instance {instance}"),
            SpareActivated { instance } => write!(f, "autoscaler activated instance {instance}"),
        }
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
}

impl TraceSink {
    /// Creates an enabled sink holding up to `capacity` events.
    pub(crate) fn with_capacity(capacity: usize) -> Self {
        TraceSink {
            events: Vec::with_capacity(capacity.min(1 << 20)),
            capacity,
            head: 0,
        }
    }

    /// Whether events are being recorded.
    pub(crate) fn is_enabled(&self) -> bool {
        self.capacity > 0
    }

    /// Records an event (no-op when disabled: nothing fits).
    pub(crate) fn record(&mut self, ev: TraceEvent) {
        if self.events.len() < self.capacity {
            self.events.push(ev);
        } else if let Some(slot) = self.events.get_mut(self.head) {
            // Ring-buffer overwrite of the oldest entry.
            *slot = ev;
            self.head = (self.head + 1) % self.capacity;
        }
    }

    /// The recorded events in chronological order.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        let (older, newer) = self.events.split_at(self.head.min(self.events.len()));
        newer.iter().chain(older)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(t: u64) -> TraceEvent {
        TraceEvent {
            time: SimTime::from_micros(t),
            node: NodeId(0),
            what: What::NodeFailed,
        }
    }

    #[test]
    fn disabled_records_nothing() {
        let mut s = TraceSink::default();
        s.record(ev(1));
        assert_eq!(s.events().count(), 0);
    }

    #[test]
    fn ring_buffer_keeps_latest() {
        let mut s = TraceSink::with_capacity(3);
        for i in 0..5 {
            s.record(ev(i));
        }
        let times: Vec<u64> = s.events().map(|e| e.time.as_micros()).collect();
        assert_eq!(times, vec![2, 3, 4]);
    }

    #[test]
    fn notes_render_and_name_their_endpoints() {
        let client = Endpoint::new(Addr::new(172, 16, 0, 1), 40_000);
        let vip = Endpoint::new(Addr::new(100, 0, 0, 1), 80);
        let backend = Endpoint::new(Addr::new(10, 1, 0, 1), 80);
        let established = Note::Recovered {
            client,
            vip,
            backend: Some(backend),
        };
        assert_eq!(
            established.to_string(),
            "recovered flow 172.16.0.1:40000->100.0.0.1:80 backend 10.1.0.1:80 from TCPStore"
        );
        assert_eq!(
            established.endpoints().collect::<Vec<_>>(),
            [client, vip, backend]
        );
        let miss = Note::RecoveryMiss {
            src: client,
            dst: vip,
            dropped: 2,
        };
        assert_eq!(
            miss.to_string(),
            "recovery MISS for 172.16.0.1:40000->100.0.0.1:80 (2 pkts dropped)"
        );
        let spare = Note::SpareActivated {
            instance: Addr::new(10, 0, 0, 9),
        };
        assert_eq!(spare.to_string(), "autoscaler activated instance 10.0.0.9");
        assert_eq!(spare.endpoints().count(), 0);
    }
}
