//! User-level TCP for the Yoda reproduction.
//!
//! The paper's Yoda prototype runs entirely in user space, crafting and
//! rewriting raw TCP segments (via nfqueue/iptables). This crate provides
//! the equivalent building blocks over `yoda-netsim`:
//!
//! * [`SeqNum`] — RFC 793 modulo-2³² sequence arithmetic, the foundation of
//!   Yoda's tunneling-phase sequence translation (paper Figure 4),
//! * [`Segment`] — the TCP segment with an explicit wire format, and
//!   [`Translation`], Figure 4's rewrite of one, decoded or on the wire,
//! * [`TcpSocket`] — a sans-IO endpoint state machine (handshake,
//!   retransmission with exponential backoff, reassembly, slow start,
//!   FIN teardown) used by clients, backend servers, and the HAProxy-style
//!   baseline proxy,
//! * [`TcpStack`] — glue that runs many sockets inside one simulator node.
//!
//! Timer constants reproduce the paper's observations: initial SYN
//! retransmission timeout of 3 s ("we observe the SYN timeout to be 3 sec
//! in Ubuntu", §4.2) and a 300 ms minimum data RTO (the backend server in
//! Figure 12(b) retransmits at +300 ms and +600 ms).

#![forbid(unsafe_code)]

mod segment;
mod sendq;
mod seq;
mod socket;
mod stack;

pub use segment::{Flags, Segment, Translation, SEGMENT_HEADER_LEN};
pub use seq::SeqNum;
pub use socket::{SocketState, TcpSocket, MSS};
pub use stack::{ConnId, ConnSlot, TcpEvent, TcpEvents, TcpStack, TCP_TIMER_KIND};
