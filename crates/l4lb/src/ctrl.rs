//! Control-plane messages between the Yoda controller and the L4 LB.
//!
//! The controller updates per-mux VIP→instance mappings (paper §4.4 step 3,
//! §4.5) and the router's live mux set. Messages are byte-encoded and ride
//! in `PROTO_CTRL` packets, so updates are
//! asynchronous and can be staggered per mux — reproducing the paper's
//! "changing the mapping on multiple L4 LB instances ... is not atomic".

use bytes::{BufMut, Bytes, BytesMut};
use yoda_netsim::{Addr, Endpoint, Packet, PROTO_CTRL};

/// Port control messages are addressed to.
pub const CTRL_PORT: u16 = 179;

/// A control message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CtrlMsg {
    /// Replace the instance list for one VIP on a mux.
    SetVipMap {
        /// The VIP whose mapping changes.
        vip: Addr,
        /// The L7 instances now assigned to it.
        instances: Vec<Addr>,
        /// Monotonic version; stale updates are ignored.
        version: u64,
    },
    /// Remove a VIP entirely from a mux.
    RemoveVip {
        /// The VIP to remove.
        vip: Addr,
        /// Monotonic version.
        version: u64,
    },
    /// Replace the router's live mux list.
    SetMuxes {
        /// The live muxes.
        muxes: Vec<Addr>,
    },
    /// Install a directional splice fast-path entry on a mux: packets
    /// matching `(from, to)` are rewritten to `(new_src, new_dst)` with the
    /// Figure-4 seq/ack translation constants and forwarded directly,
    /// bypassing the L7 instance (only the pure ACKs, if `acks_only`).
    SpliceInstall {
        /// Matched source endpoint (exact, directional).
        from: Endpoint,
        /// Matched destination endpoint (exact, directional).
        to: Endpoint,
        /// Rewritten source endpoint.
        new_src: Endpoint,
        /// Rewritten destination endpoint.
        new_dst: Endpoint,
        /// Added to the sequence number (wrapping).
        seq_add: u32,
        /// Added to the acknowledgement number (wrapping), when ACK is set.
        ack_add: u32,
        /// Carry only segments with no payload and no SYN; anything that
        /// carries bytes takes the slow path and leaves the entry in place
        /// (an HTTP/1.1-inspected client leg: the instance must still see
        /// every request byte).
        acks_only: bool,
    },
    /// Revoke a splice entry (instance needs the flow back on the slow
    /// path — e.g. HTTP/1.1 inspection or connection teardown).
    SpliceRemove {
        /// Matched source endpoint of the entry to drop.
        from: Endpoint,
        /// Matched destination endpoint of the entry to drop.
        to: Endpoint,
    },
}

fn put_endpoint(buf: &mut BytesMut, ep: Endpoint) {
    buf.put_u32(ep.addr.as_u32());
    buf.put_u16(ep.port);
}

fn endpoint_at(b: &Bytes, off: usize) -> Option<Endpoint> {
    let addr = Addr::from_u32(u32::from_be_bytes(bytes::array_at::<4>(b, off)?));
    let port = u16::from_be_bytes(bytes::array_at::<2>(b, off + 4)?);
    Some(Endpoint::new(addr, port))
}

impl CtrlMsg {
    /// Serializes the message.
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::new();
        match self {
            CtrlMsg::SetVipMap {
                vip,
                instances,
                version,
            } => {
                buf.put_u8(1);
                buf.put_u32(vip.as_u32());
                buf.put_u64(*version);
                buf.put_u16(instances.len() as u16);
                for i in instances {
                    buf.put_u32(i.as_u32());
                }
            }
            CtrlMsg::RemoveVip { vip, version } => {
                buf.put_u8(2);
                buf.put_u32(vip.as_u32());
                buf.put_u64(*version);
            }
            CtrlMsg::SetMuxes { muxes } => {
                buf.put_u8(3);
                buf.put_u16(muxes.len() as u16);
                for m in muxes {
                    buf.put_u32(m.as_u32());
                }
            }
            CtrlMsg::SpliceInstall {
                from,
                to,
                new_src,
                new_dst,
                seq_add,
                ack_add,
                acks_only,
            } => {
                buf.put_u8(4);
                put_endpoint(&mut buf, *from);
                put_endpoint(&mut buf, *to);
                put_endpoint(&mut buf, *new_src);
                put_endpoint(&mut buf, *new_dst);
                buf.put_u32(*seq_add);
                buf.put_u32(*ack_add);
                buf.put_u8(u8::from(*acks_only));
            }
            CtrlMsg::SpliceRemove { from, to } => {
                buf.put_u8(5);
                put_endpoint(&mut buf, *from);
                put_endpoint(&mut buf, *to);
            }
        }
        buf.freeze()
    }

    /// Parses a message; `None` on malformed bytes.
    pub fn decode(b: &Bytes) -> Option<CtrlMsg> {
        let tag = *b.first()?;
        match tag {
            1 => {
                let vip = Addr::from_u32(u32::from_be_bytes(bytes::array_at::<4>(b, 1)?));
                let version = u64::from_be_bytes(bytes::array_at::<8>(b, 5)?);
                let n = u16::from_be_bytes(bytes::array_at::<2>(b, 13)?) as usize;
                if b.len() != 15 + 4 * n {
                    return None;
                }
                let mut instances = Vec::with_capacity(n);
                for i in 0..n {
                    let word = bytes::array_at::<4>(b, 15 + 4 * i)?;
                    instances.push(Addr::from_u32(u32::from_be_bytes(word)));
                }
                Some(CtrlMsg::SetVipMap {
                    vip,
                    instances,
                    version,
                })
            }
            2 => {
                if b.len() != 13 {
                    return None;
                }
                let vip = Addr::from_u32(u32::from_be_bytes(bytes::array_at::<4>(b, 1)?));
                let version = u64::from_be_bytes(bytes::array_at::<8>(b, 5)?);
                Some(CtrlMsg::RemoveVip { vip, version })
            }
            3 => {
                let n = u16::from_be_bytes(bytes::array_at::<2>(b, 1)?) as usize;
                if b.len() != 3 + 4 * n {
                    return None;
                }
                let mut muxes = Vec::with_capacity(n);
                for i in 0..n {
                    let word = bytes::array_at::<4>(b, 3 + 4 * i)?;
                    muxes.push(Addr::from_u32(u32::from_be_bytes(word)));
                }
                Some(CtrlMsg::SetMuxes { muxes })
            }
            4 => {
                if b.len() != 34 {
                    return None;
                }
                Some(CtrlMsg::SpliceInstall {
                    from: endpoint_at(b, 1)?,
                    to: endpoint_at(b, 7)?,
                    new_src: endpoint_at(b, 13)?,
                    new_dst: endpoint_at(b, 19)?,
                    seq_add: u32::from_be_bytes(bytes::array_at::<4>(b, 25)?),
                    ack_add: u32::from_be_bytes(bytes::array_at::<4>(b, 29)?),
                    acks_only: *b.get(33)? != 0,
                })
            }
            5 => {
                if b.len() != 13 {
                    return None;
                }
                Some(CtrlMsg::SpliceRemove {
                    from: endpoint_at(b, 1)?,
                    to: endpoint_at(b, 7)?,
                })
            }
            _ => None,
        }
    }

    /// Wraps the message in a control packet from `src` to node `dst`.
    pub fn into_packet(self, src: Endpoint, dst: Addr) -> Packet {
        Packet::new(src, Endpoint::new(dst, CTRL_PORT), PROTO_CTRL, self.encode())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_vip_map_roundtrip() {
        let msg = CtrlMsg::SetVipMap {
            vip: Addr::new(100, 0, 0, 1),
            instances: vec![Addr::new(10, 0, 0, 1), Addr::new(10, 0, 0, 2)],
            version: 42,
        };
        assert_eq!(CtrlMsg::decode(&msg.encode()).unwrap(), msg);
    }

    #[test]
    fn empty_instance_list_roundtrip() {
        let msg = CtrlMsg::SetVipMap {
            vip: Addr::new(100, 0, 0, 1),
            instances: vec![],
            version: 1,
        };
        assert_eq!(CtrlMsg::decode(&msg.encode()).unwrap(), msg);
    }

    #[test]
    fn remove_vip_roundtrip() {
        let msg = CtrlMsg::RemoveVip {
            vip: Addr::new(100, 0, 0, 3),
            version: 7,
        };
        assert_eq!(CtrlMsg::decode(&msg.encode()).unwrap(), msg);
    }

    #[test]
    fn set_muxes_roundtrip() {
        let msg = CtrlMsg::SetMuxes {
            muxes: vec![Addr::new(10, 0, 2, 1)],
        };
        assert_eq!(CtrlMsg::decode(&msg.encode()).unwrap(), msg);
    }

    #[test]
    fn malformed_rejected() {
        assert!(CtrlMsg::decode(&Bytes::new()).is_none());
        assert!(CtrlMsg::decode(&Bytes::from_static(&[9, 0, 0])).is_none());
        let mut truncated = CtrlMsg::SetMuxes {
            muxes: vec![Addr::new(1, 1, 1, 1)],
        }
        .encode()
        .to_vec();
        truncated.pop();
        assert!(CtrlMsg::decode(&Bytes::from(truncated)).is_none());
    }

    fn splice_install(acks_only: bool) -> CtrlMsg {
        CtrlMsg::SpliceInstall {
            from: Endpoint::new(Addr::new(172, 16, 0, 1), 40_000),
            to: Endpoint::new(Addr::new(100, 0, 0, 1), 80),
            new_src: Endpoint::new(Addr::new(100, 0, 0, 1), 40_000),
            new_dst: Endpoint::new(Addr::new(10, 1, 0, 3), 80),
            seq_add: 0u32.wrapping_sub(12),
            ack_add: 0xdead_beef,
            acks_only,
        }
    }

    #[test]
    fn splice_install_roundtrip() {
        for acks_only in [false, true] {
            let msg = splice_install(acks_only);
            let enc = msg.encode();
            assert_eq!((enc.len(), enc[33]), (34, u8::from(acks_only)));
            assert_eq!(CtrlMsg::decode(&enc).unwrap(), msg);
        }
        // The flag is one byte: any non-zero value reads as acks-only.
        let mut raw = splice_install(false).encode().to_vec();
        raw[33] = 0x80;
        assert_eq!(
            CtrlMsg::decode(&Bytes::from(raw)),
            Some(splice_install(true))
        );
    }

    #[test]
    fn splice_remove_roundtrip() {
        let msg = CtrlMsg::SpliceRemove {
            from: Endpoint::new(Addr::new(10, 1, 0, 3), 80),
            to: Endpoint::new(Addr::new(100, 0, 0, 1), 40_000),
        };
        assert_eq!(CtrlMsg::decode(&msg.encode()).unwrap(), msg);
    }

    #[test]
    fn splice_malformed_rejected() {
        // Truncated and overlong payloads of both variants decode to None.
        for msg in [
            splice_install(true),
            CtrlMsg::SpliceRemove {
                from: Endpoint::new(Addr::new(1, 2, 3, 4), 5),
                to: Endpoint::new(Addr::new(6, 7, 8, 9), 10),
            },
        ] {
            let enc = msg.encode();
            for cut in 1..enc.len() {
                assert!(CtrlMsg::decode(&enc.slice(0..cut)).is_none(), "cut={cut}");
            }
            let mut long = enc.to_vec();
            long.push(0);
            assert!(CtrlMsg::decode(&Bytes::from(long)).is_none());
        }
    }
}
