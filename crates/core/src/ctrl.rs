//! Controller ↔ Yoda-instance control messages.
//!
//! The paper's controller components talk to instances over RESTful APIs
//! (§6); the simulation equivalent is a line-oriented text protocol in
//! `PROTO_CTRL` packets. Text keeps the rule
//! DSL (§5.1) embeddable verbatim — the controller's *user interface*
//! component "converts the user policies expressed using the YODA
//! interface into the rules and sends them to the YODA instances".

use yoda_netsim::{Addr, Bytes, Endpoint, Packet, PROTO_CTRL};

use crate::rules::RuleTable;

/// Port instances/controller listen on for control traffic.
pub const CTRL_PORT: u16 = 4242;

/// A control message.
#[derive(Debug, Clone, PartialEq)]
pub enum InstanceCtrl {
    /// Install (replace) the rule table for a VIP on an instance.
    InstallVip {
        /// The VIP.
        vip: Endpoint,
        /// Rule DSL text (see [`RuleTable::parse`]).
        rules_text: String,
        /// SSL termination: total certificate length to send to clients
        /// (§5.2); `None` = plain HTTP.
        ssl_cert_len: Option<u32>,
    },
    /// Remove a VIP and its rules from an instance.
    RemoveVip {
        /// The VIP.
        vip: Endpoint,
    },
    /// A backend server was declared dead by the monitor.
    BackendDown {
        /// The backend.
        backend: Endpoint,
    },
    /// A backend server came (back) up.
    BackendUp {
        /// The backend.
        backend: Endpoint,
    },
    /// Give the instance the live mux list (for SNAT egress).
    SetMuxes {
        /// Mux addresses.
        muxes: Vec<Addr>,
    },
    /// Controller asks for statistics.
    StatsRequest {
        /// Correlation id.
        seq: u64,
    },
    /// Instance statistics reply.
    StatsReply {
        /// Correlation id echoed.
        seq: u64,
        /// CPU utilisation ×1000 over the last window.
        cpu_milli: u32,
    },
}

impl InstanceCtrl {
    /// Serializes to the wire text.
    pub(crate) fn encode(&self) -> Bytes {
        let text = match self {
            InstanceCtrl::InstallVip {
                vip,
                rules_text,
                ssl_cert_len,
            } => match ssl_cert_len {
                Some(len) => format!("install-vip {vip} ssl={len}\n{rules_text}"),
                None => format!("install-vip {vip}\n{rules_text}"),
            },
            InstanceCtrl::RemoveVip { vip } => format!("remove-vip {vip}"),
            InstanceCtrl::BackendDown { backend } => format!("backend-down {backend}"),
            InstanceCtrl::BackendUp { backend } => format!("backend-up {backend}"),
            InstanceCtrl::SetMuxes { muxes } => {
                let list: Vec<String> = muxes.iter().map(|m| m.to_string()).collect();
                format!("set-muxes {}", list.join(" "))
            }
            InstanceCtrl::StatsRequest { seq } => format!("stats-request {seq}"),
            InstanceCtrl::StatsReply { seq, cpu_milli } => {
                format!("stats-reply {seq} {cpu_milli}")
            }
        };
        Bytes::from(text)
    }

    /// Parses the wire text; `None` on malformed input.
    pub fn decode(b: &Bytes) -> Option<InstanceCtrl> {
        let text = std::str::from_utf8(b).ok()?;
        let (first, rest) = match text.split_once('\n') {
            Some((f, r)) => (f, r),
            None => (text, ""),
        };
        let mut parts = first.split(' ');
        match parts.next()? {
            "install-vip" => {
                let vip = parts.next()?.parse().ok()?;
                let ssl_cert_len = match parts.next() {
                    Some(tok) => Some(tok.strip_prefix("ssl=")?.parse().ok()?),
                    None => None,
                };
                // Validate that the rules parse.
                RuleTable::parse(rest)?;
                Some(InstanceCtrl::InstallVip {
                    vip,
                    rules_text: rest.to_string(),
                    ssl_cert_len,
                })
            }
            "remove-vip" => Some(InstanceCtrl::RemoveVip {
                vip: parts.next()?.parse().ok()?,
            }),
            "backend-down" => Some(InstanceCtrl::BackendDown {
                backend: parts.next()?.parse().ok()?,
            }),
            "backend-up" => Some(InstanceCtrl::BackendUp {
                backend: parts.next()?.parse().ok()?,
            }),
            "set-muxes" => {
                let muxes = parts
                    .map(str::parse)
                    .collect::<Result<Vec<Addr>, _>>()
                    .ok()?;
                Some(InstanceCtrl::SetMuxes { muxes })
            }
            "stats-request" => Some(InstanceCtrl::StatsRequest {
                seq: parts.next()?.parse().ok()?,
            }),
            "stats-reply" => Some(InstanceCtrl::StatsReply {
                seq: parts.next()?.parse().ok()?,
                cpu_milli: parts.next()?.parse().ok()?,
            }),
            _ => None,
        }
    }

    /// Wraps the message in a control packet.
    pub fn into_packet(self, src: Endpoint, dst: Addr) -> Packet {
        Packet::new(
            src,
            Endpoint::new(dst, CTRL_PORT),
            PROTO_CTRL,
            self.encode(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(msg: InstanceCtrl) {
        let decoded = InstanceCtrl::decode(&msg.encode()).expect("decodes");
        assert_eq!(decoded, msg);
    }

    #[test]
    fn all_variants_roundtrip() {
        let vip = Endpoint::new(Addr::new(100, 0, 0, 1), 80);
        let backend = Endpoint::new(Addr::new(10, 1, 0, 2), 80);
        roundtrip(InstanceCtrl::InstallVip {
            vip,
            rules_text: "name=r priority=1 match url=*.jpg action=split 10.1.0.2:80=1".to_string(),
            ssl_cert_len: None,
        });
        roundtrip(InstanceCtrl::InstallVip {
            vip,
            rules_text: "name=r priority=1 match * action=split 10.1.0.2:80=1".to_string(),
            ssl_cert_len: Some(3000),
        });
        roundtrip(InstanceCtrl::RemoveVip { vip });
        roundtrip(InstanceCtrl::BackendDown { backend });
        roundtrip(InstanceCtrl::BackendUp { backend });
        roundtrip(InstanceCtrl::SetMuxes {
            muxes: vec![Addr::new(10, 0, 2, 1), Addr::new(10, 0, 2, 2)],
        });
        roundtrip(InstanceCtrl::StatsRequest { seq: 9 });
        roundtrip(InstanceCtrl::StatsReply {
            seq: 9,
            cpu_milli: 423,
        });
    }

    #[test]
    fn install_rejects_bad_rules() {
        let raw = Bytes::from_static(b"install-vip 100.0.0.1:80\nnot a rule");
        assert!(InstanceCtrl::decode(&raw).is_none());
    }

    #[test]
    fn unknown_command_rejected() {
        assert!(InstanceCtrl::decode(&Bytes::from_static(b"frobnicate 1")).is_none());
        assert!(InstanceCtrl::decode(&Bytes::from_static(b"")).is_none());
    }

    #[test]
    fn multi_rule_install_roundtrip() {
        let rules = "name=a priority=3 match url=*.jpg action=split 10.1.0.2:80=1\n\
                     name=b priority=1 match * action=leastload 10.1.0.3:80";
        roundtrip(InstanceCtrl::InstallVip {
            vip: Endpoint::new(Addr::new(100, 0, 0, 7), 80),
            rules_text: rules.to_string(),
            ssl_cert_len: None,
        });
    }
}
