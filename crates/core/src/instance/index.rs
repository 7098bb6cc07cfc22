//! The flow index (paper §4.3, Figure 5): whose packet a `(src, dst)`
//! pair is. A flow is keyed `(client, vip)`; its backend leg reaches it
//! through a route `(backend, vss)` that the flow mapped, `vss` being the
//! VIP's address with the client's port. Only this file touches the two
//! tables; `tests/flow_index_model.rs` checks it against a model.

use yoda_netsim::{Endpoint, FlowTable};

/// `(client, vip)`: the key a flow is known by everywhere.
pub type FlowKey = (Endpoint, Endpoint);
/// `(src, dst)` of a packet.
pub type Pair = (Endpoint, Endpoint);

/// What the index asks of a flow; a trait so a test can drive the index.
pub trait Leg {
    /// The backend the flow is connected or connecting to.
    fn backend(&self) -> Option<Endpoint>;
}

/// Whose packet a pair is: flow `key`'s client's or backend's, a backend's
/// whose flow is gone (`find` dropped the route), or nobody's here.
pub enum Found<'a, S> {
    Client(FlowKey, &'a mut S),
    Server(FlowKey, &'a mut S),
    Orphan,
    Unknown,
}

/// Flows, live or drained, and the routes of their backend legs.
pub struct FlowIndex<S> {
    flows: FlowTable<FlowKey, S>,
    routes: FlowTable<Pair, FlowKey>,
}

impl<S> Default for FlowIndex<S> {
    fn default() -> Self {
        let (flows, routes) = (FlowTable::new(), FlowTable::new());
        FlowIndex { flows, routes }
    }
}

/// The route of `key`'s leg to `backend`. Two clients on one source port
/// share it; the flow that mapped it last owns it.
fn route((client, vip): FlowKey, backend: Endpoint) -> Pair {
    (backend, Endpoint::new(vip.addr, client.port))
}

impl<S: Leg> FlowIndex<S> {
    pub fn len(&self) -> usize {
        self.flows.len()
    }

    pub fn is_empty(&self) -> bool {
        self.flows.is_empty()
    }

    /// Whose packet `pair` is, probing each table once.
    pub fn find(&mut self, pair: Pair) -> Found<'_, S> {
        let route = self.routes.get(&pair).copied();
        match (route, self.flows.get_mut(&route.unwrap_or(pair))) {
            (Some(key), Some(slot)) => Found::Server(key, slot),
            (None, Some(slot)) => Found::Client(pair, slot),
            (Some(_), None) => {
                self.routes.remove(&pair);
                Found::Orphan
            }
            (None, None) => Found::Unknown,
        }
    }

    /// The flow a route names, gone or not; `find` drops it if gone.
    pub fn route(&self, pair: &Pair) -> Option<FlowKey> {
        self.routes.get(pair).copied()
    }

    pub fn routes_len(&self) -> usize {
        self.routes.len()
    }

    pub fn get(&self, key: &FlowKey) -> Option<&S> {
        self.flows.get(key)
    }

    pub fn get_mut(&mut self, key: &FlowKey) -> Option<&mut S> {
        self.flows.get_mut(key)
    }

    /// Holds `slot` as flow `key`, which is not held.
    pub fn open(&mut self, key: FlowKey, slot: S) {
        self.flows.insert(key, slot);
    }

    pub fn map(&mut self, key: FlowKey, backend: Endpoint) {
        self.routes.insert(route(key, backend), key);
    }

    /// Drops flow `key`'s route from `backend` if it still names `key`.
    pub fn unmap(&mut self, key: FlowKey, backend: Endpoint) {
        let pair = route(key, backend);
        if self.routes.get(&pair) == Some(&key) {
            self.routes.remove(&pair);
        }
    }

    /// Removes flow `key` and, unless `orphan_routes`, its backend's route:
    /// a flow that dies in the connection phase leaves its routes (primary
    /// and mirrors) for `find` to drop when a late backend packet hits
    /// one, which would otherwise become a recovery lookup.
    pub fn retire(&mut self, key: FlowKey, orphan_routes: bool) -> Option<S> {
        let slot = self.flows.remove(&key)?;
        if let Some(backend) = slot.backend().filter(|_| !orphan_routes) {
            self.unmap(key, backend);
        }
        Some(slot)
    }

    /// The keys of the flows `want` picks, in key order: a walk whose
    /// retirements send must not show table layout on the wire.
    pub fn keys_where(&self, mut want: impl FnMut(&S) -> bool) -> Vec<FlowKey> {
        self.flows.sorted_keys(|_, slot| want(slot))
    }
}
