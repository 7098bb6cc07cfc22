//! Node-name interning.
//!
//! The engine attributes every trace event to a node by name. Cloning a
//! `String` per event is too slow for the hot loop, and `Rc<str>`
//! sharing is not `Send`, which would make the engine and every trace
//! event thread-bound. A [`SymbolTable`] owned by the engine interns
//! each name once and hands out copyable [`NameId`]s; events carry the
//! 4-byte id and readers resolve it against the engine's table.

use std::collections::BTreeMap;

/// Interned name handle: an index into the owning [`SymbolTable`].
///
/// Plain `u32` data — `Copy`, `Send`, `Sync` — so anything carrying one
/// (trace events, node metadata) stays `Send`. Only meaningful
/// against the table that issued it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NameId(u32);

impl NameId {
    /// The raw index, e.g. for digests or compact serialization.
    pub fn as_u32(self) -> u32 {
        self.0
    }
}

/// An append-only intern table mapping names to [`NameId`]s.
///
/// Deduplicating: interning the same string twice returns the same id.
/// Entries are never removed, so a resolved `&str` stays valid as long
/// as the table lives.
#[derive(Debug, Default)]
pub struct SymbolTable {
    names: Vec<String>,
    // BTreeMap (not HashMap): iteration order never leaks into event
    // scheduling, per the workspace determinism rules.
    index: BTreeMap<String, u32>,
}

impl SymbolTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        SymbolTable::default()
    }

    /// Interns `name`, returning its stable id.
    pub fn intern(&mut self, name: &str) -> NameId {
        if let Some(&id) = self.index.get(name) {
            return NameId(id);
        }
        let id = self.names.len() as u32;
        self.names.push(name.to_string());
        self.index.insert(name.to_string(), id);
        NameId(id)
    }

    /// Resolves an id to its name. Ids from a different table may map to
    /// an arbitrary entry or to `"?"`; this never panics (trace
    /// rendering must not be able to take down a run).
    pub fn resolve(&self, id: NameId) -> &str {
        self.names.get(id.0 as usize).map_or("?", String::as_str)
    }

    /// Number of distinct names interned.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_dedups_and_resolves() {
        let mut t = SymbolTable::new();
        let a = t.intern("mux-0");
        let b = t.intern("backend-1");
        let a2 = t.intern("mux-0");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(t.resolve(a), "mux-0");
        assert_eq!(t.resolve(b), "backend-1");
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn unknown_id_resolves_to_placeholder() {
        let t = SymbolTable::new();
        assert_eq!(t.resolve(NameId(7)), "?");
    }

    #[test]
    fn ids_are_dense_and_stable() {
        let mut t = SymbolTable::new();
        for i in 0..100u32 {
            let id = t.intern(&format!("node-{i}"));
            assert_eq!(id.as_u32(), i);
        }
        assert_eq!(t.resolve(NameId(42)), "node-42");
    }
}
