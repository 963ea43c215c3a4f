//! Append-only string interning.
//!
//! Prepared rerank features (DESIGN.md §18) refer to analyzed terms and
//! surface tokens by dense `u32` ids instead of owning a `String` per
//! occurrence: a table's cell-term set shrinks from ~70 bytes per term to 4,
//! and a token's embedding becomes a row index into one slab. The interner
//! is plain data; the owner supplies the lock.

use std::collections::HashMap;

/// Append-only map from a string to a dense id (`0..len`). Ids are never
/// reused or reassigned, so an id handed out once stays valid for the
/// interner's whole life.
#[derive(Debug, Default, Clone)]
pub struct Interner {
    ids: HashMap<Box<str>, u32>,
}

impl Interner {
    /// An empty interner.
    pub fn new() -> Interner {
        Interner::default()
    }

    /// The id of `term`, if it has been interned.
    pub fn get(&self, term: &str) -> Option<u32> {
        self.ids.get(term).copied()
    }

    /// The id of `term`, assigning the next dense id when it is new. The
    /// flag reports whether this call added it.
    pub fn intern(&mut self, term: &str) -> (u32, bool) {
        if let Some(id) = self.get(term) {
            return (id, false);
        }
        let id = u32::try_from(self.ids.len()).expect("fewer than 2^32 distinct terms");
        self.ids.insert(term.into(), id);
        (id, true)
    }

    /// Number of distinct terms interned.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_dense_and_stable() {
        let mut interner = Interner::new();
        assert_eq!(interner.intern("brown"), (0, true));
        assert_eq!(interner.intern("kansas"), (1, true));
        assert_eq!(interner.intern("brown"), (0, false));
        assert_eq!(interner.get("kansas"), Some(1));
        assert_eq!(interner.get("ohio"), None);
        assert_eq!(interner.len(), 2);
    }
}
