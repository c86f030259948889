//! The query-scoped fragment registry backing late materialization.
//!
//! A late-materialized plan replaces the payload columns of every base
//! relation with one packed row-reference column; the catalog's stored
//! full-width batches are *pinned* here (shared, not copied), indexed by
//! source id, until the query's final gather resolves the surviving
//! references. The registry is built once during query setup (before any
//! task runs) and then shared immutably, so readers need no locks; it
//! drops with the query. Pinning keeps the batches a query's refs point
//! into alive even if the relation is re-registered mid-query, and
//! cancelling a query with refs still in flight is safe because the refs
//! die with their batches while the registry keeps the payload alive
//! until teardown.

use std::sync::Arc;

use mj_relalg::column::ColumnBatch;
use mj_relalg::{RelalgError, Result};

/// Packs a leaf id and row index into one row reference
/// (`(leaf << 32) | row`).
pub fn pack_ref(leaf: u32, row: u32) -> u64 {
    ((leaf as u64) << 32) | row as u64
}

/// The leaf id of a packed row reference.
pub fn ref_leaf(r: u64) -> u32 {
    (r >> 32) as u32
}

/// The row index of a packed row reference.
pub fn ref_row(r: u64) -> u32 {
    r as u32
}

/// Pinned full-width payload batches of a late-materialized query, one
/// slot per join-tree leaf. Immutable after setup.
#[derive(Debug, Default)]
pub struct FragmentRegistry {
    slots: Vec<Option<Arc<ColumnBatch>>>,
}

impl FragmentRegistry {
    /// An empty registry with one slot per leaf.
    pub fn new(leaves: usize) -> Self {
        FragmentRegistry {
            slots: vec![None; leaves],
        }
    }

    /// Pins `batch` as the payload source of leaf `leaf` (setup only).
    pub fn set(&mut self, leaf: usize, batch: Arc<ColumnBatch>) {
        if leaf >= self.slots.len() {
            self.slots.resize(leaf + 1, None);
        }
        self.slots[leaf] = Some(batch);
    }

    /// The pinned payload batch of leaf `leaf`.
    pub fn get(&self, leaf: usize) -> Result<&Arc<ColumnBatch>> {
        self.slots
            .get(leaf)
            .and_then(|s| s.as_ref())
            .ok_or_else(|| RelalgError::InvalidPlan(format!("no pinned fragment for leaf {leaf}")))
    }

    /// Logical bytes pinned across all leaves — what the owning query's
    /// memory budget is charged for keeping payloads resolvable.
    pub fn est_bytes(&self) -> u64 {
        self.slots.iter().flatten().map(|b| b.est_bytes()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mj_relalg::column::ColumnLayout;
    use mj_relalg::Tuple;

    #[test]
    fn refs_pack_and_unpack() {
        let r = pack_ref(7, u32::MAX - 3);
        assert_eq!(ref_leaf(r), 7);
        assert_eq!(ref_row(r), u32::MAX - 3);
        assert_eq!(pack_ref(0, 0), 0);
    }

    #[test]
    fn registry_pins_and_accounts_batches() {
        let mut reg = FragmentRegistry::new(2);
        assert!(reg.get(0).is_err());
        let mut b = ColumnBatch::with_capacity(&ColumnLayout::ints(2), 2);
        b.push_tuple(&Tuple::from_ints(&[1, 2])).unwrap();
        reg.set(0, Arc::new(b));
        assert_eq!(reg.get(0).unwrap().rows(), 1);
        assert_eq!(reg.est_bytes(), 16);
        assert!(reg.get(1).is_err(), "unset slot");
        assert!(reg.get(9).is_err(), "out of range");
    }
}
