//! Per-node fragment store.
//!
//! Each PRISMA node holds relation fragments in its own main memory;
//! operation processes "access data fragments that are stored in the main
//! memory of their own processor directly" (§2.2). [`FragmentStore`] models
//! exactly that: node-local keyed storage of immutable columnar fragments
//! with byte accounting, shared by the real engine's worker threads.
//!
//! One store can be shared by many concurrent queries: the node set grows
//! on demand ([`ensure_nodes`](FragmentStore::ensure_nodes)) so plans with
//! different logical processor counts coexist, and a query's intermediates
//! are namespaced by a caller-chosen prefix that
//! [`remove_prefix`](FragmentStore::remove_prefix) reclaims when the query
//! finishes.

use mj_relalg::column::ColumnBatch;
use mj_relalg::{RelalgError, Result};
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::Arc;

use crate::columnar::{BucketIndex, ColumnScan, Rows};

/// One stored intermediate: its columns and, when its consumer reads it
/// bucket by bucket, the [`BucketIndex`] over the consumer's key — hashed
/// once by the producer and shared by every consumer instance.
#[derive(Debug)]
pub struct StoredFragment {
    columns: Arc<ColumnBatch>,
    buckets: Option<Arc<BucketIndex>>,
}

impl StoredFragment {
    /// Freezes `columns`, indexing `key_col` into `of` buckets when the
    /// consumer reads more than one bucket.
    pub fn new(columns: ColumnBatch, key_col: usize, of: usize) -> Result<StoredFragment> {
        let buckets = if of > 1 {
            Some(Arc::new(BucketIndex::build(columns.int_col(key_col)?, of)?))
        } else {
            None
        };
        Ok(StoredFragment {
            columns: Arc::new(columns),
            buckets,
        })
    }

    /// Number of stored rows.
    pub fn rows(&self) -> usize {
        self.columns.rows()
    }

    /// The stored columns.
    pub fn columns(&self) -> &Arc<ColumnBatch> {
        &self.columns
    }

    /// Allocated bytes: the column buffers' capacity plus the bucket
    /// index — what the owning query's memory budget is charged on write
    /// and credited at reclaim.
    pub fn bytes(&self) -> u64 {
        self.columns.capacity_bytes() + self.buckets.as_ref().map_or(0, |b| b.bytes())
    }

    /// The scan of bucket `bucket` (every row when the fragment is not
    /// bucketed).
    pub fn scan(&self, bucket: usize) -> ColumnScan {
        let rows = match &self.buckets {
            Some(index) => Rows::Bucket(index.clone(), bucket),
            None => Rows::All,
        };
        ColumnScan::new(self.columns.clone()).rows(rows)
    }
}

type NodeMemory = Arc<RwLock<HashMap<String, Arc<StoredFragment>>>>;

/// Shared-nothing fragment storage for a growable set of logical
/// processors.
#[derive(Debug)]
pub struct FragmentStore {
    nodes: RwLock<Vec<NodeMemory>>,
}

impl FragmentStore {
    /// Creates a store for `nodes` processors.
    pub fn new(nodes: usize) -> Self {
        FragmentStore {
            nodes: RwLock::new(
                (0..nodes)
                    .map(|_| Arc::new(RwLock::new(HashMap::new())))
                    .collect(),
            ),
        }
    }

    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.nodes.read().len()
    }

    /// Grows the store to at least `nodes` processors (no-op if already
    /// large enough). Lets one shared store serve plans with different
    /// logical processor counts.
    pub fn ensure_nodes(&self, nodes: usize) {
        let mut v = self.nodes.write();
        while v.len() < nodes {
            v.push(Arc::new(RwLock::new(HashMap::new())));
        }
    }

    fn node(&self, node: usize) -> Result<NodeMemory> {
        let nodes = self.nodes.read();
        nodes
            .get(node)
            .cloned()
            .ok_or(RelalgError::IndexOutOfBounds {
                index: node,
                arity: nodes.len(),
            })
    }

    fn snapshot(&self) -> Vec<NodeMemory> {
        self.nodes.read().clone()
    }

    /// Stores `fragment` under `name` in `node`'s memory, replacing any
    /// previous fragment of that name.
    pub fn put(
        &self,
        node: usize,
        name: impl Into<String>,
        fragment: Arc<StoredFragment>,
    ) -> Result<()> {
        self.node(node)?.write().insert(name.into(), fragment);
        Ok(())
    }

    /// Fetches the fragment stored under `name` at `node`.
    pub fn get(&self, node: usize, name: &str) -> Result<Arc<StoredFragment>> {
        self.node(node)?
            .read()
            .get(name)
            .cloned()
            .ok_or_else(|| RelalgError::UnknownRelation(format!("{name}@node{node}")))
    }

    /// Removes the fragment stored under `name` at `node`, returning it.
    pub fn take(&self, node: usize, name: &str) -> Result<Arc<StoredFragment>> {
        self.node(node)?
            .write()
            .remove(name)
            .ok_or_else(|| RelalgError::UnknownRelation(format!("{name}@node{node}")))
    }

    /// Drops every fragment named `name` on all nodes (used to free
    /// intermediate results once consumed).
    pub fn drop_all(&self, name: &str) {
        for n in self.snapshot() {
            n.write().remove(name);
        }
    }

    /// Drops every fragment whose name starts with `prefix` on all nodes —
    /// the reclamation hook for per-query namespaces in a shared store.
    /// Returns the bytes freed ([`StoredFragment::bytes`]), so the caller
    /// can credit exactly what the producers charged back to the owning
    /// query's memory budget.
    pub fn remove_prefix(&self, prefix: &str) -> u64 {
        let mut freed = 0u64;
        for n in self.snapshot() {
            n.write().retain(|name, frag| {
                let keep = !name.starts_with(prefix);
                if !keep {
                    freed += frag.bytes();
                }
                keep
            });
        }
        freed
    }

    /// Bytes resident at `node`.
    pub fn node_bytes(&self, node: usize) -> Result<u64> {
        Ok(self.node(node)?.read().values().map(|f| f.bytes()).sum())
    }

    /// Bytes resident across all nodes.
    pub fn total_bytes(&self) -> u64 {
        (0..self.nodes())
            .map(|n| self.node_bytes(n).unwrap_or(0))
            .sum()
    }

    /// Collects all fragments named `name` across nodes in node order
    /// (missing nodes are skipped).
    pub fn collect(&self, name: &str) -> Vec<Arc<StoredFragment>> {
        let mut out = Vec::new();
        for n in self.snapshot() {
            if let Some(f) = n.read().get(name) {
                out.push(f.clone());
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mj_relalg::column::ColumnLayout;
    use mj_relalg::hash::bucket_of;
    use mj_relalg::Tuple;

    fn columns(n: i64) -> ColumnBatch {
        let mut b = ColumnBatch::with_capacity(&ColumnLayout::ints(1), n as usize);
        for v in 0..n {
            b.push_tuple(&Tuple::from_ints(&[v])).unwrap();
        }
        b
    }

    fn frag(n: i64) -> Arc<StoredFragment> {
        Arc::new(StoredFragment::new(columns(n), 0, 1).unwrap())
    }

    #[test]
    fn put_get_take() {
        let s = FragmentStore::new(2);
        s.put(0, "R", frag(3)).unwrap();
        assert_eq!(s.get(0, "R").unwrap().rows(), 3);
        assert!(s.get(1, "R").is_err());
        assert_eq!(s.take(0, "R").unwrap().rows(), 3);
        assert!(s.get(0, "R").is_err());
    }

    #[test]
    fn out_of_range_node_errors() {
        let s = FragmentStore::new(1);
        assert!(s.put(5, "R", frag(1)).is_err());
        assert!(s.get(5, "R").is_err());
    }

    #[test]
    fn byte_accounting() {
        let s = FragmentStore::new(2);
        assert_eq!(s.total_bytes(), 0);
        s.put(0, "R", frag(10)).unwrap();
        s.put(1, "R", frag(20)).unwrap();
        assert_eq!(s.node_bytes(0).unwrap(), 80, "capacity of 10 i64 slots");
        assert!(s.node_bytes(1).unwrap() > s.node_bytes(0).unwrap());
        assert_eq!(
            s.total_bytes(),
            s.node_bytes(0).unwrap() + s.node_bytes(1).unwrap()
        );
        // A bucketed fragment also accounts its index.
        let bucketed = StoredFragment::new(columns(10), 0, 4).unwrap();
        assert!(bucketed.bytes() >= 80 + 10 * 4);
    }

    #[test]
    fn bucketed_fragments_scan_one_bucket_per_consumer() {
        let f = StoredFragment::new(columns(100), 0, 4).unwrap();
        let mut total = 0;
        for bucket in 0..4 {
            let mut cursor = crate::columnar::ScanCursor::new(vec![f.scan(bucket)]);
            while cursor.ready().unwrap() {
                let (cols, pos) = cursor.chunk();
                for &k in &cols.int_col(0).unwrap()[pos..] {
                    assert_eq!(bucket_of(k, 4), bucket);
                    total += 1;
                }
                let n = cols.rows() - pos;
                cursor.consume(n);
            }
        }
        assert_eq!(total, 100);
        assert!(
            StoredFragment::new(ColumnBatch::shapeless(), 0, 2).is_err(),
            "a bucketed fragment needs its key column"
        );
    }

    #[test]
    fn collect_and_drop_all() {
        let s = FragmentStore::new(3);
        s.put(0, "R", frag(1)).unwrap();
        s.put(2, "R", frag(2)).unwrap();
        s.put(1, "S", frag(3)).unwrap();
        assert_eq!(s.collect("R").len(), 2);
        s.drop_all("R");
        assert!(s.collect("R").is_empty());
        assert_eq!(s.collect("S").len(), 1);
    }

    #[test]
    fn grows_on_demand_and_clears_prefixes() {
        let s = FragmentStore::new(1);
        assert!(s.put(3, "q1:op0", frag(1)).is_err());
        s.ensure_nodes(4);
        assert_eq!(s.nodes(), 4);
        s.ensure_nodes(2); // never shrinks
        assert_eq!(s.nodes(), 4);
        s.put(3, "q1:op0", frag(1)).unwrap();
        s.put(0, "q1:op1", frag(2)).unwrap();
        s.put(0, "q2:op0", frag(3)).unwrap();
        let before = s.total_bytes();
        let freed = s.remove_prefix("q1:");
        assert_eq!(freed, before - s.total_bytes(), "freed bytes reported");
        assert!(freed > 0);
        assert!(s.collect("q1:op0").is_empty());
        assert!(s.collect("q1:op1").is_empty());
        assert_eq!(s.collect("q2:op0").len(), 1, "other queries untouched");
    }

    #[test]
    fn concurrent_access() {
        let s = Arc::new(FragmentStore::new(4));
        std::thread::scope(|scope| {
            for node in 0..4 {
                let s = s.clone();
                scope.spawn(move || {
                    for i in 0..50 {
                        s.put(node, format!("f{i}"), frag(i)).unwrap();
                    }
                });
            }
        });
        assert_eq!(s.collect("f10").len(), 4);
    }
}
