//! Catalog: named relations plus the statistics the phase-1 optimizer uses.
//!
//! Every registration pivots the relation once into an immutable
//! column-resident copy ([`ResidentRelation`]), tied to the catalog
//! generation of that registration. Queries scan those columns directly;
//! the hash-bucket row lists of each (key column, degree) pair are computed
//! on first use and cached on the resident copy, so re-registering a name
//! replaces columns and bucket lists together and the old generation's
//! caches die with the last query still reading them.

use mj_relalg::column::{Column, ColumnBatch};
use mj_relalg::{RelalgError, Relation, RelationProvider, Result};
use parking_lot::{Mutex, RwLock};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::columnar::BucketIndex;

/// Optimizer-visible statistics for a base relation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TableStats {
    /// Tuple count.
    pub cardinality: u64,
    /// Number of distinct values in the (primary) join key column. For
    /// Wisconsin relations this equals the cardinality (`unique1` is
    /// unique).
    pub distinct_keys: u64,
}

impl TableStats {
    /// Stats for a relation with a unique join key.
    pub fn unique_key(cardinality: u64) -> Self {
        TableStats {
            cardinality,
            distinct_keys: cardinality,
        }
    }
}

/// One registered relation as the engine scans it: the rows it was
/// registered with (the oracle's and the row API's view), their immutable
/// columnar pivot, and the bucket row lists computed over those columns.
#[derive(Debug)]
pub struct ResidentRelation {
    /// The relation as registered: what [`RelationProvider::relation`]
    /// serves to the oracle and the row API.
    relation: Arc<Relation>,
    /// The pivot, or the error that made the relation unpivotable (a
    /// relation whose tuples violate its own schema); surfaced to the
    /// queries that scan it.
    columns: std::result::Result<Arc<ColumnBatch>, RelalgError>,
    generation: u64,
    buckets: Mutex<HashMap<(usize, usize), Arc<BucketIndex>>>,
}

impl ResidentRelation {
    fn new(relation: Arc<Relation>) -> ResidentRelation {
        let columns = ColumnBatch::from_relation(&relation).map(Arc::new);
        ResidentRelation {
            relation,
            columns,
            generation: 0,
            buckets: Mutex::new(HashMap::new()),
        }
    }

    /// The column-resident copy every scan reads.
    pub fn columns(&self) -> Result<&Arc<ColumnBatch>> {
        self.columns.as_ref().map_err(Clone::clone)
    }

    /// The catalog generation this copy was registered at.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The row lists of `key_col` hashed into `of` buckets, computed with
    /// the vectorized bucket kernel on first use and shared by every later
    /// scan of this generation.
    pub fn buckets(&self, key_col: usize, of: usize) -> Result<Arc<BucketIndex>> {
        if let Some(index) = self.buckets.lock().get(&(key_col, of)) {
            return Ok(index.clone());
        }
        // Built outside the lock: a racing scan may build the same index
        // twice, and the first insert wins.
        let index = Arc::new(BucketIndex::build(self.columns()?.int_col(key_col)?, of)?);
        Ok(self
            .buckets
            .lock()
            .entry((key_col, of))
            .or_insert(index)
            .clone())
    }

    /// Number of cached bucket indexes.
    pub fn cached_buckets(&self) -> usize {
        self.buckets.lock().len()
    }

    /// Bytes held by the columnar copy and its cached bucket indexes.
    pub fn bytes(&self) -> u64 {
        let columns = self.columns.as_ref().map_or(0, |c| c.capacity_bytes());
        columns + self.buckets.lock().values().map(|b| b.bytes()).sum::<u64>()
    }
}

/// A thread-safe catalog of named relations and their statistics.
#[derive(Debug, Default)]
pub struct Catalog {
    entries: RwLock<HashMap<String, (Arc<ResidentRelation>, TableStats)>>,
    /// Distinct-value counts per (relation, column) — what the planner's
    /// selectivity formula `1 / max(d_left, d_right)` runs on. Columns
    /// without an entry fall back to [`TableStats`].
    column_distinct: RwLock<HashMap<(String, usize), u64>>,
    /// Monotonic mutation counter: bumped by every write path
    /// (`register*`, `set_column_distinct`, `analyze`). Cached query
    /// plans record the generation they were built against and must be
    /// re-validated when it moves — a stale plan never runs against a
    /// changed catalog.
    generation: AtomicU64,
}

impl Catalog {
    /// Creates an empty catalog.
    pub fn new() -> Self {
        Catalog::default()
    }

    /// The current mutation generation. Any catalog write (registration,
    /// statistics update, `analyze`) advances it; plan caches compare
    /// generations to detect staleness.
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    fn bump_generation(&self) -> u64 {
        self.generation.fetch_add(1, Ordering::AcqRel) + 1
    }

    /// Inserts a pivoted relation under the write lock, stamping it with
    /// the generation its insertion creates.
    fn insert(
        &self,
        entries: &mut HashMap<String, (Arc<ResidentRelation>, TableStats)>,
        name: String,
        mut resident: ResidentRelation,
        stats: TableStats,
    ) {
        resident.generation = self.bump_generation();
        entries.insert(name, (Arc::new(resident), stats));
    }

    /// Registers a relation, deriving unique-key statistics from its size.
    pub fn register(&self, name: impl Into<String>, relation: Arc<Relation>) {
        let stats = TableStats::unique_key(relation.len() as u64);
        self.register_with_stats(name, relation, stats);
    }

    /// Registers a relation, erroring if the name is already taken or the
    /// relation cannot be pivoted. The check-and-insert is atomic under the
    /// catalog's write lock, so concurrent sessions cannot silently
    /// overwrite each other — the session front door's duplicate guard.
    pub fn register_new(&self, name: impl Into<String>, relation: Arc<Relation>) -> Result<()> {
        let name = name.into();
        let stats = TableStats::unique_key(relation.len() as u64);
        let resident = ResidentRelation::new(relation);
        let mut entries = self.entries.write();
        if entries.contains_key(&name) {
            return Err(RelalgError::InvalidPlan(format!(
                "relation `{name}` is already registered"
            )));
        }
        resident.columns()?;
        self.insert(&mut entries, name, resident, stats);
        Ok(())
    }

    /// Registers a relation with explicit statistics (e.g. skewed keys),
    /// replacing any relation of that name: the new columns and an empty
    /// bucket cache take the old generation's place.
    pub fn register_with_stats(
        &self,
        name: impl Into<String>,
        relation: Arc<Relation>,
        stats: TableStats,
    ) {
        let resident = ResidentRelation::new(relation);
        self.insert(&mut self.entries.write(), name.into(), resident, stats);
    }

    /// The column-resident copy of `name` (current generation).
    pub fn resident(&self, name: &str) -> Result<Arc<ResidentRelation>> {
        self.entries
            .read()
            .get(name)
            .map(|(r, _)| r.clone())
            .ok_or_else(|| RelalgError::UnknownRelation(name.to_string()))
    }

    /// Bytes held by every resident columnar copy and its bucket caches.
    pub fn resident_bytes(&self) -> u64 {
        self.entries.read().values().map(|(r, _)| r.bytes()).sum()
    }

    /// The statistics recorded for `name`.
    pub fn stats(&self, name: &str) -> Result<TableStats> {
        self.entries
            .read()
            .get(name)
            .map(|(_, s)| *s)
            .ok_or_else(|| RelalgError::UnknownRelation(name.to_string()))
    }

    /// Records the distinct-value count of one column of `name`.
    pub fn set_column_distinct(&self, name: impl Into<String>, column: usize, distinct: u64) {
        self.column_distinct
            .write()
            .insert((name.into(), column), distinct);
        self.bump_generation();
    }

    /// Scans the resident columns and records exact distinct counts for
    /// every column — O(rows × columns); meant for generated/benchmark
    /// data, not for production-size loads.
    pub fn analyze(&self, name: &str) -> Result<()> {
        let resident = self.resident(name)?;
        let columns = resident.columns()?;
        for col in 0..columns.arity() {
            let distinct = match columns.column(col)? {
                Column::Int(keys) => keys.iter().collect::<HashSet<_>>().len(),
                Column::Ref(refs) => refs.iter().collect::<HashSet<_>>().len(),
                Column::Val(values) => values.iter().collect::<HashSet<_>>().len(),
            };
            self.set_column_distinct(name, col, distinct as u64);
        }
        Ok(())
    }

    /// Distinct-value estimate for one column: the recorded per-column
    /// count if any, else [`TableStats::distinct_keys`] for column 0 (the
    /// primary join key), else the relation cardinality (assume unique).
    pub fn column_distinct(&self, name: &str, column: usize) -> Result<u64> {
        if let Some(d) = self.column_distinct.read().get(&(name.to_string(), column)) {
            return Ok(*d);
        }
        let stats = self.stats(name)?;
        Ok(if column == 0 {
            stats.distinct_keys
        } else {
            stats.cardinality
        })
    }

    /// Names of all registered relations (unordered).
    pub fn names(&self) -> Vec<String> {
        self.entries.read().keys().cloned().collect()
    }

    /// Number of registered relations.
    pub fn len(&self) -> usize {
        self.entries.read().len()
    }

    /// True if no relations are registered.
    pub fn is_empty(&self) -> bool {
        self.entries.read().is_empty()
    }
}

impl RelationProvider for Catalog {
    fn relation(&self, name: &str) -> Result<Arc<Relation>> {
        self.entries
            .read()
            .get(name)
            .map(|(r, _)| r.relation.clone())
            .ok_or_else(|| RelalgError::UnknownRelation(name.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mj_relalg::{Attribute, Schema, Tuple};

    fn rel(n: i64) -> Arc<Relation> {
        let schema = Schema::new(vec![Attribute::int("k")]).shared();
        Arc::new(Relation::new(schema, (0..n).map(|v| Tuple::from_ints(&[v])).collect()).unwrap())
    }

    #[test]
    fn register_and_lookup() {
        let c = Catalog::new();
        assert!(c.is_empty());
        c.register("R", rel(10));
        assert_eq!(c.len(), 1);
        assert_eq!(c.relation("R").unwrap().len(), 10);
        assert_eq!(c.stats("R").unwrap().cardinality, 10);
        assert_eq!(c.stats("R").unwrap().distinct_keys, 10);
        assert!(c.relation("S").is_err());
        assert!(c.stats("S").is_err());
    }

    #[test]
    fn register_new_rejects_duplicates() {
        let c = Catalog::new();
        c.register_new("R", rel(5)).unwrap();
        let err = c.register_new("R", rel(7)).unwrap_err();
        assert!(err.to_string().contains("already registered"), "{err}");
        // The original registration is untouched.
        assert_eq!(c.relation("R").unwrap().len(), 5);
    }

    #[test]
    fn explicit_stats_override() {
        let c = Catalog::new();
        c.register_with_stats(
            "R",
            rel(10),
            TableStats {
                cardinality: 10,
                distinct_keys: 3,
            },
        );
        assert_eq!(c.stats("R").unwrap().distinct_keys, 3);
    }

    #[test]
    fn column_stats_fall_back_to_table_stats() {
        let c = Catalog::new();
        c.register("R", rel(10));
        // No per-column entries: col 0 uses distinct_keys, others cardinality.
        assert_eq!(c.column_distinct("R", 0).unwrap(), 10);
        assert_eq!(c.column_distinct("R", 3).unwrap(), 10);
        c.set_column_distinct("R", 3, 4);
        assert_eq!(c.column_distinct("R", 3).unwrap(), 4);
        assert!(c.column_distinct("missing", 0).is_err());
    }

    #[test]
    fn analyze_counts_exact_distincts() {
        let c = Catalog::new();
        let schema = Schema::new(vec![Attribute::int("k"), Attribute::int("v")]).shared();
        let tuples = (0..12).map(|i| Tuple::from_ints(&[i % 3, i])).collect();
        c.register("S", Arc::new(Relation::new(schema, tuples).unwrap()));
        c.analyze("S").unwrap();
        assert_eq!(c.column_distinct("S", 0).unwrap(), 3);
        assert_eq!(c.column_distinct("S", 1).unwrap(), 12);
    }

    #[test]
    fn generation_tracks_every_write_path() {
        let c = Catalog::new();
        let g0 = c.generation();
        c.register("R", rel(4));
        let g1 = c.generation();
        assert!(g1 > g0, "register bumps");
        c.register_new("S", rel(4)).unwrap();
        let g2 = c.generation();
        assert!(g2 > g1, "register_new bumps");
        // A *failed* register_new leaves the generation alone.
        assert!(c.register_new("S", rel(9)).is_err());
        assert_eq!(c.generation(), g2, "failed registration is not a write");
        c.set_column_distinct("R", 0, 2);
        let g3 = c.generation();
        assert!(g3 > g2, "stat update bumps");
        c.analyze("R").unwrap();
        assert!(c.generation() > g3, "analyze bumps");
        // Reads never move it.
        let g = c.generation();
        let _ = c.stats("R").unwrap();
        let _ = c.column_distinct("R", 0).unwrap();
        let _ = c.names();
        assert_eq!(c.generation(), g);
    }

    #[test]
    fn names_lists_everything() {
        let c = Catalog::new();
        c.register("A", rel(1));
        c.register("B", rel(2));
        let mut names = c.names();
        names.sort();
        assert_eq!(names, vec!["A", "B"]);
    }
}
