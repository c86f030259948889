//! Late materialization: join on narrow ref-carrying relations, gather
//! payloads once at the root.
//!
//! An eager plan copies every payload column of every matching row through
//! the whole join chain — each of *k* joins re-gathers the full row width,
//! so a payload byte crosses the pipeline O(k) times. The late plan
//! rewrites every base relation to its **narrow** form: the join-key
//! columns (kept dense, so probing is unchanged) plus one packed row
//! reference per leaf ([`pack_ref`](mj_storage::pack_ref): `(source, row)`
//! in a `u64`). Joins then move only keys and refs; the catalog's
//! column-resident batches stay pinned in a per-query
//! [`FragmentRegistry`], and a single column-wise gather at the pipeline
//! root resolves the *surviving* refs — each payload byte is touched
//! exactly once, and only for rows that made it through every join.
//!
//! The rewrite is purely a planning-time transformation: [`plan_late`]
//! derives a narrow [`QueryBinding`] (same tree, same operators, identity
//! projections over the narrow concatenations), the [`Narrow`] shape of
//! every leaf scan, and the [`Resolver`] that maps the narrow root output
//! back to the original root schema. Nothing is copied: a narrow scan
//! reads the stored key columns in place and synthesizes each ref from the
//! stored row index, and the registry pins the stored batches themselves
//! (catalog-resident, so they are charged to no query's budget). The
//! engine swaps the narrow binding in for operator wiring, attaches the
//! resolver to the root join's tasks, and leaves everything downstream of
//! the root (pipeline stages, client channel) on the original schema —
//! late materialization is invisible outside the join pipeline.
//!
//! Eligibility is governed by [`LateMode`](crate::config::LateMode):
//! `Auto` demands at least two joins *and* a narrow root row at most 0.8×
//! the original row width (single joins and key-only schemas gain
//! nothing); `Always` rewrites whenever at least one payload column can be
//! stripped; `Never` disables the rewrite.

use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

use mj_core::plan_ir::ParallelPlan;
use mj_plan::tree::{NodeId, TreeNode};
use mj_relalg::column::{columnar_row_bytes, ColumnBatch, ColumnLayout};
use mj_relalg::{Attribute, EquiJoin, Projection, RelalgError, Result, Schema};
use mj_storage::{ref_row, FragmentRegistry, Narrow};

use crate::binding::QueryBinding;
use crate::config::LateMode;
use crate::engine::Residents;

/// One column of the resolver's materialization plan: how original root
/// output column `j` is produced from the narrow root output.
#[derive(Clone, Debug)]
enum MatCol {
    /// Copied from narrow root output column `pos` (a join key, still
    /// dense in the narrow plan).
    Dense(usize),
    /// Gathered from the pinned payload of source `sid`, column
    /// `leaf_col`, at the row indices carried by ref slot `slot`.
    Gather {
        /// Index into [`Resolver::ref_cols`] naming the ref column whose
        /// row indices drive this gather.
        slot: usize,
        /// Registry slot of the pinned payload batch.
        sid: usize,
        /// Column within the pinned payload batch.
        leaf_col: usize,
    },
}

/// Resolves narrow (ref-carrying) root output batches into the original
/// root schema: dense columns are copied, payload columns are gathered
/// from the pinned registry batches. Built once per query by
/// [`plan_late`]; shared read-only by all root-op instances.
pub(crate) struct Resolver {
    registry: FragmentRegistry,
    plan: Vec<MatCol>,
    /// Narrow-root positions of the distinct ref columns the plan uses;
    /// `MatCol::Gather::slot` indexes this list.
    ref_cols: Vec<usize>,
    /// Column layout of the resolved (original root schema) output.
    layout: ColumnLayout,
}

impl Resolver {
    /// Layout of the resolved output (the original root schema).
    pub(crate) fn layout(&self) -> &ColumnLayout {
        &self.layout
    }

    /// Number of ref-index scratch buffers [`resolve_into`](Self::resolve_into)
    /// needs.
    pub(crate) fn scratch_slots(&self) -> usize {
        self.ref_cols.len()
    }

    /// Appends the resolution of every row of `src` (narrow root schema)
    /// to `dst` (original root schema). `scratch` holds the per-ref-column
    /// row-index buffers, reused across calls.
    pub(crate) fn resolve_into(
        &self,
        src: &ColumnBatch,
        scratch: &mut [Vec<u32>],
        dst: &mut ColumnBatch,
    ) -> Result<()> {
        let n = src.rows();
        if n == 0 {
            return Ok(());
        }
        // Unpack each used ref column's row indices once per batch; every
        // gather over the same source reuses the same index vector.
        for (slot, &pos) in self.ref_cols.iter().enumerate() {
            let refs = src.column(pos)?.as_refs().ok_or_else(|| {
                RelalgError::InvalidPlan(format!("late plan: column {pos} is not a ref column"))
            })?;
            let idx = &mut scratch[slot];
            idx.clear();
            idx.extend(refs.iter().map(|&r| ref_row(r)));
        }
        dst.append_with(n, |j, col| match &self.plan[j] {
            MatCol::Dense(pos) => col.append_range(src.column(*pos)?, 0..n),
            MatCol::Gather {
                slot,
                sid,
                leaf_col,
            } => col.append_gather(self.registry.get(*sid)?.column(*leaf_col)?, &scratch[*slot]),
        })
    }
}

/// Everything the engine needs to run a query late-materialized.
pub(crate) struct LateRewrite {
    /// Narrow binding: same stages, narrow join specs and node schemas,
    /// no scan filters (the engine applies the original binding's filters
    /// to the stored columns before narrowing).
    pub narrow: QueryBinding,
    /// Narrow scan shape of every base relation by catalog name: the
    /// stored columns kept dense, then the ref into the pinned batch.
    pub leaves: HashMap<String, Arc<Narrow>>,
    /// The root-side resolver over the pinned stored batches.
    pub resolver: Arc<Resolver>,
}

/// Per-leaf narrow output column: a still-dense original leaf column or
/// the leaf's packed row reference.
#[derive(Clone, Copy, PartialEq, Eq)]
enum NKind {
    Dense(usize),
    Ref,
}

/// One column of a narrow node's output, with the leaf it came from.
#[derive(Clone, Copy)]
struct NCol {
    leaf: NodeId,
    kind: NKind,
}

/// Attempts the late-materialization rewrite of `plan` + `binding` under
/// `mode`. Returns `None` when the rewrite is disabled, impossible, or
/// (under `Auto`) not estimated to pay.
pub(crate) fn plan_late(
    plan: &ParallelPlan,
    binding: &QueryBinding,
    residents: &Residents,
    mode: LateMode,
) -> Result<Option<LateRewrite>> {
    if mode == LateMode::Never || plan.ops.is_empty() {
        return Ok(None);
    }
    if mode == LateMode::Auto && plan.ops.len() < 2 {
        return Ok(None);
    }
    let tree = &plan.tree;
    let n_nodes = tree.nodes().len();

    // --- Provenance: trace every node output column to (leaf, leaf col).
    // Sources (registry slots) are keyed by relation *name*, so duplicate
    // leaves of the same relation share one pinned payload batch.
    let mut sid_of_name: HashMap<&str, usize> = HashMap::new();
    let mut names: Vec<&str> = Vec::new();
    let mut leaf_sid: HashMap<NodeId, usize> = HashMap::new();
    let mut prov: Vec<Vec<(NodeId, usize)>> = vec![Vec::new(); n_nodes];
    for (id, node) in tree.nodes().iter().enumerate() {
        match node {
            TreeNode::Leaf { relation } => {
                let sid = *sid_of_name.entry(relation.as_str()).or_insert_with(|| {
                    names.push(relation.as_str());
                    names.len() - 1
                });
                leaf_sid.insert(id, sid);
                let arity = binding.schema(id)?.arity();
                prov[id] = (0..arity).map(|c| (id, c)).collect();
            }
            TreeNode::Join { left, right } => {
                let spec = binding.spec(id)?;
                let l_arity = prov[*left].len();
                prov[id] = spec
                    .projection
                    .cols()
                    .iter()
                    .map(|&c| {
                        if c < l_arity {
                            prov[*left][c]
                        } else {
                            prov[*right][c - l_arity]
                        }
                    })
                    .collect();
            }
        }
    }

    // --- Dense sets: the leaf columns joins actually probe on. Everything
    // else becomes payload, reachable only through the ref column.
    let mut dense: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); names.len()];
    for (id, node) in tree.nodes().iter().enumerate() {
        if let TreeNode::Join { left, right } = node {
            let spec = binding.spec(id)?;
            for (child, key) in [(*left, spec.left_key), (*right, spec.right_key)] {
                let (leaf, col) = prov[child][key];
                dense[leaf_sid[&leaf]].insert(col);
            }
        }
    }

    // A leaf needs its ref column only if some original root output column
    // must be gathered from its payload.
    let root = tree.root();
    let mut needs_ref = vec![false; names.len()];
    for &(leaf, col) in &prov[root] {
        let sid = leaf_sid[&leaf];
        if !dense[sid].contains(&col) {
            needs_ref[sid] = true;
        }
    }

    // --- Narrow leaf schemas; bail if nothing is stripped anywhere.
    let mut narrow_leaf_schemas: Vec<Option<Arc<Schema>>> = vec![None; names.len()];
    let mut stripped_any = false;
    for (sid, name) in names.iter().enumerate() {
        // Any leaf of this relation serves: schemas are per-name.
        let leaf = *leaf_sid
            .iter()
            .find(|(_, s)| **s == sid)
            .map(|(l, _)| l)
            .ok_or_else(|| RelalgError::InvalidPlan("late plan: unmapped source".into()))?;
        let orig = binding.schema(leaf)?;
        let mut attrs: Vec<Attribute> = dense[sid]
            .iter()
            .map(|&c| orig.attr(c).cloned())
            .collect::<Result<_>>()?;
        if needs_ref[sid] {
            attrs.push(Attribute::rowref(format!("{name}#ref")));
        }
        if attrs.len() < orig.arity() {
            stripped_any = true;
        }
        narrow_leaf_schemas[sid] = Some(Schema::new(attrs).shared());
    }
    if !stripped_any {
        return Ok(None);
    }

    // --- Narrow node outputs: leaves emit [dense cols..., ref?]; joins
    // emit the identity over the concatenation, so every leaf's columns
    // survive to the root (the resolver needs them there).
    let mut ncols: Vec<Vec<NCol>> = vec![Vec::new(); n_nodes];
    let mut narrow_schemas: Vec<Option<Arc<Schema>>> = vec![None; n_nodes];
    let mut narrow_specs: HashMap<NodeId, EquiJoin> = HashMap::new();
    for (id, node) in tree.nodes().iter().enumerate() {
        match node {
            TreeNode::Leaf { .. } => {
                let sid = leaf_sid[&id];
                let mut cols: Vec<NCol> = dense[sid]
                    .iter()
                    .map(|&c| NCol {
                        leaf: id,
                        kind: NKind::Dense(c),
                    })
                    .collect();
                if needs_ref[sid] {
                    cols.push(NCol {
                        leaf: id,
                        kind: NKind::Ref,
                    });
                }
                ncols[id] = cols;
                narrow_schemas[id] = narrow_leaf_schemas[sid].clone();
            }
            TreeNode::Join { left, right } => {
                let spec = binding.spec(id)?;
                let key_pos = |child: NodeId, key: usize| -> Result<usize> {
                    let (leaf, col) = prov[child][key];
                    ncols[child]
                        .iter()
                        .position(|nc| nc.leaf == leaf && nc.kind == NKind::Dense(col))
                        .ok_or_else(|| {
                            RelalgError::InvalidPlan("late plan: join key not dense".into())
                        })
                };
                let left_key = key_pos(*left, spec.left_key)?;
                let right_key = key_pos(*right, spec.right_key)?;
                let (l, r) = (ncols[*left].clone(), ncols[*right].clone());
                let arity = l.len() + r.len();
                ncols[id] = l.into_iter().chain(r).collect();
                let ls = narrow_schemas[*left]
                    .as_ref()
                    .ok_or_else(|| RelalgError::InvalidPlan("late plan: schema order".into()))?;
                let rs = narrow_schemas[*right]
                    .as_ref()
                    .ok_or_else(|| RelalgError::InvalidPlan("late plan: schema order".into()))?;
                narrow_schemas[id] = Some(ls.concat(rs).shared());
                narrow_specs.insert(
                    id,
                    EquiJoin::new(left_key, right_key, Projection::new((0..arity).collect())),
                );
            }
        }
    }

    // --- Eligibility: under Auto the narrow root row must be materially
    // narrower than the original (0.8×), or the ref traffic and the final
    // gather cost more than they save.
    let orig_root = binding.schema(root)?;
    let narrow_root = narrow_schemas[root]
        .as_ref()
        .ok_or_else(|| RelalgError::InvalidPlan("late plan: no root schema".into()))?;
    if mode == LateMode::Auto
        && 10 * columnar_row_bytes(narrow_root) > 8 * columnar_row_bytes(orig_root)
    {
        return Ok(None);
    }

    // --- Pin the stored batches the resolver gathers from, and describe
    // each leaf scan's narrow shape. Refs index stored rows, so filters
    // (applied by the scans, in stored coordinates) need no re-numbering.
    let mut registry = FragmentRegistry::new(names.len());
    let mut leaves: HashMap<String, Arc<Narrow>> = HashMap::new();
    for (sid, name) in names.iter().enumerate() {
        let columns = residents
            .get(*name)
            .ok_or_else(|| RelalgError::UnknownRelation((*name).to_string()))?
            .columns()?;
        if columns.rows() > u32::MAX as usize {
            return Ok(None); // row index would not fit a packed ref
        }
        leaves.insert(
            (*name).to_string(),
            Arc::new(Narrow {
                cols: dense[sid].iter().copied().collect(),
                ref_source: needs_ref[sid].then_some(sid as u32),
            }),
        );
        if needs_ref[sid] {
            registry.set(sid, columns.clone());
        }
    }

    // --- Materialization plan for the resolver: map every original root
    // output column to a dense copy or a registry gather.
    let mut ref_cols: Vec<usize> = Vec::new();
    let mut mat_plan: Vec<MatCol> = Vec::with_capacity(prov[root].len());
    for &(leaf, col) in &prov[root] {
        let sid = leaf_sid[&leaf];
        if dense[sid].contains(&col) {
            let pos = ncols[root]
                .iter()
                .position(|nc| nc.leaf == leaf && nc.kind == NKind::Dense(col))
                .ok_or_else(|| RelalgError::InvalidPlan("late plan: lost dense column".into()))?;
            mat_plan.push(MatCol::Dense(pos));
        } else {
            let ref_pos = ncols[root]
                .iter()
                .position(|nc| nc.leaf == leaf && nc.kind == NKind::Ref)
                .ok_or_else(|| RelalgError::InvalidPlan("late plan: lost ref column".into()))?;
            let slot = match ref_cols.iter().position(|&p| p == ref_pos) {
                Some(s) => s,
                None => {
                    ref_cols.push(ref_pos);
                    ref_cols.len() - 1
                }
            };
            mat_plan.push(MatCol::Gather {
                slot,
                sid,
                leaf_col: col,
            });
        }
    }

    let schemas: Vec<Arc<Schema>> = narrow_schemas
        .into_iter()
        .collect::<Option<Vec<_>>>()
        .ok_or_else(|| RelalgError::InvalidPlan("late plan: incomplete schemas".into()))?;
    Ok(Some(LateRewrite {
        narrow: binding.narrowed(narrow_specs, schemas),
        leaves,
        resolver: Arc::new(Resolver {
            registry,
            plan: mat_plan,
            ref_cols,
            layout: ColumnLayout::of(orig_root),
        }),
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::residents;
    use crate::planner::PlannedQuery;
    use crate::session::{Database, DbConfig};
    use mj_relalg::{Relation, Tuple, Value};
    use mj_storage::pack_ref;

    fn late(db: &Database, planned: &PlannedQuery, mode: LateMode) -> Option<LateRewrite> {
        let residents = residents(&planned.plan, db.catalog()).unwrap();
        plan_late(&planned.plan, &planned.binding, &residents, mode).unwrap()
    }

    fn rel(cols: &[&str], rows: usize) -> Arc<Relation> {
        let schema = Schema::new(cols.iter().map(|c| Attribute::int(*c)).collect()).shared();
        let arity = cols.len();
        let tuples = (0..rows as i64)
            .map(|i| Tuple::from_ints(&vec![i % 8; arity]))
            .collect();
        Arc::new(Relation::new_unchecked(schema, tuples))
    }

    /// Three wide relations (two payload columns each) chained on `k`.
    fn wide_db() -> Database {
        let db = Database::open(DbConfig::default()).unwrap();
        db.register("a", rel(&["k", "p1", "p2", "p3"], 24)).unwrap();
        db.register("b", rel(&["k", "q1", "q2", "q3"], 24)).unwrap();
        db.register("c", rel(&["k", "r1", "r2", "r3"], 24)).unwrap();
        db.analyze().unwrap();
        db
    }

    const CHAIN: &str = "SELECT * FROM a JOIN b ON a.k = b.k JOIN c ON b.k = c.k";

    #[test]
    fn auto_rewrites_wide_chains_and_narrows_every_leaf() {
        let db = wide_db();
        let planned = db.plan(CHAIN).unwrap();
        let late = late(&db, &planned, LateMode::Auto)
            .expect("two joins over 4-int rows must rewrite under Auto");
        // Every leaf keeps only its key plus the ref column.
        for (sid, name) in ["a", "b", "c"].iter().enumerate() {
            let narrow = late.leaves.get(*name).expect("narrow leaf");
            assert_eq!(narrow.cols, vec![0], "{name}: key only");
            assert!(narrow.ref_source.is_some(), "{name}: ref column last");
            // The registry pins the catalog's own columns: no copy.
            let pinned = late.resolver.registry.get(sid).unwrap();
            let stored = db.catalog().resident(name).unwrap();
            assert!(Arc::ptr_eq(pinned, stored.columns().unwrap()), "{name}");
        }
        // The narrow root output is keys + refs; the original is 12 ints.
        let root = planned.plan.tree.root();
        assert_eq!(planned.binding.schema(root).unwrap().arity(), 12);
        assert_eq!(late.narrow.schema(root).unwrap().arity(), 6);
        // Narrow bindings carry no scan filters (already applied).
        assert!(late.narrow.scan_filters().is_empty());
    }

    #[test]
    fn never_and_single_join_auto_do_not_rewrite() {
        let db = wide_db();
        let planned = db.plan(CHAIN).unwrap();
        assert!(
            late(&db, &planned, LateMode::Never).is_none(),
            "Never disables the rewrite"
        );
        let single = db.plan("SELECT * FROM a JOIN b ON a.k = b.k").unwrap();
        assert!(
            late(&db, &single, LateMode::Auto).is_none(),
            "Auto demands at least two joins"
        );
        assert!(
            late(&db, &single, LateMode::Always).is_some(),
            "Always rewrites a single join when payloads can be stripped"
        );
    }

    #[test]
    fn auto_declines_key_only_schemas() {
        // Narrow rows (key + ref per leaf) would be as wide as the
        // originals: the 0.8x policy must decline.
        let db = Database::open(DbConfig::default()).unwrap();
        db.register("x", rel(&["k", "v"], 16)).unwrap();
        db.register("y", rel(&["k", "v"], 16)).unwrap();
        db.register("z", rel(&["k", "v"], 16)).unwrap();
        db.analyze().unwrap();
        let planned = db
            .plan("SELECT * FROM x JOIN y ON x.k = y.k JOIN z ON y.k = z.k")
            .unwrap();
        assert!(
            late(&db, &planned, LateMode::Auto).is_none(),
            "2-col rows gain nothing from a ref rewrite"
        );
    }

    #[test]
    fn resolver_round_trips_rows_through_refs() {
        // Resolve a hand-built narrow batch against a pinned payload and
        // check rows land in original-schema order.
        let payload_schema = Schema::new(vec![
            Attribute::int("k"),
            Attribute::int("p"),
            Attribute::int("q"),
        ])
        .shared();
        let mut payload = ColumnBatch::for_schema(&payload_schema);
        for i in 0..6 {
            payload
                .push_tuple(&Tuple::from_ints(&[i, 10 * i, 100 * i]))
                .unwrap();
        }
        let mut registry = FragmentRegistry::new(1);
        registry.set(0, Arc::new(payload));
        let resolver = Resolver {
            registry,
            plan: vec![
                MatCol::Dense(0),
                MatCol::Gather {
                    slot: 0,
                    sid: 0,
                    leaf_col: 1,
                },
                MatCol::Gather {
                    slot: 0,
                    sid: 0,
                    leaf_col: 2,
                },
            ],
            ref_cols: vec![1],
            layout: ColumnLayout::of(&payload_schema),
        };
        // Narrow batch: [k, ref] rows pointing at payload rows 5, 2, 2.
        let narrow_schema =
            Schema::new(vec![Attribute::int("k"), Attribute::rowref("payload#ref")]);
        let mut narrow = ColumnBatch::for_schema(&narrow_schema);
        for row in [5u32, 2, 2] {
            narrow
                .push_tuple(&Tuple::new(vec![
                    Value::Int(row as i64),
                    Value::Int(pack_ref(0, row) as i64),
                ]))
                .unwrap();
        }
        let mut scratch = vec![Vec::new(); resolver.scratch_slots()];
        let mut out = ColumnBatch::with_capacity(resolver.layout(), 4);
        resolver
            .resolve_into(&narrow, &mut scratch, &mut out)
            .unwrap();
        assert_eq!(out.rows(), 3);
        assert_eq!(out.row(0).unwrap(), Tuple::from_ints(&[5, 50, 500]));
        assert_eq!(out.row(1).unwrap(), Tuple::from_ints(&[2, 20, 200]));
        assert_eq!(out.row(2).unwrap(), Tuple::from_ints(&[2, 20, 200]));
        // Resolution appends: a second batch lands after the first.
        resolver
            .resolve_into(&narrow, &mut scratch, &mut out)
            .unwrap();
        assert_eq!(out.rows(), 6);
    }
}
