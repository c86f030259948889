//! Columnar batches: one typed buffer per column plus selection vectors.
//!
//! This is the engine's internal data layout. Rows ([`Tuple`]) survive only
//! at the client/stream boundary; everywhere else operators move
//! [`ColumnBatch`]es — a `Vec<i64>` fast path per integer column and a
//! [`Value`] fallback column for strings — and describe *subsets* of a
//! batch with **selection vectors** (`Vec<u32>` of row indices) instead of
//! copying rows. The kernels here are the vectorized building blocks:
//!
//! * [`select`] evaluates a [`Predicate`] into a selection vector; the
//!   common `attr op literal` shape over an integer column compiles to a
//!   branch-free compare-into-selection loop ([`select_cmp_i64`]).
//! * gather/append primitives ([`ColumnBatch::append_gather`],
//!   [`ColumnBatch::append_concat_gather`]) materialize the selected or
//!   joined rows column-at-a-time.
//! * [`bucket_keys`] hashes a whole key column into partition buckets for
//!   the redistribution router.
//!
//! [`ColumnLayout`] carries the per-column types so buffer pools can
//! preallocate and account **real** columnar bytes (8 bytes per `i64` slot
//! rather than a row-struct guess).

use std::ops::Range;

use crate::error::{RelalgError, Result};
use crate::expr::Expr;
use crate::predicate::{CmpOp, Predicate};
use crate::relation::Relation;
use crate::schema::{DataType, Schema};
use crate::simd;
use crate::tuple::Tuple;
use crate::value::Value;

/// One column of a batch: a typed buffer.
///
/// Integer columns take the dense `Vec<i64>` fast path every vectorized
/// kernel targets; anything else (strings today) falls back to a `Vec` of
/// [`Value`]s.
#[derive(Clone, Debug, PartialEq)]
pub enum Column {
    /// Dense 64-bit integer column (the vectorized fast path).
    Int(Vec<i64>),
    /// Fallback column of boxed values (strings / mixed workloads).
    Val(Vec<Value>),
    /// Packed row references `(fragment_id << 32) | row_idx` carried by
    /// late-materialized plans instead of gathered payload columns. At row
    /// boundaries a ref bit-casts through [`Value::Int`].
    Ref(Vec<u64>),
}

impl Column {
    /// An empty column of the given type with room for `capacity` rows.
    pub fn for_type(ty: DataType, capacity: usize) -> Column {
        match ty {
            DataType::Int => Column::Int(Vec::with_capacity(capacity)),
            DataType::Str => Column::Val(Vec::with_capacity(capacity)),
            DataType::Ref => Column::Ref(Vec::with_capacity(capacity)),
        }
    }

    /// The column's data type.
    pub fn data_type(&self) -> DataType {
        match self {
            Column::Int(_) => DataType::Int,
            Column::Val(_) => DataType::Str,
            Column::Ref(_) => DataType::Ref,
        }
    }

    /// Number of values stored.
    pub fn len(&self) -> usize {
        match self {
            Column::Int(v) => v.len(),
            Column::Val(v) => v.len(),
            Column::Ref(v) => v.len(),
        }
    }

    /// True if the column holds no values.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops all values, keeping the allocation.
    pub fn clear(&mut self) {
        match self {
            Column::Int(v) => v.clear(),
            Column::Val(v) => v.clear(),
            Column::Ref(v) => v.clear(),
        }
    }

    /// The dense integer slice, if this is an [`Column::Int`] column.
    pub fn as_ints(&self) -> Option<&[i64]> {
        match self {
            Column::Int(v) => Some(v),
            _ => None,
        }
    }

    /// The packed row-reference slice, if this is a [`Column::Ref`] column.
    pub fn as_refs(&self) -> Option<&[u64]> {
        match self {
            Column::Ref(v) => Some(v),
            _ => None,
        }
    }

    /// The value at row `r` (clones; bounds-checked). Refs surface as
    /// bit-cast [`Value::Int`]s.
    pub fn value(&self, r: usize) -> Result<Value> {
        match self {
            Column::Int(v) => v.get(r).map(|&x| Value::Int(x)),
            Column::Val(v) => v.get(r).cloned(),
            Column::Ref(v) => v.get(r).map(|&x| Value::Int(x as i64)),
        }
        .ok_or(RelalgError::IndexOutOfBounds {
            index: r,
            arity: self.len(),
        })
    }

    /// Appends one value, enforcing the column type. A ref column accepts
    /// [`Value::Int`] (the bit-cast row-boundary form of a ref).
    pub fn push_value(&mut self, v: &Value) -> Result<()> {
        match (self, v) {
            (Column::Int(col), Value::Int(x)) => col.push(*x),
            (Column::Ref(col), Value::Int(x)) => col.push(*x as u64),
            (Column::Val(col), v) => col.push(v.clone()),
            (Column::Int(_), Value::Str(_)) | (Column::Ref(_), Value::Str(_)) => {
                return Err(RelalgError::TypeMismatch {
                    expected: "Int for a dense column",
                    found: "Str",
                })
            }
        }
        Ok(())
    }

    /// Appends rows `start..end` of `src` (same column type required).
    pub fn append_range(&mut self, src: &Column, range: Range<usize>) -> Result<()> {
        match (self, src) {
            (Column::Int(dst), Column::Int(s)) => dst.extend_from_slice(&s[range]),
            (Column::Val(dst), Column::Val(s)) => dst.extend_from_slice(&s[range]),
            (Column::Ref(dst), Column::Ref(s)) => dst.extend_from_slice(&s[range]),
            (Column::Val(dst), Column::Int(s)) => {
                dst.extend(s[range].iter().map(|&x| Value::Int(x)))
            }
            (Column::Val(dst), Column::Ref(s)) => {
                dst.extend(s[range].iter().map(|&x| Value::Int(x as i64)))
            }
            _ => {
                return Err(RelalgError::TypeMismatch {
                    expected: "matching column source",
                    found: "mismatched column",
                })
            }
        }
        Ok(())
    }

    /// Appends the rows of `src` selected by `sel` (gather). Dense columns
    /// run the SIMD gather kernel when the host supports it.
    pub fn append_gather(&mut self, src: &Column, sel: &[u32]) -> Result<()> {
        match (self, src) {
            (Column::Int(dst), Column::Int(s)) => simd::gather_i64(s, sel, dst),
            (Column::Ref(dst), Column::Ref(s)) => simd::gather_u64(s, sel, dst),
            (Column::Val(dst), Column::Val(s)) => {
                dst.reserve(sel.len());
                for &i in sel {
                    dst.push(s[i as usize].clone());
                }
            }
            (Column::Val(dst), Column::Int(s)) => {
                dst.reserve(sel.len());
                for &i in sel {
                    dst.push(Value::Int(s[i as usize]));
                }
            }
            (Column::Val(dst), Column::Ref(s)) => {
                dst.reserve(sel.len());
                for &i in sel {
                    dst.push(Value::Int(s[i as usize] as i64));
                }
            }
            _ => {
                return Err(RelalgError::TypeMismatch {
                    expected: "matching column source",
                    found: "mismatched column",
                })
            }
        }
        Ok(())
    }

    /// Appends `src[pick(pair)]` for every join match pair, where `left`
    /// picks the build-row (`.0`) or probe-row (`.1`) index — the single
    /// gather-emission primitive of join output assembly.
    pub fn append_pair_gather(
        &mut self,
        src: &Column,
        pairs: &[(u32, u32)],
        left: bool,
    ) -> Result<()> {
        match (self, src) {
            (Column::Int(dst), Column::Int(s)) => simd::gather_pairs_i64(s, pairs, left, dst),
            (Column::Ref(dst), Column::Ref(s)) => simd::gather_pairs_u64(s, pairs, left, dst),
            (Column::Val(dst), s) => {
                dst.reserve(pairs.len());
                for &(l, r) in pairs {
                    dst.push(s.value(if left { l } else { r } as usize)?);
                }
            }
            _ => {
                return Err(RelalgError::TypeMismatch {
                    expected: "matching column source",
                    found: "mismatched column",
                })
            }
        }
        Ok(())
    }

    /// Bytes one *buffer slot* of this column type occupies (what a pool
    /// actually allocates per row of capacity).
    pub fn slot_bytes(ty: DataType) -> usize {
        match ty {
            DataType::Int | DataType::Ref => std::mem::size_of::<i64>(),
            DataType::Str => std::mem::size_of::<Value>(),
        }
    }

    /// Allocated buffer bytes (capacity, not length). Ref columns count
    /// their full 8-byte slots so memory budgets never undercount
    /// late-materialized batches.
    pub fn capacity_bytes(&self) -> usize {
        match self {
            Column::Int(v) => v.capacity() * std::mem::size_of::<i64>(),
            Column::Val(v) => v.capacity() * std::mem::size_of::<Value>(),
            Column::Ref(v) => v.capacity() * std::mem::size_of::<u64>(),
        }
    }

    /// Logical bytes of the values held (heap payloads included for
    /// strings), mirroring [`Tuple::est_bytes`]'s ownership model.
    pub fn est_bytes(&self) -> usize {
        match self {
            Column::Int(v) => v.len() * std::mem::size_of::<i64>(),
            Column::Val(v) => v.iter().map(|x| x.est_bytes() + 8).sum(),
            Column::Ref(v) => v.len() * std::mem::size_of::<u64>(),
        }
    }
}

/// The per-column types of a batch — what a buffer pool needs to
/// preallocate correctly-typed column buffers and charge real bytes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ColumnLayout {
    types: Vec<DataType>,
}

impl ColumnLayout {
    /// The layout of batches conforming to `schema`.
    pub fn of(schema: &Schema) -> ColumnLayout {
        ColumnLayout {
            types: schema.attrs().iter().map(|a| a.ty).collect(),
        }
    }

    /// An all-integer layout of the given arity (tests, generators).
    pub fn ints(arity: usize) -> ColumnLayout {
        ColumnLayout {
            types: vec![DataType::Int; arity],
        }
    }

    /// A layout of the given column types, in order.
    pub fn from_types(types: Vec<DataType>) -> ColumnLayout {
        ColumnLayout { types }
    }

    /// The column types in order.
    pub fn types(&self) -> &[DataType] {
        &self.types
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.types.len()
    }

    /// Buffer bytes one row of capacity occupies across all columns — the
    /// unit batch pools charge per pooled row slot: 8 bytes per integer
    /// column, one `Value` slot per fallback column.
    pub fn row_bytes(&self) -> usize {
        self.types.iter().map(|&t| Column::slot_bytes(t)).sum()
    }
}

/// Buffer bytes per row of a batch conforming to `schema` — the columnar
/// accounting unit used by pools, planners, and memory budgets.
pub fn columnar_row_bytes(schema: &Schema) -> usize {
    ColumnLayout::of(schema).row_bytes()
}

/// A batch of rows stored column-wise.
///
/// The batch either has a fixed layout from construction
/// ([`ColumnBatch::with_capacity`]) or starts *shapeless*
/// ([`ColumnBatch::shapeless`]) and adopts the layout of the first data
/// appended — operator output buffers use the latter so drivers need no
/// schema plumbing.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ColumnBatch {
    columns: Vec<Column>,
    rows: usize,
}

impl ColumnBatch {
    /// An empty batch with typed columns of the given capacity.
    pub fn with_capacity(layout: &ColumnLayout, capacity: usize) -> ColumnBatch {
        ColumnBatch {
            columns: layout
                .types
                .iter()
                .map(|&t| Column::for_type(t, capacity))
                .collect(),
            rows: 0,
        }
    }

    /// An empty batch shaped for `schema` (no preallocation).
    pub fn for_schema(schema: &Schema) -> ColumnBatch {
        ColumnBatch::with_capacity(&ColumnLayout::of(schema), 0)
    }

    /// A batch with no columns yet: the first append adopts the source's
    /// layout. Operator output buffers start shapeless.
    pub fn shapeless() -> ColumnBatch {
        ColumnBatch::default()
    }

    /// Converts a row relation to columns (the scan boundary).
    pub fn from_relation(rel: &Relation) -> Result<ColumnBatch> {
        let mut batch = ColumnBatch::with_capacity(&ColumnLayout::of(rel.schema()), rel.len());
        for t in rel.iter() {
            batch.push_tuple(t)?;
        }
        Ok(batch)
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// True if the batch holds no rows.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Number of columns (0 while shapeless).
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// Drops all rows, keeping every column buffer's allocation.
    pub fn clear(&mut self) {
        for c in &mut self.columns {
            c.clear();
        }
        self.rows = 0;
    }

    /// The column at position `c`.
    pub fn column(&self, c: usize) -> Result<&Column> {
        self.columns.get(c).ok_or(RelalgError::IndexOutOfBounds {
            index: c,
            arity: self.columns.len(),
        })
    }

    /// The dense integer slice of column `c`, or a type/index error — the
    /// entry point of every key-column kernel.
    pub fn int_col(&self, c: usize) -> Result<&[i64]> {
        self.column(c)?.as_ints().ok_or(RelalgError::TypeMismatch {
            expected: "Int column",
            found: "Val column",
        })
    }

    /// The value at (column `c`, row `r`), cloned.
    pub fn value_at(&self, c: usize, r: usize) -> Result<Value> {
        self.column(c)?.value(r)
    }

    /// The layout of this batch's columns.
    pub fn layout(&self) -> ColumnLayout {
        ColumnLayout {
            types: self.columns.iter().map(Column::data_type).collect(),
        }
    }

    /// If shapeless, adopts the given column types.
    fn ensure_layout(&mut self, types: impl Iterator<Item = DataType>) {
        if self.columns.is_empty() && self.rows == 0 {
            self.columns = types.map(|t| Column::for_type(t, 0)).collect();
        }
    }

    fn check_arity(&self, found: usize) -> Result<()> {
        if self.columns.len() != found {
            return Err(RelalgError::SchemaMismatch(format!(
                "batch of arity {} cannot accept rows of arity {found}",
                self.columns.len()
            )));
        }
        Ok(())
    }

    /// Appends one row from a [`Tuple`] (the boundary path: scans entering
    /// the columnar world and tests).
    pub fn push_tuple(&mut self, t: &Tuple) -> Result<()> {
        self.ensure_layout(t.values().iter().map(|v| match v {
            Value::Int(_) => DataType::Int,
            Value::Str(_) => DataType::Str,
        }));
        self.check_arity(t.arity())?;
        for (c, v) in self.columns.iter_mut().zip(t.values()) {
            c.push_value(v)?;
        }
        self.rows += 1;
        Ok(())
    }

    /// Materializes row `r` as a [`Tuple`] (the client boundary path).
    pub fn row(&self, r: usize) -> Result<Tuple> {
        if r >= self.rows {
            return Err(RelalgError::IndexOutOfBounds {
                index: r,
                arity: self.rows,
            });
        }
        let mut values = Vec::with_capacity(self.columns.len());
        for c in &self.columns {
            values.push(c.value(r)?);
        }
        Ok(Tuple::new(values))
    }

    /// Appends rows `start..end` of `src` column-at-a-time.
    pub fn append_rows(&mut self, src: &ColumnBatch, range: Range<usize>) -> Result<()> {
        self.ensure_layout(src.columns.iter().map(Column::data_type));
        self.check_arity(src.arity())?;
        for (dst, s) in self.columns.iter_mut().zip(&src.columns) {
            dst.append_range(s, range.clone())?;
        }
        self.rows += range.len();
        Ok(())
    }

    /// Appends `n` rows assembled column-by-column: `fill` is called once
    /// per column with `(column_index, &mut column)` and must append
    /// exactly `n` values to it. This is the late-materialization
    /// resolver's assembly point — each output column is either a dense
    /// copy or a registry gather, decided per column rather than per row.
    pub fn append_with(
        &mut self,
        n: usize,
        mut fill: impl FnMut(usize, &mut Column) -> Result<()>,
    ) -> Result<()> {
        for (i, col) in self.columns.iter_mut().enumerate() {
            let before = col.len();
            fill(i, col)?;
            debug_assert_eq!(
                col.len(),
                before + n,
                "append_with fill must add exactly n values to column {i}"
            );
        }
        self.rows += n;
        Ok(())
    }

    /// Appends the rows of `src` selected by `sel` (column-wise gather).
    pub fn append_gather(&mut self, src: &ColumnBatch, sel: &[u32]) -> Result<()> {
        self.ensure_layout(src.columns.iter().map(Column::data_type));
        self.check_arity(src.arity())?;
        for (dst, s) in self.columns.iter_mut().zip(&src.columns) {
            dst.append_gather(s, sel)?;
        }
        self.rows += sel.len();
        Ok(())
    }

    /// Appends the rows of `src` selected by `sel`, projected onto
    /// `cols` (indices into `src`) — selection and projection fused into
    /// one gather.
    pub fn append_project_gather(
        &mut self,
        src: &ColumnBatch,
        cols: &[usize],
        sel: &[u32],
    ) -> Result<()> {
        let mut types = Vec::with_capacity(cols.len());
        for &c in cols {
            types.push(src.column(c)?.data_type());
        }
        self.ensure_layout(types.into_iter());
        self.check_arity(cols.len())?;
        for (dst, &c) in self.columns.iter_mut().zip(cols) {
            dst.append_gather(src.column(c)?, sel)?;
        }
        self.rows += sel.len();
        Ok(())
    }

    /// Appends join results: for every `(l, r)` pair in `pairs`, the
    /// projected concatenation of `left` row `l` and `right` row `r`.
    /// `cols` indexes the virtual concatenation `left ++ right` exactly
    /// like [`Tuple::project_concat`], but each output column is gathered
    /// in one tight loop instead of per-row dispatch.
    pub fn append_concat_gather(
        &mut self,
        left: &ColumnBatch,
        right: &ColumnBatch,
        cols: &[usize],
        pairs: &[(u32, u32)],
    ) -> Result<()> {
        if pairs.is_empty() {
            // Nothing to append. Skipping the column-type resolution also
            // keeps an *empty* (still shapeless, arity-0) join side from
            // tripping the arity check below — probes routinely arrive
            // before the opposite table holds its first row.
            return Ok(());
        }
        let total = left.arity() + right.arity();
        let mut types = Vec::with_capacity(cols.len());
        for &c in cols {
            let col = if c < left.arity() {
                left.column(c)?
            } else if c < total {
                right.column(c - left.arity())?
            } else {
                return Err(RelalgError::IndexOutOfBounds {
                    index: c,
                    arity: total,
                });
            };
            types.push(col.data_type());
        }
        self.ensure_layout(types.into_iter());
        self.check_arity(cols.len())?;
        for (dst, &c) in self.columns.iter_mut().zip(cols) {
            if c < left.arity() {
                dst.append_pair_gather(left.column(c)?, pairs, true)?;
            } else {
                dst.append_pair_gather(right.column(c - left.arity())?, pairs, false)?;
            }
        }
        self.rows += pairs.len();
        Ok(())
    }

    /// Logical bytes of the rows held (the sizing unit operator metrics
    /// and flush thresholds use).
    pub fn est_bytes(&self) -> u64 {
        self.columns.iter().map(|c| c.est_bytes() as u64).sum()
    }

    /// Allocated buffer bytes across all columns (what the batch pool
    /// charges against a memory budget).
    pub fn capacity_bytes(&self) -> u64 {
        self.columns.iter().map(|c| c.capacity_bytes() as u64).sum()
    }
}

/// Branch-free compare-into-selection over a dense integer column: appends
/// to `out` the indices `i` (restricted to `sel` when given) where
/// `keys[i] op lit`. The dense (no `sel`) form dispatches to the explicit
/// SIMD kernel ([`simd::select_cmp`]) when the host supports it; the
/// selective form stays a scalar branch-free loop (unconditional store,
/// advance by the comparison result).
pub fn select_cmp_i64(keys: &[i64], op: CmpOp, lit: i64, sel: Option<&[u32]>, out: &mut Vec<u32>) {
    #[inline]
    fn run(keys: &[i64], sel: &[u32], out: &mut Vec<u32>, f: impl Fn(i64) -> bool) {
        let base = out.len();
        out.resize(base + sel.len(), 0);
        let mut k = base;
        for &i in sel {
            out[k] = i;
            k += f(keys[i as usize]) as usize;
        }
        out.truncate(k);
    }
    match sel {
        None => simd::select_cmp(keys, op, lit, out),
        Some(sel) => match op {
            CmpOp::Eq => run(keys, sel, out, |v| v == lit),
            CmpOp::Ne => run(keys, sel, out, |v| v != lit),
            CmpOp::Lt => run(keys, sel, out, |v| v < lit),
            CmpOp::Le => run(keys, sel, out, |v| v <= lit),
            CmpOp::Gt => run(keys, sel, out, |v| v > lit),
            CmpOp::Ge => run(keys, sel, out, |v| v >= lit),
        },
    }
}

/// Column-vs-column variant of [`select_cmp_i64`]: appends the indices
/// where `a[i] op b[i]`.
pub fn select_cmp_cols_i64(
    a: &[i64],
    b: &[i64],
    op: CmpOp,
    sel: Option<&[u32]>,
    out: &mut Vec<u32>,
) {
    #[inline]
    fn run(
        a: &[i64],
        b: &[i64],
        sel: Option<&[u32]>,
        out: &mut Vec<u32>,
        f: impl Fn(i64, i64) -> bool,
    ) {
        let base = out.len();
        match sel {
            None => {
                let n = a.len().min(b.len());
                out.resize(base + n, 0);
                let mut k = base;
                for i in 0..n {
                    out[k] = i as u32;
                    k += f(a[i], b[i]) as usize;
                }
                out.truncate(k);
            }
            Some(sel) => {
                out.resize(base + sel.len(), 0);
                let mut k = base;
                for &i in sel {
                    out[k] = i;
                    k += f(a[i as usize], b[i as usize]) as usize;
                }
                out.truncate(k);
            }
        }
    }
    match op {
        CmpOp::Eq => run(a, b, sel, out, |x, y| x == y),
        CmpOp::Ne => run(a, b, sel, out, |x, y| x != y),
        CmpOp::Lt => run(a, b, sel, out, |x, y| x < y),
        CmpOp::Le => run(a, b, sel, out, |x, y| x <= y),
        CmpOp::Gt => run(a, b, sel, out, |x, y| x > y),
        CmpOp::Ge => run(a, b, sel, out, |x, y| x >= y),
    }
}

fn flip(op: CmpOp) -> CmpOp {
    match op {
        CmpOp::Eq => CmpOp::Eq,
        CmpOp::Ne => CmpOp::Ne,
        CmpOp::Lt => CmpOp::Gt,
        CmpOp::Le => CmpOp::Ge,
        CmpOp::Gt => CmpOp::Lt,
        CmpOp::Ge => CmpOp::Le,
    }
}

/// Evaluates `pred` row-by-row over the candidate rows (the slow path for
/// string columns and arithmetic expressions).
fn select_fallback(
    pred: &Predicate,
    batch: &ColumnBatch,
    cand: &[u32],
    out: &mut Vec<u32>,
) -> Result<()> {
    for &i in cand {
        if pred.eval(&batch.row(i as usize)?)? {
            out.push(i);
        }
    }
    Ok(())
}

fn select_sel(
    pred: &Predicate,
    batch: &ColumnBatch,
    cand: &[u32],
    out: &mut Vec<u32>,
) -> Result<()> {
    match pred {
        Predicate::True => out.extend_from_slice(cand),
        Predicate::Cmp { left, op, right } => match (left, right) {
            (Expr::Attr(i), Expr::Lit(Value::Int(lit))) => match batch.column(*i)?.as_ints() {
                Some(keys) => select_cmp_i64(keys, *op, *lit, Some(cand), out),
                None => select_fallback(pred, batch, cand, out)?,
            },
            (Expr::Lit(Value::Int(lit)), Expr::Attr(i)) => match batch.column(*i)?.as_ints() {
                Some(keys) => select_cmp_i64(keys, flip(*op), *lit, Some(cand), out),
                None => select_fallback(pred, batch, cand, out)?,
            },
            (Expr::Attr(i), Expr::Attr(j)) => {
                match (batch.column(*i)?.as_ints(), batch.column(*j)?.as_ints()) {
                    (Some(a), Some(b)) => select_cmp_cols_i64(a, b, *op, Some(cand), out),
                    _ => select_fallback(pred, batch, cand, out)?,
                }
            }
            _ => select_fallback(pred, batch, cand, out)?,
        },
        Predicate::And(a, b) => {
            let mut tmp = Vec::new();
            select_sel(a, batch, cand, &mut tmp)?;
            select_sel(b, batch, &tmp, out)?;
        }
        Predicate::Or(a, b) => {
            // Keep candidate order: evaluate both sides and merge the two
            // ascending index lists, dropping duplicates.
            let (mut la, mut lb) = (Vec::new(), Vec::new());
            select_sel(a, batch, cand, &mut la)?;
            select_sel(b, batch, cand, &mut lb)?;
            let (mut x, mut y) = (0usize, 0usize);
            while x < la.len() || y < lb.len() {
                match (la.get(x), lb.get(y)) {
                    (Some(&i), Some(&j)) if i == j => {
                        out.push(i);
                        x += 1;
                        y += 1;
                    }
                    (Some(&i), Some(&j)) if i < j => {
                        out.push(i);
                        x += 1;
                    }
                    (Some(_), Some(&j)) => {
                        out.push(j);
                        y += 1;
                    }
                    (Some(&i), None) => {
                        out.push(i);
                        x += 1;
                    }
                    (None, Some(&j)) => {
                        out.push(j);
                        y += 1;
                    }
                    (None, None) => unreachable!(),
                }
            }
        }
        Predicate::Not(p) => {
            // Complement of the inner selection within the candidates.
            let mut inner = Vec::new();
            select_sel(p, batch, cand, &mut inner)?;
            let mut k = 0usize;
            for &i in cand {
                if inner.get(k) == Some(&i) {
                    k += 1;
                } else {
                    out.push(i);
                }
            }
        }
    }
    Ok(())
}

/// Evaluates `pred` over rows `range` of `batch`, appending the selected
/// row indices (ascending, duplicate-free) to `out`. Integer
/// `attr op literal` comparisons run as branch-free kernels; `AND` chains
/// thread the shrinking selection vector through each conjunct; string and
/// arithmetic shapes fall back to row-at-a-time evaluation.
pub fn select(
    pred: &Predicate,
    batch: &ColumnBatch,
    range: Range<usize>,
    out: &mut Vec<u32>,
) -> Result<()> {
    if range.end > batch.rows() {
        return Err(RelalgError::IndexOutOfBounds {
            index: range.end,
            arity: batch.rows(),
        });
    }
    // Top-level fast paths avoid materializing the dense candidate list.
    match pred {
        Predicate::True => {
            out.extend(range.map(|i| i as u32));
            Ok(())
        }
        Predicate::Cmp {
            left: Expr::Attr(i),
            op,
            right: Expr::Lit(Value::Int(lit)),
        } if batch.column(*i)?.as_ints().is_some() => {
            let keys = batch.int_col(*i)?;
            let base = out.len();
            select_cmp_i64(&keys[range.clone()], *op, *lit, None, out);
            for v in &mut out[base..] {
                *v += range.start as u32;
            }
            Ok(())
        }
        _ => {
            let cand: Vec<u32> = range.map(|i| i as u32).collect();
            select_sel(pred, batch, &cand, out)
        }
    }
}

/// Evaluates `pred` over the candidate rows `cand` of `batch` (ascending
/// row indices), appending the survivors to `out` in candidate order —
/// the selective form of [`select`], which scans restricted to a hash
/// bucket's row list use to apply a pushed-down filter.
pub fn select_rows(
    pred: &Predicate,
    batch: &ColumnBatch,
    cand: &[u32],
    out: &mut Vec<u32>,
) -> Result<()> {
    if let Some(&last) = cand.last() {
        if last as usize >= batch.rows() {
            return Err(RelalgError::IndexOutOfBounds {
                index: last as usize,
                arity: batch.rows(),
            });
        }
    }
    select_sel(pred, batch, cand, out)
}

/// Hashes a whole key column into partition buckets: `out[i]` is the
/// destination of row `i` among `parts` consumers. The redistribution
/// router's vectorized split. Dispatches through [`simd::bucket_keys`],
/// which currently ships the scalar body (the AVX2 form measured slower —
/// see [`simd::BUCKET_HASH_SIMD`]).
pub fn bucket_keys(keys: &[i64], parts: usize, out: &mut Vec<u32>) {
    simd::bucket_keys(keys, parts, out);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::bucket_of;
    use crate::schema::Attribute;

    fn batch(rows: &[[i64; 2]]) -> ColumnBatch {
        let mut b = ColumnBatch::with_capacity(&ColumnLayout::ints(2), rows.len());
        for r in rows {
            b.push_tuple(&Tuple::from_ints(r)).unwrap();
        }
        b
    }

    #[test]
    fn roundtrips_relation_rows() {
        let schema = Schema::new(vec![Attribute::int("a"), Attribute::str("s")]).shared();
        let rel = Relation::new(
            schema,
            vec![
                Tuple::new(vec![Value::Int(1), Value::str("x")]),
                Tuple::new(vec![Value::Int(2), Value::str("y")]),
            ],
        )
        .unwrap();
        let cols = ColumnBatch::from_relation(&rel).unwrap();
        assert_eq!(cols.rows(), 2);
        assert_eq!(cols.int_col(0).unwrap(), &[1, 2]);
        assert!(cols.int_col(1).is_err(), "string column is not dense ints");
        for (i, t) in rel.iter().enumerate() {
            assert_eq!(&cols.row(i).unwrap(), t);
        }
        assert!(cols.row(2).is_err());
    }

    #[test]
    fn shapeless_adopts_first_source_layout() {
        let src = batch(&[[1, 10], [2, 20], [3, 30]]);
        let mut out = ColumnBatch::shapeless();
        assert_eq!(out.arity(), 0);
        out.append_gather(&src, &[2, 0]).unwrap();
        assert_eq!(out.arity(), 2);
        assert_eq!(out.int_col(0).unwrap(), &[3, 1]);
        assert_eq!(out.int_col(1).unwrap(), &[30, 10]);
        // Once shaped, mismatched arity is rejected.
        let wide = {
            let mut b = ColumnBatch::with_capacity(&ColumnLayout::ints(3), 1);
            b.push_tuple(&Tuple::from_ints(&[1, 2, 3])).unwrap();
            b
        };
        assert!(out.append_rows(&wide, 0..1).is_err());
    }

    #[test]
    fn clear_keeps_capacity() {
        let mut b = batch(&[[1, 2], [3, 4]]);
        let cap = b.capacity_bytes();
        b.clear();
        assert_eq!(b.rows(), 0);
        assert_eq!(b.capacity_bytes(), cap);
        b.push_tuple(&Tuple::from_ints(&[9, 9])).unwrap();
        assert_eq!(b.rows(), 1);
    }

    #[test]
    fn layout_row_bytes_counts_real_slots() {
        let ints = ColumnLayout::ints(3);
        assert_eq!(ints.row_bytes(), 24);
        let schema = Schema::new(vec![Attribute::int("a"), Attribute::str("s")]).shared();
        assert_eq!(
            columnar_row_bytes(&schema),
            8 + std::mem::size_of::<Value>()
        );
    }

    #[test]
    fn select_cmp_is_exact_on_all_ops() {
        let keys = [5i64, -3, 7, 0, 7, 12];
        for op in [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ] {
            let mut got = Vec::new();
            select_cmp_i64(&keys, op, 7, None, &mut got);
            let want: Vec<u32> = keys
                .iter()
                .enumerate()
                .filter(|(_, &v)| {
                    Predicate::cmp_int(0, op, 7)
                        .eval(&Tuple::from_ints(&[v]))
                        .unwrap()
                })
                .map(|(i, _)| i as u32)
                .collect();
            assert_eq!(got, want, "op {op:?}");
        }
    }

    #[test]
    fn select_chains_and_or_not_like_row_eval() {
        let b = batch(&[[1, 10], [2, 20], [3, 30], [4, 40], [5, 50]]);
        let preds = [
            Predicate::cmp_int(0, CmpOp::Gt, 2),
            Predicate::And(
                Box::new(Predicate::cmp_int(0, CmpOp::Gt, 1)),
                Box::new(Predicate::cmp_int(1, CmpOp::Lt, 50)),
            ),
            Predicate::Or(
                Box::new(Predicate::cmp_int(0, CmpOp::Le, 2)),
                Box::new(Predicate::cmp_int(1, CmpOp::Ge, 40)),
            ),
            Predicate::Not(Box::new(Predicate::cmp_int(0, CmpOp::Eq, 3))),
            Predicate::attr_eq(0, 1),
            Predicate::True,
        ];
        for pred in &preds {
            let mut sel = Vec::new();
            select(pred, &b, 0..b.rows(), &mut sel).unwrap();
            let want: Vec<u32> = (0..b.rows())
                .filter(|&i| pred.eval(&b.row(i).unwrap()).unwrap())
                .map(|i| i as u32)
                .collect();
            assert_eq!(&sel, &want, "pred {pred}");
        }
    }

    #[test]
    fn select_respects_subrange() {
        let b = batch(&[[1, 0], [2, 0], [3, 0], [4, 0]]);
        let mut sel = Vec::new();
        select(&Predicate::cmp_int(0, CmpOp::Ge, 2), &b, 1..3, &mut sel).unwrap();
        assert_eq!(sel, vec![1, 2]);
        assert!(select(&Predicate::True, &b, 0..9, &mut Vec::new()).is_err());
    }

    #[test]
    fn concat_gather_matches_project_concat() {
        let left = batch(&[[1, 100], [2, 200]]);
        let right = batch(&[[7, 70], [8, 80], [9, 90]]);
        let cols = [0usize, 3, 1];
        let pairs = [(0u32, 2u32), (1, 0), (1, 1)];
        let mut out = ColumnBatch::shapeless();
        out.append_concat_gather(&left, &right, &cols, &pairs)
            .unwrap();
        assert_eq!(out.rows(), 3);
        for (k, &(l, r)) in pairs.iter().enumerate() {
            let want = Tuple::project_concat(
                &left.row(l as usize).unwrap(),
                &right.row(r as usize).unwrap(),
                &cols,
            )
            .unwrap();
            assert_eq!(out.row(k).unwrap(), want);
        }
        assert!(out
            .append_concat_gather(&left, &right, &[4], &pairs)
            .is_err());
    }

    #[test]
    fn bucket_keys_matches_scalar_hash() {
        let keys = [3i64, -1, 42, 0, 99];
        let mut out = Vec::new();
        bucket_keys(&keys, 4, &mut out);
        for (i, &k) in keys.iter().enumerate() {
            assert_eq!(out[i] as usize, bucket_of(k, 4));
        }
    }

    #[test]
    fn est_and_capacity_bytes_track_columns() {
        let b = batch(&[[1, 2], [3, 4]]);
        assert_eq!(b.est_bytes(), 32, "2 rows x 2 int columns x 8 bytes");
        assert!(b.capacity_bytes() >= b.est_bytes());
    }

    #[test]
    fn ref_columns_roundtrip_through_tuples_and_gathers() {
        let schema = Schema::new(vec![Attribute::int("k"), Attribute::rowref("@r")]).shared();
        let layout = ColumnLayout::of(&schema);
        assert_eq!(layout.row_bytes(), 16, "a ref slot is 8 bytes");
        let mut b = ColumnBatch::with_capacity(&layout, 4);
        // Refs with the high bit set must survive the i64 bit-cast.
        let refs: [u64; 3] = [(7u64 << 32) | 3, u64::MAX - 5, 0];
        for (i, &r) in refs.iter().enumerate() {
            b.push_tuple(&Tuple::from_ints(&[i as i64, r as i64]))
                .unwrap();
        }
        assert_eq!(b.column(1).unwrap().as_refs().unwrap(), &refs);
        assert_eq!(
            b.row(1).unwrap(),
            Tuple::from_ints(&[1, (u64::MAX - 5) as i64])
        );

        // Gather and pair-gather preserve refs bit-exactly; shapeless
        // destinations adopt the Ref layout.
        let mut g = ColumnBatch::shapeless();
        g.append_gather(&b, &[2, 0]).unwrap();
        assert_eq!(g.column(1).unwrap().as_refs().unwrap(), &[0, refs[0]]);
        let mut out = ColumnBatch::shapeless();
        out.append_concat_gather(&b, &g, &[1, 3], &[(1, 0), (2, 1)])
            .unwrap();
        assert_eq!(
            out.column(0).unwrap().as_refs().unwrap(),
            &[refs[1], refs[2]]
        );
        assert_eq!(out.column(1).unwrap().as_refs().unwrap(), &[0, refs[0]]);
    }

    #[test]
    fn capacity_bytes_counts_ref_columns() {
        // Regression for the memory-budget charge site: a pooled buffer
        // with a ref column must charge its 8-byte slots like ints.
        let layout = ColumnLayout {
            types: vec![DataType::Int, DataType::Ref],
        };
        let b = ColumnBatch::with_capacity(&layout, 8);
        assert_eq!(b.capacity_bytes(), 2 * 8 * 8);
    }
}
