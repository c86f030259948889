//! Column-resident fragments and their scans.
//!
//! Storage is columnar: a base relation is pivoted once when the catalog
//! registers it, and a materialized intermediate is stored as the
//! [`ColumnBatch`] its producer assembled. Nothing is re-fragmented per
//! query. The paper's ideal fragmentation (§4.1) becomes a
//! [`BucketIndex`] — the row lists of one key column hashed into `of`
//! buckets, computed once with the vectorized [`bucket_keys`] kernel and
//! shared by every instance that reads the fragment (and, for base
//! relations, by every query of the same catalog generation).
//!
//! A scan ([`ColumnScan`]) is a selection vector over stored columns: a
//! bucket's rows, optionally narrowed by a pushed-down filter, optionally
//! projected to the narrow (keys + row reference) shape of a
//! late-materialized plan. [`ScanCursor`] walks a list of such scans and
//! hands the operator one chunk at a time: the stored batch itself when
//! every row is read at full width, otherwise a gather of the selected
//! rows into a reused chunk buffer.

use std::ops::Range;
use std::sync::Arc;

use mj_relalg::column::{bucket_keys, select, select_rows, Column, ColumnBatch, ColumnLayout};
use mj_relalg::{DataType, Predicate, RelalgError, Result};

use crate::registry::pack_ref;

/// Rows per gathered scan chunk: a few operator quanta, so a chunk is
/// reused across steps while its buffer stays small.
const SCAN_CHUNK: usize = 2048;

/// The rows of one key column hashed into buckets: bucket `b` holds the
/// (ascending) indices of the rows whose key hashes to `b` among
/// [`buckets`](Self::buckets), using the workspace-wide canonical hash —
/// the same assignment the redistribution router and the join tables use.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BucketIndex {
    /// Row indices grouped by bucket, ascending within each bucket.
    order: Vec<u32>,
    /// Bucket `b` spans `order[bounds[b]..bounds[b + 1]]`.
    bounds: Vec<u32>,
}

impl BucketIndex {
    /// Hashes `keys` into `of` buckets and groups the row indices by
    /// bucket (one hashing pass, one counting pass, one fill pass).
    pub fn build(keys: &[i64], of: usize) -> Result<BucketIndex> {
        if of == 0 {
            return Err(RelalgError::InvalidPartitioning(
                "partition count must be positive".into(),
            ));
        }
        if keys.len() > u32::MAX as usize {
            return Err(RelalgError::InvalidPartitioning(format!(
                "fragment of {} rows exceeds the u32 row-index cap",
                keys.len()
            )));
        }
        let mut dests = Vec::with_capacity(keys.len());
        bucket_keys(keys, of, &mut dests);
        let mut bounds = vec![0u32; of + 1];
        for &d in &dests {
            bounds[d as usize + 1] += 1;
        }
        for b in 0..of {
            bounds[b + 1] += bounds[b];
        }
        let mut fill = bounds[..of].to_vec();
        let mut order = vec![0u32; keys.len()];
        for (row, &d) in dests.iter().enumerate() {
            let slot = &mut fill[d as usize];
            order[*slot as usize] = row as u32;
            *slot += 1;
        }
        Ok(BucketIndex { order, bounds })
    }

    /// Number of buckets.
    pub fn buckets(&self) -> usize {
        self.bounds.len() - 1
    }

    /// The ascending row indices of bucket `b` (empty if out of range).
    pub fn bucket(&self, b: usize) -> &[u32] {
        match (self.bounds.get(b), self.bounds.get(b + 1)) {
            (Some(&lo), Some(&hi)) => &self.order[lo as usize..hi as usize],
            _ => &[],
        }
    }

    /// Allocated bytes of the index.
    pub fn bytes(&self) -> u64 {
        ((self.order.capacity() + self.bounds.capacity()) * std::mem::size_of::<u32>()) as u64
    }
}

/// Which stored rows a scan reads before any filter.
#[derive(Clone, Debug)]
pub enum Rows {
    /// Every row, in storage order.
    All,
    /// The rows of one bucket of a shared [`BucketIndex`].
    Bucket(Arc<BucketIndex>, usize),
}

/// The narrow output shape of a late-materialized leaf scan: the stored
/// columns `cols` (the join keys, kept dense), then — when `ref_source` is
/// set — one packed row reference `(ref_source, row)` per scanned row
/// that the pipeline root resolves against the pinned stored batch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Narrow {
    /// Stored column index of each dense output column.
    pub cols: Vec<usize>,
    /// Registry slot the row references point into, if any.
    pub ref_source: Option<u32>,
}

/// A scan of one stored columnar fragment: which rows (all, or one
/// bucket), an optional filter evaluated over the stored columns, and an
/// optional narrow projection.
#[derive(Clone, Debug)]
pub struct ColumnScan {
    columns: Arc<ColumnBatch>,
    rows: Rows,
    filter: Option<Arc<Predicate>>,
    narrow: Option<Arc<Narrow>>,
}

impl ColumnScan {
    /// A full-width scan of every row of `columns`.
    pub fn new(columns: Arc<ColumnBatch>) -> ColumnScan {
        ColumnScan {
            columns,
            rows: Rows::All,
            filter: None,
            narrow: None,
        }
    }

    /// Restricts the scan to `rows`.
    pub fn rows(mut self, rows: Rows) -> ColumnScan {
        self.rows = rows;
        self
    }

    /// Keeps only the rows satisfying `filter` (stored-column coordinates).
    pub fn filter(mut self, filter: Option<Arc<Predicate>>) -> ColumnScan {
        self.filter = filter;
        self
    }

    /// Emits the narrow shape instead of the stored width.
    pub fn narrow(mut self, narrow: Option<Arc<Narrow>>) -> ColumnScan {
        self.narrow = narrow;
        self
    }

    /// True when the scan emits the stored batch unchanged (every row,
    /// full width), so a cursor can hand it out without copying.
    fn is_direct(&self) -> bool {
        matches!(self.rows, Rows::All) && self.filter.is_none() && self.narrow.is_none()
    }

    /// Resolves the filter into an owned selection vector, or `None` when
    /// the unfiltered row set is read as is.
    fn select(&self) -> Result<Option<Vec<u32>>> {
        let Some(pred) = &self.filter else {
            return Ok(None);
        };
        let mut sel = Vec::new();
        match &self.rows {
            Rows::All => select(pred, &self.columns, 0..self.columns.rows(), &mut sel)?,
            Rows::Bucket(index, b) => select_rows(pred, &self.columns, index.bucket(*b), &mut sel)?,
        }
        Ok(Some(sel))
    }

    /// The unfiltered row list, or `None` for every row in order.
    fn base_rows(&self) -> Option<&[u32]> {
        match &self.rows {
            Rows::All => None,
            Rows::Bucket(index, b) => Some(index.bucket(*b)),
        }
    }

    /// Column layout of what this scan emits.
    fn layout(&self) -> ColumnLayout {
        match &self.narrow {
            None => self.columns.layout(),
            Some(n) => {
                let stored = self.columns.layout();
                // An out-of-range column surfaces as an error at emit time.
                let mut types: Vec<DataType> = n
                    .cols
                    .iter()
                    .map(|&c| stored.types().get(c).copied().unwrap_or(DataType::Int))
                    .collect();
                if n.ref_source.is_some() {
                    types.push(DataType::Ref);
                }
                ColumnLayout::from_types(types)
            }
        }
    }

    /// Appends positions `range` of the selected rows (`sel`, or every
    /// stored row when `None`) to `out` in the scan's output shape.
    fn emit(&self, sel: Option<&[u32]>, range: Range<usize>, out: &mut ColumnBatch) -> Result<()> {
        let Some(narrow) = &self.narrow else {
            return match sel {
                None => out.append_rows(&self.columns, range),
                Some(sel) => out.append_gather(&self.columns, &sel[range]),
            };
        };
        let dense = narrow.cols.len();
        let n = range.len();
        out.append_with(n, |j, col| {
            if j < dense {
                let src = self.columns.column(narrow.cols[j])?;
                return match sel {
                    None => col.append_range(src, range.clone()),
                    Some(sel) => col.append_gather(src, &sel[range.clone()]),
                };
            }
            let (Some(source), Column::Ref(refs)) = (narrow.ref_source, col) else {
                return Err(RelalgError::InvalidPlan(
                    "narrow scan: ref slot without a ref column".into(),
                ));
            };
            match sel {
                None => refs.extend(range.clone().map(|r| pack_ref(source, r as u32))),
                Some(sel) => refs.extend(sel[range.clone()].iter().map(|&r| pack_ref(source, r))),
            }
            Ok(())
        })
    }
}

/// A resumable read over a list of [`ColumnScan`]s, one chunk at a time.
///
/// A direct scan (every row, full width) exposes the stored batch itself;
/// any other scan gathers its selected rows, `SCAN_CHUNK` at a time,
/// into one reused chunk buffer. A filter is evaluated lazily, when its
/// scan is reached — on the worker thread that consumes it.
#[derive(Debug)]
pub struct ScanCursor {
    /// Scans not yet started, in reverse order (popped from the back).
    pending: Vec<ColumnScan>,
    /// The scan being read and its resolved filter selection.
    current: Option<(ColumnScan, Option<Vec<u32>>)>,
    /// Selected rows of the current scan already gathered.
    next: usize,
    /// Gathered rows (unused while the current scan is direct).
    chunk: ColumnBatch,
    /// Read position within the current chunk (or the stored batch).
    pos: usize,
}

impl ScanCursor {
    /// A cursor reading `scans` in order.
    pub fn new(mut scans: Vec<ColumnScan>) -> ScanCursor {
        scans.reverse();
        ScanCursor {
            pending: scans,
            current: None,
            next: 0,
            chunk: ColumnBatch::shapeless(),
            pos: 0,
        }
    }

    /// Loads a chunk with unread rows; `Ok(false)` once every scan is
    /// exhausted (the chunk buffer is released then).
    pub fn ready(&mut self) -> Result<bool> {
        loop {
            if let Some((scan, picked)) = &self.current {
                let direct = scan.is_direct();
                let loaded = if direct {
                    scan.columns.rows()
                } else {
                    self.chunk.rows()
                };
                if self.pos < loaded {
                    return Ok(true);
                }
                let sel = picked.as_deref().or_else(|| scan.base_rows());
                let total = sel.map_or(scan.columns.rows(), <[u32]>::len);
                if direct || self.next >= total {
                    self.current = None;
                    continue;
                }
                let end = (self.next + SCAN_CHUNK).min(total);
                self.chunk.clear();
                if self.chunk.arity() == 0 {
                    self.chunk = ColumnBatch::with_capacity(&scan.layout(), SCAN_CHUNK.min(total));
                }
                scan.emit(sel, self.next..end, &mut self.chunk)?;
                self.next = end;
                self.pos = 0;
                continue;
            }
            let Some(scan) = self.pending.pop() else {
                self.chunk = ColumnBatch::shapeless();
                return Ok(false);
            };
            let picked = scan.select()?;
            self.current = Some((scan, picked));
            self.next = 0;
            self.pos = 0;
            self.chunk.clear();
        }
    }

    /// The current chunk and read position. Only valid directly after
    /// [`ready`](Self::ready) returned `Ok(true)`.
    pub fn chunk(&self) -> (&ColumnBatch, usize) {
        match &self.current {
            Some((scan, _)) if scan.is_direct() => (&scan.columns, self.pos),
            _ => (&self.chunk, self.pos),
        }
    }

    /// Advances past `n` consumed rows.
    pub fn consume(&mut self, n: usize) {
        self.pos += n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{ref_leaf, ref_row};
    use mj_relalg::hash::bucket_of;
    use mj_relalg::{CmpOp, Tuple};

    fn batch(n: i64) -> Arc<ColumnBatch> {
        let mut b = ColumnBatch::with_capacity(&ColumnLayout::ints(2), n as usize);
        for k in 0..n {
            b.push_tuple(&Tuple::from_ints(&[k, k * 10])).unwrap();
        }
        Arc::new(b)
    }

    /// Drains a cursor into (column 0, column 1) pairs.
    fn drain(mut cursor: ScanCursor) -> Vec<(i64, i64)> {
        let mut out = Vec::new();
        while cursor.ready().unwrap() {
            let (cols, pos) = cursor.chunk();
            let n = (cols.rows() - pos).min(100);
            for r in pos..pos + n {
                out.push((
                    cols.int_col(0).unwrap()[r],
                    match cols.column(1).unwrap() {
                        Column::Ref(refs) => refs[r] as i64,
                        c => c.as_ints().unwrap()[r],
                    },
                ));
            }
            cursor.consume(n);
        }
        out
    }

    #[test]
    fn bucket_scan_matches_scalar_hash_partition() {
        let b = batch(1000);
        let keys = b.int_col(0).unwrap();
        let index = BucketIndex::build(keys, 7).unwrap();
        assert_eq!(index.buckets(), 7);
        let mut total = 0;
        for bucket in 0..7 {
            let rows = index.bucket(bucket);
            assert!(rows.windows(2).all(|w| w[0] < w[1]), "ascending");
            for &r in rows {
                assert_eq!(bucket_of(keys[r as usize], 7), bucket);
            }
            total += rows.len();
        }
        assert_eq!(total, 1000, "buckets partition the rows exactly");
        assert!(index.bucket(7).is_empty());
        assert!(index.bytes() >= 1000 * 4);
        assert!(BucketIndex::build(keys, 0).is_err());
    }

    #[test]
    fn scan_emits_all_rows_as_columns() {
        let b = batch(10);
        let mut cursor = ScanCursor::new(vec![ColumnScan::new(b.clone())]);
        assert!(cursor.ready().unwrap());
        let (chunk, pos) = cursor.chunk();
        assert!(std::ptr::eq(chunk, b.as_ref()), "no copy");
        assert_eq!((chunk.rows(), pos), (10, 0));
        cursor.consume(10);
        assert!(!cursor.ready().unwrap());
    }

    #[test]
    fn single_bucket_scan_is_a_full_scan() {
        let b = batch(7);
        let index = Arc::new(BucketIndex::build(b.int_col(0).unwrap(), 1).unwrap());
        let scan = ColumnScan::new(b).rows(Rows::Bucket(index, 0));
        let keys: Vec<i64> = drain(ScanCursor::new(vec![scan]))
            .into_iter()
            .map(|(k, _)| k)
            .collect();
        assert_eq!(keys, (0..7).collect::<Vec<_>>());
    }

    #[test]
    fn bucket_scans_cover_every_row_once_across_chunks() {
        let b = batch(3 * SCAN_CHUNK as i64 + 5);
        let index = Arc::new(BucketIndex::build(b.int_col(0).unwrap(), 2).unwrap());
        let mut seen = Vec::new();
        for bucket in 0..2 {
            let scan = ColumnScan::new(b.clone()).rows(Rows::Bucket(index.clone(), bucket));
            for (k, v) in drain(ScanCursor::new(vec![scan])) {
                assert_eq!(bucket_of(k, 2), bucket);
                assert_eq!(v, k * 10, "rows stay intact");
                seen.push(k);
            }
        }
        seen.sort_unstable();
        assert_eq!(seen, (0..b.rows() as i64).collect::<Vec<_>>());
    }

    #[test]
    fn filters_intersect_the_bucket_rows() {
        let b = batch(200);
        let index = Arc::new(BucketIndex::build(b.int_col(0).unwrap(), 4).unwrap());
        let pred = Arc::new(Predicate::cmp_int(0, CmpOp::Lt, 50));
        let mut total = 0;
        for bucket in 0..4 {
            let scan = ColumnScan::new(b.clone())
                .rows(Rows::Bucket(index.clone(), bucket))
                .filter(Some(pred.clone()));
            for (k, _) in drain(ScanCursor::new(vec![scan])) {
                assert!(k < 50 && bucket_of(k, 4) == bucket);
                total += 1;
            }
        }
        assert_eq!(total, 50);
        // A filter that selects nothing, over every row.
        let none = ColumnScan::new(b.clone()).filter(Some(Arc::new(Predicate::cmp_int(
            0,
            CmpOp::Gt,
            10_000,
        ))));
        assert!(drain(ScanCursor::new(vec![none])).is_empty());
    }

    #[test]
    fn narrow_scans_project_keys_and_synthesize_refs() {
        let b = batch(20);
        let scan = ColumnScan::new(b.clone())
            .filter(Some(Arc::new(Predicate::cmp_int(1, CmpOp::Ge, 150))))
            .narrow(Some(Arc::new(Narrow {
                cols: vec![0],
                ref_source: Some(3),
            })));
        let layout = scan.layout();
        assert_eq!(layout.types(), &[DataType::Int, DataType::Ref]);
        let rows = drain(ScanCursor::new(vec![scan]));
        assert_eq!(rows.len(), 5);
        for (k, r) in rows {
            let r = r as u64;
            assert_eq!(ref_leaf(r), 3);
            assert_eq!(ref_row(r) as i64, k, "refs point at the stored row");
        }
    }

    #[test]
    fn cursor_walks_several_scans_in_order() {
        let parts = vec![
            ColumnScan::new(batch(3)),
            ColumnScan::new(batch(0)),
            ColumnScan::new(batch(2)),
        ];
        let keys: Vec<i64> = drain(ScanCursor::new(parts))
            .into_iter()
            .map(|(k, _)| k)
            .collect();
        assert_eq!(keys, vec![0, 1, 2, 0, 1]);
    }
}
