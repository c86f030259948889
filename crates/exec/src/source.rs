//! Operand sources as seen by one operation-process instance.

use crossbeam::channel::Receiver;
use mj_storage::ColumnScan;

use crate::stream::Msg;

/// Where an instance's operand rows come from.
pub enum Source {
    /// Stored columns read in place, one scan after another. A base
    /// operand is one scan of the catalog's column-resident relation,
    /// restricted to this instance's hash bucket (the ideal fragmentation
    /// of §4.1, held as a cached selection vector) and to any pushed-down
    /// filter. A materialized operand is one scan per producer fragment,
    /// each restricted to this instance's bucket of the consumer key —
    /// physically a redistribution read.
    Scan(Vec<ColumnScan>),
    /// A live stream from `producers` producer instances.
    Stream {
        /// This instance's receiver.
        rx: Receiver<Msg>,
        /// Producer instances; the side closes after this many `End`s.
        producers: usize,
    },
}

impl Source {
    /// True if all rows are available without waiting on other ops.
    pub fn is_immediate(&self) -> bool {
        !matches!(self, Source::Stream { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mj_relalg::column::{ColumnBatch, ColumnLayout};
    use mj_relalg::hash::bucket_of;
    use mj_relalg::Tuple;
    use mj_storage::{BucketIndex, Rows, ScanCursor};
    use std::sync::Arc;

    fn columns(n: i64) -> Arc<ColumnBatch> {
        let mut b = ColumnBatch::with_capacity(&ColumnLayout::ints(1), n as usize);
        for v in 0..n {
            b.push_tuple(&Tuple::from_ints(&[v])).unwrap();
        }
        Arc::new(b)
    }

    /// Every key a scan source yields.
    fn keys(source: Source) -> Vec<i64> {
        let Source::Scan(scans) = source else {
            panic!("not a scan");
        };
        let mut cursor = ScanCursor::new(scans);
        let mut out = Vec::new();
        while cursor.ready().unwrap() {
            let (cols, pos) = cursor.chunk();
            out.extend_from_slice(&cols.int_col(0).unwrap()[pos..]);
            let n = cols.rows() - pos;
            cursor.consume(n);
        }
        out
    }

    #[test]
    fn local_drains_everything() {
        let s = Source::Scan(vec![ColumnScan::new(columns(10))]);
        assert!(s.is_immediate());
        assert_eq!(keys(s), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn filtered_partitions_exactly() {
        let fragments = [columns(50), columns(50)];
        let indexes: Vec<Arc<BucketIndex>> = fragments
            .iter()
            .map(|f| Arc::new(BucketIndex::build(f.int_col(0).unwrap(), 4).unwrap()))
            .collect();
        let mut total = 0;
        for bucket in 0..4 {
            let scans = fragments
                .iter()
                .zip(&indexes)
                .map(|(f, ix)| ColumnScan::new(f.clone()).rows(Rows::Bucket(ix.clone(), bucket)))
                .collect();
            for k in keys(Source::Scan(scans)) {
                assert_eq!(bucket_of(k, 4), bucket);
                total += 1;
            }
        }
        assert_eq!(total, 100, "buckets partition the input");
    }
}
