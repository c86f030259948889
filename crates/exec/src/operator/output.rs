//! Where an instance's results go.

use std::sync::Arc;

use mj_core::plan_ir::ProcId;
use mj_relalg::column::ColumnBatch;
use mj_relalg::Result;
use mj_storage::{FragmentStore, StoredFragment};
use parking_lot::Mutex;

use crate::stream::{ClientSink, Router};

/// The output port of one operation-process instance.
pub enum OutputPort {
    /// Live redistribution to the consumer's instances.
    Stream(Router),
    /// Store the output fragment in this processor's memory (the consumer
    /// reads it later — SP/SE materialization and RD inter-wave edges).
    /// The fragment stays columnar: rows are appended column-wise and the
    /// finished batch is frozen into the store together with its bucket
    /// index over the consumer's key.
    Materialize {
        /// Shared node-memory store.
        store: Arc<FragmentStore>,
        /// This instance's processor (storage node).
        proc: ProcId,
        /// Fragment name (`op{id}`).
        name: String,
        /// Accumulated rows, typed with the output schema's layout.
        buffer: ColumnBatch,
        /// The consumer's key column, which the stored fragment is
        /// bucket-indexed on.
        key_col: usize,
        /// The consumer's degree (number of buckets).
        of: usize,
        /// The owning query's memory budget: the stored fragment's bytes
        /// are charged on write and credited back when the coordinator
        /// reclaims the query's namespace.
        budget: Option<Arc<crate::budget::MemoryBudget>>,
    },
    /// The root of a submitted query: batches stream to the client's
    /// [`ResultStream`](crate::handle::ResultStream) through a bounded
    /// channel, so results flow before the query completes and a slow
    /// client backpressures the pool.
    Client(ClientSink),
    /// A columnar collection sink (the dedicated-thread `run_*_instance`
    /// drivers used by unit tests).
    Sink {
        /// Shared collection buffer.
        collected: Arc<Mutex<ColumnBatch>>,
    },
}

impl OutputPort {
    /// Non-blocking columnar emit of rows `*pos..` of `out` (worker-pool
    /// path). Returns the number of rows emitted and whether the backlog
    /// fully drained; on a full drain `out` is cleared (keeping its column
    /// layout and capacity) and `pos` reset so the operator can refill it.
    /// `Ok((_, false))` means stream backpressure — the caller should
    /// yield and call again with the same arguments.
    pub fn try_emit(&mut self, out: &mut ColumnBatch, pos: &mut usize) -> Result<(u64, bool)> {
        let (emitted, done) = match self {
            OutputPort::Stream(router) => router.try_route_batch(out, pos)?,
            OutputPort::Client(sink) => sink.try_append_batch(out, pos)?,
            OutputPort::Materialize { buffer, .. } => (append_rest(buffer, out, *pos)?, true),
            OutputPort::Sink { collected } => {
                (append_rest(&mut collected.lock(), out, *pos)?, true)
            }
        };
        if done {
            out.clear();
            *pos = 0;
        }
        Ok((emitted, done))
    }

    /// Non-blocking finalize (worker-pool path): resumable stream
    /// flush + `End` for routers; store write / sink merge (which never
    /// block) for the others. `Ok(false)` means backpressure — yield and
    /// call again. Must be called until it returns `Ok(true)`, exactly
    /// once past that point.
    pub fn try_finish(&mut self) -> Result<bool> {
        match self {
            OutputPort::Stream(router) => router.try_finish(),
            OutputPort::Client(sink) => sink.try_finish(),
            OutputPort::Materialize {
                store,
                proc,
                name,
                buffer,
                key_col,
                of,
                budget,
            } => {
                let columns = std::mem::take(buffer);
                let fragment = Arc::new(StoredFragment::new(columns, *key_col, *of)?);
                if let Some(budget) = budget {
                    // Charge unconditionally; enforcement happens at the
                    // consuming tasks' next budget poll. The coordinator
                    // credits exactly these bytes back via `remove_prefix`.
                    budget.charge(fragment.bytes());
                }
                store.put(*proc, name.clone(), fragment)?;
                Ok(true)
            }
            OutputPort::Sink { .. } => Ok(true),
        }
    }
}

/// Appends rows `pos..` of `out` to `dst`, returning how many. An empty
/// (possibly still shapeless) backlog appends nothing.
fn append_rest(dst: &mut ColumnBatch, out: &ColumnBatch, pos: usize) -> Result<u64> {
    let n = out.rows() - pos;
    if n > 0 {
        dst.append_rows(out, pos..out.rows())?;
    }
    Ok(n as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::{operand_channels, Msg};
    use mj_relalg::column::ColumnLayout;
    use mj_relalg::Tuple;

    fn batch(keys: &[i64]) -> ColumnBatch {
        let mut out = ColumnBatch::with_capacity(&ColumnLayout::ints(1), keys.len());
        for &k in keys {
            out.push_tuple(&Tuple::from_ints(&[k])).unwrap();
        }
        out
    }

    fn materialize(store: &Arc<FragmentStore>, proc: ProcId, name: &str, of: usize) -> OutputPort {
        OutputPort::Materialize {
            store: store.clone(),
            proc,
            name: name.into(),
            buffer: ColumnBatch::with_capacity(&ColumnLayout::ints(1), 0),
            key_col: 0,
            of,
            budget: None,
        }
    }

    /// Emits all of `out` through `port` and finalizes it.
    fn emit_all(port: &mut OutputPort, mut out: ColumnBatch) {
        let mut pos = 0;
        let rows = out.rows() as u64;
        assert_eq!(port.try_emit(&mut out, &mut pos).unwrap(), (rows, true));
        assert!(port.try_finish().unwrap());
    }

    #[test]
    fn sink_collects() {
        let collected = Arc::new(Mutex::new(ColumnBatch::shapeless()));
        let mut port = OutputPort::Sink {
            collected: collected.clone(),
        };
        emit_all(&mut port, batch(&[1, 2]));
        assert_eq!(collected.lock().rows(), 2);
    }

    #[test]
    fn sink_materializes_columnar_emits() {
        let collected = Arc::new(Mutex::new(ColumnBatch::shapeless()));
        let mut port = OutputPort::Sink {
            collected: collected.clone(),
        };
        let mut out = batch(&[5, 6]);
        let mut pos = 0;
        let (n, done) = port.try_emit(&mut out, &mut pos).unwrap();
        assert_eq!((n, done, pos), (2, true, 0));
        assert!(out.is_empty(), "drained emit clears the batch");
        assert!(port.try_finish().unwrap());
        assert_eq!(collected.lock().int_col(0).unwrap(), &[5, 6]);
    }

    #[test]
    fn materialize_stores_fragment() {
        let store = Arc::new(FragmentStore::new(2));
        let mut port = materialize(&store, 1, "op0", 1);
        emit_all(&mut port, batch(&[7]));
        let stored = store.get(1, "op0").unwrap();
        assert_eq!(stored.rows(), 1);
        assert_eq!(
            stored.columns().int_col(0).unwrap(),
            &[7],
            "stored as columns"
        );
        assert!(store.get(0, "op0").is_err());
    }

    #[test]
    fn materialize_charges_budget_for_stored_fragment() {
        let store = Arc::new(FragmentStore::new(1));
        let budget = crate::budget::MemoryBudget::unlimited();
        let mut port = materialize(&store, 0, "q1:op0", 4);
        if let OutputPort::Materialize { budget: b, .. } = &mut port {
            *b = Some(budget.clone());
        }
        emit_all(&mut port, batch(&[7, 8, 9]));
        let stored = store.get(0, "q1:op0").unwrap();
        // Column capacity plus the bucket index over the consumer's key.
        assert!(stored.bytes() > stored.columns().capacity_bytes());
        assert_eq!(budget.used(), stored.bytes());
        let freed = store.remove_prefix("q1:");
        assert_eq!(
            freed,
            stored.bytes(),
            "reclamation reports the bytes to credit"
        );
        budget.credit(freed);
        assert_eq!(budget.used(), 0);
    }

    #[test]
    fn stream_forwards_and_ends() {
        let (txs, rxs, pool) = operand_channels(1, 1, 8, ColumnLayout::ints(1));
        let mut port = OutputPort::Stream(Router::new(txs, 0, 2, pool));
        let mut out = batch(&[1, 2]);
        let mut pos = 0;
        let (n, done) = port.try_emit(&mut out, &mut pos).unwrap();
        assert_eq!((n, done), (2, true));
        while !port.try_finish().unwrap() {}
        let mut tuples = 0;
        let mut ends = 0;
        while let Ok(msg) = rxs[0].recv() {
            match msg {
                Msg::Batch(b) => tuples += b.len(),
                Msg::End => {
                    ends += 1;
                    break;
                }
            }
        }
        assert_eq!((tuples, ends), (2, 1));
    }
}
