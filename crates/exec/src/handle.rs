//! Cancellable query handles and pull-based result streams.
//!
//! [`Engine::submit`](crate::engine::Engine::submit) returns a
//! [`QueryHandle`] immediately: the query's operator tasks run on the
//! shared worker pool while a per-query coordinator thread tracks
//! completions. Results are **not** materialized into an
//! `ExecOutcome.relation` first — the root operator instances feed a
//! bounded channel ([`ClientSink`](crate::stream::ClientSink)) that the
//! handle's [`ResultStream`] drains batch by batch, so the first result
//! tuples reach the client while deeper operators are still producing, and
//! a slow client backpressures the worker pool instead of buffering
//! unboundedly.
//!
//! Cancellation is quiescent: [`QueryHandle::cancel`] flips the query's
//! cancel token; every operator task observes it on its next scheduling
//! step, reports [`RelalgError::Canceled`] exactly once through PR 2's
//! completion protocol, and the coordinator reclaims the query's fragment
//! namespace before [`QueryHandle::outcome`] returns. The engine is
//! immediately reusable.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{Receiver, TryRecvError};
use mj_relalg::{RelalgError, Relation, Result, Schema, Tuple};

use crate::budget::MemoryBudget;
use crate::metrics::counters::EngineCounters;
use crate::metrics::Metrics;
use crate::stream::{Batch, Msg};

/// Lifecycle state of a submitted query.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QueryStatus {
    /// The query's tasks are still running (or queued).
    Running,
    /// Every task completed and all results were delivered.
    Finished,
    /// The query failed; [`QueryHandle::outcome`] carries the error.
    Failed,
    /// The query was cancelled and has quiesced.
    Canceled,
}

// Running is the (default) zero state; the coordinator writes the rest.
const STATE_FINISHED: u8 = 1;
const STATE_FAILED: u8 = 2;
const STATE_CANCELED: u8 = 3;

/// Shared control block of one submitted query: the cancel token the
/// operator tasks poll, the terminal state the coordinator records, and the
/// guardrail state (deadline, memory budget, abort reason, progress and
/// contained-panic counters) added by the robustness layer.
#[derive(Debug, Default)]
pub struct QueryCtrl {
    cancel: AtomicBool,
    /// Graceful early termination: the query's answer is already complete
    /// (a satisfied LIMIT), so upstream operators should stop producing
    /// and report success instead of an error.
    stop: AtomicBool,
    state: AtomicU8,
    /// Guardrail abort: like `cancel`, but carries a typed reason (deadline,
    /// budget, contained panic, stall). First reason wins; every task of the
    /// query observes it on its next scheduling step and reports it.
    aborted: AtomicBool,
    abort: Mutex<Option<RelalgError>>,
    /// Monotone count of productive task steps, sampled by the coordinator
    /// watchdog to detect stalled pipelines.
    progress: AtomicU64,
    /// Panics contained (converted to `Internal`) within this query.
    panics: AtomicU64,
    /// End-to-end time to first batch in microseconds, recorded once by
    /// the [`ResultStream`] when the client pulls its first batch
    /// (stored `+1` so 0 keeps meaning "no batch delivered yet").
    first_batch_us: AtomicU64,
    /// Wall-clock instant after which the query is aborted; `None` = none.
    deadline: Option<Instant>,
    /// The query's memory budget (unlimited when no cap was configured).
    budget: Arc<MemoryBudget>,
}

impl QueryCtrl {
    /// Creates a control block in the `Running` state with no deadline and
    /// an unlimited budget.
    pub fn new() -> Arc<Self> {
        Arc::new(QueryCtrl::default())
    }

    /// Creates a control block with guardrails attached.
    pub fn with_limits(deadline: Option<Instant>, budget: Arc<MemoryBudget>) -> Arc<Self> {
        Arc::new(QueryCtrl {
            deadline,
            budget,
            ..QueryCtrl::default()
        })
    }

    /// Requests cancellation. Idempotent; observed by every task on its
    /// next scheduling step.
    pub fn cancel(&self) {
        self.cancel.store(true, Ordering::Relaxed);
    }

    /// True once cancellation has been requested.
    pub fn is_canceled(&self) -> bool {
        self.cancel.load(Ordering::Relaxed)
    }

    /// Signals that the query's result is complete (a LIMIT was satisfied):
    /// every other task of this query winds down *successfully* on its next
    /// scheduling step — the graceful sibling of [`cancel`](Self::cancel),
    /// raised by the operator framework, not the client.
    pub fn stop_early(&self) {
        self.stop.store(true, Ordering::Relaxed);
    }

    /// True once a downstream operator declared the result complete.
    pub fn early_stopped(&self) -> bool {
        self.stop.load(Ordering::Relaxed)
    }

    /// Aborts the query with a typed guardrail reason. The first reason
    /// wins (idempotent for followers); every task observes the abort on
    /// its next scheduling step, reports the reason exactly once through
    /// the completion protocol, and the coordinator surfaces it from
    /// `outcome()` after the usual quiesce/reclaim.
    pub fn abort(&self, reason: RelalgError) {
        let mut slot = self.abort.lock().unwrap_or_else(PoisonError::into_inner);
        if slot.is_none() {
            *slot = Some(reason);
            drop(slot);
            self.aborted.store(true, Ordering::Release);
        }
    }

    /// True once a guardrail abort has been raised.
    pub fn is_aborted(&self) -> bool {
        self.aborted.load(Ordering::Acquire)
    }

    /// The abort reason, if one has been raised.
    pub fn abort_error(&self) -> Option<RelalgError> {
        if !self.is_aborted() {
            return None;
        }
        self.abort
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// The query's wall-clock deadline, if one was configured.
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// True once the configured deadline has passed.
    pub fn deadline_exceeded(&self) -> bool {
        self.deadline.is_some_and(|d| Instant::now() >= d)
    }

    /// The query's memory budget (unlimited when no cap was configured).
    pub fn budget(&self) -> &Arc<MemoryBudget> {
        &self.budget
    }

    /// Records one productive task step (watchdog heartbeat).
    pub fn note_progress(&self) {
        self.progress.fetch_add(1, Ordering::Relaxed);
    }

    /// Total productive task steps so far.
    pub fn progress(&self) -> u64 {
        self.progress.load(Ordering::Relaxed)
    }

    /// Records one contained panic within this query.
    pub fn note_panic(&self) {
        self.panics.fetch_add(1, Ordering::Relaxed);
    }

    /// Panics contained within this query so far.
    pub fn panics(&self) -> u64 {
        self.panics.load(Ordering::Relaxed)
    }

    /// Records the client pulling the first result batch `ttfb` after
    /// submission. First call wins; later calls are no-ops.
    pub(crate) fn note_first_batch(&self, ttfb: Duration) {
        let us = ttfb.as_micros().min(u64::MAX as u128 - 1) as u64;
        let _ =
            self.first_batch_us
                .compare_exchange(0, us + 1, Ordering::Relaxed, Ordering::Relaxed);
    }

    /// End-to-end time from submission to the client pulling the first
    /// result batch; `None` while (or if) no batch was ever delivered.
    pub fn time_to_first_batch(&self) -> Option<Duration> {
        match self.first_batch_us.load(Ordering::Relaxed) {
            0 => None,
            us => Some(Duration::from_micros(us - 1)),
        }
    }

    /// Records the coordinator's terminal result.
    pub(crate) fn finish(&self, result: &Result<QueryOutcome>) {
        let state = match result {
            Ok(_) => STATE_FINISHED,
            Err(RelalgError::Canceled) => STATE_CANCELED,
            Err(_) => STATE_FAILED,
        };
        self.state.store(state, Ordering::Release);
    }

    /// The query's current lifecycle state.
    pub fn status(&self) -> QueryStatus {
        match self.state.load(Ordering::Acquire) {
            STATE_FINISHED => QueryStatus::Finished,
            STATE_FAILED => QueryStatus::Failed,
            STATE_CANCELED => QueryStatus::Canceled,
            _ => QueryStatus::Running,
        }
    }
}

/// What a completed query reports: timing and metrics. The result tuples
/// themselves travel through the [`ResultStream`] — they are never
/// materialized inside the engine.
#[derive(Clone, Debug)]
pub struct QueryOutcome {
    /// Response time: scheduling start to last operation-process exit (the
    /// paper's metric; base relations start column-resident and ideally
    /// fragmented by cached bucket lists, as §4.1 assumes).
    pub elapsed: Duration,
    /// End-to-end time from submission to the client pulling the first
    /// result batch off the stream; `None` when no batch was delivered
    /// (empty result, or the query failed before producing output).
    pub time_to_first_batch: Option<Duration>,
    /// Execution metrics.
    pub metrics: Metrics,
}

/// The result of one non-blocking poll of a [`ResultStream`]
/// ([`ResultStream::poll_next_batch`]).
#[derive(Debug)]
pub enum BatchPoll {
    /// A result batch is ready.
    Batch(Batch),
    /// No batch buffered right now, but producers are still live — poll
    /// again later (the stream never blocks the caller).
    Pending,
    /// The stream is exhausted: every producer finished or unwound.
    /// Terminal status/errors surface from [`QueryHandle::outcome`].
    Done,
}

/// A pull-based iterator over the query's result [`Batch`]es, fed directly
/// from the root operator instances through a bounded channel.
///
/// Dropping the stream before it is exhausted cancels the query (there is
/// nobody left to deliver results to); dropping it after the final `End`
/// is a no-op.
pub struct ResultStream {
    rx: Receiver<Msg>,
    /// Root instances that have not sent `End` yet.
    remaining: usize,
    schema: Arc<Schema>,
    ctrl: Arc<QueryCtrl>,
    ended: bool,
    /// Submission instant, for end-to-end time-to-first-batch.
    started: Instant,
    /// Whether the first batch has been delivered (TTFB recorded).
    first_seen: bool,
    /// Engine counters to feed the time-to-first-batch histogram
    /// (`None` for transient single-query engines like `run_plan`).
    counters: Option<Arc<EngineCounters>>,
}

impl ResultStream {
    pub(crate) fn new(
        rx: Receiver<Msg>,
        producers: usize,
        schema: Arc<Schema>,
        ctrl: Arc<QueryCtrl>,
        started: Instant,
        counters: Option<Arc<EngineCounters>>,
    ) -> Self {
        ResultStream {
            rx,
            remaining: producers,
            schema,
            ctrl,
            ended: producers == 0,
            started,
            first_seen: false,
            counters,
        }
    }

    /// The schema of the streamed tuples.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// Records time-to-first-batch on the first delivered batch: into the
    /// query's control block (surfaced by `QueryOutcome`) and the engine's
    /// TTFB histogram. Measured here, client-side, so it is genuinely
    /// end-to-end — submission to the client holding result tuples.
    fn note_first_batch(&mut self) {
        if self.first_seen {
            return;
        }
        self.first_seen = true;
        let ttfb = self.started.elapsed();
        self.ctrl.note_first_batch(ttfb);
        if let Some(counters) = &self.counters {
            counters.note_first_batch(ttfb);
        }
    }

    /// Blocks for the next batch. `None` once every root instance has
    /// finished — or unwound: a query that failed (or was cancelled)
    /// simply ends the stream early, and the error surfaces from
    /// [`QueryHandle::outcome`].
    pub fn next_batch(&mut self) -> Option<Batch> {
        while !self.ended {
            match self.rx.recv() {
                Ok(Msg::Batch(batch)) => {
                    self.note_first_batch();
                    return Some(batch);
                }
                Ok(Msg::End) => {
                    self.remaining -= 1;
                    if self.remaining == 0 {
                        self.ended = true;
                    }
                }
                // Every sender gone without the full End count: the
                // dataflow unwound (error or cancel).
                Err(_) => self.ended = true,
            }
        }
        None
    }

    /// Non-blocking sibling of [`next_batch`](Self::next_batch): returns
    /// [`BatchPoll::Pending`] instead of parking the caller when no batch
    /// is buffered. This is what lets one connection-worker thread
    /// multiplex many clients' streams — poll each stream in turn, never
    /// sleeping inside any single query.
    pub fn poll_next_batch(&mut self) -> BatchPoll {
        while !self.ended {
            match self.rx.try_recv() {
                Ok(Msg::Batch(batch)) => {
                    self.note_first_batch();
                    return BatchPoll::Batch(batch);
                }
                Ok(Msg::End) => {
                    self.remaining -= 1;
                    if self.remaining == 0 {
                        self.ended = true;
                    }
                }
                Err(TryRecvError::Empty) => return BatchPoll::Pending,
                Err(TryRecvError::Disconnected) => self.ended = true,
            }
        }
        BatchPoll::Done
    }

    /// Drains the stream into a materialized [`Relation`] (convenience for
    /// clients that do not want incremental consumption). Completeness is
    /// not guaranteed unless [`QueryHandle::outcome`] reports success.
    pub fn collect_relation(mut self) -> Relation {
        let mut tuples: Vec<Tuple> = Vec::new();
        while let Some(mut batch) = self.next_batch() {
            tuples.extend(batch.drain());
        }
        Relation::new_unchecked(self.schema.clone(), tuples)
    }
}

impl Iterator for ResultStream {
    type Item = Batch;

    fn next(&mut self) -> Option<Batch> {
        self.next_batch()
    }
}

impl Drop for ResultStream {
    fn drop(&mut self) {
        // Abandoning a live stream cancels the query; a drained stream
        // (all Ends seen) drops silently.
        if !self.ended {
            self.ctrl.cancel();
        }
    }
}

impl std::fmt::Debug for ResultStream {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "ResultStream(schema {}, {} producers outstanding)",
            self.schema, self.remaining
        )
    }
}

/// A handle to an in-flight query: stream its results, poll its status,
/// cancel it, and collect its final outcome.
///
/// Dropping the handle cancels the query and waits for quiescence, so a
/// handle can never leak running tasks.
pub struct QueryHandle {
    stream: Option<ResultStream>,
    ctrl: Arc<QueryCtrl>,
    coordinator: Option<JoinHandle<Result<QueryOutcome>>>,
}

impl QueryHandle {
    pub(crate) fn new(
        stream: ResultStream,
        ctrl: Arc<QueryCtrl>,
        coordinator: JoinHandle<Result<QueryOutcome>>,
    ) -> Self {
        QueryHandle {
            stream: Some(stream),
            ctrl,
            coordinator: Some(coordinator),
        }
    }

    /// Takes the result stream. Panics if called twice — the stream is the
    /// single consumption point of the query's output.
    pub fn stream(&mut self) -> ResultStream {
        self.stream
            .take()
            .expect("QueryHandle::stream() may only be taken once")
    }

    /// The schema of the result tuples.
    pub fn schema(&self) -> Option<Arc<Schema>> {
        self.stream.as_ref().map(|s| s.schema().clone())
    }

    /// Requests cancellation: every task of this query observes the token
    /// on its next scheduling step and reports exactly once; fragments are
    /// reclaimed before [`outcome`](Self::outcome) returns. Cancelling a
    /// query that already completed is a no-op.
    pub fn cancel(&self) {
        self.ctrl.cancel();
    }

    /// The query's current lifecycle state.
    pub fn status(&self) -> QueryStatus {
        self.ctrl.status()
    }

    /// The query's memory budget: bytes charged now, the peak, the limit.
    pub fn budget(&self) -> Arc<MemoryBudget> {
        self.ctrl.budget().clone()
    }

    /// Waits for the query to quiesce and returns its outcome. If the
    /// stream was never taken, any undelivered results are drained and
    /// discarded first (so `outcome()` cannot deadlock against a full
    /// result channel). Returns [`RelalgError::Canceled`] if the query was
    /// cancelled before completing.
    ///
    /// If you **did** take the stream, finish with it before calling this:
    /// drain it to the end, drop it (which cancels a live query), or call
    /// [`cancel`](Self::cancel) first. `outcome()` blocks until the query
    /// quiesces, and a query cannot quiesce while its root tasks are
    /// backpressured against a taken-but-idle stream — holding the
    /// undrained stream on the same thread that calls `outcome()` would
    /// wait forever. (Draining from another thread is fine; this call then
    /// simply waits for that drain.)
    pub fn outcome(mut self) -> Result<QueryOutcome> {
        self.wait()
    }

    /// Drains the stream into a relation and returns it alongside the
    /// outcome — the one-call path for clients that want the whole result
    /// (`run_plan`'s behaviour, minus the transient engine).
    pub fn collect(mut self) -> Result<Relation> {
        let stream = self.stream.take().ok_or_else(|| {
            RelalgError::InvalidPlan("result stream already taken; drain it instead".into())
        })?;
        let relation = stream.collect_relation();
        self.wait()?;
        Ok(relation)
    }

    fn wait(&mut self) -> Result<QueryOutcome> {
        // Discard any untaken results so root tasks are never wedged on a
        // full channel nobody reads.
        if let Some(mut stream) = self.stream.take() {
            while stream.next_batch().is_some() {}
        }
        match self.coordinator.take() {
            Some(handle) => {
                let mut result = handle
                    .join()
                    .map_err(|_| RelalgError::InvalidPlan("query coordinator panicked".into()))?;
                // TTFB is recorded client-side by the stream; the
                // coordinator cannot know it, so patch it in here.
                if let Ok(outcome) = &mut result {
                    outcome.time_to_first_batch = self.ctrl.time_to_first_batch();
                }
                result
            }
            None => Err(RelalgError::InvalidPlan(
                "query outcome already taken".into(),
            )),
        }
    }
}

impl Drop for QueryHandle {
    fn drop(&mut self) {
        if self.coordinator.is_some() {
            self.ctrl.cancel();
            let _ = self.wait();
        }
    }
}

impl std::fmt::Debug for QueryHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "QueryHandle({:?})", self.status())
    }
}
