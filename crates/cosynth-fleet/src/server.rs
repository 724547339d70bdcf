//! The serving engine, and its socket front-end:
//! `fleet --serve --listen <addr>`.
//!
//! This module is the only serving engine. It has a resident worker
//! pool ([`Core`]), two-stage admission and request dispatch
//! ([`ConnReader`]), and per-connection result streaming
//! ([`ConnWriter`]). Every connection speaks the newline-JSON batch
//! protocol of [`crate::service`], and all of them feed one bounded
//! admission queue — sharded per worker with work-stealing
//! ([`ShardedQueue`]) so the hot pop path never contends across the
//! pool. Here, a [`std::net::TcpListener`] accept loop gives each
//! client a reader/writer thread pair, and connections pipeline freely:
//! a client may have any number of batches in flight, and batch
//! requests may carry a `tag` that is echoed on the `{"event":"batch"}`
//! line for attribution (the `loadgen` bin relies on this). Stdin
//! [`serve`] drives the same engine as one connection in lockstep.
//!
//! ## Connection lifecycle
//!
//! * **accept** — the open-connections gauge rises; a reader thread
//!   splits request lines ([`LineSplitter`], at most [`MAX_LINE`] bytes
//!   each; 20 ms read timeout so it can notice a server-wide drain), a
//!   writer thread owns the socket's write half.
//! * **admission** — under the accounting lock: the batch's jobs are
//!   admitted up to the queue's remaining **total** depth (the bound
//!   spans all shards), the excess is shed with a typed `queue_full`
//!   reject, and the `submitted`/shed counters move together with the
//!   queue-depth gauge. Admitted jobs are then distributed round-robin
//!   across the per-worker shards.
//! * **completion** — workers run jobs from the shared queue, fold the
//!   registry, and route each `Completion` back to its connection's
//!   writer, which streams the result line, folds it into its batch's
//!   ledger and, on the batch's last completion, writes the batch line.
//! * **EOF** — the writer waits out the connection's in-flight batches
//!   and ends the stream with a per-connection
//!   `{"event":"drain","scope":"connection",...}` ledger line. A line
//!   longer than [`MAX_LINE`] is a `line_too_long` reject and ends the
//!   reading the same way. The connection's ledger is then added to the
//!   daemon's total.
//!
//! ## Accounting under concurrency
//!
//! The drain ledger's conservation law must now hold *mid-flight*: a
//! `GET /metrics` scrape can land while jobs sit in the queue or on a
//! worker. The exposed identity is therefore
//!
//! ```text
//! submitted = completed + shed_queue_full + shed_over_deadline
//!           + deadline_exceeded + quarantined
//!           + queue_depth + in_flight_sessions
//! ```
//!
//! and every transition that moves a job between those states happens
//! under one small `accounting` mutex, which the scrape also takes
//! while snapshotting — so `fleetd_accounted 1` is exact at any scrape
//! point, chaos or not. (The lockstep stdin connection has both gauges
//! at zero whenever it takes a snapshot.)
//!
//! A completion reaches accounting in exactly two calls:
//! [`MetricIds::record`] on the worker (registry) and
//! [`ServeSummary::record`] on the writer (its batch's ledger). Finished
//! batch ledgers add up to the connection's, closed connections' to the
//! daemon's.
//!
//! ## `/metrics`
//!
//! With `--metrics-addr`, a minimal HTTP responder serves the registry
//! in Prometheus text format ([`telemetry::prom`]): the ledger
//! counters, per-tier backend call/cost counters, per-tenant labeled
//! families, queue/in-flight/connection gauges, the session and
//! queue-wait histograms with cumulative buckets, plus `fleetd_accounted`,
//! `fleetd_cost_accounted`, and `fleetd_uptime_seconds` computed per
//! scrape.
//!
//! ## Graceful drain
//!
//! A `{"shutdown":true}` control line on any connection is acknowledged
//! with `{"event":"shutdown","draining":true}`, stops the accept loop,
//! lets every connection finish its in-flight batches (readers stop
//! taking new requests), closes the queue, joins the workers, and
//! returns the final [`ServeSummary`] — no session lost or counted
//! twice, which the regression tests pin.
//!
//! [`serve`]: crate::service::serve

use crate::service::{
    identities, metrics_json, parse_request, run_job, Completion, Job, MetricIds, Request,
    ServeOptions, ServeSummary, ShardedQueue, ANONYMOUS_CLIENT,
};
use crate::{job_indices, lock_clean, PoolCounters};
use std::collections::HashMap;
use std::io::{self, BufWriter, ErrorKind, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::sync::{mpsc, Mutex};
use std::thread::Scope;
use std::time::{Duration, Instant};
use topo_model::json::ObjBuilder;

/// How often blocked accept/read loops wake to check the drain flag.
const POLL: Duration = Duration::from_millis(20);

/// The longest request line either front end accepts, in bytes (newline
/// excluded). A longer line is a typed `line_too_long` reject and ends
/// the connection's reading, so a client cannot grow a reader's buffer
/// without bound.
pub(crate) const MAX_LINE: usize = 64 * 1024;

/// One job on the shared queue, routed back to its connection.
struct SrvJob {
    job: Job,
    /// Connection-local batch sequence number (keys the writer's
    /// batch-state map).
    batch: u64,
    /// Tenant label the completion folds under.
    client: String,
    /// Admission instant, for the queue-wait histogram.
    enqueued: Instant,
    reply: mpsc::Sender<ConnEvent>,
}

/// What flows to a connection's writer.
pub(crate) enum ConnEvent {
    /// A pre-rendered protocol line from the reader (reject, ack,
    /// metrics snapshot, or an all-shed batch line).
    Line(String),
    /// A batch was admitted. Sent before its jobs are queued, so it
    /// reaches the writer ahead of their completions.
    Batch(u64, BatchState),
    /// One completion for the connection's batch `.0`.
    Done(u64, Box<Completion>),
    /// The reader is finished; carries its admission-side ledger.
    Eof(ServeSummary),
}

/// Jobs-in-states guarded by the accounting lock (see module docs).
#[derive(Default)]
struct Accounting {
    queued: u64,
    in_flight: u64,
}

/// Everything the worker pool, connections, and scrape loop share.
pub(crate) struct Core<'o> {
    opts: &'o ServeOptions,
    queue_depth: usize,
    /// Per-worker admission shards with work-stealing; `queue_depth`
    /// bounds **total** occupancy (tracked in [`Accounting::queued`]),
    /// not any single shard.
    queue: ShardedQueue<SrvJob>,
    pub(crate) reg: telemetry::Registry,
    ids: MetricIds,
    /// Guards every multi-counter state transition plus the scrape's
    /// snapshot, making the extended accounting identity exact at any
    /// scrape point.
    accounting: Mutex<Accounting>,
    /// The sum of the ledgers of the connections closed so far.
    closed: Mutex<ServeSummary>,
    counters: Mutex<PoolCounters>,
    /// Set by a `{"shutdown":true}` line: stop accepting connections
    /// and new requests, drain what's in flight.
    draining: AtomicBool,
    /// Set once the queue is closed; tells the scrape loop to exit.
    done: AtomicBool,
    open_conns: AtomicUsize,
    chaos_seq: AtomicU64,
    started: Instant,
}

impl<'o> Core<'o> {
    pub(crate) fn new(opts: &'o ServeOptions) -> Self {
        // Shard 0 belongs to the connection front-ends; workers get 1..=N.
        let mut reg = telemetry::Registry::new(opts.threads.max(2) + 1);
        let ids = MetricIds::register(&mut reg);
        Core {
            opts,
            queue_depth: opts.queue_depth.max(1),
            queue: ShardedQueue::new(opts.threads.max(2)),
            reg,
            ids,
            accounting: Mutex::new(Accounting::default()),
            closed: Mutex::new(ServeSummary::default()),
            counters: Mutex::new(PoolCounters::default()),
            draining: AtomicBool::new(false),
            done: AtomicBool::new(false),
            open_conns: AtomicUsize::new(0),
            chaos_seq: AtomicU64::new(0),
            started: Instant::now(),
        }
    }

    /// Runs `front` with the resident workers up, then closes the queue
    /// and joins them: every admitted job has run (or been shed) when
    /// this returns.
    pub(crate) fn run<'env, R>(
        &'env self,
        front: impl for<'scope> FnOnce(&'scope Scope<'scope, 'env>) -> R,
    ) -> R {
        std::thread::scope(|scope| {
            for w in 0..self.opts.threads.max(2) {
                scope.spawn(move || worker_loop(self, w + 1));
            }
            let result = front(scope);
            self.queue.close();
            self.done.store(true, Relaxed);
            result
        })
    }

    /// Adds a closed connection's ledger to the daemon's total.
    pub(crate) fn close_conn(&self, ledger: &ServeSummary) {
        lock_clean(&self.closed).absorb(ledger);
    }

    /// The daemon's total ledger plus the workers' pool counters; call
    /// after [`Self::run`] returns.
    pub(crate) fn summary(&self) -> ServeSummary {
        let mut summary = lock_clean(&self.closed).clone();
        summary.pool = *lock_clean(&self.counters);
        summary
    }

    /// Mirrors the accounting fields into their registry gauges; call
    /// with the accounting lock held.
    fn mirror(&self, acc: &Accounting) {
        self.reg.gauge_set(self.ids.queue_depth, acc.queued);
        self.reg
            .gauge_set(self.ids.in_flight_sessions, acc.in_flight);
        self.reg.gauge_max(self.ids.queue_depth_hwm, acc.queued);
    }
}

/// Serves the socket front-end on an already-bound listener (tests bind
/// port 0 and pass the listener in; the CLI resolves `--listen`).
/// Returns after a graceful drain — a `{"shutdown":true}` line on any
/// connection — with the global ledger, exactly like stdin [`serve`]
/// returns at EOF.
///
/// [`serve`]: crate::service::serve
pub fn serve_listener(
    listener: TcpListener,
    metrics_listener: Option<TcpListener>,
    opts: &ServeOptions,
) -> io::Result<ServeSummary> {
    let core = &Core::new(opts);
    listener.set_nonblocking(true)?;
    core.run(|scope| -> io::Result<()> {
        if let Some(ml) = metrics_listener {
            scope.spawn(move || metrics_loop(ml, core));
        }
        let mut conn_id: u64 = 0;
        let accept_result = loop {
            if core.draining.load(Relaxed) {
                break Ok(());
            }
            match listener.accept() {
                Ok((stream, _peer)) => {
                    // Result/batch lines are tiny and latency-sensitive;
                    // Nagle would batch them against the client's ACKs.
                    let _ = stream.set_nodelay(true);
                    core.open_conns.fetch_add(1, Relaxed);
                    core.reg.gauge_add(core.ids.open_connections, 1);
                    let id = conn_id;
                    conn_id += 1;
                    scope.spawn(move || {
                        handle_conn(stream, core, id);
                        core.reg.gauge_sub(core.ids.open_connections, 1);
                        core.open_conns.fetch_sub(1, Relaxed);
                    });
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => std::thread::sleep(POLL),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => {
                    core.draining.store(true, Relaxed);
                    break Err(e);
                }
            }
        };
        drop(listener); // stop the OS backlog while connections drain
        while core.open_conns.load(Relaxed) > 0 {
            std::thread::sleep(POLL);
        }
        accept_result
    })?;
    Ok(core.summary())
}

/// One resident worker: pops jobs off the shared queue, runs them
/// panic-contained, folds the registry, and routes the completion back
/// to its connection.
fn worker_loop(core: &Core<'_>, shard: usize) {
    let mut ctx = if core.opts.pool_managers {
        cosynth::VerifierContext::new()
    } else {
        cosynth::VerifierContext::without_pooling()
    };
    // Registry shards are 1-based (shard 0 belongs to the front-ends);
    // queue shards are 0-based per worker.
    while let Some(sj) = core.queue.pop(shard - 1) {
        {
            let mut acc = lock_clean(&core.accounting);
            acc.queued -= 1;
            acc.in_flight += 1;
            core.mirror(&acc);
            core.reg.observe_ns(
                shard,
                core.ids.queue_wait,
                sj.enqueued.elapsed().as_nanos() as u64,
            );
        }
        let done = run_job(sj.job, &mut ctx, &core.opts.tuning, core.opts.stream_traces);
        {
            // One critical section per completion: the outcome counter
            // and the in-flight gauge move together, so the scrape
            // identity never sees a job in zero or two states.
            let mut acc = lock_clean(&core.accounting);
            acc.in_flight -= 1;
            core.mirror(&acc);
            core.ids.record(&core.reg, shard, &done, &sj.client);
        }
        // The connection may already be gone (client hung up): the
        // writer's ledger still gets it, in sink mode.
        let _ = sj.reply.send(ConnEvent::Done(sj.batch, Box::new(done)));
    }
    ctx.flush();
    lock_clean(&core.counters).absorb(&ctx);
}

/// A request line longer than [`MAX_LINE`].
pub(crate) struct LineTooLong;

/// The one request-line splitter behind both front ends: buffers bytes
/// until a newline and decodes each line lossily. The buffer never
/// holds more than [`MAX_LINE`] bytes plus one read chunk.
#[derive(Default)]
pub(crate) struct LineSplitter {
    buf: Vec<u8>,
}

impl LineSplitter {
    /// Appends `bytes` and hands each complete line to `handle`, which
    /// returns `false` to stop reading. A line past [`MAX_LINE`] —
    /// complete or not — is handed over as `Err(LineTooLong)`, after
    /// which reading stops. Returns whether to keep reading.
    pub(crate) fn feed(
        &mut self,
        bytes: &[u8],
        handle: &mut impl FnMut(Result<&str, LineTooLong>) -> bool,
    ) -> bool {
        self.buf.extend_from_slice(bytes);
        let mut start = 0;
        while let Some(len) = self.buf[start..].iter().position(|&b| b == b'\n') {
            let line = &self.buf[start..start + len];
            start += len + 1;
            if line.len() > MAX_LINE {
                handle(Err(LineTooLong));
                return false;
            }
            if !handle(Ok(&String::from_utf8_lossy(line))) {
                return false;
            }
        }
        self.buf.drain(..start);
        if self.buf.len() > MAX_LINE {
            handle(Err(LineTooLong));
            return false;
        }
        true
    }

    /// Hands a final line cut off without its newline to `handle` (it
    /// becomes a typed `bad_json` reject unless it happens to parse).
    pub(crate) fn finish(self, handle: &mut impl FnMut(Result<&str, LineTooLong>) -> bool) {
        let line = String::from_utf8_lossy(&self.buf);
        if !line.trim().is_empty() {
            handle(Ok(&line));
        }
    }
}

/// One client connection: this thread reads and parses request lines;
/// a paired writer thread owns the socket's write half and streams
/// results, batch lines, and the per-connection drain line. The writer
/// is joined before this function returns, so nothing outlives the
/// connection.
fn handle_conn(stream: TcpStream, core: &Core<'_>, conn_id: u64) {
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let _ = stream.set_read_timeout(Some(POLL));
    let (tx, rx) = mpsc::channel::<ConnEvent>();
    let writer = std::thread::spawn(move || {
        let mut writer = ConnWriter::new(BufWriter::new(write_half));
        while !(writer.eof && writer.batches.is_empty()) {
            let Ok(event) = rx.recv() else { break };
            writer.handle(event);
        }
        let line = writer
            .ledger
            .drain_fields(
                ObjBuilder::event("drain")
                    .str("scope", "connection")
                    .u64("conn", conn_id),
            )
            .finish();
        writer.write(&line);
        if let Ok(stream) = writer.out.into_inner() {
            let _ = stream.shutdown(Shutdown::Write);
        }
        writer.ledger
    });
    let mut reader = ConnReader::new(core, tx);
    read_lines(stream, core, &mut reader);
    reader.finish();
    if let Ok(ledger) = writer.join() {
        core.close_conn(&ledger);
    }
}

/// Reads request lines off the socket, polling the drain flag every
/// [`POLL`]; a line truncated by the peer's close is still handled (it
/// becomes a typed `bad_json` reject, like stdin's truncated final
/// line). Stops when the reader does (shutdown, overlong line).
fn read_lines(mut stream: TcpStream, core: &Core<'_>, reader: &mut ConnReader<'_, '_>) {
    let mut lines = LineSplitter::default();
    let mut chunk = [0u8; 4096];
    let mut handle = |line: Result<&str, LineTooLong>| reader.handle_line(line);
    loop {
        // Requests the peer sent before the drain began can still sit
        // unread in the socket buffer (this connection's reader may not
        // have run yet): take one more chunk without waiting, so they
        // are served rather than silently dropped.
        let last_read = core.draining.load(Relaxed);
        if last_read && stream.set_nonblocking(true).is_err() {
            return;
        }
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) if !lines.feed(&chunk[..n], &mut handle) => return,
            Ok(_) => {}
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => break, // peer reset: same as EOF
        }
        if last_read {
            return;
        }
    }
    if !core.draining.load(Relaxed) {
        lines.finish(&mut handle);
    }
}

/// The reader half of a connection: request dispatch and two-stage
/// admission.
pub(crate) struct ConnReader<'a, 'o> {
    core: &'a Core<'o>,
    tx: mpsc::Sender<ConnEvent>,
    /// Admission-side counts: batches, submitted, admission sheds,
    /// protocol errors.
    ledger: ServeSummary,
    next_batch: u64,
}

impl<'a, 'o> ConnReader<'a, 'o> {
    pub(crate) fn new(core: &'a Core<'o>, tx: mpsc::Sender<ConnEvent>) -> Self {
        ConnReader {
            core,
            tx,
            ledger: ServeSummary::default(),
            next_batch: 0,
        }
    }

    /// Ends the connection's reading: hands the writer the admission
    /// ledger, after every line this reader sent.
    pub(crate) fn finish(self) {
        let _ = self.tx.send(ConnEvent::Eof(self.ledger));
    }

    fn send_line(&self, line: String) {
        let _ = self.tx.send(ConnEvent::Line(line));
    }

    pub(crate) fn reject(&mut self, code: &str, message: &str) {
        self.ledger.protocol_errors += 1;
        self.core.reg.inc(0, self.core.ids.protocol_errors);
        self.send_line(
            ObjBuilder::event("reject")
                .str("reason", "bad_request")
                .str("code", code)
                .str("message", message)
                .finish(),
        );
    }

    /// Returns `false` when the connection must stop reading (a
    /// shutdown request or an overlong line).
    pub(crate) fn handle_line(&mut self, line: Result<&str, LineTooLong>) -> bool {
        let Ok(line) = line else {
            self.reject(
                "line_too_long",
                &format!("request line exceeds {MAX_LINE} bytes"),
            );
            return false;
        };
        if line.trim().is_empty() {
            return true;
        }
        let core = self.core;
        let request = match parse_request(line) {
            Ok(Request::Batch(r)) => r,
            Ok(Request::Metrics) => {
                let _acc = lock_clean(&core.accounting);
                self.send_line(metrics_json(&core.reg, false, None));
                return true;
            }
            Ok(Request::Shutdown) => {
                self.send_line(
                    ObjBuilder::event("shutdown")
                        .bool("draining", true)
                        .finish(),
                );
                core.draining.store(true, Relaxed);
                return false;
            }
            Err(err) => {
                self.reject(err.code(), &err.to_string());
                return true;
            }
        };

        let client = request
            .client
            .clone()
            .unwrap_or_else(|| ANONYMOUS_CLIENT.to_string());
        let families = request
            .families
            .as_deref()
            .or(core.opts.default_families.as_deref());
        let jobs = job_indices(request.count, families, &core.opts.tuning);
        self.ledger.batches += 1;
        self.ledger.submitted += jobs.len();
        core.reg.inc(0, core.ids.batches);

        // Admission stage 1: an already-expired deadline sheds the
        // whole batch before it touches the queue.
        if request.deadline_ms == Some(0) {
            {
                let _acc = lock_clean(&core.accounting);
                core.reg.add(0, core.ids.submitted, jobs.len() as u64);
                core.reg
                    .add(0, core.ids.shed_over_deadline, jobs.len() as u64);
                core.reg
                    .add_labeled(core.ids.tenant_shed, &client, jobs.len() as u64);
            }
            self.ledger.shed_over_deadline += jobs.len();
            self.send_line(
                ObjBuilder::event("reject")
                    .str("reason", "over_deadline")
                    .str("use_case", request.use_case.name())
                    .u64("shed", jobs.len() as u64)
                    .finish(),
            );
            self.send_line(batch_line(
                request.count,
                0,
                0,
                jobs.len(),
                request.tag.as_deref(),
            ));
            return true;
        }

        // Admission stage 2: the shared queue is bounded; concurrent
        // connections compete for the remaining depth, so the shed count
        // depends on live occupancy — that is the admission control
        // working. (A lockstep connection alone always finds it empty.)
        let deadline = request
            .deadline_ms
            .map(|ms| Instant::now() + Duration::from_millis(ms));
        let (accepted, shed) = {
            let mut acc = lock_clean(&core.accounting);
            let room = (core.queue_depth as u64).saturating_sub(acc.queued) as usize;
            let accepted = jobs.len().min(room);
            let shed = jobs.len() - accepted;
            acc.queued += accepted as u64;
            core.reg.add(0, core.ids.submitted, jobs.len() as u64);
            if shed > 0 {
                core.reg.add(0, core.ids.shed_queue_full, shed as u64);
                core.reg
                    .add_labeled(core.ids.tenant_shed, &client, shed as u64);
            }
            core.mirror(&acc);
            (accepted, shed)
        };
        if shed > 0 {
            self.ledger.shed_queue_full += shed;
            self.send_line(
                ObjBuilder::event("reject")
                    .str("reason", "queue_full")
                    .str("use_case", request.use_case.name())
                    .u64("shed", shed as u64)
                    .u64("queue_depth", core.queue_depth as u64)
                    .finish(),
            );
        }
        if jobs.len() < request.count {
            self.reject(
                "family_filter",
                &format!(
                    "only {} of {} requested sessions matched the family filter \
                     (known families: {:?})",
                    jobs.len(),
                    request.count,
                    crate::family_names()
                ),
            );
        }
        if accepted == 0 {
            self.send_line(batch_line(
                request.count,
                0,
                0,
                shed,
                request.tag.as_deref(),
            ));
            return true;
        }

        let seq = self.next_batch;
        self.next_batch += 1;
        let _ = self.tx.send(ConnEvent::Batch(
            seq,
            BatchState {
                requested: request.count,
                accepted,
                shed,
                tag: request.tag.clone(),
                ledger: ServeSummary::default(),
            },
        ));
        let enqueued = Instant::now();
        for &index in jobs.iter().take(accepted) {
            let directive = core
                .opts
                .chaos
                .as_ref()
                .map(|p| p.directive(core.chaos_seq.fetch_add(1, Relaxed)));
            core.queue.push(SrvJob {
                job: Job {
                    kind: request.use_case,
                    seed: request.seed,
                    index,
                    directive,
                    deadline,
                },
                batch: seq,
                client: client.clone(),
                enqueued,
                reply: self.tx.clone(),
            });
        }
        core.queue.notify();
        true
    }
}

fn batch_line(
    requested: usize,
    completed: usize,
    failed: usize,
    shed: usize,
    tag: Option<&str>,
) -> String {
    let mut b = ObjBuilder::event("batch")
        .u64("requested", requested as u64)
        .u64("completed", completed as u64)
        .u64("failed", failed as u64)
        .u64("shed", shed as u64);
    if let Some(tag) = tag {
        b = b.str("tag", tag);
    }
    b.finish()
}

/// One admitted batch, tracked by its connection's writer until its
/// last completion.
pub(crate) struct BatchState {
    requested: usize,
    accepted: usize,
    /// Admission-time `queue_full` sheds.
    shed: usize,
    tag: Option<String>,
    /// The batch's completions (dequeue-time sheds included).
    ledger: ServeSummary,
}

/// The writer half of a connection: serializes every outbound line,
/// folds each completion into its batch's ledger, writes batch lines as
/// batches finish, and keeps the connection's ledger. A write failure
/// (client hung up) is kept in `error` and switches to sink mode —
/// completions still fold, so the ledger stays balanced.
pub(crate) struct ConnWriter<W: Write> {
    out: W,
    pub(crate) error: Option<io::Error>,
    /// Admitted batches still in flight, by sequence number.
    batches: HashMap<u64, BatchState>,
    /// Finished batches plus, after EOF, the reader's admission counts.
    pub(crate) ledger: ServeSummary,
    eof: bool,
}

impl<W: Write> ConnWriter<W> {
    pub(crate) fn new(out: W) -> Self {
        ConnWriter {
            out,
            error: None,
            batches: HashMap::new(),
            ledger: ServeSummary::default(),
            eof: false,
        }
    }

    fn write(&mut self, line: &str) {
        if self.error.is_none() {
            if let Err(e) = writeln!(self.out, "{line}").and_then(|()| self.out.flush()) {
                self.error = Some(e);
            }
        }
    }

    /// Handles one event from the connection's reader or a worker.
    fn handle(&mut self, event: ConnEvent) {
        match event {
            ConnEvent::Line(line) => self.write(&line),
            ConnEvent::Batch(seq, state) => {
                self.batches.insert(seq, state);
            }
            ConnEvent::Eof(admission) => {
                self.ledger.absorb(&admission);
                self.eof = true;
            }
            ConnEvent::Done(seq, done) => {
                self.write(&done.line);
                if let Some(trace_line) = &done.trace_line {
                    self.write(trace_line);
                }
                let Some(state) = self.batches.get_mut(&seq) else {
                    return;
                };
                state.ledger.record(&done);
                let ran = state.ledger.sessions;
                if ran + state.ledger.shed_over_deadline == state.accepted {
                    let state = self.batches.remove(&seq).expect("batch is tracked");
                    let done = &state.ledger;
                    self.write(&batch_line(
                        state.requested,
                        ran,
                        done.failures,
                        state.shed + done.shed_over_deadline,
                        state.tag.as_deref(),
                    ));
                    self.ledger.absorb(done);
                }
            }
        }
    }

    /// Handles queued events until no batch is in flight and nothing is
    /// queued. The lockstep stdin connection reads its next line only
    /// after this.
    pub(crate) fn settle(&mut self, rx: &mpsc::Receiver<ConnEvent>) {
        loop {
            let event = if self.batches.is_empty() {
                rx.try_recv().ok()
            } else {
                rx.recv().ok()
            };
            match event {
                Some(event) => self.handle(event),
                None => return,
            }
        }
    }
}

/// Computes the scrape-time identities and renders the full Prometheus
/// payload. Takes the accounting lock around the snapshot so the
/// extended conservation law is exact (see the module docs).
fn render_prometheus(core: &Core<'_>) -> String {
    use std::fmt::Write as _;
    let snap = {
        let _acc = lock_clean(&core.accounting);
        core.reg.snapshot()
    };
    let (accounted, cost_accounted) = identities(&snap);
    let mut out = snap.to_prometheus("fleetd_");
    let _ = writeln!(out, "# TYPE fleetd_accounted gauge");
    let _ = writeln!(out, "fleetd_accounted {}", accounted as u8);
    let _ = writeln!(out, "# TYPE fleetd_cost_accounted gauge");
    let _ = writeln!(out, "fleetd_cost_accounted {}", cost_accounted as u8);
    let _ = writeln!(out, "# TYPE fleetd_uptime_seconds gauge");
    let _ = writeln!(
        out,
        "fleetd_uptime_seconds {}",
        core.started.elapsed().as_secs_f64()
    );
    out
}

/// The `--metrics-addr` responder: a deliberately minimal HTTP/1.0
/// server (read the request head, answer one response, close). Only
/// `GET /metrics` exists; everything else is 404, non-GET is 405.
fn metrics_loop(listener: TcpListener, core: &Core<'_>) {
    if listener.set_nonblocking(true).is_err() {
        return;
    }
    while !core.done.load(Relaxed) {
        match listener.accept() {
            Ok((mut stream, _)) => {
                let _ = serve_scrape(&mut stream, core);
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => {
                std::thread::sleep(POLL);
            }
            Err(_) => break,
        }
    }
}

fn serve_scrape(stream: &mut TcpStream, core: &Core<'_>) -> io::Result<()> {
    stream.set_nonblocking(false)?;
    stream.set_read_timeout(Some(Duration::from_millis(500)))?;
    stream.set_write_timeout(Some(Duration::from_secs(2)))?;
    // Read the request head (first line is all we route on; cap the
    // head at 8 KiB so a misbehaving client can't balloon memory).
    let mut head = Vec::new();
    let mut chunk = [0u8; 1024];
    while !head.windows(4).any(|w| w == b"\r\n\r\n") && head.len() < 8192 {
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => head.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    let head = String::from_utf8_lossy(&head);
    let request_line = head.lines().next().unwrap_or_default();
    let mut parts = request_line.split_whitespace();
    let (method, path) = (
        parts.next().unwrap_or_default(),
        parts.next().unwrap_or_default(),
    );
    let (status, body) = if method != "GET" {
        ("405 Method Not Allowed", "method not allowed\n".to_string())
    } else if path == "/metrics" {
        ("200 OK", render_prometheus(core))
    } else {
        ("404 Not Found", "only /metrics lives here\n".to_string())
    };
    write!(
        stream,
        "HTTP/1.0 {status}\r\nContent-Type: text/plain; version=0.0.4; charset=utf-8\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )?;
    stream.flush()?;
    let _ = stream.shutdown(Shutdown::Both);
    Ok(())
}
