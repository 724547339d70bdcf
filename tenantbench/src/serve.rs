//! serve-synth: open-loop load against an in-process fleetd
//! (`cosynth_fleet::serve_listener` on 127.0.0.1, two workers) over one
//! loopback connection. One generator sends count-1 synthesis requests
//! on a fixed schedule; one reader attributes result, trace and batch
//! lines to their requests by tag.

use crate::layers::{stages_attr, Tracer};
use crate::oracle::{Content, Oracle};
use crate::stats;
use crate::workload::{synth_family, Phase, Sample, Stages, Usage};
use cosynth_fleet::{serve_listener, ServeOptions, ServeSummary};
use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use telemetry::Stage;
use topo_model::json::{self, Json};

/// Resident fleetd workers.
pub const WORKERS: usize = 2;
/// The fixed offered rate of the measured point, requests per second:
/// below `max_qps_at_slo`, which measured 440–2000/s on a shared 2-core
/// x86-64 host as the host's other load came and went. At 400/s
/// queueing amplified that drift into a `latency_ms_p50` spread of 0.25
/// of the median across seeds; at 200/s it stayed near 0.1.
pub const OFFERED_QPS: f64 = 200.0;
/// The latency objective of `max_qps_at_slo`.
pub const SLO_P99_MS: f64 = 100.0;
/// A point whose generator sent its p99 arrival later than this behind
/// schedule — five inter-arrival gaps at the offered rate — is invalid:
/// the generator, not the daemon, was measured. (Latency is timed from
/// the schedule either way, so lag below the bound is still charged.)
pub const LAG_BOUND_MS: f64 = 25.0;
/// Attempts per point before an invalid point is given up on.
pub const POINT_ATTEMPTS: usize = 3;
/// Length of one bisection probe point.
pub const PROBE_SECONDS: f64 = 1.0;
/// Warm-up sessions of each set-up, run one at a time so set-up time is
/// work, not a schedule, and the queue's high-water mark stays untouched.
pub const WARMUP_SESSIONS: usize = 64;
/// How long a point may take to drain after its last arrival.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(10);

/// A fleetd serving on a loopback port from a thread of this process.
pub struct Daemon {
    addr: SocketAddr,
    handle: JoinHandle<io::Result<ServeSummary>>,
}

impl Daemon {
    pub fn start(stream_traces: bool) -> io::Result<Daemon> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let opts = ServeOptions {
            threads: WORKERS,
            stream_traces,
            ..ServeOptions::default()
        };
        let handle = std::thread::spawn(move || serve_listener(listener, None, &opts));
        Ok(Daemon { addr, handle })
    }

    /// Graceful drain; returns the daemon's final ledger.
    pub fn stop(self) -> io::Result<ServeSummary> {
        cosynth_fleet::loadgen::shutdown_daemon(&self.addr.to_string())?;
        self.handle
            .join()
            .map_err(|_| io::Error::other("fleetd thread panicked"))?
    }
}

/// One batch line with what preceded it on the stream.
struct Resp {
    at: Instant,
    completed: u64,
    failed: u64,
    shed: u64,
    result: Option<Json>,
    stages: Option<Stages>,
}

#[derive(Default)]
struct Inbox {
    responses: HashMap<u64, Resp>,
    metrics: Vec<Json>,
    protocol_errors: usize,
    closed: bool,
}

type Shared = Arc<(Mutex<Inbox>, Condvar)>;

fn num(v: &Json, key: &str) -> f64 {
    match v.get(key) {
        Some(Json::Num(n)) => *n,
        _ => 0.0,
    }
}

fn parse_stages(v: &Json) -> Stages {
    let mut s = [(0, 0.0); Stage::COUNT];
    if let Some(obj) = v.get("stages") {
        for stage in Stage::ALL {
            if let Some(cell) = obj.get(stage.name()) {
                s[stage.index()] = (num(cell, "count") as u64, num(cell, "ms"));
            }
        }
    }
    s
}

/// The reader: timestamps every line as it arrives and files result and
/// trace lines under the batch line that follows them (fleetd's writer
/// emits a count-1 batch's result, trace and batch lines back to back).
fn read_loop(stream: TcpStream, shared: Shared) {
    let mut pending_result: Option<Json> = None;
    let mut pending_stages: Option<Stages> = None;
    for line in BufReader::new(stream).lines() {
        let at = Instant::now();
        let Ok(line) = line else { break };
        let Ok(v) = json::parse(&line) else {
            shared.0.lock().unwrap().protocol_errors += 1;
            continue;
        };
        let event = v.get("event").and_then(|e| e.as_str()).map(str::to_string);
        match event.as_deref() {
            None => pending_result = Some(v),
            Some("trace") => pending_stages = Some(parse_stages(&v)),
            Some("batch") => {
                let id = v
                    .get("tag")
                    .and_then(|t| t.as_str())
                    .and_then(|t| t.strip_prefix('b'))
                    .and_then(|t| t.parse::<u64>().ok());
                let (lock, cv) = &*shared;
                let mut inbox = lock.lock().unwrap();
                match id {
                    Some(id) => {
                        inbox.responses.insert(
                            id,
                            Resp {
                                at,
                                completed: num(&v, "completed") as u64,
                                failed: num(&v, "failed") as u64,
                                shed: num(&v, "shed") as u64,
                                result: pending_result.take(),
                                stages: pending_stages.take(),
                            },
                        );
                    }
                    None => inbox.protocol_errors += 1,
                }
                cv.notify_all();
            }
            Some("metrics") => {
                let (lock, cv) = &*shared;
                lock.lock().unwrap().metrics.push(v);
                cv.notify_all();
            }
            Some("reject") if v.get("reason").and_then(|r| r.as_str()) == Some("bad_request") => {
                shared.0.lock().unwrap().protocol_errors += 1;
            }
            _ => {}
        }
    }
    let (lock, cv) = &*shared;
    lock.lock().unwrap().closed = true;
    cv.notify_all();
}

/// What one open-loop point measured.
pub struct Point {
    pub rate: f64,
    pub phase: Phase,
    /// p99 of actual-send minus scheduled-send, milliseconds.
    pub lag_p99_ms: f64,
    /// Result latency from actual send minus the session's own clock.
    pub non_session_ms: Vec<f64>,
    pub shed: u64,
    /// Every arrival answered and the daemon's queue empty afterwards.
    pub drained: bool,
    /// The `{"metrics":true}` snapshot's conservation verdict.
    pub accounted: bool,
    pub queue_depth_hwm: u64,
    pub protocol_errors: usize,
}

impl Point {
    pub fn valid(&self) -> bool {
        self.lag_p99_ms <= LAG_BOUND_MS
    }

    /// The `max_qps_at_slo` criteria.
    pub fn meets_slo(&self) -> bool {
        let p99 = stats::tail(&self.phase.latencies()).map_or(f64::INFINITY, |t| t.1);
        self.valid()
            && p99 <= SLO_P99_MS
            && self.phase.sessions_per_s() >= 0.95 * self.rate
            && self.shed == 0
            && self.drained
            && self.accounted
            && self.protocol_errors == 0
    }
}

/// One client connection: a generator (the caller's thread) and a
/// reader thread.
pub struct Client {
    out: BufWriter<TcpStream>,
    stream: TcpStream,
    shared: Shared,
    reader: Option<JoinHandle<()>>,
    next_id: u64,
    /// Request lines sent, kept when tracing (replayed through
    /// `parse_request`).
    pub sent_lines: Option<Vec<String>>,
}

impl Client {
    pub fn connect(addr: SocketAddr, keep_lines: bool) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let shared: Shared = Arc::default();
        let reader = {
            let read_half = stream.try_clone()?;
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || read_loop(read_half, shared))
        };
        Ok(Client {
            out: BufWriter::new(stream.try_clone()?),
            stream,
            shared,
            reader: Some(reader),
            next_id: 0,
            sent_lines: keep_lines.then(Vec::new),
        })
    }

    /// Half-closes and waits for the daemon to finish the connection.
    pub fn close(mut self) -> io::Result<()> {
        self.out.flush()?;
        self.stream.shutdown(Shutdown::Write)?;
        if let Some(r) = self.reader.take() {
            r.join().map_err(|_| io::Error::other("reader panicked"))?;
        }
        Ok(())
    }

    /// Requests a metrics snapshot and waits for it.
    pub fn snapshot(&mut self) -> io::Result<Json> {
        let (lock, cv) = &*self.shared;
        let have = lock.lock().unwrap().metrics.len();
        writeln!(self.out, "{{\"metrics\":true}}")?;
        self.out.flush()?;
        let mut inbox = lock.lock().unwrap();
        let until = Instant::now() + Duration::from_secs(10);
        while inbox.metrics.len() == have && !inbox.closed {
            let left = until.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Err(io::Error::other("no metrics snapshot within 10 s"));
            }
            inbox = cv.wait_timeout(inbox, left).unwrap().0;
        }
        inbox
            .metrics
            .last()
            .cloned()
            .ok_or_else(|| io::Error::other("connection closed before the snapshot"))
    }

    /// Queues the request line for session `key` under batch tag `b<id>`.
    fn write_request(&mut self, key: u64, id: u64) -> io::Result<()> {
        let line = format!(
            "{{\"use_case\":\"synthesis\",\"seed\":{key},\"count\":1,\"families\":\"{}\",\"tag\":\"b{id}\"}}",
            synth_family(key)
        );
        writeln!(self.out, "{line}")?;
        if let Some(lines) = self.sent_lines.as_mut() {
            lines.push(line);
        }
        Ok(())
    }

    /// Waits up to [`DRAIN_TIMEOUT`] for the batch lines of `ids` and
    /// takes them (`None` for a request never answered).
    fn take_responses(&self, ids: std::ops::Range<u64>) -> Vec<Option<Resp>> {
        let (lock, cv) = &*self.shared;
        let mut inbox = lock.lock().unwrap();
        let until = Instant::now() + DRAIN_TIMEOUT;
        loop {
            let answered = ids
                .clone()
                .filter(|id| inbox.responses.contains_key(id))
                .count();
            let left = until.saturating_duration_since(Instant::now());
            if answered == ids.end.saturating_sub(ids.start) as usize
                || inbox.closed
                || left.is_zero()
            {
                break;
            }
            inbox = cv.wait_timeout(inbox, left).unwrap().0;
        }
        ids.map(|id| inbox.responses.remove(&id)).collect()
    }

    /// Runs `n` sessions one at a time (closed loop, one outstanding);
    /// returns how many did not converge.
    pub fn warm_up(&mut self, n: usize, key_of: &dyn Fn(usize) -> u64) -> io::Result<usize> {
        let mut failed = 0;
        for k in 0..n {
            let id = self.next_id;
            self.next_id += 1;
            self.write_request(key_of(k), id)?;
            self.out.flush()?;
            let resp = self.take_responses(id..id + 1).pop().flatten();
            let converged = resp.is_some_and(|r| {
                r.completed == 1
                    && r.result
                        .as_ref()
                        .and_then(|v| v.get("converged"))
                        .and_then(|c| c.as_bool())
                        == Some(true)
            });
            failed += usize::from(!converged);
        }
        Ok(failed)
    }

    /// Offers `rate` requests per second for `seconds`; arrival `k` asks
    /// for session `key_of(k)`. Arrivals run from their scheduled time:
    /// a generator that fell behind sends what is due at once.
    pub fn run_point(
        &mut self,
        rate: f64,
        seconds: f64,
        key_of: &dyn Fn(usize) -> u64,
        oracle: Option<&Oracle>,
        tracer: Option<&Tracer>,
    ) -> io::Result<Point> {
        let n = ((rate * seconds).round() as usize).max(1);
        let interval = Duration::from_secs_f64(1.0 / rate);
        let first_id = self.next_id;
        self.next_id += n as u64;
        let usage = Usage::now();
        let t0 = Instant::now() + Duration::from_millis(1);
        let mut due = Vec::with_capacity(n);
        let mut sent = Vec::with_capacity(n);
        let mut k = 0;
        while k < n {
            let next_due = t0 + interval.mul_f64(k as f64);
            if let Some(wait) = next_due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            // Send everything due by now, then flush once.
            let now = Instant::now();
            while k < n {
                let d = t0 + interval.mul_f64(k as f64);
                if d > now {
                    break;
                }
                self.write_request(key_of(k), first_id + k as u64)?;
                due.push(d);
                sent.push(Instant::now());
                k += 1;
            }
            self.out.flush()?;
        }

        let responses = self.take_responses(first_id..first_id + n as u64);
        let (cpu_s, steal_share, steal_s) = Usage::since(usage);
        let snap = self.snapshot()?;
        let reg = snap.get("registry").cloned().unwrap_or(Json::Null);
        let protocol_errors = std::mem::take(&mut self.shared.0.lock().unwrap().protocol_errors);

        let mut samples = Vec::with_capacity(n);
        let mut non_session_ms = Vec::with_capacity(n);
        let mut lags = Vec::with_capacity(n);
        let mut shed = 0;
        let mut unanswered_count = 0;
        let (mut first_at, mut last_at): (Option<Instant>, Option<Instant>) = (None, None);
        for (i, resp) in responses.into_iter().enumerate() {
            let key = key_of(i);
            lags.push(sent[i].duration_since(due[i]).as_secs_f64() * 1e3);
            let Some(resp) = resp else {
                unanswered_count += 1;
                samples.push(unanswered(key));
                continue;
            };
            first_at = Some(first_at.map_or(resp.at, |f| f.min(resp.at)));
            last_at = Some(last_at.map_or(resp.at, |l| l.max(resp.at)));
            shed += resp.shed;
            let latency_ms = resp.at.saturating_duration_since(due[i]).as_secs_f64() * 1e3;
            let call_ms = resp.at.saturating_duration_since(sent[i]).as_secs_f64() * 1e3;
            let content = resp.result.as_ref().map(|r| Content {
                ok: r.get("converged").and_then(|c| c.as_bool()) == Some(true)
                    && r.get("outcome").and_then(|o| o.as_str()) == Some("completed"),
                rounds: num(r, "sim_rounds") as u64,
                localized: false,
                auto: num(r, "auto") as u64,
                human: num(r, "human") as u64,
                llm_calls: num(r, "llm_calls") as u64,
                milli_cost: num(r, "milli_cost") as u64,
            });
            let wall_ms = resp.result.as_ref().map_or(0.0, |r| num(r, "wall_ms"));
            let batch_ok = resp.completed == 1 && resp.failed == 0 && resp.shed == 0;
            let ok = batch_ok
                && match (&content, oracle) {
                    (Some(c), Some(o)) => o.matches(key, c),
                    (Some(c), None) => c.ok,
                    (None, _) => false,
                };
            if content.is_some() {
                non_session_ms.push(call_ms - wall_ms);
            }
            if let Some(tr) = tracer {
                let root = tr.record(
                    "request",
                    due[i],
                    resp.at,
                    None,
                    first_id + i as u64,
                    format!(
                        "\"key\":{key},\"ok\":{ok},\"lag_ms\":{:.4},\"wall_ms\":{wall_ms:.2}",
                        lags[i]
                    ),
                );
                if let Some(st) = &resp.stages {
                    tr.record(
                        "trace_line",
                        resp.at,
                        resp.at,
                        Some(root),
                        first_id + i as u64,
                        stages_attr(st),
                    );
                }
            }
            samples.push(Sample {
                key,
                ok,
                latency_ms,
                call_ms,
                wall_ms,
                content,
                stages: resp.stages,
                space: None,
            });
        }
        let window_s = match (first_at, last_at) {
            (Some(f), Some(l)) => l.duration_since(f).as_secs_f64() + 1.0 / rate,
            _ => seconds,
        };
        let lag_p99_ms = stats::percentile(&lags, 99.0);
        Ok(Point {
            rate,
            phase: Phase {
                samples,
                window_s,
                cpu_s,
                steal_share,
                steal_s,
            },
            lag_p99_ms,
            non_session_ms,
            shed,
            drained: unanswered_count == 0
                && num(&reg, "queue_depth") == 0.0
                && num(&reg, "in_flight_sessions") == 0.0,
            accounted: snap.get("accounted").and_then(|a| a.as_bool()) == Some(true),
            queue_depth_hwm: num(&reg, "queue_depth_hwm") as u64,
            protocol_errors,
        })
    }

    /// [`Self::run_point`], re-run while the generator lagged past
    /// [`LAG_BOUND_MS`], up to [`POINT_ATTEMPTS`] times. Returns the last
    /// attempt and how many were invalid.
    pub fn run_valid_point(
        &mut self,
        rate: f64,
        seconds: f64,
        key_of: &dyn Fn(usize) -> u64,
        oracle: Option<&Oracle>,
    ) -> io::Result<(Point, usize)> {
        let mut invalid = 0;
        loop {
            let p = self.run_point(rate, seconds, key_of, oracle, None)?;
            if p.valid() || invalid + 1 >= POINT_ATTEMPTS {
                let invalid = invalid + usize::from(!p.valid());
                return Ok((p, invalid));
            }
            invalid += 1;
        }
    }
}

fn unanswered(key: u64) -> Sample {
    Sample {
        key,
        ok: false,
        latency_ms: f64::INFINITY,
        call_ms: 0.0,
        wall_ms: 0.0,
        content: None,
        stages: None,
        space: None,
    }
}

/// One set-up: a fleetd up, a connection open, and the warm-up sessions
/// run on keys outside the committed stream.
pub fn setup(stream_traces: bool, keep_lines: bool) -> io::Result<(Daemon, Client)> {
    let daemon = Daemon::start(stream_traces)?;
    let mut client = Client::connect(daemon.addr, keep_lines)?;
    let failed = client.warm_up(WARMUP_SESSIONS, &|k| {
        crate::workload::Workload::ServeSynth.warmup_key(k)
    })?;
    if failed > 0 {
        return Err(io::Error::other(format!(
            "{failed} of {WARMUP_SESSIONS} warm-up sessions failed"
        )));
    }
    if let Some(lines) = client.sent_lines.as_mut() {
        lines.clear();
    }
    Ok((daemon, client))
}
