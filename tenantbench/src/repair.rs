//! repair-warm and repair-cold: two closed-loop threads, each owning one
//! resident `VerifierContext`, calling
//! `cosynth_fleet::cases::run_repair_session_tuned` — the call a fleetd
//! worker makes per job.

use crate::layers::{stages_attr, PoolView, Tracer};
use crate::oracle::{Content, Oracle};
use crate::workload::{stages_of, Phase, Sample, Stream, Usage, Workload};
use cosynth::VerifierContext;
use cosynth_fleet::cases;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::time::{Duration, Instant};

/// Closed-loop threads (one context each).
pub const THREADS: usize = 2;
/// Warm-up sessions per thread before the first measured call.
pub const WARMUP_PER_THREAD: usize = 8;

/// Builds the contexts and runs the warm-up pass on warm-up keys, which
/// lie outside the measured stream. Panics if a warm-up session fails:
/// the workload is then broken, not slow.
pub fn setup(workload: Workload) -> Vec<VerifierContext> {
    let tuning = workload.tuning();
    let mut contexts: Vec<VerifierContext> = (0..THREADS).map(|_| VerifierContext::new()).collect();
    std::thread::scope(|s| {
        for (t, ctx) in contexts.iter_mut().enumerate() {
            s.spawn(move || {
                for j in 0..WARMUP_PER_THREAD {
                    let (seed, index) =
                        workload.session_of(workload.warmup_key(t * WARMUP_PER_THREAD + j));
                    let r = cases::run_repair_session_tuned(seed, index, ctx, &tuning);
                    assert!(r.repaired, "warm-up session {seed}/{index} did not repair");
                }
            });
        }
    });
    contexts
}

/// Runs the stream from position `*next` for `seconds` on the contexts
/// (every thread stops taking work at the deadline, or when the stream's
/// keys are used up — no key runs twice), checking each session against
/// the oracle. With a tracer, records one span per call.
pub fn measure(
    workload: Workload,
    contexts: &mut [VerifierContext],
    stream: &Stream,
    next: &AtomicUsize,
    seconds: f64,
    oracle: &Oracle,
    tracer: Option<&Tracer>,
) -> Phase {
    let tuning = workload.tuning();
    let usage = Usage::now();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let per_thread: Vec<(Vec<Sample>, Instant)> = std::thread::scope(|s| {
        let handles: Vec<_> = contexts
            .iter_mut()
            .map(|ctx| {
                s.spawn(move || {
                    let mut out = Vec::new();
                    while Instant::now() < deadline {
                        let j = next.fetch_add(1, Relaxed);
                        if j >= stream.len() {
                            break;
                        }
                        let key = stream.key(j);
                        let (seed, index) = workload.session_of(key);
                        let t0 = Instant::now();
                        let r = catch_unwind(AssertUnwindSafe(|| {
                            cases::run_repair_session_tuned(seed, index, ctx, &tuning)
                        }));
                        let t1 = Instant::now();
                        let call_ms = t1.duration_since(t0).as_secs_f64() * 1e3;
                        let sample = match r {
                            Ok(r) => {
                                let content = Content::of_repair(&r);
                                Sample {
                                    key,
                                    ok: oracle.matches(key, &content),
                                    latency_ms: call_ms,
                                    call_ms,
                                    wall_ms: r.wall_ms,
                                    content: Some(content),
                                    stages: Some(stages_of(&r.trace)),
                                    space: Some((r.space_hits as u64, r.space_misses as u64)),
                                }
                            }
                            Err(_) => {
                                // A panicked session poisons its managers.
                                ctx.quarantine();
                                Sample {
                                    key,
                                    ok: false,
                                    latency_ms: call_ms,
                                    call_ms,
                                    wall_ms: 0.0,
                                    content: None,
                                    stages: None,
                                    space: None,
                                }
                            }
                        };
                        if let Some(tr) = tracer {
                            let attrs = sample.stages.as_ref().map_or(String::new(), |st| {
                                format!(
                                    "\"ok\":{},\"wall_ms\":{:.4},{}",
                                    sample.ok,
                                    sample.wall_ms,
                                    stages_attr(st)
                                )
                            });
                            tr.record("session", t0, t1, None, key, attrs);
                        }
                        out.push(sample);
                    }
                    (out, Instant::now())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("closed-loop thread"))
            .collect()
    });
    // The window ends when the last thread finishes its last call.
    let last = per_thread.iter().map(|(_, t)| *t).max().unwrap_or(start);
    let (cpu_s, steal_share, steal_s) = Usage::since(usage);
    Phase {
        samples: per_thread.into_iter().flat_map(|(s, _)| s).collect(),
        window_s: last.duration_since(start).as_secs_f64(),
        cpu_s,
        steal_share,
        steal_s,
    }
}

/// Pool counters summed over the contexts.
pub fn pool_view(contexts: &[VerifierContext]) -> PoolView {
    contexts
        .iter()
        .fold(PoolView::default(), |acc, c| PoolView {
            allocs: acc.allocs + c.pool.allocs as u64,
            reuses: acc.reuses + c.pool.reuses as u64,
            peak_nodes: acc.peak_nodes.max(c.pool.peak_nodes as u64),
        })
}
