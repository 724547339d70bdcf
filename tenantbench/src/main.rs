//! `tenantbench` — the repository's benchmark of the tenant path.
//!
//! Three workloads drive public entry points of the system:
//!
//! * `serve-synth` — open-loop count-1 synthesis requests against an
//!   in-process fleetd (`cosynth_fleet::serve_listener`) over loopback.
//! * `repair-warm` — two closed-loop threads calling
//!   `cosynth_fleet::cases::run_repair_session_tuned` on one
//!   `as-graph-256` network with distinct session indices.
//! * `repair-cold` — the same call on a fresh network every session.
//!
//! ```text
//! tenantbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! tenantbench --all [--runs 3] [--seconds 10] [--seed 1]
//! tenantbench --gen-oracle <name>
//! tenantbench --host-probe
//! ```
//!
//! A run prints its metrics by name with their units, then as its last
//! line one JSON object: `{"correct", "attempted", "failed", "metrics"}`.
//! `--trace 0` reports the end-to-end metrics; `--trace 1` reports the
//! per-layer metrics of a traced run (and writes its spans to
//! `tenantbench/out/`). Every session is checked against the committed
//! content oracle (`tenantbench/oracle/`); a mismatch is a failed
//! session. The repair workloads report their times at a reference host
//! speed, timed by the `--host-probe` helper process (see `hostspeed`).

mod hostspeed;
mod layers;
mod oracle;
mod repair;
mod serve;
mod stats;
mod workload;

use hostspeed::HostSpeed;
use layers::{metric, Metric, PoolView, Tracer};
use oracle::Oracle;
use std::fmt::Write as _;
use std::io::{self, Write as _};
use std::path::PathBuf;
use std::sync::atomic::AtomicUsize;
use std::time::Instant;
use workload::{Phase, Stream, Workload};

/// The seed kept out of every tuning run, recorded for later claims: a
/// performance claim is re-checked on it before it is believed.
const HELD_OUT_SEED: u64 = 7919;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Length of a measured repair block: the window is measured in blocks,
/// with the host-speed kernels timed before each block and after the
/// last.
const BLOCK_SECONDS: f64 = 2.0;
/// Keys replayed layer by layer in a traced run.
const REPLAY_KEYS: usize = 32;
/// Request lines replayed through `parse_request` in a traced run.
const PARSE_REPLAYS: usize = 512;

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    gen_oracle: Option<Workload>,
    all: bool,
    runs: usize,
    host_probe: bool,
}

const USAGE: &str = "usage: tenantbench --workload <serve-synth|repair-warm|repair-cold> \
--seed <n> --seconds <s> --trace <0|1>\n       tenantbench --all [--runs <n>] [--seconds <s>] [--seed <n>]\n       \
tenantbench --gen-oracle <workload>\n       \
tenantbench --host-probe   (the host-speed helper a repair run starts)";

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
        gen_oracle: None,
        all: false,
        runs: 3,
        host_probe: false,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let value = |i: usize| -> Result<&str, String> {
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{} needs a value", argv[i]))
    };
    let workload = |s: &str| Workload::parse(s).ok_or_else(|| format!("unknown workload {s:?}"));
    let number = |s: &str| s.parse::<f64>().map_err(|e| format!("{s:?}: {e}"));
    while i < argv.len() {
        match argv[i].as_str() {
            "--workload" => a.workload = Some(workload(value(i)?)?),
            "--seed" => a.seed = value(i)?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => a.seconds = number(value(i)?)?,
            "--trace" => a.trace = value(i)? == "1",
            "--gen-oracle" => a.gen_oracle = Some(workload(value(i)?)?),
            "--runs" => a.runs = number(value(i)?)? as usize,
            "--all" => {
                a.all = true;
                i += 1;
                continue;
            }
            "--host-probe" => {
                a.host_probe = true;
                i += 1;
                continue;
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
        i += 2;
    }
    if a.seconds.is_nan() || a.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    if a.workload.is_none() && a.gen_oracle.is_none() && !a.all && !a.host_probe {
        return Err("no workload given".into());
    }
    Ok(a)
}

fn main() {
    let process_start = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("tenantbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let result = if args.host_probe {
        hostspeed::serve_probes()
    } else if let Some(w) = args.gen_oracle {
        gen_oracle(w)
    } else if args.all {
        run_all(&args)
    } else {
        run(args.workload.unwrap(), &args, process_start)
    };
    if let Err(e) = result {
        eprintln!("tenantbench: {e}");
        std::process::exit(1);
    }
}

fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn gen_oracle(w: Workload) -> io::Result<()> {
    let t0 = Instant::now();
    let text = oracle::generate(w).map_err(io::Error::other)?;
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("oracle")
        .join(format!("{}.txt", w.name()));
    std::fs::write(&path, text)?;
    println!(
        "wrote {} ({} entries, cross-checked against full re-verification) in {:.1} s",
        path.display(),
        workload::Stream::all_keys(w).len(),
        t0.elapsed().as_secs_f64()
    );
    Ok(())
}

/// `VmHWM` of this process — the process running the program — in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The host block of the provenance record.
fn host_json() -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let rustc = std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    // The checkout's commit, when it is a git work tree.
    let git_rev = std::fs::read_to_string(".git/HEAD")
        .ok()
        .and_then(|head| match head.trim().strip_prefix("ref: ") {
            Some(r) => std::fs::read_to_string(format!(".git/{r}")).ok(),
            None => Some(head),
        })
        .map(|r| r.trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "{{\"nproc\":{nproc},\"rustc\":{},\"cpu\":{},\"git_rev\":{}}}",
        topo_model::json::quote(&rustc),
        topo_model::json::quote(&cpu),
        topo_model::json::quote(&git_rev)
    )
}

fn params_json(w: Workload, stream: &Stream, oracle: &Oracle) -> String {
    let shape = match w {
        Workload::ServeSynth => format!(
            "\"offered_qps\":{},\"workers\":{},\"families\":\"six small families in rotation\",\
             \"probe_seconds\":{},\"lag_bound_ms\":{}",
            serve::OFFERED_QPS,
            serve::WORKERS,
            serve::PROBE_SECONDS,
            serve::LAG_BOUND_MS
        ),
        _ => format!(
            "\"family\":\"{}\",\"threads\":{},\"warmup_per_thread\":{}",
            workload::REPAIR_FAMILY,
            repair::THREADS,
            repair::WARMUP_PER_THREAD
        ),
    };
    format!(
        "{{{shape},\"stream_start\":{},\"oracle_entries\":{},\"setups\":{SETUPS}}}",
        stream.key(0),
        oracle.len()
    )
}

fn json_num(v: f64) -> String {
    // JSON has no infinity; a run that produces one has failed anyway.
    if v.is_finite() {
        format!("{v}")
    } else {
        "1e12".into()
    }
}

/// Everything a run reports.
struct Report {
    workload: Workload,
    trace: bool,
    correct: bool,
    attempted: usize,
    failed: usize,
    /// The metrics of the last JSON line.
    metrics: Vec<Metric>,
    /// Printed, not part of the JSON line: workload-specific metrics,
    /// checks and notes.
    notes: Vec<String>,
}

impl Report {
    fn print(&self, seed: u64, params: &str) -> io::Result<()> {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "tenantbench {} seed {seed} ({} run)",
            self.workload.name(),
            if self.trace { "traced" } else { "untraced" }
        );
        for m in &self.metrics {
            let _ = writeln!(out, "  {:<32} {:>14.4} {}", m.name, m.value, m.unit);
        }
        for n in &self.notes {
            let _ = writeln!(out, "  {n}");
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                    m.name,
                    json_num(m.value),
                    m.unit
                )
            })
            .collect();
        let host = host_json();
        let notes: Vec<String> = self
            .notes
            .iter()
            .map(|n| topo_model::json::quote(n))
            .collect();
        let record = format!(
            "{{\"workload\":\"{}\",\"seed\":{seed},\"held_out_seed\":{HELD_OUT_SEED},\"trace\":{},\
             \"host\":{},\"params\":{},\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}},\
             \"notes\":[{}]}}",
            self.workload.name(),
            self.trace,
            host,
            params,
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(","),
            notes.join(",")
        );
        let _ = writeln!(
            out,
            "  provenance: host {host}; params {params}; held-out seed {HELD_OUT_SEED}; record appended to {}",
            out_dir().join("runs.jsonl").display()
        );
        std::fs::create_dir_all(out_dir())?;
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(out_dir().join("runs.jsonl"))?;
        writeln!(f, "{record}")?;
        let _ = writeln!(
            out,
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(",")
        );
        let mut stdout = io::stdout().lock();
        stdout.write_all(out.as_bytes())?;
        stdout.flush()
    }
}

/// Blocks in a window of `seconds`.
fn blocks(seconds: f64) -> usize {
    ((seconds / BLOCK_SECONDS).round() as usize).max(1)
}

/// How a workload's timed metrics are freed of the shared host's drift.
/// The raw figures are printed beside the corrected ones.
enum Drift<'a> {
    /// Closed loop, cores busy: the session CPU time drifts with the
    /// host's speed, so times and the session rate are read at the
    /// reference speed (see [`hostspeed`]).
    Scaled(&'a HostSpeed),
    /// Open loop, cores mostly idle: the hypervisor's delay in running a
    /// vCPU that wakes for an arrival (its steal time, 1–14% of the
    /// window across runs) set serve-synth's latency, while CPU time per
    /// session held. So `latency_ms_p50` is net of steal: the p50 minus
    /// the window's steal per session. (Three sets of ten 30 s runs: p50
    /// spread 0.28, 0.13 and 0.16 of the median as measured, 0.03, 0.12
    /// and 0.11 net of steal; scaling by the kernels, which time busy
    /// cores, widened it.) Extra wake-ups a change adds show here only as
    /// far as they add CPU time.
    NetOfSteal,
}

/// The end-to-end metrics every workload reports.
fn end_to_end(
    phase: &Phase,
    setup_s: &[f64],
    drift: Drift,
    notes: &mut Vec<String>,
) -> io::Result<Vec<Metric>> {
    let lat = phase.latencies();
    let (pct, p99) = stats::tail(&lat).ok_or_else(|| {
        io::Error::other(format!(
            "{} sessions are too few for a tail percentile",
            lat.len()
        ))
    })?;
    let leverage = phase
        .leverage()
        .ok_or_else(|| io::Error::other("no human prompts: leverage is undefined"))?;
    // The tail is reported, not gated: on a shared 2-core host it is set
    // by host stalls of tens of milliseconds, and its run-to-run spread
    // (p99 up to 0.6, p90 0.2 of the median across seeds) exceeds any
    // usable bound.
    notes.push(format!(
        "latency_ms_p99 {p99:.4} ms = p{pct:.2} ({} sessions, {} beyond it); latency_ms_p90 {:.4} ms \
         (tail: reported, not gated)",
        lat.len(),
        lat.iter().filter(|&&x| x > p99).count(),
        stats::percentile(&lat, 90.0)
    ));
    if let Some([q1, q2, q3]) = stats::quartiles(&lat) {
        notes.push(format!(
            "latency quartiles ms: {q1:.3} {q2:.3} {q3:.3}; setup_s raw: {setup_s:?}"
        ));
    }
    notes.push(format!(
        "failed_share {:.4} ({} of {} sessions); host steal {:.1}% of CPU time during the window",
        phase.failed() as f64 / phase.attempted().max(1) as f64,
        phase.failed(),
        phase.attempted(),
        100.0 * phase.steal_share
    ));
    let setup_raw = stats::p50(setup_s).unwrap_or(f64::INFINITY);
    let raw_p50 = phase.latency_p50();
    let (f, latency_p50) = match drift {
        Drift::Scaled(speed) => (speed.factor(), raw_p50 * speed.factor()),
        Drift::NetOfSteal => (1.0, raw_p50 - phase.steal_ms_per_session()),
    };
    if let Drift::Scaled(speed) = drift {
        let kernels: Vec<String> = hostspeed::KERNELS
            .iter()
            .zip(speed.medians_ms())
            .zip(hostspeed::NOMINAL_MS)
            .map(|((k, m), n)| format!("{k} {m:.3}/{n}"))
            .collect();
        notes.push(format!(
            "host speed: kernel medians/nominal ms {} over {} probes, times scaled by {f:.4}; \
             as measured: setup_s {setup_raw:.4} s, sessions_per_s {:.3} 1/s, cpu_ms_per_session {:.4} ms, \
             latency_ms_p50 {:.4} ms",
            kernels.join(", "),
            speed.probes(),
            phase.sessions_per_s(),
            phase.cpu_ms_per_session(),
            raw_p50
        ));
    } else {
        notes.push(format!(
            "latency_ms_p50 net of steal: {raw_p50:.4} ms as measured, minus {:.4} ms of steal per session",
            phase.steal_ms_per_session()
        ));
    }
    Ok(vec![
        metric("setup_s", setup_raw * f, "s"),
        metric("sessions_per_s", phase.sessions_per_s() / f, "1/s"),
        metric("cpu_ms_per_session", phase.cpu_ms_per_session() * f, "ms"),
        metric("latency_ms_p50", latency_p50, "ms"),
        metric(
            "milli_cost_per_session",
            phase.milli_cost_per_session(),
            "milli-cost",
        ),
        metric("leverage", leverage, "ratio"),
        metric("peak_rss_mb", peak_rss_mb(), "MiB"),
    ])
}

fn run(w: Workload, args: &Args, process_start: Instant) -> io::Result<()> {
    let oracle = Oracle::committed(w);
    let stream = Stream::new(w, args.seed);
    let params = params_json(w, &stream, &oracle);
    let report = match (w, args.trace) {
        (Workload::ServeSynth, false) => {
            serve_untraced(&stream, &oracle, args.seconds, process_start)?
        }
        (Workload::ServeSynth, true) => serve_traced(&stream, &oracle, args, process_start)?,
        (_, false) => repair_untraced(w, &stream, &oracle, args.seconds, process_start)?,
        (_, true) => repair_traced(w, &stream, &oracle, args, process_start)?,
    };
    report.print(args.seed, &params)
}

fn serve_untraced(
    stream: &Stream,
    oracle: &Oracle,
    seconds: f64,
    process_start: Instant,
) -> io::Result<Report> {
    let mut setup_s = Vec::new();
    let mut live = None;
    for rep in 0..SETUPS {
        let t = if rep == 0 {
            process_start
        } else {
            Instant::now()
        };
        let (daemon, client) = serve::setup(false, false)?;
        setup_s.push(t.elapsed().as_secs_f64());
        if rep + 1 < SETUPS {
            client.close()?;
            daemon.stop()?;
        } else {
            live = Some((daemon, client));
        }
    }
    let (daemon, mut client) = live.unwrap();
    let mut notes = Vec::new();
    let mut pos = 0usize;
    let (fixed, invalid) = client.run_valid_point(
        serve::OFFERED_QPS,
        seconds,
        &|k| stream.key(k),
        Some(oracle),
    )?;
    pos += fixed.phase.attempted();
    if !fixed.valid() {
        return Err(io::Error::other(format!(
            "the generator lagged {:.2} ms at p99 (bound {} ms) on {} attempts",
            fixed.lag_p99_ms,
            serve::LAG_BOUND_MS,
            serve::POINT_ATTEMPTS
        )));
    }
    let mut checks_ok = fixed.accounted && fixed.drained && fixed.protocol_errors == 0;

    // max_qps_at_slo: bisection on fresh points after the measured one.
    let mut probes = Vec::new();
    let mut probe_error = None;
    let mut content_mismatches = 0;
    let mut probe_sessions = 0;
    let max_qps = stats::bisect_max_rate(2.0 * serve::OFFERED_QPS, 1.05, 3, |rate| {
        if probe_error.is_some() {
            return false;
        }
        let start = pos;
        match client.run_valid_point(
            rate,
            serve::PROBE_SECONDS,
            &|k| stream.key(start + k),
            Some(oracle),
        ) {
            Ok((p, _)) => {
                pos += p.phase.attempted();
                probe_sessions += p
                    .phase
                    .samples
                    .iter()
                    .filter(|s| s.content.is_some())
                    .count();
                // Overload may shed or time out; it must never change content.
                content_mismatches += p
                    .phase
                    .samples
                    .iter()
                    .filter(|s| {
                        s.content
                            .as_ref()
                            .is_some_and(|c| !oracle.matches(s.key, c))
                    })
                    .count();
                checks_ok &= p.accounted;
                let pass = p.meets_slo();
                probes.push(format!(
                    "{rate:.1}/s:{}(p99 {:.1} ms, achieved {:.1}/s, shed {}, lag p99 {:.2} ms)",
                    if pass { "pass" } else { "fail" },
                    stats::tail(&p.phase.latencies()).map_or(f64::INFINITY, |t| t.1),
                    p.phase.sessions_per_s(),
                    p.shed,
                    p.lag_p99_ms
                ));
                pass
            }
            Err(e) => {
                probe_error = Some(e);
                false
            }
        }
    });
    if let Some(e) = probe_error {
        return Err(e);
    }
    client.close()?;
    let summary = daemon.stop()?;
    checks_ok &= summary.accounted() && summary.protocol_errors == 0;

    let metrics = end_to_end(&fixed.phase, &setup_s, Drift::NetOfSteal, &mut notes)?;
    notes.push(format!(
        "max_qps_at_slo {:.1} 1/s (p99 <= {} ms, achieved >= 95%, no sheds, drained); probes: {}",
        max_qps.unwrap_or(0.0),
        serve::SLO_P99_MS,
        probes.join(" ")
    ));
    notes.push(format!(
        "offered {} 1/s; loadgen.lag_ms_p99 {:.3} ms; invalid attempts {invalid}; \
         fleetd.queue_depth_hwm {}; accounted {}; content mismatches under overload {content_mismatches}",
        serve::OFFERED_QPS,
        fixed.lag_p99_ms,
        fixed.queue_depth_hwm,
        checks_ok
    ));
    Ok(Report {
        workload: Workload::ServeSynth,
        trace: false,
        correct: fixed.phase.failed() == 0 && checks_ok && content_mismatches == 0,
        // Probe sessions count as attempted once they ran; only a content
        // mismatch fails them (overload may shed or time out).
        attempted: fixed.phase.attempted() + probe_sessions,
        failed: fixed.phase.failed() + content_mismatches,
        metrics,
        notes,
    })
}

fn repair_untraced(
    w: Workload,
    stream: &Stream,
    oracle: &Oracle,
    seconds: f64,
    process_start: Instant,
) -> io::Result<Report> {
    let mut setup_s = Vec::new();
    let mut contexts = Vec::new();
    for rep in 0..SETUPS {
        let t = if rep == 0 {
            process_start
        } else {
            Instant::now()
        };
        contexts = repair::setup(w);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let next = AtomicUsize::new(0);
    let mut speed = HostSpeed::start()?;
    let mut phase = Phase::default();
    speed.probe(repair::THREADS)?;
    let n = blocks(seconds);
    for _ in 0..n {
        let block = repair::measure(
            w,
            &mut contexts,
            stream,
            &next,
            seconds / n as f64,
            oracle,
            None,
        );
        speed.probe(repair::THREADS)?;
        phase.absorb(block);
    }
    let mut notes = Vec::new();
    let metrics = end_to_end(&phase, &setup_s, Drift::Scaled(&speed), &mut notes)?;
    Ok(Report {
        workload: w,
        trace: false,
        correct: phase.failed() == 0,
        attempted: phase.attempted(),
        failed: phase.failed(),
        metrics,
        notes,
    })
}

fn p50(v: &[f64]) -> f64 {
    stats::p50(v).unwrap_or(0.0)
}

/// Shared tail of both traced runs: replays, per-layer metrics, the
/// split the workloads were chosen for, the span file.
#[allow(clippy::too_many_arguments)]
fn finish_traced(
    w: Workload,
    seed: u64,
    untraced: &Phase,
    traced: &Phase,
    pool: PoolView,
    tracer: &Tracer,
    mut notes: Vec<String>,
    checks_ok: bool,
) -> io::Result<Report> {
    let replay = layers::replay(w, &layers::sample_keys(traced, REPLAY_KEYS), tracer);
    let metrics = layers::common_layers(w, traced, &replay, pool, untraced);
    let value = |name: &str| {
        metrics
            .iter()
            .find(|m| m.name == name)
            .map_or(0.0, |m| m.value)
    };
    // Synthesis generates its scenario but neither renders a clean
    // snapshot nor injects a fault: on serve-synth only generation is on
    // the path (render and inject are replayed there for scale).
    let outside = match w {
        Workload::ServeSynth => p50(&replay.generate_ms),
        _ => p50(&replay.generate_ms) + p50(&replay.render_ms) + p50(&replay.inject_ms),
    };
    let untraced_p50 = untraced.latency_p50();
    notes.push(format!(
        "trace.residual_share overlap flag: {}",
        if layers::residual_overlaps(w) {
            "overlapping (localize wraps parse and space; its own time is in the residual)"
        } else {
            "none"
        }
    ));
    notes.push(format!(
        "tracing overhead: latency_ms_p50 {:.4} traced vs {:.4} untraced; sessions_per_s {:.2} vs {:.2}",
        traced.latency_p50(),
        untraced_p50,
        traced.sessions_per_s(),
        untraced.sessions_per_s()
    ));
    let session_layers = value("llm_sim.busy_ms_per_session")
        + value("parse.busy_ms_per_session")
        + value("sim.busy_ms_per_session");
    let mean_wall =
        traced.samples.iter().map(|s| s.wall_ms).sum::<f64>() / traced.attempted().max(1) as f64;
    notes.push(format!(
        "split: on-path generate/render/inject p50 {outside:.3} ms = {:.1}% of untraced latency_ms_p50 {untraced_p50:.3} ms; \
         llm_sim+parse+sim {session_layers:.3} ms = {:.1}% of the mean session clock {mean_wall:.3} ms",
        100.0 * outside / untraced_p50,
        100.0 * session_layers / mean_wall.max(1e-9)
    ));
    notes.push(
        "not measurable from outside: VerdictMemo hit/miss/eviction counters are pub(crate) \
         (the memo's share stays inside the residual)"
            .into(),
    );
    let path = out_dir().join(format!("spans-{}-s{seed}.jsonl", w.name()));
    tracer.write(&path)?;
    notes.push(format!(
        "{} spans written to {}",
        tracer.len(),
        path.display()
    ));
    let failed = untraced.failed() + traced.failed();
    Ok(Report {
        workload: w,
        trace: true,
        correct: failed == 0 && checks_ok,
        attempted: untraced.attempted() + traced.attempted(),
        failed,
        metrics,
        notes,
    })
}

fn repair_traced(
    w: Workload,
    stream: &Stream,
    oracle: &Oracle,
    args: &Args,
    process_start: Instant,
) -> io::Result<Report> {
    let mut contexts = repair::setup(w);
    let next = AtomicUsize::new(0);
    let half = args.seconds / 2.0;
    let untraced = repair::measure(w, &mut contexts, stream, &next, half, oracle, None);
    let tracer = Tracer::new(process_start);
    let traced = repair::measure(w, &mut contexts, stream, &next, half, oracle, Some(&tracer));
    let notes = vec![format!(
        "localize.busy_ms_per_session {:.4} ms (overlaps parse and space); \
         check.busy_ms_per_session: not recorded on the repair path",
        layers::stage_ms_per_session(&traced, telemetry::Stage::Localize)
    )];
    finish_traced(
        w,
        args.seed,
        &untraced,
        &traced,
        repair::pool_view(&contexts),
        &tracer,
        notes,
        true,
    )
}

fn serve_traced(
    stream: &Stream,
    oracle: &Oracle,
    args: &Args,
    process_start: Instant,
) -> io::Result<Report> {
    let half = args.seconds / 2.0;
    let (daemon, mut client) = serve::setup(false, false)?;
    let (untraced, _) =
        client.run_valid_point(serve::OFFERED_QPS, half, &|k| stream.key(k), Some(oracle))?;
    client.close()?;
    daemon.stop()?;

    let tracer = Tracer::new(process_start);
    let (daemon, mut client) = serve::setup(true, true)?;
    let traced = client.run_point(
        serve::OFFERED_QPS,
        half,
        &|k| stream.key(k),
        Some(oracle),
        Some(&tracer),
    )?;
    let lines = client.sent_lines.take().unwrap_or_default();
    client.close()?;
    let summary = daemon.stop()?;

    let mut parse_us = Vec::new();
    for line in lines.iter().take(PARSE_REPLAYS) {
        let t0 = Instant::now();
        let parsed = cosynth_fleet::service::parse_request(line);
        let t1 = Instant::now();
        if parsed.is_err() {
            return Err(io::Error::other(format!(
                "request line does not parse: {line}"
            )));
        }
        parse_us.push(t1.duration_since(t0).as_secs_f64() * 1e6);
        tracer.record("parse_request", t0, t1, None, 0, String::new());
    }
    let non_session_p99 = stats::tail(&traced.non_session_ms).map_or(f64::INFINITY, |t| t.1);
    let notes = vec![
        format!(
            "fleetd.non_session_ms_p50 {:.4} ms; fleetd.non_session_ms_p99 {non_session_p99:.4} ms",
            p50(&traced.non_session_ms)
        ),
        format!(
            "fleetd.queue_depth_hwm {}; fleetd.parse_request_us_p50 {:.3} us; loadgen.lag_ms_p99 {:.4} ms (valid: {})",
            traced.queue_depth_hwm,
            p50(&parse_us),
            traced.lag_p99_ms,
            traced.valid()
        ),
        format!(
            "check.busy_ms_per_session {:.4} ms; localize.busy_ms_per_session: synthesis does not localize",
            layers::stage_ms_per_session(&traced.phase, telemetry::Stage::Check)
        ),
    ];
    let checks_ok = [&untraced, &traced]
        .iter()
        .all(|p| p.accounted && p.drained && p.protocol_errors == 0)
        && summary.accounted()
        && traced.valid();
    let pool = PoolView {
        allocs: summary.pool.manager_allocs as u64,
        reuses: summary.pool.manager_reuses as u64,
        peak_nodes: summary.pool.peak_nodes as u64,
    };
    finish_traced(
        Workload::ServeSynth,
        args.seed,
        &untraced.phase,
        &traced.phase,
        pool,
        &tracer,
        notes,
        checks_ok,
    )
}

/// `--all`: every workload, `--runs` untraced runs each on consecutive
/// seeds, each run in its own process; prints one row per workload and
/// metric with its median, quartiles and raw values.
fn run_all(args: &Args) -> io::Result<()> {
    let exe = std::env::current_exe()?;
    println!("host {}", host_json());
    println!("held-out seed {HELD_OUT_SEED} (not used here; re-check claims on it)");
    println!(
        "{:<12} {:<24} {:>12} {:>12} {:>12}  {:<10} raw",
        "workload", "metric", "median", "q1", "q3", "unit"
    );
    let mut all_ok = true;
    for w in Workload::ALL {
        let mut values: Vec<(String, String, Vec<f64>)> = Vec::new();
        for r in 0..args.runs {
            let out = std::process::Command::new(&exe)
                .args(["--workload", w.name(), "--trace", "0"])
                .args(["--seed", &(args.seed + r as u64).to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .output()?;
            let text = String::from_utf8_lossy(&out.stdout);
            let last = text.lines().last().unwrap_or("");
            let v = topo_model::json::parse(last)
                .map_err(|e| io::Error::other(format!("{}: no result line ({e})", w.name())))?;
            all_ok &=
                out.status.success() && v.get("correct").and_then(|c| c.as_bool()) == Some(true);
            if let Some(topo_model::json::Json::Obj(ms)) = v.get("metrics") {
                for (name, m) in ms {
                    let x = match m.get("value") {
                        Some(topo_model::json::Json::Num(n)) => *n,
                        _ => f64::NAN,
                    };
                    let unit = m
                        .get("unit")
                        .and_then(|u| u.as_str())
                        .unwrap_or("")
                        .to_string();
                    match values.iter_mut().find(|(n, _, _)| n == name) {
                        Some((_, _, xs)) => xs.push(x),
                        None => values.push((name.clone(), unit, vec![x])),
                    }
                }
            }
        }
        for (name, unit, xs) in &values {
            let med = stats::p50(xs).unwrap_or(f64::NAN);
            let [q1, _, q3] = stats::quartiles(xs).unwrap_or([f64::NAN; 3]);
            let raw: Vec<String> = xs.iter().map(|x| format!("{x:.4}")).collect();
            println!(
                "{:<12} {:<24} {med:>12.4} {q1:>12.4} {q3:>12.4}  {unit:<10} {}",
                w.name(),
                name,
                raw.join(" ")
            );
        }
    }
    if all_ok {
        Ok(())
    } else {
        Err(io::Error::other("a run failed or was not correct"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The committed oracle with stream position 0's entry mutated.
    fn mutated(w: Workload, stream: &Stream) -> Oracle {
        let mut o = Oracle::committed(w);
        let key = stream.key(0);
        let (seed, index) = w.session_of(key);
        let mut ctx = cosynth::VerifierContext::new();
        let mut c = oracle::run_content(w, key, &mut ctx, &w.tuning());
        assert!(
            o.matches(key, &c),
            "committed entry {seed}/{index} is current"
        );
        c.milli_cost += 1;
        o.set(key, c);
        o
    }

    /// `(name, unit)` pairs of one metric list of `BENCHMARK.json`.
    fn declared(list: &str) -> Vec<(String, String)> {
        let text = include_str!("../../BENCHMARK.json");
        let v = topo_model::json::parse(text).expect("BENCHMARK.json parses");
        let field = |m: &topo_model::json::Json, k: &str| {
            m.get(k).and_then(|x| x.as_str()).unwrap().to_string()
        };
        v.get(list)
            .and_then(|l| l.as_arr())
            .unwrap()
            .iter()
            .map(|m| (field(m, "name"), field(m, "unit")))
            .collect()
    }

    fn emitted(metrics: &[Metric]) -> Vec<(String, String)> {
        metrics
            .iter()
            .map(|m| (m.name.clone(), m.unit.to_string()))
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_the_emitted_metrics() {
        let content = oracle::Content {
            ok: true,
            rounds: 1,
            localized: true,
            auto: 3,
            human: 1,
            llm_calls: 4,
            milli_cost: 100,
        };
        let sample = workload::Sample {
            key: 1,
            ok: true,
            latency_ms: 2.0,
            call_ms: 2.0,
            wall_ms: 1.0,
            content: Some(content),
            stages: Some([(1, 0.1); telemetry::Stage::COUNT]),
            space: Some((1, 1)),
        };
        let phase = Phase {
            samples: vec![sample; 20],
            window_s: 1.0,
            cpu_s: 1.0,
            steal_share: 0.0,
            steal_s: 0.0,
        };
        let e2e = end_to_end(&phase, &[1.0], Drift::NetOfSteal, &mut Vec::new()).unwrap();
        assert_eq!(emitted(&e2e), declared("end_to_end"));
        for w in Workload::ALL {
            let layers = layers::common_layers(
                w,
                &phase,
                &layers::Replay::default(),
                PoolView::default(),
                &phase,
            );
            assert_eq!(emitted(&layers), declared("per_layer"), "{}", w.name());
        }
    }

    #[test]
    fn open_loop_latency_is_net_of_steal() {
        let sample = workload::Sample {
            key: 1,
            ok: true,
            latency_ms: 3.0,
            call_ms: 3.0,
            wall_ms: 2.0,
            content: Some(oracle::Content {
                ok: true,
                rounds: 1,
                localized: false,
                auto: 2,
                human: 1,
                llm_calls: 3,
                milli_cost: 10,
            }),
            stages: None,
            space: None,
        };
        // 20 sessions and 10 ms of steal: 0.5 ms per session.
        let phase = Phase {
            samples: vec![sample; 20],
            window_s: 1.0,
            cpu_s: 0.04,
            steal_share: 0.005,
            steal_s: 0.01,
        };
        let e2e = end_to_end(&phase, &[1.0], Drift::NetOfSteal, &mut Vec::new()).unwrap();
        let value = |name: &str| e2e.iter().find(|m| m.name == name).unwrap().value;
        assert_eq!(value("latency_ms_p50"), 2.5);
        assert_eq!(value("cpu_ms_per_session"), 2.0);
        assert_eq!(value("sessions_per_s"), 20.0);
    }

    #[test]
    fn committed_oracles_cover_every_stream_key() {
        for w in Workload::ALL {
            assert_eq!(
                Oracle::committed(w).len(),
                Stream::all_keys(w).len(),
                "{}",
                w.name()
            );
        }
    }

    #[test]
    fn a_mutated_entry_fails_a_repair_run() {
        let w = Workload::RepairCold;
        let stream = Stream::new(w, 3);
        let oracle = mutated(w, &stream);
        let mut contexts = repair::setup(w);
        let phase = repair::measure(
            w,
            &mut contexts,
            &stream,
            &AtomicUsize::new(0),
            0.2,
            &oracle,
            None,
        );
        assert!(phase.failed() >= 1, "the mutated session must fail");
        assert!(phase.failed() as f64 / phase.attempted() as f64 > 0.0);
        // The unmutated oracle passes the same sessions.
        let mut contexts = repair::setup(w);
        let clean = Oracle::committed(w);
        let phase = repair::measure(
            w,
            &mut contexts,
            &stream,
            &AtomicUsize::new(0),
            0.2,
            &clean,
            None,
        );
        assert_eq!(phase.failed(), 0);
    }

    #[test]
    fn a_mutated_entry_fails_a_served_point() {
        let w = Workload::ServeSynth;
        let stream = Stream::new(w, 3);
        let oracle = mutated(w, &stream);
        let (daemon, mut client) = serve::setup(false, false).unwrap();
        let p = client
            .run_point(50.0, 0.2, &|k| stream.key(k), Some(&oracle), None)
            .unwrap();
        client.close().unwrap();
        let summary = daemon.stop().unwrap();
        assert!(summary.accounted());
        assert_eq!(p.phase.attempted(), 10);
        assert_eq!(p.phase.failed(), 1, "exactly the mutated session fails");
        assert!(!p.phase.samples[0].ok);
    }
}
