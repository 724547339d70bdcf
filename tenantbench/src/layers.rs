//! The traced run: spans around every call the benchmark makes, replays
//! of single layers' public functions, and the per-layer metrics built
//! from them and from the sessions' own `SessionTrace`s.

use crate::stats;
use crate::workload::{Phase, Workload};
use cosynth::Modularizer;
use cosynth_fleet::{cases, scenario_for_tuned};
use std::fmt::Write as _;
use std::io::Write as _;
use std::sync::Mutex;
use std::time::Instant;
use telemetry::Stage;

/// One named value with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
    }
}

struct SpanRec {
    name: &'static str,
    start_us: f64,
    end_us: f64,
    parent: Option<usize>,
    request: u64,
    attrs: String,
}

/// In-memory span store, written out once when the run ends.
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<SpanRec>>,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Records one span; returns its id for children to name as parent.
    /// `attrs` is a JSON object body (possibly empty).
    pub fn record(
        &self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        request: u64,
        attrs: String,
    ) -> usize {
        let us = |t: Instant| t.saturating_duration_since(self.epoch).as_secs_f64() * 1e6;
        let mut spans = self.spans.lock().unwrap();
        spans.push(SpanRec {
            name,
            start_us: us(start),
            end_us: us(end),
            parent,
            request,
            attrs,
        });
        spans.len() - 1
    }

    pub fn len(&self) -> usize {
        self.spans.lock().unwrap().len()
    }

    /// Writes one JSON object per span.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.lock().unwrap().iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let sep = if s.attrs.is_empty() { "" } else { "," };
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_us\":{:.1},\"end_us\":{:.1},\"parent\":{parent},\"request\":{}{sep}{}}}",
                s.name, s.start_us, s.end_us, s.request, s.attrs
            )?;
        }
        out.flush()
    }
}

/// Renders per-stage totals as a span attribute.
pub fn stages_attr(stages: &crate::workload::Stages) -> String {
    let mut out = String::from("\"stages\":{");
    let mut first = true;
    for stage in Stage::ALL {
        let (count, ms) = stages[stage.index()];
        if count > 0 {
            let _ = write!(
                out,
                "{}\"{}\":{{\"count\":{count},\"ms\":{ms:.4}}}",
                if first { "" } else { "," },
                stage.name()
            );
            first = false;
        }
    }
    out.push('}');
    out
}

/// Timings from replaying single layers on sampled sessions.
#[derive(Debug, Default)]
pub struct Replay {
    pub generate_ms: Vec<f64>,
    pub render_ms: Vec<f64>,
    pub inject_ms: Vec<f64>,
    pub campion_ms: Vec<f64>,
    pub nodes_per_space: Vec<f64>,
    pub apply_hits: u64,
    pub apply_lookups: u64,
}

fn ms(a: Instant, b: Instant) -> f64 {
    b.saturating_duration_since(a).as_secs_f64() * 1e3
}

/// Replays, for each sampled key, the calls a session makes outside its
/// own clock — scenario generation, config rendering, fault injection —
/// and then the kernel-level work on the injected router: its route
/// space with every local check, and a Campion compare against the
/// router's intended device. One span tree per key.
pub fn replay(workload: Workload, keys: &[u64], tracer: &Tracer) -> Replay {
    let tuning = workload.tuning();
    let mut r = Replay::default();
    for &key in keys {
        let (seed, index) = workload.session_of(key);
        let t0 = Instant::now();
        let scenario = scenario_for_tuned(seed, index, &tuning);
        let t1 = Instant::now();
        let configs = cases::clean_configs_for(&scenario);
        let t2 = Instant::now();
        let injection = fault_inject::inject(&configs, cases::fault_seed(seed, index))
            .expect("every rendered snapshot has an applicable fault class");
        let t3 = Instant::now();
        let assignment = Modularizer::assign_scenario(&scenario)
            .into_iter()
            .find(|a| a.name == injection.fault.device)
            .expect("the injected router has an assignment");
        let device = bf_lite::parse_config(
            &injection.configs[&assignment.name],
            Some(bf_lite::Vendor::Cisco),
        )
        .device;
        let t4 = Instant::now();
        let mut space = bf_lite::space_for_checks(&device, &assignment.checks);
        for check in &assignment.checks {
            let _ = bf_lite::check_local_policy_in(&mut space, &device, check);
        }
        let kernel = space.stats();
        let t5 = Instant::now();
        let intended = llm_sim::synth_task::reference_device(
            &llm_sim::synth_task::understand_prompt(&assignment.prompt),
        );
        let t6 = Instant::now();
        let _ = campion_lite::compare_in(bdd::Manager::new(), &intended, &device);
        let t7 = Instant::now();

        let root = tracer.record("replay", t0, t7, None, key, String::new());
        tracer.record("generate", t0, t1, Some(root), key, String::new());
        tracer.record("render", t1, t2, Some(root), key, String::new());
        tracer.record("inject", t2, t3, Some(root), key, String::new());
        tracer.record(
            "space",
            t4,
            t5,
            Some(root),
            key,
            format!("\"nodes\":{}", kernel.node_count),
        );
        tracer.record("campion", t6, t7, Some(root), key, String::new());

        r.generate_ms.push(ms(t0, t1));
        r.render_ms.push(ms(t1, t2));
        r.inject_ms.push(ms(t2, t3));
        r.campion_ms.push(ms(t6, t7));
        r.nodes_per_space.push(kernel.node_count as f64);
        r.apply_hits += kernel.apply.hits;
        r.apply_lookups += kernel.apply.hits + kernel.apply.misses;
    }
    r
}

/// Evenly spaced sample of `n` keys from the phase's sessions.
pub fn sample_keys(phase: &Phase, n: usize) -> Vec<u64> {
    let len = phase.samples.len();
    if len == 0 {
        return Vec::new();
    }
    let n = n.min(len);
    (0..n).map(|i| phase.samples[i * len / n].key).collect()
}

/// BDD manager-pool counters of the contexts that ran the phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct PoolView {
    pub allocs: u64,
    pub reuses: u64,
    pub peak_nodes: u64,
}

/// The per-layer metrics every workload reports (the `per_layer` set of
/// `BENCHMARK.json`), from the traced phase, the replays, the pool
/// counters and the traced/untraced comparison.
pub fn common_layers(
    workload: Workload,
    traced: &Phase,
    replay: &Replay,
    pool: PoolView,
    untraced: &Phase,
) -> Vec<Metric> {
    let with_stages: Vec<_> = traced
        .samples
        .iter()
        .filter_map(|s| s.stages.as_ref().map(|st| (s, st)))
        .collect();
    let n = with_stages.len().max(1) as f64;
    let count = |stage: Stage| -> f64 {
        with_stages
            .iter()
            .map(|(_, st)| st[stage.index()].0 as f64)
            .sum::<f64>()
    };
    let busy = |stage: Stage| -> f64 {
        with_stages
            .iter()
            .map(|(_, st)| st[stage.index()].1)
            .sum::<f64>()
    };
    let wall_total: f64 = with_stages.iter().map(|(s, _)| s.wall_ms).sum();
    let call_total: f64 = traced.samples.iter().map(|s| s.call_ms).sum();
    let walls: Vec<f64> = traced.samples.iter().map(|s| s.wall_ms).collect();
    // Localize contains parse and space work on the repair path, so the
    // residual sums every stage but it (see `residual_overlaps`).
    let attributed: f64 = Stage::ALL
        .into_iter()
        .filter(|&s| s != Stage::Localize)
        .map(busy)
        .sum();
    let space_hit_ratio = match workload {
        Workload::ServeSynth => {
            let (hits, builds) = (count(Stage::SpaceHit), count(Stage::SpaceBuild));
            hits / (hits + builds).max(1.0)
        }
        _ => {
            let (hits, misses) = traced
                .samples
                .iter()
                .filter_map(|s| s.space)
                .fold((0u64, 0u64), |(h, m), (sh, sm)| (h + sh, m + sm));
            hits as f64 / (hits + misses).max(1) as f64
        }
    };
    let p50 = |v: &[f64]| stats::p50(v).unwrap_or(0.0);
    vec![
        metric("session.wall_ms_p50", p50(&walls), "ms"),
        metric(
            "session.outside_share",
            1.0 - traced.samples.iter().map(|s| s.wall_ms).sum::<f64>() / call_total.max(1e-9),
            "ratio",
        ),
        metric(
            "scenario_gen.generate_ms_p50",
            p50(&replay.generate_ms),
            "ms",
        ),
        metric("scenario_gen.render_ms_p50", p50(&replay.render_ms), "ms"),
        metric("fault_inject.inject_ms_p50", p50(&replay.inject_ms), "ms"),
        metric(
            "llm_sim.calls_per_session",
            count(Stage::Backend) / n,
            "count",
        ),
        metric(
            "llm_sim.busy_ms_per_session",
            (busy(Stage::PromptRender) + busy(Stage::Backend)) / n,
            "ms",
        ),
        metric("parse.calls_per_session", count(Stage::Parse) / n, "count"),
        metric("parse.busy_ms_per_session", busy(Stage::Parse) / n, "ms"),
        metric(
            "space.builds_per_session",
            count(Stage::SpaceBuild) / n,
            "count",
        ),
        metric("space.hit_ratio", space_hit_ratio, "ratio"),
        metric(
            "space.build_ms_per_session",
            busy(Stage::SpaceBuild) / n,
            "ms",
        ),
        metric("sim.calls_per_session", count(Stage::Sim) / n, "count"),
        metric("sim.busy_ms_per_session", busy(Stage::Sim) / n, "ms"),
        metric("campion.compare_ms_p50", p50(&replay.campion_ms), "ms"),
        metric("bdd.manager_allocs", pool.allocs as f64, "count"),
        metric(
            "bdd.manager_reuse_ratio",
            pool.reuses as f64 / (pool.reuses + pool.allocs).max(1) as f64,
            "ratio",
        ),
        metric("bdd.peak_nodes", pool.peak_nodes as f64, "count"),
        metric(
            "bdd.nodes_per_space",
            replay.nodes_per_space.iter().sum::<f64>() / replay.nodes_per_space.len().max(1) as f64,
            "count",
        ),
        metric(
            "bdd.apply_cache_hit_ratio",
            replay.apply_hits as f64 / replay.apply_lookups.max(1) as f64,
            "ratio",
        ),
        metric(
            "trace.residual_share",
            stats::residual_share(attributed, wall_total),
            "ratio",
        ),
        metric(
            "trace.latency_p50_ratio",
            traced.latency_p50() / untraced.latency_p50(),
            "ratio",
        ),
        metric(
            "trace.sessions_per_s_ratio",
            traced.sessions_per_s() / untraced.sessions_per_s().max(1e-9),
            "ratio",
        ),
    ]
}

/// Whether `trace.residual_share` is computed over overlapping stages
/// on this workload: on the repair path `localize` wraps parse and
/// space work, so its exclusive time cannot be separated from outside.
pub fn residual_overlaps(workload: Workload) -> bool {
    workload != Workload::ServeSynth
}

/// Mean time per session in one stage. For the stages only one use case
/// records — localization (repair; it overlaps the parse and space work
/// it calls) and symbolic checks (synthesis) — so they are printed on
/// their workload instead of reported as zero on the others.
pub fn stage_ms_per_session(traced: &Phase, stage: Stage) -> f64 {
    let (sum, n) = traced
        .samples
        .iter()
        .filter_map(|s| s.stages.as_ref())
        .fold((0.0, 0usize), |(a, n), st| (a + st[stage.index()].1, n + 1));
    sum / n.max(1) as f64
}
