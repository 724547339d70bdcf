//! The three workloads, the session streams they draw from, and what a
//! measured phase records per session.

use crate::oracle::Content;
use crate::stats;
use cosynth_fleet::{family_names, family_of, SessionTuning};
use telemetry::Stage;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Open loop against an in-process fleetd over loopback TCP.
    ServeSynth,
    /// Closed loop, one `as-graph-256` network, distinct indices.
    RepairWarm,
    /// Closed loop, a fresh `as-graph-256` network every session.
    RepairCold,
}

/// The one large family both repair workloads are pinned to.
pub const REPAIR_FAMILY: &str = "as-graph-256";
/// The network seed of repair-warm.
pub const WARM_NETWORK_SEED: u64 = 1;
/// First network seed of repair-cold's committed stream.
const COLD_SEED_BASE: u64 = 100_000;
/// First network seed of repair-cold's warm-up (disjoint from the
/// measured stream).
const COLD_WARMUP_BASE: u64 = 200_000;
/// First request seed of serve-synth's warm-up (outside the oracle).
const SYNTH_WARMUP_BASE: u64 = 50_000;

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::ServeSynth,
        Workload::RepairWarm,
        Workload::RepairCold,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeSynth => "serve-synth",
            Workload::RepairWarm => "repair-warm",
            Workload::RepairCold => "repair-cold",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Committed session keys (the oracle's size). Serve-synth keys are
    /// request seeds, repair-warm keys are indices on the one network,
    /// repair-cold keys are network seeds.
    fn key_range(self) -> (u64, u64) {
        match self {
            Workload::ServeSynth => (1, 4096),
            Workload::RepairWarm => (0, 16384),
            Workload::RepairCold => (COLD_SEED_BASE, 8192),
        }
    }

    pub fn key_doc(self) -> &'static str {
        match self {
            Workload::ServeSynth => {
                "key = request seed; family = the six small families in rotation by key mod 6"
            }
            Workload::RepairWarm => "key = session index on as-graph-256 network seed 1",
            Workload::RepairCold => "key = as-graph-256 network seed, session index 0",
        }
    }

    /// The tuning every session of this workload runs under (the
    /// daemon's default for serve-synth).
    pub fn tuning(self) -> SessionTuning {
        match self {
            Workload::ServeSynth => SessionTuning::default(),
            _ => SessionTuning {
                scenario_family: Some(REPAIR_FAMILY),
                ..SessionTuning::default()
            },
        }
    }

    /// `(seed, index)` of session `key`.
    pub fn session_of(self, key: u64) -> (u64, usize) {
        match self {
            Workload::ServeSynth => (key, synth_index(synth_family(key))),
            Workload::RepairWarm => (WARM_NETWORK_SEED, key as usize),
            Workload::RepairCold => (key, 0),
        }
    }

    /// Key of warm-up session `j` (never a committed key).
    pub fn warmup_key(self, j: usize) -> u64 {
        match self {
            Workload::ServeSynth => SYNTH_WARMUP_BASE + j as u64,
            Workload::RepairWarm => self.key_range().1 + j as u64,
            Workload::RepairCold => COLD_WARMUP_BASE + j as u64,
        }
    }
}

/// The small family serve-synth request `key` asks for.
pub fn synth_family(key: u64) -> &'static str {
    let names = family_names();
    names[(key % names.len() as u64) as usize]
}

/// The session index fleetd runs for a count-1 request filtered to
/// `family`: the first index of that family in the rotation.
pub fn synth_index(family: &str) -> usize {
    (0..).find(|&i| family_of(i) == family).unwrap()
}

/// A workload's measured session stream for one `--seed`: the committed
/// keys in order, starting at a seed-derived offset and wrapping.
#[derive(Debug, Clone, Copy)]
pub struct Stream {
    workload: Workload,
    offset: u64,
}

impl Stream {
    /// The seed picks the start among the first 256 keys, so any two
    /// seeds' runs share most of their sessions.
    pub fn new(workload: Workload, seed: u64) -> Stream {
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        Stream {
            workload,
            offset: z % 256,
        }
    }

    /// Distinct keys in the stream.
    pub fn len(&self) -> usize {
        self.workload.key_range().1 as usize
    }

    /// Key at stream position `j`.
    pub fn key(&self, j: usize) -> u64 {
        let (base, n) = self.workload.key_range();
        base + (self.offset + j as u64) % n
    }

    pub fn all_keys(workload: Workload) -> Vec<u64> {
        let (base, n) = workload.key_range();
        (base..base + n).collect()
    }
}

/// Per-stage `(count, ms)` totals of one session, in `Stage::ALL` order.
pub type Stages = [(u64, f64); Stage::COUNT];

pub fn stages_of(trace: &telemetry::SessionTrace) -> Stages {
    let mut s = [(0, 0.0); Stage::COUNT];
    for stage in Stage::ALL {
        let c = trace.get(stage);
        s[stage.index()] = (c.count, c.total_ms());
    }
    s
}

/// One measured session.
#[derive(Debug, Clone)]
pub struct Sample {
    pub key: u64,
    /// Whether the session met its contract and matched the oracle.
    pub ok: bool,
    /// Scheduled arrival (open loop) or call start (closed loop) to
    /// result, milliseconds.
    pub latency_ms: f64,
    /// Actual send (open loop) or call start to result, milliseconds.
    pub call_ms: f64,
    /// The session's own clock (`wall_ms` of its result).
    pub wall_ms: f64,
    pub content: Option<Content>,
    pub stages: Option<Stages>,
    /// Space-cache `(hits, misses)` the session reported (repair only).
    pub space: Option<(u64, u64)>,
}

/// A measured phase: its sessions and the window they ran in.
#[derive(Debug, Clone, Default)]
pub struct Phase {
    pub samples: Vec<Sample>,
    pub window_s: f64,
    /// CPU time this process used during the window, seconds.
    pub cpu_s: f64,
    /// Share of the host's CPU time stolen by the hypervisor during the
    /// window (context for the clocks; not a metric of the program).
    pub steal_share: f64,
    /// The same steal in seconds, summed over the host's CPUs.
    pub steal_s: f64,
}

/// Process CPU time and host CPU counters, sampled around a window.
#[derive(Debug, Clone, Copy)]
pub struct Usage {
    cpu_ticks: u64,
    steal_ticks: u64,
    host_ticks: u64,
}

/// Kernel clock ticks per second (`USER_HZ`, 100 on Linux).
const TICKS_PER_S: f64 = 100.0;

impl Usage {
    pub fn now() -> Usage {
        // utime and stime of the whole thread group: fields 14 and 15 of
        // /proc/self/stat, counted after the parenthesised command name.
        let cpu_ticks = std::fs::read_to_string("/proc/self/stat")
            .ok()
            .and_then(|s| {
                let rest = s.rsplit_once(')')?.1;
                let f: Vec<u64> = rest
                    .split_whitespace()
                    .skip(11)
                    .take(2)
                    .filter_map(|x| x.parse().ok())
                    .collect();
                (f.len() == 2).then(|| f[0] + f[1])
            })
            .unwrap_or(0);
        // The aggregate `cpu` line of /proc/stat: steal is its 8th value.
        let host: Vec<u64> = std::fs::read_to_string("/proc/stat")
            .ok()
            .and_then(|s| {
                s.lines().next().map(|l| {
                    l.split_whitespace()
                        .skip(1)
                        .filter_map(|x| x.parse().ok())
                        .collect()
                })
            })
            .unwrap_or_default();
        Usage {
            cpu_ticks,
            steal_ticks: host.get(7).copied().unwrap_or(0),
            host_ticks: host.iter().take(8).sum(),
        }
    }

    /// `(cpu_s, steal_share, steal_s)` from `start` to now.
    pub fn since(start: Usage) -> (f64, f64, f64) {
        let end = Usage::now();
        let host = end.host_ticks.saturating_sub(start.host_ticks).max(1);
        let steal = end.steal_ticks.saturating_sub(start.steal_ticks) as f64;
        (
            end.cpu_ticks.saturating_sub(start.cpu_ticks) as f64 / TICKS_PER_S,
            steal / host as f64,
            steal / TICKS_PER_S,
        )
    }
}

impl Phase {
    /// Appends a later phase of the same run (its window follows this one).
    pub fn absorb(&mut self, later: Phase) {
        let window_s = self.window_s + later.window_s;
        self.steal_share = (self.steal_share * self.window_s + later.steal_share * later.window_s)
            / window_s.max(1e-9);
        self.samples.extend(later.samples);
        self.window_s = window_s;
        self.cpu_s += later.cpu_s;
        self.steal_s += later.steal_s;
    }

    pub fn attempted(&self) -> usize {
        self.samples.len()
    }

    pub fn failed(&self) -> usize {
        self.samples.iter().filter(|s| !s.ok).count()
    }

    pub fn sessions_per_s(&self) -> f64 {
        (self.attempted() - self.failed()) as f64 / self.window_s.max(1e-9)
    }

    /// Latencies with failed sessions as `+∞`.
    pub fn latencies(&self) -> Vec<f64> {
        self.samples
            .iter()
            .map(|s| if s.ok { s.latency_ms } else { f64::INFINITY })
            .collect()
    }

    /// Process CPU milliseconds per session that met its contract.
    pub fn cpu_ms_per_session(&self) -> f64 {
        self.cpu_s * 1e3 / (self.attempted() - self.failed()).max(1) as f64
    }

    pub fn latency_p50(&self) -> f64 {
        stats::p50(&self.latencies()).unwrap_or(f64::INFINITY)
    }

    /// Hypervisor steal per attempted session, milliseconds.
    pub fn steal_ms_per_session(&self) -> f64 {
        self.steal_s * 1e3 / self.attempted().max(1) as f64
    }

    fn content_sum(&self, f: impl Fn(&Content) -> u64) -> u64 {
        self.samples
            .iter()
            .filter_map(|s| s.content.as_ref())
            .map(f)
            .sum()
    }

    /// Billed cost per completed session (sessions that ran to a result).
    pub fn milli_cost_per_session(&self) -> f64 {
        let ran = self.samples.iter().filter(|s| s.content.is_some()).count();
        self.content_sum(|c| c.milli_cost) as f64 / ran.max(1) as f64
    }

    /// Σ automated prompts over Σ human prompts.
    pub fn leverage(&self) -> Option<f64> {
        let human = self.content_sum(|c| c.human);
        (human > 0).then(|| self.content_sum(|c| c.auto) as f64 / human as f64)
    }
}
