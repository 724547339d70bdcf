//! Incremental re-verification: session cost that scales with the
//! *edit*, not the network.
//!
//! The repair loop historically re-verified the whole snapshot after
//! every model edit — every router re-parsed, re-checked against the
//! topology, re-checked symbolically, and (when all local channels were
//! silent) re-diffed against its intent with `campion-lite`, plus a
//! whole-network simulation per round. At 5–12 routers that is noise; at
//! the internet-scale families (36–512 routers) the campion BDD
//! behaviour diffs and the sweep dominate the session, even though a
//! repair round edits exactly one device.
//!
//! This module lifts the `bf-lite::sim` dirty-set idea to the symbolic
//! layer:
//!
//! * [`DependencyTracker`] maps a rectification edit to the set of
//!   devices whose import/export reachability can change: the edited
//!   device itself plus its internal BGP neighbors (an edit changes what
//!   the device announces, so the neighbors' imports move). This is
//!   deliberately **conservative** — the per-device verdicts below
//!   depend only on the device's own config, so `{edited}` alone would
//!   already be sound; the BGP neighborhood is the honest bound on
//!   reachability influence and is what the soundness property test
//!   pins.
//! * `IncrementalVerifier` memoizes the two per-device verdicts the
//!   sweep computes — the *local* verdict (parse warnings → topology
//!   verifier → symbolic local checks) and the *campion* verdict (the
//!   structural/behavioral diff against the router's intent) — and
//!   invalidates exactly the dirty set after each edit. Verdicts are
//!   pure functions of `(scenario, assignment, config text)` (see
//!   `repair::local_verdict_in`), so a memo hit is byte-identical to a
//!   recompute; each entry stores the fingerprint of the text it was
//!   computed from and debug-asserts it on every hit.
//!
//! The sweep preserves the full sweep's semantics exactly: devices are
//! visited in assignment order, the first local finding wins, and the
//! campion phase runs only when every device's local channels are
//! silent. Lazily-memoized early exit means the first rounds do no more
//! work than the full sweep did — the win is that rounds 2..n recompute
//! only the dirty neighborhood instead of everything before the suspect.
//!
//! ## Cross-session sharing
//!
//! The fleet pins one topology per `(seed, family)` and varies only the
//! intent and fault per session, so almost everything a session derives
//! from the scenario is derivable once per family:
//!
//! * `SessionStatics` — the assignments, the per-device memo-key
//!   bases, the name→index map, and the dependency tracker — is a pure
//!   function of `(topology, policies)` and is shared through an `Arc`
//!   in the context's clean-snapshot cache, which is keyed exactly on
//!   that pair ([`VerifierContext::clean_snapshot`]); a later session
//!   pays one compare of the topology instead of re-deriving ~n prompts
//!   and keys.
//! * `VerdictMemo` keeps per-device local/campion verdicts and whole
//!   `GlobalCheckReport`s keyed by content fingerprints, so a warm
//!   worker answers the sweeps and the final simulation of session
//!   *k+1* from session *k*'s work.
//!
//! ## What "byte-identical" excludes
//!
//! Per-seed session **content** — configs, repaired, rounds,
//! localizations, the global report, leverage, the prompt log, cost —
//! is identical between full and incremental re-verification; the
//! fleet A/B test pins this. Wall-clock, trace span *counts* (skipped
//! parses, deferred sims), and space-cache/pool counters necessarily
//! differ between modes and are excluded from the identity.

use crate::modularizer::{Modularizer, RouterAssignment};
use crate::repair::{self, Localization};
use crate::verifier_ctx::VerifierContext;
use bdd::FxHasher;
use std::cell::Cell;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt::Write as _;
use std::hash::{Hash as _, Hasher as _};
use std::sync::Arc;
use topo_model::Scenario;

fn fx(bytes: &[u8]) -> u64 {
    let mut h = FxHasher::default();
    h.write(bytes);
    h.finish()
}

/// Streams `Debug` renderings straight into an `FxHasher`, skipping the
/// intermediate `String` a format-then-hash pass would allocate — at
/// 512 routers those allocations are a measurable slice of a warm
/// session once everything else is memoized.
struct HashWriter<'a>(&'a mut FxHasher);

impl std::fmt::Write for HashWriter<'_> {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.0.write(s.as_bytes());
        Ok(())
    }
}

/// Re-verification schedule for a session. Default: incremental, the
/// one schedule sessions run; [`VerifyMode::full`] is the reference
/// that tests and oracles compare incremental content against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VerifyMode {
    /// Memoize per-device verdicts across rounds and re-verify only the
    /// dirty set after each edit (plus defer unobservable sims).
    pub incremental: bool,
}

impl Default for VerifyMode {
    fn default() -> Self {
        VerifyMode { incremental: true }
    }
}

impl VerifyMode {
    /// The historical schedule: full re-verification every round.
    pub fn full() -> Self {
        VerifyMode { incremental: false }
    }
}

/// Maps a rectification edit to the devices whose import/export
/// reachability can change: the edited device plus its internal BGP
/// neighbors, precomputed from the scenario topology.
#[derive(Debug, Clone)]
pub struct DependencyTracker {
    neighbors: BTreeMap<String, Vec<String>>,
}

impl DependencyTracker {
    /// Builds the tracker from the scenario's internal BGP adjacency.
    /// Reads each router's interface peer list directly — one pass over
    /// the edges — rather than `Topology::internal_neighbors_of`, whose
    /// all-pairs probing is quadratic in the router count and was the
    /// single largest fixed cost of an incremental session on the
    /// 512-router families. Same sets: an interface's `peer_router` is
    /// exactly what `internal_neighbors_of` probes for.
    pub fn new(scenario: &Scenario) -> Self {
        let internal: BTreeSet<&str> = scenario
            .topology
            .internal_routers()
            .map(|r| r.name.as_str())
            .collect();
        let neighbors = scenario
            .topology
            .internal_routers()
            .map(|r| {
                (
                    r.name.clone(),
                    r.interfaces
                        .iter()
                        .filter(|i| internal.contains(i.peer_router.as_str()))
                        .map(|i| i.peer_router.clone())
                        .collect(),
                )
            })
            .collect();
        DependencyTracker { neighbors }
    }

    /// The dirty set of an edit to `device`: the device itself plus its
    /// internal BGP neighbors. Every device outside this set keeps a
    /// byte-identical rendered config and verdict across the edit — the
    /// soundness property the `cosynth-fleet` test suite pins.
    pub fn dirty_of(&self, device: &str) -> BTreeSet<String> {
        let mut dirty = BTreeSet::from([device.to_string()]);
        if let Some(ns) = self.neighbors.get(device) {
            dirty.extend(ns.iter().cloned());
        }
        dirty
    }
}

/// A memoized verdict and the fingerprint of the config text it was
/// computed from (the text is the verdict's entire input besides the
/// immutable scenario, so the fingerprint doubles as a soundness
/// witness for the dirty-set bookkeeping).
#[derive(Clone)]
struct MemoEntry {
    textfx: u64,
    verdict: Option<Localization>,
}

/// A cross-session local verdict: the parsed device (reused by the
/// deferred whole-network simulation) plus the first local finding.
pub(crate) struct CachedLocal {
    pub(crate) device: config_ir::Device,
    pub(crate) verdict: Option<Localization>,
}

/// The two memo-key bases of one device, fixed for a topology+policy
/// pair: the local base hashes the router's topology spec and check
/// set, the campion base its name and prompt. The full memo key appends
/// the config-text fingerprint.
#[derive(Clone, Copy)]
struct DeviceKeys {
    local: u64,
    campion: u64,
}

/// Everything a repair session derives from the scenario that is a pure
/// function of `(topology, policies)`: the modular assignments, the
/// per-device memo-key bases, the assignment index of each router, and
/// the dependency tracker. Built once per `(topology, policies)` per
/// worker and shared via `Arc` from the context's clean-snapshot cache
/// — a session on a pinned family pays one topology compare instead of
/// re-deriving ~n prompts, keys, and adjacency lists.
pub(crate) struct SessionStatics {
    assignments: Arc<Vec<RouterAssignment>>,
    /// Memo-key bases, aligned with `assignments`.
    keys: Vec<DeviceKeys>,
    /// Assignment index of each internal router.
    index: HashMap<String, usize>,
    tracker: DependencyTracker,
}

impl SessionStatics {
    /// Builds the statics of `scenario`. `sibling`, statics of the same
    /// topology under other policies, lends its prompt to every router
    /// whose prompt is equal (all but the few the policies touch).
    pub(crate) fn build(scenario: &Scenario, sibling: Option<&SessionStatics>) -> Self {
        let mut assignments = Modularizer::assign_scenario(scenario);
        if let Some(sibling) = sibling {
            for a in &mut assignments {
                let theirs = sibling.index.get(&a.name).map(|&i| &sibling.assignments[i]);
                if let Some(theirs) = theirs.filter(|t| t.prompt == a.prompt) {
                    a.prompt = Arc::clone(&theirs.prompt);
                }
            }
        }
        let spec_hash: HashMap<&str, u64> = scenario
            .topology
            .routers
            .iter()
            .map(|r| {
                let mut h = FxHasher::default();
                r.hash(&mut h);
                (r.name.as_str(), h.finish())
            })
            .collect();
        let keys = assignments
            .iter()
            .map(|a| {
                let mut h = FxHasher::default();
                h.write(
                    &spec_hash
                        .get(a.name.as_str())
                        .copied()
                        .unwrap_or_default()
                        .to_le_bytes(),
                );
                let _ = write!(HashWriter(&mut h), "{:?}", a.checks);
                let local = h.finish();
                let mut h = FxHasher::default();
                h.write(a.name.as_bytes());
                h.write(a.prompt.as_bytes());
                DeviceKeys {
                    local,
                    campion: h.finish(),
                }
            })
            .collect();
        let index = assignments
            .iter()
            .enumerate()
            .map(|(i, a)| (a.name.clone(), i))
            .collect();
        SessionStatics {
            assignments: Arc::new(assignments),
            keys,
            index,
            tracker: DependencyTracker::new(scenario),
        }
    }

    /// The scenario's modular assignments.
    pub(crate) fn assignments(&self) -> &[RouterAssignment] {
        &self.assignments
    }
}

/// Entries per cross-session verdict map, per device of the largest
/// network the worker has verified. One repair session touches about
/// one entry per device per map (local verdicts 1.1–1.3, the others
/// fewer), so twice the device count holds the session in flight plus
/// the previous one, while bounding the memo's memory by the network
/// it serves.
const CROSS_PER_DEVICE: usize = 2;

/// Smallest cross-session map capacity, for the small families.
const CROSS_FLOOR: usize = 256;

/// A cross-session verdict map bounded by recency of use, counted in
/// sessions. Every lookup and insert stamps its entry with the current
/// session. An insert into a full map drops the entries not touched in
/// this session or the previous one: on a warm worker, the faulted and
/// mid-repair texts written once. When the survivors would still fill
/// more than three quarters of the map, only this session's entries are
/// kept, and if even those would, the map is cleared; so each eviction
/// frees at least a quarter of the map (inserts stay amortized O(1)),
/// and a session never loses what it wrote itself unless it alone
/// overflows the map. Eviction only costs recomputation, never
/// correctness.
struct Bounded<V> {
    map: HashMap<MemoKey, (V, Cell<usize>)>,
    cap: usize,
    /// The session in flight, as counted by [`VerdictMemo::begin_session`].
    session: usize,
}

impl<V> Default for Bounded<V> {
    fn default() -> Self {
        Bounded {
            map: HashMap::new(),
            cap: CROSS_FLOOR,
            session: 0,
        }
    }
}

impl<V> Bounded<V> {
    fn get(&self, key: &MemoKey) -> Option<&V> {
        let (value, touched) = self.map.get(key)?;
        touched.set(self.session);
        Some(value)
    }

    fn insert(&mut self, key: MemoKey, value: V) {
        if self.map.len() >= self.cap {
            let now = self.session;
            let room = self.cap * 3 / 4;
            self.map.retain(|_, (_, t)| t.get() + 1 >= now);
            if self.map.len() > room {
                self.map.retain(|_, (_, t)| t.get() == now);
            }
            if self.map.len() > room {
                self.map.clear();
            }
        }
        self.map.insert(key, (value, Cell::new(self.session)));
    }

    /// Opens the next session, growing the capacity to fit a network of
    /// `devices` routers.
    fn begin_session(&mut self, devices: usize) {
        self.session += 1;
        self.cap = self.cap.max(CROSS_PER_DEVICE * devices);
    }
}

/// The **worker-lifetime** verdict memo, resident in the
/// [`VerifierContext`] next to the manager pool.
///
/// Per-device verdicts are pure functions of `(own topology spec, check
/// set, config text)` — local — and `(assignment name, prompt, config
/// text)` — campion. On the internet-scale families the fleet pins one
/// topology per `(seed, family)` and varies only the intent and fault
/// per session, so almost every device of session *k+1* carries the
/// same spec, checks, and text as in session *k*: a resident worker can
/// answer those sweeps from this memo without recomputing anything.
///
/// Keys are `(input fingerprint, text fingerprint)` 64-bit FxHash
/// pairs; a wrong answer needs a collision on both halves
/// simultaneously (~2⁻¹²⁸ per candidate pair), which is treated as
/// impossible. Only the **incremental** verifier consults the memo —
/// the full reference schedule keeps the historical recompute-everything
/// path untouched — and hits return clones of pure values, so session
/// content stays byte-identical across modes and across worker
/// placements.
#[derive(Default)]
pub(crate) struct VerdictMemo {
    local: Bounded<CachedLocal>,
    campion: Bounded<Option<Localization>>,
    /// Whole-network check reports, keyed on `(topology + expectations,
    /// every internal config text)` — `check_scenario` is pure in
    /// exactly those inputs, so sessions that converge back to the same
    /// snapshot (the common case: a repair restores the reference text)
    /// share one simulation.
    global: Bounded<crate::composer::GlobalCheckReport>,
    /// Whole-sweep localizations, keyed on `(topology + policies, every
    /// internal config text)`. The sweep is pure in exactly those
    /// inputs (assignment order, checks, and prompts all derive from
    /// topology + policies), so a snapshot the worker has swept before
    /// — above all the per-intent reference snapshot every converging
    /// session ends on, whose clean sweep is the costliest scan of the
    /// session — returns its verdict for the cost of hashing the texts.
    sweep: Bounded<Option<Localization>>,
    /// Sweep verdicts answered from the memo.
    pub(crate) hits: usize,
    /// Sweep verdicts computed (and inserted).
    pub(crate) misses: usize,
}

impl VerdictMemo {
    /// Opens a repair session on a network of `devices` routers.
    fn begin_session(&mut self, devices: usize) {
        self.local.begin_session(devices);
        self.campion.begin_session(devices);
        self.global.begin_session(devices);
        self.sweep.begin_session(devices);
    }
}

/// Session-scoped incremental re-verification state: the shared
/// scenario statics plus the two per-device verdict memos (index-
/// aligned with the assignments). Created per repair session by
/// `RepairSession::run_in` when [`VerifyMode::incremental`] is on.
pub(crate) struct IncrementalVerifier {
    statics: Arc<SessionStatics>,
    /// FxHash of everything `check_scenario` reads besides the configs:
    /// the topology fingerprint plus the expectations. Scenarios at
    /// different indices that share topology and intent collide here on
    /// purpose — that is what lets their simulations share a memo entry.
    scenario_hash: u64,
    /// Input-side base of the whole-sweep memo key: topology +
    /// policies, i.e. everything a sweep reads besides the configs.
    sweep_base: u64,
    local: Vec<Option<MemoEntry>>,
    campion: Vec<Option<MemoEntry>>,
}

/// A worker-memo key: `(input fingerprint, config-text fingerprint)`.
type MemoKey = (u64, u64);

impl IncrementalVerifier {
    pub(crate) fn new(scenario: &Scenario, ctx: &mut VerifierContext) -> Self {
        // The statics and the `(topology, policies)` fingerprints come
        // out of the context's clean-snapshot cache: on a pinned family
        // the session pays one topology compare, no O(network) hashing.
        let (statics, skey) = ctx.session_statics(scenario);
        let mut h = FxHasher::default();
        h.write(&skey.0.to_le_bytes());
        scenario.expectations.hash(&mut h);
        let mut sb = FxHasher::default();
        sb.write(&skey.0.to_le_bytes());
        sb.write(&skey.1.to_le_bytes());
        let n = statics.assignments.len();
        ctx.memo.begin_session(n);
        IncrementalVerifier {
            statics,
            scenario_hash: h.finish(),
            sweep_base: sb.finish(),
            local: vec![None; n],
            campion: vec![None; n],
        }
    }

    /// The session's modular assignments, shared with every other
    /// session on the same `(topology, policies)` pair.
    pub(crate) fn assignments(&self) -> Arc<Vec<RouterAssignment>> {
        Arc::clone(&self.statics.assignments)
    }

    /// The deferred whole-network check. Two memo layers, both sound by
    /// purity of `check_scenario` in `(topology, expectations, configs)`:
    /// the whole **report** is served from the worker memo when this
    /// exact snapshot was simulated before (sessions that converge back
    /// to the reference text share one simulation), and on a report
    /// miss the parse hook serves clones of devices the sweeps already
    /// parsed instead of re-parsing every internal router. Devices the
    /// memo does not hold — evicted, or never swept this session — are
    /// parsed fresh, so the report is byte-identical to the hook-free
    /// path either way.
    pub(crate) fn check_global(
        &self,
        scenario: &Scenario,
        configs: &BTreeMap<String, String>,
        ctx: &mut VerifierContext,
    ) -> crate::composer::GlobalCheckReport {
        let mut h = FxHasher::default();
        for (name, text) in configs {
            h.write(name.as_bytes());
            h.write(&[0]);
            h.write(text.as_bytes());
            h.write(&[1]);
        }
        let key = (self.scenario_hash, h.finish());
        if let Some(report) = ctx.memo.global.get(&key) {
            ctx.memo.hits += 1;
            return report.clone();
        }
        ctx.memo.misses += 1;
        let statics = &self.statics;
        let memo = &ctx.memo;
        let report = crate::composer::check_scenario_with(scenario, configs, |name, text| {
            if let Some(&i) = statics.index.get(name) {
                let k = statics.keys[i];
                if let Some(c) = memo.local.get(&(k.local, fx(text.as_bytes()))) {
                    return c.device.clone();
                }
            }
            crate::composer::parse_internal(name, text)
        });
        ctx.memo.global.insert(key, report.clone());
        report
    }

    /// Drops the memo entries of every device in the edit's dirty set;
    /// the next sweep recomputes exactly those.
    pub(crate) fn invalidate_edit(&mut self, device: &str) {
        for d in self.statics.tracker.dirty_of(device) {
            if let Some(&i) = self.statics.index.get(&d) {
                self.local[i] = None;
                self.campion[i] = None;
            }
        }
    }

    /// The memoized sweep: identical semantics to `repair::localize`
    /// (assignment order, first local finding wins, campion only when
    /// all local channels are silent), with verdicts served from the
    /// memo where the dependency tracker proved them still valid.
    ///
    /// The whole sweep is itself a pure function of `(topology,
    /// policies, configs)`, so a snapshot the worker has swept before is
    /// answered from the worker memo for the cost of hashing the config
    /// texts — the per-intent reference snapshot every converging
    /// session ends on makes this the common case on a pinned family.
    pub(crate) fn localize(
        &mut self,
        scenario: &Scenario,
        configs: &BTreeMap<String, String>,
        ctx: &mut VerifierContext,
    ) -> Option<Localization> {
        let mut h = FxHasher::default();
        for (name, text) in configs {
            h.write(name.as_bytes());
            h.write(&[0]);
            h.write(text.as_bytes());
            h.write(&[1]);
        }
        let skey = (self.sweep_base, h.finish());
        if let Some(v) = ctx.memo.sweep.get(&skey) {
            ctx.memo.hits += 1;
            return v.clone();
        }
        let verdict = self.localize_uncached(scenario, configs, ctx);
        ctx.memo.sweep.insert(skey, verdict.clone());
        verdict
    }

    fn localize_uncached(
        &mut self,
        scenario: &Scenario,
        configs: &BTreeMap<String, String>,
        ctx: &mut VerifierContext,
    ) -> Option<Localization> {
        let statics = Arc::clone(&self.statics);
        for (i, assignment) in statics.assignments.iter().enumerate() {
            let Some(text) = configs.get(&assignment.name) else {
                continue;
            };
            let verdict = match &self.local[i] {
                Some(m) => {
                    debug_assert_eq!(
                        m.textfx,
                        fx(text.as_bytes()),
                        "memo entry for {} outlived an edit the tracker missed",
                        assignment.name
                    );
                    m.verdict.clone()
                }
                None => {
                    let textfx = fx(text.as_bytes());
                    let tkey = (statics.keys[i].local, textfx);
                    let cached = ctx.memo.local.get(&tkey).map(|c| c.verdict.clone());
                    let verdict = match cached {
                        Some(v) => {
                            ctx.memo.hits += 1;
                            v
                        }
                        None => {
                            ctx.memo.misses += 1;
                            let (device, verdict) =
                                repair::local_verdict_in(scenario, assignment, text, ctx);
                            ctx.memo.local.insert(
                                tkey,
                                CachedLocal {
                                    device,
                                    verdict: verdict.clone(),
                                },
                            );
                            verdict
                        }
                    };
                    self.local[i] = Some(MemoEntry {
                        textfx,
                        verdict: verdict.clone(),
                    });
                    verdict
                }
            };
            if verdict.is_some() {
                return verdict;
            }
        }
        for (i, assignment) in statics.assignments.iter().enumerate() {
            let Some(text) = configs.get(&assignment.name) else {
                continue;
            };
            let verdict = match &self.campion[i] {
                Some(m) => {
                    debug_assert_eq!(
                        m.textfx,
                        fx(text.as_bytes()),
                        "campion memo for {} outlived an edit the tracker missed",
                        assignment.name
                    );
                    m.verdict.clone()
                }
                None => {
                    let textfx = fx(text.as_bytes());
                    let keys = statics.keys[i];
                    let ckey = (keys.campion, textfx);
                    let cached = ctx.memo.campion.get(&ckey).cloned();
                    let verdict = match cached {
                        Some(v) => {
                            ctx.memo.hits += 1;
                            v
                        }
                        None => {
                            ctx.memo.misses += 1;
                            // The device passed its local channels this
                            // round, so the reparse is warning-free —
                            // and skippable when the worker memo still
                            // holds the parse.
                            let device = match ctx.memo.local.get(&(keys.local, textfx)) {
                                Some(c) => c.device.clone(),
                                None => repair::parse_device(text, &assignment.name).device,
                            };
                            let verdict =
                                repair::campion_verdict_in(assignment, text, &device, ctx);
                            ctx.memo.campion.insert(ckey, verdict.clone());
                            verdict
                        }
                    };
                    self.campion[i] = Some(MemoEntry {
                        textfx,
                        verdict: verdict.clone(),
                    });
                    verdict
                }
            };
            if verdict.is_some() {
                return verdict;
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounded_memo_keeps_recent_sessions_and_stays_within_its_cap() {
        let mut m: Bounded<u64> = Bounded::default();
        m.begin_session(300);
        let cap = m.cap as u64;
        assert_eq!(cap, 600, "sized by the network");
        // Session 1 writes a working set; session 2 reads it back and
        // writes entries never read again; session 3 fills the map.
        let hot = 0..cap / 4;
        for k in hot.clone() {
            m.insert((k, 0), k);
        }
        m.begin_session(300);
        assert!(hot.clone().all(|k| m.get(&(k, 0)) == Some(&k)));
        for k in cap..cap + cap / 4 {
            m.insert((k, 0), k);
        }
        m.begin_session(300);
        for k in 2 * cap..3 * cap {
            m.insert((k, 0), k);
            assert!(m.map.len() as u64 <= cap);
        }
        assert!(hot.clone().all(|k| m.get(&(k, 0)).is_none()), "stale");
        // The session in flight keeps what it wrote since the eviction.
        assert_eq!(m.get(&(3 * cap - 1, 0)), Some(&(3 * cap - 1)));
        // One session alone past the cap falls back to a clear, so the
        // map never exceeds the cap.
        let mut m: Bounded<u64> = Bounded::default();
        m.begin_session(1);
        for k in 0..4 * CROSS_FLOOR as u64 {
            m.insert((k, 1), k);
            assert!(m.map.len() <= CROSS_FLOOR);
        }
    }

    #[test]
    fn default_mode_is_incremental_sequential() {
        assert_eq!(VerifyMode::default(), VerifyMode { incremental: true });
        assert!(!VerifyMode::full().incremental);
    }

    #[test]
    fn dirty_set_is_the_edit_plus_its_internal_neighbors() {
        let scenario = scenario_gen::generate(1, 0); // chain family
        let tracker = DependencyTracker::new(&scenario);
        let internal: Vec<String> = scenario
            .topology
            .internal_routers()
            .map(|r| r.name.clone())
            .collect();
        for name in &internal {
            let dirty = tracker.dirty_of(name);
            assert!(dirty.contains(name), "the edit itself is always dirty");
            for d in &dirty {
                assert!(
                    d == name || scenario.topology.has_link(name, d),
                    "{d} is dirty for an edit to {name} without an adjacency"
                );
            }
            // Everything outside the set is a non-neighbor.
            for other in &internal {
                if !dirty.contains(other) {
                    assert!(!scenario.topology.has_link(name, other));
                }
            }
        }
        // A chain interior router has exactly two internal neighbors.
        let mid = &internal[1];
        assert_eq!(tracker.dirty_of(mid).len(), 3);
    }

    #[test]
    fn dirty_set_stays_bounded_on_large_families() {
        // The whole point: on the 144-router fat tree the dirty set of
        // any edit is a bounded neighborhood, not the network.
        let scenario = scenario_gen::generate_family("fat-tree-144", 1, 0);
        let tracker = DependencyTracker::new(&scenario);
        let n = scenario.topology.internal_routers().count();
        assert_eq!(n, 144);
        for r in scenario.topology.internal_routers() {
            let dirty = tracker.dirty_of(&r.name);
            assert!(
                dirty.len() <= 17,
                "{}: dirty set of {} devices on a degree-bounded topology",
                r.name,
                dirty.len()
            );
        }
    }

    #[test]
    fn session_statics_are_shared_across_sessions_on_a_pinned_family() {
        // Two sessions on the same (seed, family) share the topology;
        // when they also share the intent (and thus the policies) the
        // second must reuse the first's statics bundle. A different
        // seed — different topology — must not.
        let mut ctx = VerifierContext::new();
        let a = scenario_gen::generate_family("as-graph-64", 3, 0);
        let b = (1..32)
            .map(|i| scenario_gen::generate_family("as-graph-64", 3, i))
            .find(|s| s.intent == a.intent)
            .expect("some later index repeats the intent");
        assert_eq!(a.policies, b.policies, "same intent, same policies");
        let v1 = IncrementalVerifier::new(&a, &mut ctx);
        let v2 = IncrementalVerifier::new(&b, &mut ctx);
        assert!(Arc::ptr_eq(&v1.statics, &v2.statics));
        let c = scenario_gen::generate_family("as-graph-64", 4, 0);
        let mut c2 = c.clone();
        c2.policies = a.policies.clone();
        let v3 = IncrementalVerifier::new(&c2, &mut ctx);
        assert!(
            !Arc::ptr_eq(&v1.statics, &v3.statics),
            "a different topology must not share statics even with equal policies"
        );
    }
}
