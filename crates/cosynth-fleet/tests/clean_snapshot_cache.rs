//! Soundness of the worker's clean-snapshot cache
//! (`VerifierContext::clean_snapshot`): a repair session served from the
//! cache reports exactly what a session on a fresh context reports, the
//! key tells apart two intents on one topology, and eviction keeps the
//! cache within its cap.

use cosynth::{VerifierContext, VerifyMode};
use cosynth_fleet::{run_repair_session_tuned, RepairSessionResult, SessionTuning};
use std::collections::BTreeSet;

/// Everything a repair session reports that is content, not timing.
fn content(r: &RepairSessionResult) -> String {
    format!(
        "{}|{}|{}|{}|{}|{}|{}|{}|{}|{:?}",
        r.scenario,
        r.intent,
        r.repaired,
        r.rounds,
        r.localized,
        r.auto,
        r.human,
        r.class,
        r.device,
        r.cost
    )
}

fn tuning(family: &'static str, verify: VerifyMode) -> SessionTuning {
    SessionTuning {
        scenario_family: Some(family),
        verify,
        ..SessionTuning::default()
    }
}

/// The session stream. Fat-tree-36 is one fixed network whose indices
/// cycle through the intents, so its sessions hit the cache; ten small
/// networks in between overflow the cap and evict it, so the fat-tree
/// keys after them miss and are rendered again.
fn stream() -> Vec<(&'static str, u64, usize)> {
    let small = |net: u64| (["chain", "ring", "full-mesh"][net as usize % 3], net, 0);
    let mut keys: Vec<_> = (0..6).map(|i| ("fat-tree-36", 1, i)).collect();
    keys.extend((0..10).map(small));
    keys.extend((6..10).map(|i| ("fat-tree-36", 1, i)));
    keys
}

#[test]
fn cached_snapshots_give_the_content_of_a_fresh_context() {
    let keys = stream();
    for verify in [VerifyMode::default(), VerifyMode::full()] {
        let mut shared = VerifierContext::new();
        let mut intents = BTreeSet::new();
        for &(family, seed, index) in &keys {
            let t = tuning(family, verify);
            let warm = run_repair_session_tuned(seed, index, &mut shared, &t);
            let fresh = run_repair_session_tuned(seed, index, &mut VerifierContext::new(), &t);
            assert_eq!(
                content(&warm),
                content(&fresh),
                "{family} seed {seed} index {index} under {verify:?}"
            );
            intents.insert(warm.intent);
            assert!(shared.snapshots_cached() <= VerifierContext::SNAPSHOT_CAP);
        }
        assert_eq!(intents.len(), 4, "every intent exercised: {intents:?}");
        assert_eq!(shared.snapshot_hits + shared.snapshot_misses, keys.len());
        assert!(shared.snapshot_hits > 0, "the stream must hit the cache");
        assert!(
            shared.snapshot_misses > VerifierContext::SNAPSHOT_CAP,
            "the stream must overflow the cache"
        );
    }
}

#[test]
fn two_intents_on_one_topology_are_two_entries() {
    let t = tuning("fat-tree-36", VerifyMode::default());
    let a = cosynth_fleet::scenario_for_tuned(1, 0, &t);
    let b = (1..16)
        .map(|i| (i, cosynth_fleet::scenario_for_tuned(1, i, &t)))
        .find(|(_, s)| s.intent != a.intent)
        .expect("a second intent within 16 indices");
    assert_eq!(a.topology, b.1.topology, "same network");
    assert_ne!(a.policies, b.1.policies, "different policies");

    let mut ctx = VerifierContext::new();
    run_repair_session_tuned(1, 0, &mut ctx, &t);
    run_repair_session_tuned(1, b.0, &mut ctx, &t);
    assert_eq!((ctx.snapshot_hits, ctx.snapshot_misses), (0, 2));
    assert_eq!(ctx.snapshots_cached(), 2);
    // Each pair is now resident: asking again hits.
    assert_eq!(
        ctx.clean_snapshot(&a).configs(),
        cosynth_fleet::clean_configs_for(&a)
    );
    assert_eq!((ctx.snapshot_hits, ctx.snapshot_misses), (1, 2));
}

#[test]
fn eviction_keeps_the_cache_within_its_cap() {
    // Distinct (topology, policies) pairs only: two seeds can generate
    // the same AS graph, and that would be a (correct) hit.
    let t = tuning("as-graph-64", VerifyMode::default());
    let mut scenarios: Vec<topo_model::Scenario> = Vec::new();
    let mut seed = 0;
    while scenarios.len() < 3 * VerifierContext::SNAPSHOT_CAP {
        let s = cosynth_fleet::scenario_for_tuned(seed, 0, &t);
        if !scenarios
            .iter()
            .any(|o| o.topology == s.topology && o.policies == s.policies)
        {
            scenarios.push(s);
        }
        seed += 1;
    }
    let mut ctx = VerifierContext::new();
    for (i, s) in scenarios.iter().enumerate() {
        let snapshot = ctx.clean_snapshot(s);
        assert_eq!(snapshot.configs(), cosynth_fleet::clean_configs_for(s));
        assert_eq!(
            ctx.snapshots_cached(),
            (i + 1).min(VerifierContext::SNAPSHOT_CAP)
        );
    }
    assert_eq!(ctx.snapshot_misses, scenarios.len(), "distinct networks");
    // The newest entries survive; the oldest were evicted first.
    let newest = scenarios.last().unwrap();
    ctx.clean_snapshot(newest);
    assert_eq!(ctx.snapshot_hits, 1);
    ctx.clean_snapshot(&scenarios[0]);
    assert_eq!(ctx.snapshot_misses, scenarios.len() + 1);
    assert!(ctx.snapshots_cached() <= VerifierContext::SNAPSHOT_CAP);
}
