//! `fault_inject::Snapshot` against the free `inject` / `corpus` entry
//! points and against the per-call classification they replaced: one
//! snapshot, classified once and reused across 64 fault seeds, must draw
//! the same router, class, and mutation as a one-shot call on every
//! small family and on two large ones.

use cosynth_fleet::{clean_configs_for, family_names, scenario_for_tuned, SessionTuning};
use fault_inject::{applicable_classes, mutate_config, FaultClass, Injection, Snapshot};
use llm_sim::rng::SimRng;
use std::collections::BTreeMap;

const SEEDS: u64 = 64;

/// The injection stream's RNG, as `fault-inject` derives it per seed.
fn stream(seed: u64) -> SimRng {
    SimRng::seed_from_u64(
        seed.wrapping_mul(0xD6E8_FEB8_6659_FD93)
            .wrapping_add(0x5851_F42D),
    )
}

/// The per-call algorithm the snapshot replaced, written out against the
/// public primitives: classify every router, then draw class and router.
fn reference_inject(configs: &BTreeMap<String, String>, seed: u64) -> Option<Injection> {
    let mut rng = stream(seed);
    let per_router: Vec<(&String, Vec<FaultClass>)> = configs
        .iter()
        .map(|(name, text)| (name, applicable_classes(text)))
        .collect();
    let mut classes: Vec<FaultClass> = FaultClass::ALL
        .into_iter()
        .filter(|c| per_router.iter().any(|(_, cs)| cs.contains(c)))
        .collect();
    while !classes.is_empty() {
        let class = classes.remove(rng.index(classes.len()));
        let routers: Vec<&String> = per_router
            .iter()
            .filter(|(_, cs)| cs.contains(&class))
            .map(|(n, _)| *n)
            .collect();
        let router = routers[rng.index(routers.len())];
        if let Some((mutated, line_start, line_end, detail)) =
            mutate_config(&configs[router], class, &mut rng)
        {
            let mut broken = configs.clone();
            broken.insert(router.clone(), mutated);
            return Some(Injection {
                configs: broken,
                fault: fault_inject::GroundTruth {
                    device: router.clone(),
                    class,
                    line_start,
                    line_end,
                    detail,
                },
            });
        }
    }
    None
}

fn assert_same(a: &Injection, b: &Injection, what: &str) {
    assert_eq!(a.fault, b.fault, "{what}");
    assert_eq!(a.configs, b.configs, "{what}");
}

fn check(family: &'static str) {
    let tuning = SessionTuning {
        scenario_family: Some(family),
        ..SessionTuning::default()
    };
    let configs = clean_configs_for(&scenario_for_tuned(1, 0, &tuning));
    let snapshot = Snapshot::new(&configs);
    assert_eq!(snapshot.configs(), configs);
    for seed in 0..SEEDS {
        let what = format!("{family} seed {seed}");
        let reused = snapshot.inject(seed).expect("applicable fault");
        assert_same(
            &reused,
            &fault_inject::inject(&configs, seed).unwrap(),
            &what,
        );
        assert_same(&reused, &reference_inject(&configs, seed).unwrap(), &what);
        let corpus = snapshot.corpus(seed);
        let free = fault_inject::corpus(&configs, seed);
        assert!(!corpus.is_empty(), "{what}");
        assert_eq!(corpus.len(), free.len(), "{what}");
        for (a, b) in corpus.iter().zip(&free) {
            assert_same(a, b, &what);
        }
    }
}

#[test]
fn snapshot_matches_one_shot_injection_on_every_small_family() {
    for family in family_names() {
        check(family);
    }
}

#[test]
fn snapshot_matches_one_shot_injection_on_as_graph_64() {
    check("as-graph-64");
}

#[test]
fn snapshot_matches_one_shot_injection_on_fat_tree_36() {
    check("fat-tree-36");
}
