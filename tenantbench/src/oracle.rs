//! The content oracle: per-session expected content for every session
//! key a workload can run, committed under `tenantbench/oracle/` and
//! compiled into the binary.
//!
//! Generated by `tenantbench --gen-oracle <workload>`, which runs each
//! session twice — once on the workload's own verification schedule
//! (incremental, resident context) and once under
//! `cosynth::VerifyMode::full()`, the full re-verification oracle — and
//! refuses to write a file if the two disagree on any field. Every
//! measured session is compared against its entry; a mismatch is a
//! failed session, so a speed-up that changes session content cannot
//! pass the benchmark.

use crate::workload::{Stream, Workload};
use cosynth::VerifierContext;
use cosynth_fleet::{cases, SessionTuning};
use std::collections::HashMap;
use std::fmt::Write as _;

/// What one session must produce. For synthesis `ok` is "converged" and
/// `rounds` the eBGP simulation rounds; for repair `ok` is "repaired",
/// `rounds` the repair prompts and `localized` the first localization's
/// agreement with the injected fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Content {
    pub ok: bool,
    pub rounds: u64,
    pub localized: bool,
    pub auto: u64,
    pub human: u64,
    pub llm_calls: u64,
    pub milli_cost: u64,
}

impl Content {
    pub fn of_synthesis(r: &cases::SessionResult) -> Self {
        Content {
            ok: r.converged(),
            rounds: r.sim_rounds as u64,
            localized: false,
            auto: r.auto as u64,
            human: r.human as u64,
            llm_calls: r.cost.total_calls(),
            milli_cost: r.cost.total_milli_cost(),
        }
    }

    pub fn of_repair(r: &cases::RepairSessionResult) -> Self {
        Content {
            ok: r.repaired && !r.panicked && !r.deadline_exceeded,
            rounds: r.rounds as u64,
            localized: r.localized,
            auto: r.auto as u64,
            human: r.human as u64,
            llm_calls: r.cost.total_calls(),
            milli_cost: r.cost.total_milli_cost(),
        }
    }

    fn line(&self, key: u64) -> String {
        format!(
            "{key} {} {} {} {} {} {} {}",
            self.ok as u8,
            self.rounds,
            self.localized as u8,
            self.auto,
            self.human,
            self.llm_calls,
            self.milli_cost
        )
    }
}

/// Expected content by session key.
#[derive(Debug, Clone, Default)]
pub struct Oracle {
    entries: HashMap<u64, Content>,
}

impl Oracle {
    /// Parses an oracle file: `#` comments, then one
    /// `key ok rounds localized auto human llm_calls milli_cost` line
    /// per session.
    pub fn parse(text: &str) -> Result<Oracle, String> {
        let mut entries = HashMap::new();
        for (n, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let f: Vec<u64> = line
                .split_ascii_whitespace()
                .map(|t| t.parse::<u64>())
                .collect::<Result<_, _>>()
                .map_err(|e| format!("oracle line {}: {e}", n + 1))?;
            if f.len() != 8 {
                return Err(format!("oracle line {}: expected 8 fields", n + 1));
            }
            entries.insert(
                f[0],
                Content {
                    ok: f[1] == 1,
                    rounds: f[2],
                    localized: f[3] == 1,
                    auto: f[4],
                    human: f[5],
                    llm_calls: f[6],
                    milli_cost: f[7],
                },
            );
        }
        Ok(Oracle { entries })
    }

    /// The committed oracle for `workload`.
    pub fn committed(workload: Workload) -> Oracle {
        let text = match workload {
            Workload::ServeSynth => include_str!("../oracle/serve-synth.txt"),
            Workload::RepairWarm => include_str!("../oracle/repair-warm.txt"),
            Workload::RepairCold => include_str!("../oracle/repair-cold.txt"),
        };
        Oracle::parse(text).expect("committed oracle parses")
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether `got` is what session `key` must produce: the expected
    /// content, and a session that met its contract. A key with no
    /// entry is a mismatch (the stream left the committed range).
    pub fn matches(&self, key: u64, got: &Content) -> bool {
        got.ok && self.entries.get(&key) == Some(got)
    }

    /// Replaces one entry (tests: a mutated oracle must fail runs).
    #[cfg(test)]
    pub fn set(&mut self, key: u64, content: Content) {
        self.entries.insert(key, content);
    }
}

/// Runs session `key` of `workload` on `ctx` under `tuning`.
pub fn run_content(
    workload: Workload,
    key: u64,
    ctx: &mut VerifierContext,
    tuning: &SessionTuning,
) -> Content {
    let (seed, index) = workload.session_of(key);
    match workload {
        Workload::ServeSynth => {
            Content::of_synthesis(&cases::run_session_tuned(seed, index, ctx, tuning))
        }
        _ => Content::of_repair(&cases::run_repair_session_tuned(seed, index, ctx, tuning)),
    }
}

/// Generates the oracle text for `workload` on two threads, cross-checking
/// every entry against full re-verification. Errors name the first key
/// whose incremental and full content disagree, or whose session failed.
pub fn generate(workload: Workload) -> Result<String, String> {
    let keys: Vec<u64> = Stream::all_keys(workload);
    let halves: Vec<&[u64]> = keys.chunks(keys.len().div_ceil(2)).collect();
    let results: Vec<Result<Vec<String>, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = halves
            .iter()
            .map(|chunk| {
                s.spawn(move || {
                    let tuning = workload.tuning();
                    let full = SessionTuning {
                        verify: cosynth::VerifyMode::full(),
                        ..tuning
                    };
                    let mut resident = VerifierContext::new();
                    let mut lines = Vec::with_capacity(chunk.len());
                    for &key in chunk.iter() {
                        let inc = run_content(workload, key, &mut resident, &tuning);
                        let reference =
                            run_content(workload, key, &mut VerifierContext::new(), &full);
                        if inc != reference {
                            return Err(format!(
                                "key {key}: incremental {inc:?} != full {reference:?}"
                            ));
                        }
                        if !inc.ok {
                            return Err(format!("key {key}: session failed its contract"));
                        }
                        lines.push(inc.line(key));
                    }
                    Ok(lines)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# {} content oracle: key ok rounds localized auto human llm_calls milli_cost",
        workload.name()
    );
    let _ = writeln!(out, "# {}", workload.key_doc());
    let _ = writeln!(
        out,
        "# Generated by `tenantbench --gen-oracle {}`; every entry agrees with VerifyMode::full().",
        workload.name()
    );
    for r in results {
        for line in r? {
            out.push_str(&line);
            out.push('\n');
        }
    }
    Ok(out)
}
