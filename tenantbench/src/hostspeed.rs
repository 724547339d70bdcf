//! The host-speed reference the closed-loop workloads' times are scaled
//! by.
//!
//! The benchmark runs on a few shared cores whose speed drifts with what
//! neighbours run: by up to 2x within seconds and by a third for minutes
//! at a time on a 2-vCPU Xeon VM, and a session's time drifts with it.
//! So a run times fixed kernels, owned by the benchmark and not by the
//! program, before each measured block and after the last, and reports
//! its times at the reference speed: `time × factor`, where `factor` is
//! the geometric mean over the kernels of `nominal / run median`. A
//! change to the program moves the scaled figures exactly as it moves
//! the raw ones; the raw figures and the kernel medians are printed
//! beside them.
//!
//! The kernels load four resources a session uses — the ALU, allocation
//! and hashing in the private caches, memory latency and memory
//! bandwidth — because no one of them tracked the sessions: over sixteen
//! 20 s repair runs the geometric mean of the four narrowed the spread
//! of every timed metric, while a single string kernel over-corrected
//! repair-cold by 2x in one slow spell and under-corrected repair-warm
//! by half in another. (Two sets of ten 30 s repair-warm runs:
//! `cpu_ms_per_session` spread 0.07 and 0.12 of the median as measured,
//! 0.03 and 0.06 scaled.)
//!
//! The kernels run in a helper process (this binary with
//! `--host-probe`), so that their 64 MiB buffer stays out of the
//! program's `peak_rss_mb`.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, DefaultHasher};
use std::io::{self, BufRead, BufReader, Write};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::Instant;

/// The kernels, in the order their times are reported.
pub const KERNELS: [&str; 4] = ["alu", "strings", "chase", "scan"];
/// Each kernel's median on the reference host (2 vCPUs of an Intel Xeon
/// VM, both threads probing at once), milliseconds: the speed scaled
/// times refer to.
pub const NOMINAL_MS: [f64; 4] = [7.0, 9.0, 17.5, 9.8];
/// `u32` entries of the buffer the memory kernels walk (64 MiB).
const RING: usize = 1 << 24;
/// Dependent loads per chase.
const CHASE_STEPS: usize = 100_000;
/// Rendered, indexed and sorted lines per strings call.
const LINES: usize = 12_000;
/// Rounds of the ALU kernel.
const ALU_ROUNDS: usize = 3_000_000;

fn xorshift(mut x: u64) -> u64 {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x
}

/// A single cycle through the whole buffer (Sattolo's shuffle), so a
/// chase never settles into a short, cached loop.
fn ring() -> Vec<u32> {
    let mut ring: Vec<u32> = (0..RING as u32).collect();
    let mut x: u64 = 0x2545_F491_4F6C_DD1D;
    for i in (1..RING).rev() {
        x = xorshift(x);
        ring.swap(i, (x % i as u64) as usize);
    }
    ring
}

fn timed(f: impl FnOnce() -> u64) -> f64 {
    let t0 = Instant::now();
    std::hint::black_box(f());
    t0.elapsed().as_secs_f64() * 1e3
}

fn alu() -> u64 {
    (0..ALU_ROUNDS).fold(0x9E37_79B9_7F4A_7C15, |x, _| xorshift(x))
}

/// Rendering, splitting, hashing, indexing and sorting small strings, as
/// in config rendering, parsing and the memo tables.
fn strings() -> u64 {
    let mut lines: Vec<String> = (0..LINES)
        .map(|i| format!("neighbor 10.{}.{}.1 route-map RM-{i} in", i % 251, i % 97))
        .collect();
    let mut index: HashMap<&str, usize, BuildHasherDefault<DefaultHasher>> = HashMap::default();
    for (i, l) in lines.iter().enumerate() {
        index.insert(l.as_str(), i);
    }
    let mut sum = 0u64;
    for l in &lines {
        let fields: Vec<&str> = l.split(' ').collect();
        if index.contains_key(l.as_str()) {
            sum += fields[1].len() as u64;
        }
    }
    lines.sort_unstable();
    sum + lines[LINES / 2].len() as u64
}

fn chase(ring: &[u32]) -> u64 {
    let mut at = 0u32;
    for _ in 0..CHASE_STEPS {
        at = ring[at as usize];
    }
    u64::from(at)
}

fn scan(ring: &[u32]) -> u64 {
    ring.iter().step_by(4).map(|&x| u64::from(x)).sum()
}

/// One probe: every kernel once on each of `threads` threads at once (so
/// the host is loaded as the measured workload loads it), after one
/// untimed call (a core that was idle runs its first milliseconds slow).
/// Returns each kernel's mean time over the threads, milliseconds.
fn probe_here(ring: &[u32], threads: usize) -> [f64; 4] {
    let per_thread: Vec<[f64; 4]> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                s.spawn(|| {
                    std::hint::black_box(strings());
                    [
                        timed(alu),
                        timed(strings),
                        timed(|| chase(ring)),
                        timed(|| scan(ring)),
                    ]
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("host-speed probe thread"))
            .collect()
    });
    let mut mean = [0.0; 4];
    for t in &per_thread {
        for (m, x) in mean.iter_mut().zip(t) {
            *m += x / per_thread.len() as f64;
        }
    }
    mean
}

/// The helper process: builds the buffer, prints `ready`, then answers
/// each line `<threads>` with one probe's four times; ends at EOF.
pub fn serve_probes() -> io::Result<()> {
    let ring = ring();
    let mut out = io::stdout().lock();
    writeln!(out, "ready")?;
    out.flush()?;
    for line in io::stdin().lock().lines() {
        let threads: usize = line?
            .trim()
            .parse()
            .map_err(|e| io::Error::other(format!("--host-probe: {e}")))?;
        let t = probe_here(&ring, threads.max(1));
        writeln!(out, "{} {} {} {}", t[0], t[1], t[2], t[3])?;
        out.flush()?;
    }
    Ok(())
}

/// A run's probes, and the helper process that takes them. Dropping it
/// ends the helper and waits for it.
pub struct HostSpeed {
    probes: Vec<[f64; 4]>,
    helper: Option<(Child, ChildStdin, BufReader<ChildStdout>)>,
}

impl HostSpeed {
    /// Starts the helper and waits until its buffer is built.
    pub fn start() -> io::Result<HostSpeed> {
        let mut child = Command::new(std::env::current_exe()?)
            .arg("--host-probe")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()?;
        let stdin = child.stdin.take().expect("piped stdin");
        let stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut speed = HostSpeed {
            probes: Vec::new(),
            helper: Some((child, stdin, stdout)),
        };
        if speed.answer()? != "ready" {
            return Err(io::Error::other("host-speed helper did not start"));
        }
        Ok(speed)
    }

    fn answer(&mut self) -> io::Result<String> {
        let (_, _, out) = self.helper.as_mut().expect("helper running");
        let mut line = String::new();
        if out.read_line(&mut line)? == 0 {
            return Err(io::Error::other("host-speed helper exited"));
        }
        Ok(line.trim().to_string())
    }

    /// Times the kernels on `threads` threads at once.
    pub fn probe(&mut self, threads: usize) -> io::Result<()> {
        let (_, stdin, _) = self.helper.as_mut().expect("helper running");
        writeln!(stdin, "{threads}")?;
        stdin.flush()?;
        let line = self.answer()?;
        let t: Vec<f64> = line
            .split_whitespace()
            .filter_map(|x| x.parse().ok())
            .collect();
        let t: [f64; 4] = t
            .try_into()
            .map_err(|_| io::Error::other(format!("host-speed helper said {line:?}")))?;
        self.probes.push(t);
        Ok(())
    }

    /// Each kernel's median over the run's probes, milliseconds.
    pub fn medians_ms(&self) -> [f64; 4] {
        medians(&self.probes)
    }

    /// What a time measured in this run is multiplied by to read at the
    /// reference speed.
    pub fn factor(&self) -> f64 {
        factor_of(self.medians_ms())
    }

    pub fn probes(&self) -> usize {
        self.probes.len()
    }
}

impl Drop for HostSpeed {
    fn drop(&mut self) {
        if let Some((mut child, stdin, _)) = self.helper.take() {
            // EOF on its stdin ends the helper.
            drop(stdin);
            let _ = child.wait();
        }
    }
}

fn medians(probes: &[[f64; 4]]) -> [f64; 4] {
    std::array::from_fn(|k| {
        let v: Vec<f64> = probes.iter().map(|p| p[k]).collect();
        crate::stats::p50(&v).unwrap_or(NOMINAL_MS[k])
    })
}

/// The geometric mean over the kernels of `nominal / median`: below 1 on
/// a host slower than the reference.
pub fn factor_of(medians_ms: [f64; 4]) -> f64 {
    let log_sum: f64 = NOMINAL_MS
        .iter()
        .zip(medians_ms)
        .map(|(n, m)| (n / m.max(1e-9)).ln())
        .sum();
    (log_sum / NOMINAL_MS.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn a_host_twice_as_slow_halves_the_scaled_times() {
        assert!(close(factor_of(NOMINAL_MS), 1.0));
        assert!(close(factor_of(NOMINAL_MS.map(|n| 2.0 * n)), 0.5));
        // One kernel 16x slower, the rest at nominal: the fourth root.
        let mut m = NOMINAL_MS;
        m[2] *= 16.0;
        assert!(close(factor_of(m), 0.5));
        // Medians are taken per kernel over the probes.
        let probes = [
            NOMINAL_MS.map(|n| 2.0 * n),
            NOMINAL_MS.map(|n| 9.0 * n),
            NOMINAL_MS.map(|n| 2.0 * n),
            NOMINAL_MS,
            NOMINAL_MS.map(|n| 2.0 * n),
        ];
        assert!(close(factor_of(medians(&probes)), 0.5));
    }

    #[test]
    fn the_kernels_do_the_same_work_every_call() {
        let ring = ring();
        assert_eq!(strings(), strings());
        assert_eq!(alu(), alu());
        assert_eq!(chase(&ring), chase(&ring));
        // The chase visits distinct entries: the ring is one cycle.
        let mut seen = std::collections::HashSet::new();
        let mut at = 0u32;
        for _ in 0..CHASE_STEPS {
            assert!(seen.insert(at));
            at = ring[at as usize];
        }
        assert!(probe_here(&ring, 2).iter().all(|&t| t > 0.0));
    }
}
