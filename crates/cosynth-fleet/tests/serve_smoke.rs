//! End-to-end smoke for `fleet --serve`: start the service as a real
//! subprocess, submit a mixed synthesis+repair batch over stdin, and
//! assert every session converges/repairs, results stream as JSONL, and
//! the process drains cleanly with exit 0. This is the same contract
//! the CI `fleetd` smoke job checks from the shell.

use std::io::Write;
use std::process::{Command, Stdio};

#[test]
fn serve_runs_a_mixed_batch_and_drains_cleanly() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_fleet"))
        .args(["--serve", "--threads", "2"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn fleet --serve");
    {
        let stdin = child.stdin.as_mut().expect("piped stdin");
        stdin
            .write_all(
                b"{\"use_case\":\"synthesis\",\"seed\":1,\"count\":4}\n\
                  {\"use_case\":\"repair\",\"seed\":1,\"count\":4}\n",
            )
            .expect("write requests");
    } // drop → EOF → drain
    let out = child.wait_with_output().expect("collect output");
    let stdout = String::from_utf8(out.stdout).unwrap();
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(
        out.status.success(),
        "exit {:?}\nstdout:\n{stdout}\nstderr:\n{stderr}",
        out.status.code()
    );

    let lines: Vec<&str> = stdout.lines().collect();
    // 8 session lines + 2 batch lines + 1 drain line.
    assert_eq!(lines.len(), 11, "{stdout}");
    for line in &lines {
        topo_model::json::parse(line).unwrap_or_else(|e| panic!("bad JSONL {line}: {e}"));
    }
    // Every synthesis session converged, every repair session repaired.
    let synth: Vec<&&str> = lines
        .iter()
        .filter(|l| l.contains("\"use_case\":\"synthesis\""))
        .collect();
    assert_eq!(synth.len(), 4, "{stdout}");
    assert!(
        synth.iter().all(|l| l.contains("\"converged\":true")),
        "{stdout}"
    );
    let repairs: Vec<&&str> = lines
        .iter()
        .filter(|l| l.contains("\"use_case\":\"repair\""))
        .collect();
    assert_eq!(repairs.len(), 4, "{stdout}");
    assert!(
        repairs.iter().all(|l| l.contains("\"repaired\":true")),
        "{stdout}"
    );
    // The drain line carries the resident-engine counters, and the
    // second batch must have recycled the first batch's managers.
    let drain = lines.last().unwrap();
    assert!(drain.contains("\"event\":\"drain\""), "{drain}");
    assert!(drain.contains("\"failures\":0"), "{drain}");
    let parsed = topo_model::json::parse(drain).unwrap();
    let reuses = parsed
        .get("manager_reuses")
        .and_then(|v| v.as_u32())
        .expect("drain reports manager_reuses");
    assert!(
        reuses > 0,
        "resident pool must recycle across batches: {drain}"
    );
    // Every repair session asks its worker's clean-snapshot cache once.
    let snapshot = |key: &str| {
        parsed
            .get(key)
            .and_then(|v| v.as_u32())
            .unwrap_or_else(|| panic!("drain reports {key}: {drain}"))
    };
    assert_eq!(
        snapshot("snapshot_hits") + snapshot("snapshot_misses"),
        4,
        "{drain}"
    );
}

#[test]
fn serve_exits_nonzero_on_a_malformed_request() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_fleet"))
        .args(["--serve", "--threads", "2"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn fleet --serve");
    child
        .stdin
        .as_mut()
        .unwrap()
        .write_all(b"definitely not json\n")
        .unwrap();
    let out = child.wait_with_output().expect("collect output");
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        stdout.contains("\"event\":\"reject\",\"reason\":\"bad_request\",\"code\":\"bad_json\""),
        "{stdout}"
    );
}
