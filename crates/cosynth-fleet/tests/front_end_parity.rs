//! The two front ends drive one engine, so they must agree: one request
//! script through stdin `serve` and through `serve_listener` (a client
//! that waits for each request's answer before sending the next) gives
//! the same multiset of session lines and the same drain ledger.

use cosynth_fleet::{serve, serve_listener, ServeOptions, ServeSummary};
use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, TcpListener, TcpStream};

/// Each request with the event that ends its answer.
const SCRIPT: &[(&str, &str)] = &[
    (r#"{"use_case":"synthesis","seed":1,"count":3}"#, "batch"),
    (r#"{"use_case":"repair","seed":1,"count":2}"#, "batch"),
    // Over the queue depth of 3: two jobs shed with `queue_full`.
    (r#"{"use_case":"synthesis","seed":2,"count":5}"#, "batch"),
    (
        r#"{"use_case":"repair","seed":2,"count":2,"deadline_ms":0}"#,
        "batch",
    ),
    ("this is not json", "reject"),
    (r#"{"metrics":true}"#, "metrics"),
    (r#"{"use_case":"repair","seed":3,"count":3}"#, "batch"),
];

fn opts() -> ServeOptions {
    ServeOptions {
        threads: 2,
        queue_depth: 3,
        ..Default::default()
    }
}

/// Session lines with the one timing field cut out, sorted.
fn sessions(lines: &[String]) -> Vec<String> {
    let mut out: Vec<String> = lines
        .iter()
        .filter(|l| !l.contains("\"event\":"))
        .map(|l| {
            let start = l.find("\"wall_ms\":").expect("session line has wall_ms");
            let end = start + l[start..].find(",\"").expect("wall_ms is not last") + 1;
            format!("{}{}", &l[..start], &l[end..])
        })
        .collect();
    out.sort();
    out
}

fn counts(s: &ServeSummary) -> [usize; 11] {
    [
        s.batches,
        s.sessions,
        s.failures,
        s.protocol_errors,
        s.submitted,
        s.completed,
        s.shed_queue_full,
        s.shed_over_deadline,
        s.deadline_exceeded,
        s.quarantined,
        s.transport_retries,
    ]
}

fn via_stdin() -> (Vec<String>, ServeSummary) {
    let input: String = SCRIPT.iter().map(|(line, _)| format!("{line}\n")).collect();
    let mut out = Vec::new();
    let summary = serve(input.as_bytes(), &mut out, &opts()).expect("serve io");
    let text = String::from_utf8(out).unwrap();
    (text.lines().map(str::to_string).collect(), summary)
}

fn via_socket() -> (Vec<String>, ServeSummary) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().unwrap();
    let daemon = std::thread::spawn(move || serve_listener(listener, None, &opts()));
    let stream = TcpStream::connect(addr).expect("connect");
    let mut out = stream.try_clone().unwrap();
    let mut responses = BufReader::new(stream).lines();
    let mut lines = Vec::new();
    for (request, last) in SCRIPT {
        writeln!(out, "{request}").unwrap();
        out.flush().unwrap();
        let end = format!("\"event\":\"{last}\"");
        loop {
            let line = responses.next().expect("answer line").expect("read");
            let done = line.contains(&end);
            lines.push(line);
            if done {
                break;
            }
        }
    }
    // Half-close: the connection ends with its drain line.
    out.shutdown(Shutdown::Write).unwrap();
    lines.extend(responses.map(|l| l.expect("read")));
    let mut stop = TcpStream::connect(addr).expect("connect");
    writeln!(stop, "{{\"shutdown\":true}}").unwrap();
    let summary = daemon.join().unwrap().expect("daemon I/O ok");
    (lines, summary)
}

#[test]
fn stdin_and_socket_front_ends_agree() {
    let (stdin_lines, stdin_summary) = via_stdin();
    let (socket_lines, socket_summary) = via_socket();
    let stdin_sessions = sessions(&stdin_lines);
    // 3 + 2 + 3 admitted of 5 + 0 + 3.
    assert_eq!(stdin_sessions.len(), 11, "{stdin_lines:#?}");
    assert_eq!(stdin_sessions, sessions(&socket_lines));
    assert_eq!(counts(&stdin_summary), counts(&socket_summary));
    assert_eq!(
        stdin_summary.cost.total_milli_cost(),
        socket_summary.cost.total_milli_cost()
    );
    assert_eq!(
        (
            stdin_summary.shed_queue_full,
            stdin_summary.shed_over_deadline
        ),
        (2, 2)
    );
    assert_eq!(stdin_summary.protocol_errors, 1);
    assert!(stdin_summary.accounted() && socket_summary.accounted());
    // The mid-run snapshot balances on both front ends.
    for lines in [&stdin_lines, &socket_lines] {
        let metrics = lines
            .iter()
            .find(|l| l.contains("\"event\":\"metrics\""))
            .expect("metrics line");
        assert!(metrics.contains("\"accounted\":true"), "{metrics}");
    }
}
