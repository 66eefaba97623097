//! Validate a `.telemetry.jsonl` event log: every line must parse as a
//! [`routenet_obs::Record`], sequence numbers must be strictly increasing,
//! and (optionally) a required set of event kinds must be present.
//!
//! ```text
//! validate-telemetry <log.jsonl> [--require RunStart,Epoch,RunEnd]
//! ```
//!
//! Exits 0 and prints a one-line digest on success, plus one `Serve:` line
//! per serving-session digest in the log; exits 1 with a diagnostic on the
//! first violation. Used by `scripts/check.sh` as the telemetry smoke gate.

use routenet_obs::{Event, Record};
use std::collections::BTreeMap;

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut path: Option<&str> = None;
    let mut require: Vec<String> = Vec::new();
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--require" => {
                let Some(list) = argv.get(i + 1) else {
                    eprintln!("--require needs a comma-separated kind list");
                    std::process::exit(2);
                };
                require.extend(list.split(',').map(|s| s.trim().to_string()));
                i += 2;
            }
            flag if flag.starts_with("--") => {
                eprintln!("unknown flag {flag}");
                std::process::exit(2);
            }
            p => {
                path = Some(p);
                i += 1;
            }
        }
    }
    let Some(path) = path else {
        eprintln!("usage: validate-telemetry <log.jsonl> [--require Kind1,Kind2]");
        std::process::exit(2);
    };

    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("{path}: cannot read: {e}");
        std::process::exit(1);
    });

    let mut kinds: BTreeMap<String, usize> = BTreeMap::new();
    let mut last_seq: Option<u64> = None;
    let mut n = 0usize;
    let mut serve_lines: Vec<String> = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let rec: Record = serde_json::from_str(line).unwrap_or_else(|e| {
            eprintln!("{path}:{}: unparseable record: {e}", lineno + 1);
            std::process::exit(1);
        });
        if let Some(prev) = last_seq {
            if rec.seq <= prev {
                eprintln!(
                    "{path}:{}: seq {} not strictly increasing (prev {prev})",
                    lineno + 1,
                    rec.seq
                );
                std::process::exit(1);
            }
        }
        last_seq = Some(rec.seq);
        if let Event::Serve {
            workers,
            responses,
            batches,
            qps,
            ..
        } = &rec.event
        {
            serve_lines.push(format!(
                "Serve: workers={workers} responses={responses} batches={batches} qps={qps:.1}"
            ));
        }
        *kinds.entry(rec.event.kind().to_string()).or_insert(0) += 1;
        n += 1;
    }
    if n == 0 {
        eprintln!("{path}: no telemetry records");
        std::process::exit(1);
    }
    for k in &require {
        if !kinds.contains_key(k) {
            eprintln!(
                "{path}: missing required event kind {k} (present: {})",
                kinds.keys().cloned().collect::<Vec<_>>().join(",")
            );
            std::process::exit(1);
        }
    }
    let digest: Vec<String> = kinds.iter().map(|(k, c)| format!("{k}={c}")).collect();
    println!("ok: {path}: {n} records ({})", digest.join(" "));
    for line in &serve_lines {
        println!("{line}");
    }
}
