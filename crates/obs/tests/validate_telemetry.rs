//! The `validate-telemetry` binary reports each serving digest with its
//! batcher worker count, and still accepts logs written before `Serve`
//! carried that field (they came from a single batcher, so they read as 1).

use routenet_obs::{Event, Record};
use std::process::Command;

fn serve_record(workers: usize) -> Record {
    Record {
        seq: 1,
        elapsed_s: 2.0,
        event: Event::Serve {
            queries: 10,
            responses: 10,
            shed: 0,
            batches: 3,
            qps: 5.0,
            p50_latency_s: 0.01,
            p95_latency_s: 0.02,
            mean_batch: 3.3,
            max_batch: 4,
            wall_s: 2.0,
            workers,
        },
    }
}

/// Run `validate-telemetry` on a log made of `lines`; returns its stdout.
fn validate(tag: &str, lines: &[String]) -> String {
    let dir = std::env::temp_dir().join(format!("validate-telemetry-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let log = dir.join("serve.telemetry.jsonl");
    std::fs::write(&log, lines.join("\n") + "\n").expect("write log");
    let out = Command::new(env!("CARGO_BIN_EXE_validate-telemetry"))
        .arg(&log)
        .args(["--require", "Serve"])
        .output()
        .expect("run validate-telemetry");
    let _ = std::fs::remove_dir_all(&dir);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 digest")
}

#[test]
fn serve_digest_prints_its_worker_count() {
    let line = serde_json::to_string(&serve_record(3)).unwrap();
    let stdout = validate("new", &[line]);
    assert!(
        stdout.contains("Serve: workers=3 responses=10 batches=3"),
        "{stdout}"
    );
}

#[test]
fn serve_digest_without_workers_reads_as_one_worker() {
    let line = serde_json::to_string(&serve_record(3)).unwrap();
    let old = line.replace(",\"workers\":3", "");
    assert!(!old.contains("workers"), "{old}");
    let rec: Record = serde_json::from_str(&old).expect("old digest parses");
    assert_eq!(rec, serve_record(1));
    let stdout = validate("old", &[old]);
    assert!(stdout.contains("Serve: workers=1 "), "{stdout}");
}
