//! The pinned outputs in `tests/golden`, reproduced byte for byte by the
//! `picloud-cli` binary this suite builds: the `all` report, both
//! fidelities of the S2 sweep, the E17 metrics snapshot and its windowed
//! query and alert exports, and the traffic query export, each at seeds
//! 2013 and 7.
//! These are the commands whose output a change must leave alone unless
//! it regenerates the files on purpose (the verify recipe lists them).

use std::path::Path;
use std::process::Command;

/// Runs `command` (space-separated arguments) at seeds 2013 and 7 and
/// compares what it prints with `tests/golden/<stem>-seed<seed>.<ext>`.
/// A command whose last argument is `--out` writes a file instead,
/// whose bytes are compared.
fn assert_goldens(stem: &str, ext: &str, command: &str) {
    for seed in [2013u64, 7] {
        let name = format!("{stem}-seed{seed}.{ext}");
        let mut args: Vec<String> = command.split(' ').map(String::from).collect();
        let out = (args.last().map(String::as_str) == Some("--out")).then(|| {
            let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("golden");
            std::fs::create_dir_all(&dir).expect("temporary directory");
            dir.join(&name)
        });
        if let Some(path) = &out {
            args.pop();
            args.extend(["--out".into(), path.display().to_string()]);
        }
        args.extend(["--seed".into(), seed.to_string()]);
        let run = Command::new(env!("CARGO_BIN_EXE_picloud-cli"))
            .args(&args)
            .output()
            .expect("picloud-cli runs");
        assert!(
            run.status.success(),
            "picloud-cli {args:?} failed: {}",
            String::from_utf8_lossy(&run.stderr)
        );
        let got = match &out {
            Some(path) => std::fs::read(path).expect("picloud-cli wrote its --out file"),
            None => run.stdout,
        };
        let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
        let want = std::fs::read(golden.join(&name)).expect("golden file exists");
        if got != want {
            let line = want
                .split(|&b| b == b'\n')
                .zip(got.split(|&b| b == b'\n'))
                .position(|(w, g)| w != g)
                .map_or_else(|| "the end".to_string(), |i| format!("line {}", i + 1));
            panic!(
                "picloud-cli {args:?} differs from tests/golden/{name} at {line} \
                 ({} vs {} bytes)",
                got.len(),
                want.len()
            );
        }
    }
}

#[test]
fn all_reports_match_their_goldens() {
    assert_goldens("all", "txt", "all");
}

#[test]
fn estimate_sweeps_match_their_goldens() {
    for mode in ["exact", "estimate"] {
        let command = format!("estimate --fidelity {mode} --out");
        assert_goldens(&format!("estimate-{mode}"), "jsonl", &command);
    }
}

#[test]
fn e17_metrics_snapshots_match_their_goldens() {
    // Every E17 series plus the sink's tsdb totals: a series created
    // before its first write is scraped early, which moves
    // `telemetry_tsdb_samples_total` and `telemetry_tsdb_bytes_total`.
    assert_goldens(
        "telemetry-e17",
        "jsonl",
        "telemetry --experiment e17 --format jsonl --out",
    );
}

#[test]
fn e17_query_and_alert_exports_match_their_goldens() {
    assert_goldens(
        "query-e17",
        "jsonl",
        "query --experiment e17 --metric container_fleet_dark --fn avg_over_time \
         --window 120 --step 60 --format jsonl --out",
    );
    assert_goldens(
        "alerts-e17",
        "jsonl",
        "alerts --experiment e17 --format jsonl --out",
    );
}

#[test]
fn traffic_query_exports_match_their_goldens() {
    assert_goldens(
        "query-traffic",
        "jsonl",
        "query --experiment traffic --metric network_active_flows --fn max_over_time \
         --window 5 --format jsonl --out",
    );
}
