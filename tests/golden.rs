//! The pinned outputs in `tests/golden`, reproduced byte for byte by the
//! `picloud-cli` binary this suite builds: the `all` report, both
//! fidelities of the S2 sweep, the E17 metrics snapshot and its windowed
//! query and alert exports, and the traffic query export, each at seeds
//! 2013 and 7.
//! These are the commands whose output a change must leave alone unless
//! it regenerates the files on purpose (the verify recipe lists them).
//! E17's span and critical-path exports are too large to commit (0.1 to
//! 1.6 MB each), so each is pinned by its byte length and FNV-1a-64, as
//! is the traffic metrics snapshot: the one export carrying the flow
//! solver's per-link gauges and `network_partition_solves_total`.

use std::path::{Path, PathBuf};
use std::process::Command;

/// Where a run's `--out` file, or a mismatching output, is written.
fn scratch_path(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("golden");
    std::fs::create_dir_all(&dir).expect("temporary directory");
    dir.join(name)
}

/// Runs `command` (space-separated arguments) at `seed` and returns what
/// it prints, or, when its last argument is `--out`, the bytes of the
/// file it writes to `scratch_path(name)`.
fn cli_output(command: &str, seed: u64, name: &str) -> (Vec<String>, Vec<u8>) {
    let mut args: Vec<String> = command.split(' ').map(String::from).collect();
    let out = (args.last().map(String::as_str) == Some("--out")).then(|| scratch_path(name));
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
    (args, got)
}

/// Runs `command` at seeds 2013 and 7 and compares its output with
/// `tests/golden/<stem>-seed<seed>.<ext>`.
fn assert_goldens(stem: &str, ext: &str, command: &str) {
    for seed in [2013u64, 7] {
        let name = format!("{stem}-seed{seed}.{ext}");
        let (args, got) = cli_output(command, seed, &name);
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

/// FNV-1a, 64-bit.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Runs `command` at each pinned `(seed, bytes, fnv1a64)` and compares
/// the length and hash of what it prints. A mismatching output is
/// written to `scratch_path` and the panic names the file.
fn assert_pinned(stem: &str, ext: &str, command: &str, pins: [(u64, usize, u64); 2]) {
    for (seed, len, hash) in pins {
        let name = format!("{stem}-seed{seed}.{ext}");
        let (args, got) = cli_output(command, seed, &name);
        if (got.len(), fnv1a64(&got)) != (len, hash) {
            let path = scratch_path(&name);
            std::fs::write(&path, &got).expect("mismatching output written");
            panic!(
                "picloud-cli {args:?} printed {} bytes with FNV-1a-64 {:#018x}, \
                 pinned {len} bytes with {hash:#018x}; the output is in {}",
                got.len(),
                fnv1a64(&got),
                path.display()
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

#[test]
fn traffic_metrics_snapshots_match_their_pins() {
    assert_pinned(
        "telemetry-traffic",
        "jsonl",
        "telemetry --experiment traffic",
        [
            (2013, 56_246, 0xc1d0_633e_3757_f580),
            (7, 56_225, 0xc773_51c5_6866_08ad),
        ],
    );
}

#[test]
fn e17_span_exports_match_their_pins() {
    assert_pinned(
        "spans-e17",
        "jsonl",
        "spans --experiment e17 --format jsonl",
        [
            (2013, 489_580, 0x25c1_4650_7b34_f5ae),
            (7, 1_638_226, 0x91cc_8c98_e7d4_8ce7),
        ],
    );
}

#[test]
fn e17_critical_path_reports_match_their_pins() {
    assert_pinned(
        "critical-path-e17",
        "txt",
        "critical-path --experiment e17",
        [
            (2013, 105_063, 0x285f_36ba_1356_085e),
            (7, 399_911, 0x1046_81b4_6f60_dae3),
        ],
    );
}
