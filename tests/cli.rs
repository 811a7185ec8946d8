//! The `picloud-cli` binary end to end: experiment names resolve through
//! the registry, and `list` shows every name the CLI accepts. Only cheap
//! entries run, so the suite stays fast on a debug build.

use picloud::experiments::REGISTRY;
use std::process::{Command, Output};

fn cli(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_picloud-cli"))
        .args(args)
        .output()
        .expect("picloud-cli runs")
}

#[test]
fn alias_prints_the_same_bytes_as_the_id() {
    let by_id = cli(&["table1"]);
    assert!(by_id.status.success());
    assert!(!by_id.stdout.is_empty());
    for name in ["e1", "E1", "TABLE1"] {
        let out = cli(&[name]);
        assert!(out.status.success(), "{name}");
        assert_eq!(out.stdout, by_id.stdout, "{name}");
    }
}

#[test]
fn list_shows_every_id_and_alias() {
    let out = cli(&["list"]);
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).expect("utf-8 listing");
    for e in REGISTRY {
        let row = text
            .lines()
            .find(|l| l.split_whitespace().next() == Some(e.id))
            .unwrap_or_else(|| panic!("no row for {}", e.id));
        if let Some(alias) = e.alias {
            assert_eq!(row.split_whitespace().nth(1), Some(alias), "{row}");
        }
        assert!(row.ends_with(e.title), "{row}");
    }
}

#[test]
fn unknown_name_fails_with_a_hint() {
    let out = cli(&["nonsense"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("try 'picloud list'"), "{stderr}");
}
