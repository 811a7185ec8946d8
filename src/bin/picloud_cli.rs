//! `picloud` — command-line driver for the reproduction.
//!
//! Regenerates any table/figure/experiment of the paper on demand. Every
//! entry of the experiment registry (`picloud::experiments::REGISTRY`) is
//! a subcommand, named by id or alias in any case (`table1`, `e1`, `E1`):
//!
//! ```sh
//! cargo run --bin picloud-cli -- list
//! cargo run --bin picloud-cli -- table1
//! cargo run --bin picloud-cli -- all
//! cargo run --bin picloud-cli -- traffic --seed 7
//! cargo run --bin picloud-cli -- telemetry --experiment e17 --format jsonl
//! cargo run --bin picloud-cli -- trace --experiment e17 --out e17-trace.jsonl
//! cargo run --bin picloud-cli -- spans --experiment e17 --format jsonl
//! cargo run --bin picloud-cli -- critical-path --experiment e17
//! cargo run --bin picloud-cli -- slo --experiment e17 --strict
//! cargo run --bin picloud-cli -- query --experiment e17 --metric container_fleet_dark \
//!     --fn avg_over_time --window 120
//! cargo run --bin picloud-cli -- alerts --experiment e17 --format jsonl
//! cargo run --bin picloud-cli -- panel
//! cargo run --bin picloud-cli -- chaos --seed 100 --schedules 25 --profile e17
//! cargo run --bin picloud-cli -- estimate --fidelity estimate --out sweep.jsonl
//! ```
//!
//! `telemetry` exports an experiment's labeled metrics snapshot (JSONL,
//! CSV or Prometheus text); `trace` exports its sim-time event trace as
//! JSONL; `spans` renders the causal span forest (text trees, or JSONL
//! with `--format jsonl`); `critical-path` explains each root span's
//! duration with per-segment blame; `slo` evaluates the suite's default
//! whole-run SLO policy; `query` evaluates a windowed function
//! (`rate`, `increase`, `avg_over_time`, `max_over_time`,
//! `min_over_time`, `quantile:<q>`) over the run's scraped time series;
//! `alerts` replays the multi-window burn-rate alert policy over the
//! scrape timeline; `panel` prints the ASCII Fig. 4 control panel. All
//! accept canonical names (`recovery`) and paper-style aliases (`e17`),
//! and are byte-deterministic for a fixed seed. `--strict` on `slo` and
//! `alerts` turns a PAGE verdict into a non-zero exit code for CI
//! gating. See `OBSERVABILITY.md` for the formats, span catalogue, SLO
//! rule schema and the tsdb query semantics.
//!
//! `chaos` runs seeded adversarial fault schedules against the recovery
//! stack with the invariant registry armed; violations are shrunk to
//! 1-minimal reproducers and serialised as `chaos-shrunk-<seed>.json`
//! for bit-for-bit replay. See `FAULTS.md` for the rule book.
//!
//! `estimate` drives the S2 fidelity study: with no flags it prints the
//! registry's `estimate` report (exact oracle vs the Parsimon-style
//! clustering estimator over the locality × oversubscription sweep);
//! with `--fidelity exact|estimate` it runs the sweep at that single
//! fidelity and emits a byte-deterministic JSONL report (`tests/golden.rs`
//! compares it with `tests/golden`). See `EXPERIMENTS.md` §S2.

use picloud::experiments::{self, estimate_exp, fig4::Fig4};
use picloud::telemetry::ExperimentTelemetry;
use picloud_simcore::telemetry::slo::{AlertSeverity, Verdict};
use picloud_simcore::telemetry::tsdb::QueryFn;
use picloud_simcore::telemetry::TelemetrySink;
use picloud_simcore::SimDuration;
use std::process::ExitCode;

/// Runs the `estimate` target. Without `--fidelity` it prints the
/// registry's S2 report (both fidelities, relative errors, compression).
/// With `--fidelity exact|estimate` it runs the sweep at that single
/// fidelity and emits the per-scenario JSONL report — the artifact
/// `tests/golden.rs` compares byte-for-byte with `tests/golden`.
fn run_estimate_cmd(
    seed: u64,
    fidelity: Option<&str>,
    format: Option<&str>,
    out: Option<&str>,
) -> bool {
    use estimate_exp::FidelityMode;
    let text = match fidelity {
        None => {
            let Some(s2) = experiments::find("estimate") else {
                eprintln!("the experiment registry has no 'estimate' entry");
                return false;
            };
            (s2.run)(seed, &mut TelemetrySink::disabled())
        }
        Some(spec) => {
            let Some(mode) = FidelityMode::parse(spec) else {
                eprintln!("unknown --fidelity '{spec}' (exact, estimate)");
                return false;
            };
            let lines = estimate_exp::sweep(mode, seed, estimate_exp::HORIZON);
            match format.unwrap_or("jsonl") {
                "jsonl" => estimate_exp::sweep_jsonl(mode, seed, &lines),
                other => {
                    eprintln!("unknown --format '{other}' for estimate (jsonl)");
                    return false;
                }
            }
        }
    };
    match out {
        None => print!("{text}"),
        Some(path) => {
            if let Err(e) = std::fs::write(path, &text) {
                eprintln!("cannot write {path}: {e}");
                return false;
            }
            eprintln!("wrote {} bytes to {path}", text.len());
        }
    }
    true
}

/// Options shared by the telemetry-export subcommands.
struct ExportOpts<'a> {
    experiment: Option<&'a str>,
    format: Option<&'a str>,
    seed: u64,
    out: Option<&'a str>,
    /// `query`: metric name to evaluate.
    metric: Option<&'a str>,
    /// `query`: windowed function spelling (`rate`, `quantile:0.99`, ...).
    query_fn: &'a str,
    /// `query`: trailing window length, seconds.
    window_secs: f64,
    /// `query`: optional evaluation grid coarser than the scrape grid.
    step_secs: Option<f64>,
    /// `query`: `key=value` label filters (series must match all).
    labels: &'a [(String, String)],
    /// `slo`/`alerts`: non-zero exit when the run PAGEs.
    strict: bool,
}

/// Runs the `telemetry` / `trace` / `spans` / `critical-path` / `slo` /
/// `query` / `alerts` subcommands: collect one experiment's telemetry,
/// export the requested view, print or write.
fn export_telemetry(subcommand: &str, opts: &ExportOpts<'_>) -> bool {
    let Some(experiment) = opts.experiment else {
        eprintln!("{subcommand} needs --experiment <id> (try 'picloud list')");
        return false;
    };
    let Some(telemetry) = ExperimentTelemetry::collect(experiment, opts.seed) else {
        eprintln!("unknown experiment '{experiment}'; try 'picloud list'");
        return false;
    };
    let format = opts.format;
    let text = match subcommand {
        "trace" => telemetry.trace_jsonl(),
        // Span/SLO/alert/query views default to their deterministic text
        // rendering; `--format jsonl` switches to the machine-readable
        // export.
        "spans" => match format {
            Some("jsonl") => telemetry.spans_jsonl(),
            _ => telemetry.spans_text(),
        },
        "critical-path" => telemetry.critical_path_report(),
        "slo" => match format {
            Some("jsonl") => telemetry.slo_report().to_jsonl(),
            _ => format!("{}\n", telemetry.slo_report()),
        },
        "query" => {
            let Some(metric) = opts.metric else {
                eprintln!("query needs --metric <name>");
                return false;
            };
            let Some(f) = QueryFn::parse(opts.query_fn) else {
                eprintln!(
                    "unknown --fn '{}' (rate, increase, avg_over_time, max_over_time, \
                     min_over_time, quantile:<q>)",
                    opts.query_fn
                );
                return false;
            };
            if !(opts.window_secs.is_finite() && opts.window_secs > 0.0) {
                eprintln!("--window needs a positive number of seconds");
                return false;
            }
            let window = SimDuration::from_secs_f64(opts.window_secs);
            let step = opts.step_secs.map(SimDuration::from_secs_f64);
            let rendered = match format {
                Some("jsonl") => telemetry.query_jsonl(metric, opts.labels, f, window, step),
                _ => telemetry.query_text(metric, opts.labels, f, window, step),
            };
            match rendered {
                Some(t) => t,
                None => {
                    eprintln!("experiment '{experiment}' collected no time-series store");
                    return false;
                }
            }
        }
        "alerts" => {
            let rendered = match format {
                Some("jsonl") => telemetry.alerts_jsonl(),
                _ => telemetry.alerts_text(),
            };
            match rendered {
                Some(t) => t,
                None => {
                    eprintln!("experiment '{experiment}' collected no time-series store");
                    return false;
                }
            }
        }
        _ => match format.unwrap_or("jsonl") {
            "jsonl" => telemetry.metrics_jsonl(),
            "csv" => telemetry.metrics_csv(),
            "prometheus" | "prom" => telemetry.metrics_prometheus(),
            other => {
                eprintln!("unknown --format '{other}' (jsonl, csv, prometheus)");
                return false;
            }
        },
    };
    match opts.out {
        None => print!("{text}"),
        Some(path) => {
            if let Err(e) = std::fs::write(path, &text) {
                eprintln!("cannot write {path}: {e}");
                return false;
            }
            eprintln!("wrote {} bytes to {path}", text.len());
        }
    }
    if opts.strict {
        match subcommand {
            "slo" if telemetry.slo_report().worst() == Verdict::Page => {
                eprintln!("slo: PAGE under --strict");
                return false;
            }
            "alerts" => {
                let paged = telemetry
                    .alert_timeline()
                    .is_some_and(|t| t.fired(AlertSeverity::Page));
                if paged {
                    eprintln!("alerts: PAGE fired under --strict");
                    return false;
                }
            }
            _ => {}
        }
    }
    true
}

/// Runs the `chaos` subcommand: N seeded adversarial schedules against
/// the recovery stack with the invariant registry armed, plus the
/// gossip-tombstone and flow-conservation side checks. Any violating
/// schedule is shrunk to a 1-minimal reproducer and serialised to
/// `chaos-shrunk-<seed>.json` so the bug replays bit-for-bit; the exit
/// code turns non-zero. See `FAULTS.md` for the invariant registry.
fn run_chaos_cmd(seed: u64, schedules: usize, profile: &str, out: Option<&str>) -> bool {
    use picloud::chaos::{
        chaos_config_e17, chaos_config_oversub, domain_tree, run_chaos, run_chaos_schedule,
        shrink_schedule, Sabotage,
    };
    use picloud_faults::{ChaosProfile, ChaosSchedule};

    let config = match profile {
        "e17" => chaos_config_e17(),
        "oversub" => chaos_config_oversub(),
        other => {
            eprintln!("unknown --profile '{other}' (e17, oversub)");
            return false;
        }
    };
    println!("chaos: {schedules} schedule(s) from seed {seed}, profile {profile}");
    let outcomes = run_chaos(
        &config,
        &ChaosProfile::standard(),
        seed,
        schedules,
        Sabotage::None,
    );
    let mut clean = true;
    for outcome in &outcomes {
        match &outcome.violation {
            None => println!(
                "  seed {:>6}: ok  ({} events, {} rescheduled, {} reconnects, \
                 availability {:.5})",
                outcome.seed,
                outcome.events,
                outcome.report.rescheduled,
                outcome.report.reconnects,
                outcome.report.availability,
            ),
            Some(v) => {
                clean = false;
                println!("  seed {:>6}: VIOLATION {v}", outcome.seed);
                // Shrink when the violation is schedule-driven; the
                // gossip/flow side checks are seed-only and have no
                // event list to minimise.
                let tree = domain_tree();
                let schedule =
                    ChaosSchedule::generate(outcome.seed, &tree, &ChaosProfile::standard());
                if run_chaos_schedule(&config, &schedule, Sabotage::None)
                    .violation
                    .is_some()
                {
                    let (shrunk, minimal) = shrink_schedule(&config, &schedule, Sabotage::None);
                    let dir = out.unwrap_or(".");
                    let path = format!("{dir}/chaos-shrunk-{}.json", outcome.seed);
                    match std::fs::write(&path, shrunk.to_json()) {
                        Ok(()) => println!(
                            "    shrunk to {} event(s) still firing {}; replay from {path}",
                            shrunk.timeline.len(),
                            minimal.invariant
                        ),
                        Err(e) => eprintln!("    cannot write {path}: {e}"),
                    }
                }
            }
        }
    }
    if clean {
        println!(
            "chaos: all {} schedule(s) hold every invariant",
            outcomes.len()
        );
    }
    clean
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut seed = 2013u64;
    let mut experiment: Option<String> = None;
    let mut format: Option<String> = None;
    let mut out: Option<String> = None;
    let mut schedules = 10usize;
    let mut profile = String::from("e17");
    let mut metric: Option<String> = None;
    let mut query_fn = String::from("avg_over_time");
    let mut window_secs = 60.0f64;
    let mut step_secs: Option<f64> = None;
    let mut labels: Vec<(String, String)> = Vec::new();
    let mut strict = false;
    let mut fidelity: Option<String> = None;
    let mut targets: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--seed" => match it.next().and_then(|s| s.parse().ok()) {
                Some(s) => seed = s,
                None => {
                    eprintln!("--seed needs an integer");
                    return ExitCode::FAILURE;
                }
            },
            "--experiment" => match it.next() {
                Some(e) => experiment = Some(e.to_owned()),
                None => {
                    eprintln!("--experiment needs a name (try 'picloud list')");
                    return ExitCode::FAILURE;
                }
            },
            "--format" => match it.next() {
                Some(f) => format = Some(f.to_owned()),
                None => {
                    eprintln!("--format needs one of jsonl, csv, prometheus");
                    return ExitCode::FAILURE;
                }
            },
            "--out" => match it.next() {
                Some(p) => out = Some(p.to_owned()),
                None => {
                    eprintln!("--out needs a file path");
                    return ExitCode::FAILURE;
                }
            },
            "--schedules" => match it.next().and_then(|s| s.parse().ok()) {
                Some(n) => schedules = n,
                None => {
                    eprintln!("--schedules needs an integer");
                    return ExitCode::FAILURE;
                }
            },
            "--profile" => match it.next() {
                Some(p) => profile = p.to_owned(),
                None => {
                    eprintln!("--profile needs one of e17, oversub");
                    return ExitCode::FAILURE;
                }
            },
            "--metric" => match it.next() {
                Some(m) => metric = Some(m.to_owned()),
                None => {
                    eprintln!("--metric needs a series name");
                    return ExitCode::FAILURE;
                }
            },
            "--fn" => match it.next() {
                Some(f) => query_fn = f.to_owned(),
                None => {
                    eprintln!(
                        "--fn needs one of rate, increase, avg_over_time, max_over_time, \
                         min_over_time, quantile:<q>"
                    );
                    return ExitCode::FAILURE;
                }
            },
            "--window" => match it.next().and_then(|s| s.parse().ok()) {
                Some(w) => window_secs = w,
                None => {
                    eprintln!("--window needs a number of seconds");
                    return ExitCode::FAILURE;
                }
            },
            "--step" => match it.next().and_then(|s| s.parse().ok()) {
                Some(s) => step_secs = Some(s),
                None => {
                    eprintln!("--step needs a number of seconds");
                    return ExitCode::FAILURE;
                }
            },
            "--labels" => match it.next() {
                Some(spec) => {
                    for pair in spec.split(',').filter(|p| !p.is_empty()) {
                        let Some((k, v)) = pair.split_once('=') else {
                            eprintln!("--labels needs key=value pairs, got '{pair}'");
                            return ExitCode::FAILURE;
                        };
                        labels.push((k.to_owned(), v.to_owned()));
                    }
                }
                None => {
                    eprintln!("--labels needs key=value[,key=value...]");
                    return ExitCode::FAILURE;
                }
            },
            "--fidelity" => match it.next() {
                Some(f) => fidelity = Some(f.to_owned()),
                None => {
                    eprintln!("--fidelity needs one of exact, estimate");
                    return ExitCode::FAILURE;
                }
            },
            "--strict" => strict = true,
            "-h" | "--help" | "help" => {
                targets = vec!["list".into()];
                break;
            }
            other => targets.push(other.to_owned()),
        }
    }
    if targets.is_empty() {
        targets.push("list".into());
    }
    for target in targets {
        match target.as_str() {
            "list" => {
                println!("picloud — the Glasgow Raspberry Pi Cloud, reproduced\n");
                println!("usage: picloud [--seed N] <experiment>... | all | list | panel");
                println!(
                    "       picloud telemetry|trace --experiment <id|eN> \
                     [--format jsonl|csv|prometheus] [--out FILE]"
                );
                println!(
                    "       picloud spans|critical-path|slo --experiment <id|eN> \
                     [--format jsonl] [--out FILE] [--strict]"
                );
                println!(
                    "       picloud query --experiment <id|eN> --metric NAME \
                     [--fn rate|increase|avg_over_time|max_over_time|min_over_time|quantile:q]"
                );
                println!(
                    "                      [--window SECS] [--step SECS] \
                     [--labels k=v,...] [--format jsonl] [--out FILE]"
                );
                println!(
                    "       picloud alerts --experiment <id|eN> \
                     [--format jsonl] [--out FILE] [--strict]"
                );
                println!(
                    "       picloud estimate [--seed N] [--fidelity exact|estimate] \
                     [--format jsonl] [--out FILE]"
                );
                println!(
                    "       picloud chaos [--seed N] [--schedules N] \
                     [--profile e17|oversub] [--out DIR]\n"
                );
                for e in experiments::REGISTRY {
                    println!("  {:<10} {:<4} {}", e.id, e.alias.unwrap_or(""), e.title);
                }
            }
            "all" => {
                for e in experiments::REGISTRY {
                    println!("########## {} ##########", e.id);
                    println!("{}", (e.run)(seed, &mut TelemetrySink::disabled()));
                    println!();
                }
            }
            "telemetry" | "trace" | "spans" | "critical-path" | "slo" | "query" | "alerts" => {
                let opts = ExportOpts {
                    experiment: experiment.as_deref(),
                    format: format.as_deref(),
                    seed,
                    out: out.as_deref(),
                    metric: metric.as_deref(),
                    query_fn: &query_fn,
                    window_secs,
                    step_secs,
                    labels: &labels,
                    strict,
                };
                if !export_telemetry(target.as_str(), &opts) {
                    return ExitCode::FAILURE;
                }
            }
            "estimate" => {
                if !run_estimate_cmd(seed, fidelity.as_deref(), format.as_deref(), out.as_deref()) {
                    return ExitCode::FAILURE;
                }
            }
            "chaos" => {
                if !run_chaos_cmd(seed, schedules, &profile, out.as_deref()) {
                    return ExitCode::FAILURE;
                }
            }
            "panel" => {
                // The Fig. 4 §II-C workflow's final dashboard, rendered
                // for the terminal.
                print!("{}", Fig4::run().panel.render_ascii());
            }
            name => match experiments::find(name) {
                Some(e) => println!("{}", (e.run)(seed, &mut TelemetrySink::disabled())),
                None => {
                    eprintln!("unknown experiment '{name}'; try 'picloud list'");
                    return ExitCode::FAILURE;
                }
            },
        }
    }
    ExitCode::SUCCESS
}
