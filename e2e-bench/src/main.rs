//! `picloud-e2e-bench`: times whole emulator runs per workload and, when
//! traced, splits the time across layers.
//!
//! ```text
//! picloud-e2e-bench --workload <name|all> [--seed S] [--seconds T] [--trace 0|1]
//!                   [--trace-dir DIR] [--runs N] [--check-spread N]
//! ```
//!
//! One workload per process, so every metric is that workload's own;
//! `all` and `--check-spread` re-execute this binary per workload. The
//! last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`.

use picloud_e2e_bench::heap;
use picloud_e2e_bench::trace::Tracer;
use picloud_e2e_bench::workloads::{Inputs, Workload, PIN_SEED, WORKERS};
use picloud_e2e_bench::{
    median, quartiles, run_best, run_pass, tail, Pass, END_TO_END, PER_LAYER, RUN_SPAN,
};
use serde::Content;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

const MIB: f64 = 1024.0 * 1024.0;

/// The benchmark definition, for the bounds `--check-spread` checks.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_dir: Option<PathBuf>,
    runs: Option<u64>,
    check_spread: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: PIN_SEED,
        seconds: 30.0,
        trace: false,
        trace_dir: None,
        runs: None,
        check_spread: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} needs {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| bad("an integer"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| bad("a positive number"))?;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--trace-dir" => args.trace_dir = Some(PathBuf::from(value)),
            "--runs" => {
                args.runs = Some(
                    value
                        .parse()
                        .ok()
                        .filter(|&n: &u64| n > 0)
                        .ok_or_else(|| bad("a positive integer"))?,
                );
            }
            "--check-spread" => {
                args.check_spread = Some(
                    value
                        .parse()
                        .ok()
                        .filter(|&n: &usize| n >= 2)
                        .ok_or_else(|| bad("an integer of at least 2"))?,
                );
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload != "all" && Workload::parse(&args.workload).is_none() {
        let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
        return Err(format!(
            "--workload must be all or one of {}",
            names.join(", ")
        ));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("picloud-e2e-bench: {e}");
            return ExitCode::from(2);
        }
    };
    let selected: Vec<Workload> =
        Workload::parse(&args.workload).map_or(Workload::ALL.to_vec(), |w| vec![w]);
    let ok = match (args.check_spread, selected.as_slice()) {
        (Some(n), _) => check_spread(&args, &selected, n),
        (None, [w]) => run_workload(&args, *w),
        (None, _) => selected.iter().all(|w| {
            let status = Command::new(self_exe())
                .args(child_args(&args, *w, args.trace))
                .status();
            status.is_ok_and(|s| s.success())
        }),
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn self_exe() -> PathBuf {
    std::env::current_exe().unwrap_or_else(|_| PathBuf::from("picloud-e2e-bench"))
}

fn child_args(args: &Args, w: Workload, trace: bool) -> Vec<String> {
    let mut v = vec![
        "--workload".to_owned(),
        w.name().to_owned(),
        "--seed".to_owned(),
        args.seed.to_string(),
        "--seconds".to_owned(),
        args.seconds.to_string(),
        "--trace".to_owned(),
        if trace { "1" } else { "0" }.to_owned(),
    ];
    if let Some(n) = args.runs {
        v.extend(["--runs".to_owned(), n.to_string()]);
    }
    if let Some(dir) = &args.trace_dir {
        v.extend(["--trace-dir".to_owned(), dir.display().to_string()]);
    }
    v
}

/// Runs one workload in this process and prints its metrics. Returns
/// whether every run passed its checks and the digest held.
fn run_workload(args: &Args, w: Workload) -> bool {
    let runs = args.runs.unwrap_or_else(|| w.runs());
    let mut tr = Tracer::new(args.trace && args.trace_dir.is_some());

    // Each iteration sets up (builds the inputs, then makes one untimed
    // warm-up run at the pin seed, so set-up is the same work whatever
    // `--seed` selects) and then runs one pass. Set-ups are spread over
    // the whole window, so a slow process start cannot own their median.
    // The first pass counts the live heap and is not timed: counting
    // costs an atomic operation per allocation, which the pool threads
    // contend on. It is followed by `heap_blocks() - 1` more counted
    // blocks of the next seeds, for workloads whose heap needs more
    // seeds than a timed pass holds. A traced process then alternates
    // untraced and traced passes, so both see the same host conditions.
    // Iterations go on until the next one would overrun the window.
    let mut setup_s = Vec::new();
    let mut attempted = 0;
    let mut failed = 0;
    let mut memory: Option<Pass> = None;
    let mut plain: Vec<Pass> = Vec::new();
    let mut traced: Vec<Pass> = Vec::new();
    let start = Instant::now();
    let mut first_s = 0.0;
    loop {
        let t = Instant::now();
        let inputs = Inputs::build(w);
        let warm = run_pass(&inputs, PIN_SEED, 1, WORKERS, &mut tr);
        setup_s.push(t.elapsed().as_secs_f64());
        attempted += 1;
        failed += warm.failed;

        let counting = memory.is_none();
        let trace_this = !counting && args.trace && plain.len() > traced.len();
        heap::count(counting);
        tr.set_enabled(trace_this);
        let mut pass = run_pass(&inputs, args.seed, runs, WORKERS, &mut tr);
        if counting {
            for block in 1..w.heap_blocks() {
                let more = run_pass(&inputs, args.seed + block * runs, runs, WORKERS, &mut tr);
                attempted += runs;
                failed += more.failed;
                pass.peak_heap.extend(more.peak_heap);
            }
        }
        heap::count(false);
        tr.set_enabled(false);
        attempted += runs;
        failed += pass.failed;
        if counting {
            memory = Some(pass);
            first_s = start.elapsed().as_secs_f64();
        } else if trace_this {
            traced.push(pass);
        } else {
            plain.push(pass);
        }

        // The next iteration costs what the timed ones cost on average.
        let enough = !plain.is_empty() && (!args.trace || !traced.is_empty());
        let elapsed = start.elapsed().as_secs_f64();
        let timed = (plain.len() + traced.len()) as f64;
        if enough && elapsed + (elapsed - first_s) / timed > args.seconds {
            break;
        }
    }
    let Some(memory) = memory else {
        return false;
    };

    // Every pass must reproduce the first one's digest, and at the pin
    // seed and committed run count, the pinned digest.
    let digest = memory.digest;
    let pinned = (args.seed == PIN_SEED && runs == w.runs()).then(|| w.pinned_digest());
    for p in [&memory].into_iter().chain(&plain).chain(&traced) {
        if p.digest != digest || pinned.is_some_and(|d| d != p.digest) {
            failed += runs;
        }
    }
    println!(
        "workload {} seed {} runs/pass {runs} passes {} workers {WORKERS}",
        w.name(),
        args.seed,
        1 + plain.len() + traced.len()
    );
    let show = |ps: &[Pass]| {
        let walls: Vec<String> = ps.iter().map(|p| format!("{:.4}", p.wall_s)).collect();
        walls.join(" ")
    };
    let setups: Vec<String> = setup_s.iter().map(|s| format!("{s:.4}")).collect();
    println!("set-up s [{}]", setups.join(" "));
    println!(
        "pass wall_s heap-counted [{:.4}] untraced [{}] traced [{}]",
        memory.wall_s,
        show(&plain),
        show(&traced)
    );
    match pinned {
        Some(d) if d == digest => println!("sim_digest {digest:#018x} (matches the pinned digest)"),
        Some(d) => println!("sim_digest {digest:#018x} (MISMATCH: pinned {d:#018x})"),
        None => println!("sim_digest {digest:#018x} (not pinned at this seed and run count)"),
    }

    let metrics: Vec<(&str, &str, f64)> = if args.trace {
        let m = per_layer(&tr, &plain, &traced, runs);
        if let Some(dir) = &args.trace_dir {
            let path = dir.join(format!("{}-{}.jsonl", w.name(), args.seed));
            let written =
                std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, tr.to_jsonl()));
            match written {
                Ok(()) => println!("spans written to {}", path.display()),
                Err(e) => {
                    eprintln!("cannot write {}: {e}", path.display());
                    failed += 1;
                }
            }
        }
        m
    } else {
        let heap_mb: Vec<f64> = memory.peak_heap.iter().map(|&b| b as f64 / MIB).collect();
        let values = [
            run_best(&plain).iter().sum(),
            median(&setup_s),
            median(&heap_mb),
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), v)| (name, unit, v))
            .collect()
    };
    for (name, unit, v) in &metrics {
        println!("metric {name} {v} {unit}");
    }
    let correct = failed == 0;
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, v)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_num(*v)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
    correct
}

/// A JSON number; non-finite values (which no metric should produce)
/// become 0 rather than invalid JSON.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

/// The per-layer metrics of a traced process, per run, and a table of
/// every span's self time.
fn per_layer(
    tr: &Tracer,
    plain: &[Pass],
    traced: &[Pass],
    runs: u64,
) -> Vec<(&'static str, &'static str, f64)> {
    let traced_runs = (traced.len() as u64 * runs) as f64;
    let layers = tr.layers();
    let self_s =
        |span: &str| layers.get(span).map_or(0.0, |l| l.self_ns as f64 / 1e9) / traced_runs;
    let count = |name: &str| traced.iter().map(|p| p.counts.get(name)).sum::<f64>() / traced_runs;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let traced_wall: f64 = traced.iter().map(|p| p.wall_s).sum();

    println!("layer self time per run (traced passes: {}):", traced.len());
    for (name, l) in layers {
        let s = l.self_ns as f64 / 1e9;
        println!(
            "  {name:<34} {:>10.3} ms {:>6.1}% {:>10.1} calls",
            s / traced_runs * 1e3,
            100.0 * ratio(s, traced_wall),
            l.calls as f64 / traced_runs
        );
    }
    let covered: f64 = layers.values().map(|l| l.self_ns as f64 / 1e9).sum();
    println!(
        "  self times cover {:.2}% of traced wall time",
        100.0 * ratio(covered, traced_wall)
    );

    let run_ms: Vec<f64> = plain
        .iter()
        .flat_map(|p| p.run_s.iter().map(|s| s * 1e3))
        .collect();
    let (pct, tail_ms) = tail(&run_ms);
    println!("  run_tail_ms is p{pct} of {} untraced runs", run_ms.len());
    let wall = |ps: &[Pass]| run_best(ps).iter().sum::<f64>();

    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let v = match name {
                "network.flowsim.active_peak" => traced
                    .iter()
                    .map(|p| p.counts.get(name))
                    .fold(0.0, f64::max),
                "network.estimate.compression" => ratio(
                    count("network.estimate.predictions"),
                    count("network.estimate.rep_flows"),
                ),
                "simcore.engine.events_per_s" => {
                    ratio(count("simcore.engine.events"), self_s("core.recovery.run"))
                }
                "faults.rpc.timeout_ratio" => {
                    ratio(count("faults.rpc.timeouts"), count("faults.rpc.attempts"))
                }
                "simcore.tsdb.bytes_per_sample" => {
                    ratio(count("simcore.tsdb.bytes"), count("simcore.tsdb.samples"))
                }
                "bench.run_self_s" => self_s(RUN_SPAN),
                "run_p50_ms" => median(&run_best(plain)) * 1e3,
                "run_tail_ms" => tail_ms,
                "bench.trace_overhead" => ratio(wall(traced), wall(plain)) - 1.0,
                _ => match name.strip_suffix("_s") {
                    Some(span) => self_s(span),
                    None => count(name),
                },
            };
            (name, unit, v)
        })
        .collect()
}

/// The `(name, bound)` of every end-to-end metric in `BENCHMARK.json`.
fn bounds() -> Vec<(String, f64)> {
    let spec: Content = serde_json::from_str(BENCHMARK_JSON).unwrap_or(Content::Null);
    spec.get("end_to_end")
        .and_then(Content::as_seq)
        .unwrap_or(&[])
        .iter()
        .filter_map(|m| {
            let name = m.get("name")?.as_str()?.to_owned();
            Some((name, m.get("bound")?.as_f64()?))
        })
        .collect()
}

/// One child run's outcome: its result object and digest line.
struct ChildResult {
    result: Content,
    digest: String,
}

fn run_child(args: &Args, w: Workload, trace: bool) -> Option<ChildResult> {
    let out = Command::new(self_exe())
        .args(child_args(args, w, trace))
        .stderr(Stdio::inherit())
        .output()
        .ok()?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let digest = stdout
        .lines()
        .find_map(|l| l.strip_prefix("sim_digest "))?
        .split_whitespace()
        .next()?
        .to_owned();
    let result = serde_json::from_str(stdout.lines().last()?).ok()?;
    Some(ChildResult { result, digest })
}

fn metric(result: &Content, name: &str) -> Option<f64> {
    result.get("metrics")?.get(name)?.get("value")?.as_f64()
}

/// Runs each selected workload `n` times in fresh processes, alternating
/// the order, then once traced; prints each end-to-end metric's median
/// and quartiles against its bound. Returns whether every spread (but
/// `setup_s`'s) is within its bound, every run passed and every digest
/// agreed.
fn check_spread(args: &Args, selected: &[Workload], n: usize) -> bool {
    let bounds = bounds();
    if bounds.is_empty() {
        eprintln!("BENCHMARK.json lists no end-to-end bounds");
        return false;
    }
    let mut samples: Vec<Vec<ChildResult>> = selected.iter().map(|_| Vec::new()).collect();
    let mut ok = true;
    for pass in 0..n {
        let order: Vec<usize> = if pass % 2 == 0 {
            (0..selected.len()).collect()
        } else {
            (0..selected.len()).rev().collect()
        };
        for i in order {
            match run_child(args, selected[i], false) {
                Some(r) => samples[i].push(r),
                None => {
                    eprintln!("{} pass {pass}: no result", selected[i].name());
                    ok = false;
                }
            }
        }
    }
    for (w, results) in selected.iter().zip(&samples) {
        println!(
            "{} ({} processes, seed {}):",
            w.name(),
            results.len(),
            args.seed
        );
        for (name, bound) in &bounds {
            let values: Vec<f64> = results
                .iter()
                .filter_map(|r| metric(&r.result, name))
                .collect();
            let med = median(&values);
            let Some((q1, q3)) = quartiles(&values) else {
                ok = false;
                continue;
            };
            let spread = if med > 0.0 {
                (q3 - q1) / med
            } else {
                f64::INFINITY
            };
            let within = spread <= *bound;
            let verdict = match (within, name == "setup_s") {
                (true, _) => "ok",
                (false, true) => "over (not gated)",
                (false, false) => "OVER",
            };
            ok &= within || name == "setup_s";
            let shown: Vec<String> = values.iter().map(|v| format!("{v:.6}")).collect();
            println!(
                "  {name:<12} median {med:>12.6} q1 {q1:>12.6} q3 {q3:>12.6} spread {:>6.2}% bound {:>5.1}% {verdict} [{}]",
                spread * 100.0,
                bound * 100.0,
                shown.join(" ")
            );
        }
        let failed: f64 = results
            .iter()
            .filter_map(|r| r.result.get("failed")?.as_f64())
            .sum();
        let correct = results
            .iter()
            .all(|r| r.result.get("correct").and_then(Content::as_bool) == Some(true));
        let digests_agree = results.windows(2).all(|p| p[0].digest == p[1].digest);
        println!(
            "  failed runs {failed}, all correct {correct}, sim_digest {} {}",
            results.first().map_or("-", |r| r.digest.as_str()),
            if digests_agree {
                "in every process"
            } else {
                "DIFFERS between processes"
            }
        );
        ok &= correct && digests_agree;
        match run_child(args, *w, true) {
            Some(r) => {
                println!(
                    "  bench.trace_overhead {:.4}",
                    metric(&r.result, "bench.trace_overhead").unwrap_or(f64::NAN)
                );
                for (name, _) in PER_LAYER.iter().filter(|(_, unit)| *unit == "count") {
                    if let Some(v) = metric(&r.result, name).filter(|v| *v != 0.0) {
                        println!("  {name} {v}");
                    }
                }
            }
            None => {
                println!("  traced run gave no result");
                ok = false;
            }
        }
    }
    ok
}
