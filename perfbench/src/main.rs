//! The benchmark program. `run.py` drives it; every subcommand runs in its
//! own process and prints one JSON object on its last stdout line:
//!
//! * `e2e`    — the workload's cells through `run_scenario`, tracing off,
//!   repeated until `--seconds` pass; wall per call, the reference loop's
//!   wall around each call, peak RSS, checks.
//! * `setup`  — build + warm-up of each net's first cell through the public
//!   constructors, repeated for at least `--seconds` (at least once), each
//!   repetition on a fresh thread.
//! * `traced` — one untraced `run_scenario` call, then the same cells
//!   re-run layer by layer with a timer around every call, repeated until
//!   `--seconds` pass; per-layer seconds and counts plus the cross-check
//!   against the untraced records.
//! * `replay` — the event layer's primitives (scheduler, latency draw,
//!   egress enqueue, fault decision) replayed at the workload's event and
//!   message counts.
//!
//! Usage: `perfbench <e2e|setup|traced|replay> --workload <name> --seed <n>
//! [--seconds <s>] [--out <dir>] [--events <n>] [--messages <n>]`.

mod json;
mod reference;
mod replay;
mod traced;
mod workloads;

use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::time::Instant;

use churn_core::DynamicNetwork;
use churn_sim::scenario::{
    run_scenario, CellSpec, GridPreset, Measurement, RunOptions, ScenarioOutcome,
};

use json::Obj;
use workloads::Workload;

struct Args {
    command: String,
    workload: Workload,
    seed: u64,
    seconds: f64,
    out: PathBuf,
    events: u64,
    messages: u64,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let command = it.next().ok_or("missing subcommand")?;
    let mut args = Args {
        command,
        workload: Workload::SyncFlood,
        seed: 0,
        seconds: 0.0,
        out: PathBuf::from("perfbench-out"),
        events: 0,
        messages: 0,
    };
    let mut workload = None;
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => args.seed = value.parse().map_err(bad)?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value:?}"))?
            }
            "--out" => args.out = PathBuf::from(value),
            "--events" => args.events = value.parse().map_err(bad)?,
            "--messages" => args.messages = value.parse().map_err(bad)?,
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    args.workload = workload.ok_or("missing --workload")?;
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let result = match args.command.as_str() {
        "e2e" => e2e(&args),
        "setup" => setup(&args),
        "traced" => traced::run(args.workload, args.seed, args.seconds, &args.out),
        "replay" => replay::run(args.workload, args.events, args.messages),
        other => {
            eprintln!("perfbench: unknown subcommand {other:?}");
            std::process::exit(2);
        }
    };
    println!("{}", result.finish());
}

/// Options of a tracing-off run into `dir`.
pub fn run_options(dir: &std::path::Path) -> RunOptions {
    RunOptions {
        preset: GridPreset::Full,
        resume: false,
        dir: dir.to_path_buf(),
        limit: None,
        series: false,
    }
}

/// Checks one `run_scenario` outcome: every cell recorded, no panics, every
/// record passes the workload's shape checks. Returns the indices into
/// `cells` of the failed cells, and the messages.
pub fn check_outcome(
    workload: Workload,
    cells: &[(CellSpec, u64)],
    outcome: &ScenarioOutcome,
) -> (BTreeSet<usize>, Vec<String>) {
    let index = |seed: u64| cells.iter().position(|&(_, s)| s == seed);
    let mut errors = Vec::new();
    let mut failed = BTreeSet::new();
    let mut seen = BTreeSet::new();
    if !outcome.failures.is_empty() {
        errors.push(format!("{} cell(s) panicked", outcome.failures.len()));
    }
    for failure in &outcome.failures {
        match index(failure.seed) {
            Some(i) => {
                seen.insert(i);
                failed.insert(i);
            }
            None => failed.extend(0..cells.len()),
        }
    }
    for record in &outcome.records {
        let check = workload.check(record);
        match index(record.seed) {
            Some(i) => {
                seen.insert(i);
                if check.is_err() {
                    failed.insert(i);
                }
            }
            None => {
                errors.push(format!(
                    "output holds a cell of unknown seed {}",
                    record.seed
                ));
                failed.extend(0..cells.len());
            }
        }
        if let Err(e) = check {
            errors.push(e);
        }
    }
    let missing: Vec<usize> = (0..cells.len()).filter(|i| !seen.contains(i)).collect();
    if !missing.is_empty() {
        errors.push(format!("{} cell(s) missing from the output", missing.len()));
        failed.extend(missing);
    }
    (failed, errors)
}

/// Whether a loop of repeated calls should stop: the next call, taking
/// about `last` seconds, would end more than half a call past `seconds`.
pub fn budget_spent(started: Instant, seconds: f64, last: f64) -> bool {
    started.elapsed().as_secs_f64() + last / 2.0 > seconds
}

/// Peak resident set size of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn e2e(args: &Args) -> Obj {
    let scenario = args.workload.scenario(args.seed);
    let opts = run_options(&args.out);
    let cells = args.workload.cells(&scenario);
    let started = Instant::now();
    let mut walls = Vec::new();
    // Per call, the mean of the reference loop's walls before and after it.
    let mut refs = Vec::new();
    let mut reference = reference::Reference::new();
    // Per cell, the repetitions in which it failed.
    let mut cell_failures = vec![0.0; cells.len()];
    let mut errors = Vec::new();
    let mut first_lines: Option<BTreeMap<u64, String>> = None;
    let mut record_cells: Vec<f64>;
    loop {
        let before = reference.time();
        let t0 = Instant::now();
        let outcome =
            run_scenario(&scenario, &opts).expect("benchmark output directory is writable");
        let wall = t0.elapsed().as_secs_f64();
        refs.push((before + reference.time()) / 2.0);
        walls.push(wall);
        let (mut failed, mut msgs) = check_outcome(args.workload, &cells, &outcome);
        errors.append(&mut msgs);
        // Every repetition must write the same records as the first.
        let lines: BTreeMap<u64, String> = outcome
            .records
            .iter()
            .map(|r| (r.seed, r.to_json_line()))
            .collect();
        let first = first_lines.get_or_insert_with(|| lines.clone());
        let differ: Vec<usize> = (0..cells.len())
            .filter(|&i| first.get(&cells[i].1) != lines.get(&cells[i].1))
            .collect();
        if !differ.is_empty() {
            errors.push(format!(
                "{} record(s) differ between repetitions of the same seed",
                differ.len()
            ));
            failed.extend(differ);
        }
        for i in failed {
            cell_failures[i] += 1.0;
        }
        // The cell of every line of the output file, which holds the
        // records of the last repetition.
        record_cells = outcome
            .records
            .iter()
            .filter_map(|r| cells.iter().position(|&(_, s)| s == r.seed))
            .map(|i| i as f64)
            .collect();
        if budget_spent(started, args.seconds, wall) {
            break;
        }
    }
    let mut out = Obj::new();
    out.str("workload", args.workload.name())
        .nums("walls", &walls)
        .nums("refs", &refs)
        .num("attempted", (cells.len() * walls.len()) as f64)
        .nums("cell_failures", &cell_failures)
        .nums("record_cells", &record_cells)
        .strs("errors", &errors)
        .num("peak_rss_mb", peak_rss_mb())
        .str(
            "output",
            &churn_sim::scenario::scenario_output_path(&scenario, &opts)
                .display()
                .to_string(),
        );
    out
}

/// Seconds to build and warm each net's first cell, summed over the nets.
/// The async RAES engine wires its population inside the measured call, so
/// its set-up is the engine run with a zero horizon: population spawn plus
/// the initial connect-request sweep.
fn setup_once(workload: Workload, seed: u64) -> f64 {
    let scenario = workload.scenario(seed);
    let cells = workload.cells(&scenario);
    let mut total = 0.0;
    for net in scenario.net_axis() {
        let &(cell, seed) = cells
            .iter()
            .find(|(cell, _)| cell.net == *net)
            .expect("every net has cells");
        let t0 = Instant::now();
        match scenario.measurement() {
            Measurement::AsyncRaes(spec) => {
                let mut cfg = workloads::async_raes_config(&cell, *spec);
                cfg.horizon = 0.0;
                cfg.flood_at = None;
                let record = churn_event::run_async_raes_faulty(&cfg, &cell.fault.resolve(), seed);
                std::hint::black_box(record.repair_requests);
            }
            _ => {
                let mut net = workloads::build_net(&cell, seed);
                net.warm_up();
                std::hint::black_box(net.alive_count());
            }
        }
        total += t0.elapsed().as_secs_f64();
    }
    total
}

fn setup(args: &Args) -> Obj {
    // Repetitions while they fill less than `--seconds` (short set-ups get
    // a steadier median), at least one and at most 15.
    let started = Instant::now();
    let mut reps = Vec::new();
    loop {
        // A fresh thread per repetition: thread-local pools left by one
        // repetition must not speed up or slow down the next.
        let (workload, seed) = (args.workload, args.seed);
        let secs = std::thread::spawn(move || setup_once(workload, seed))
            .join()
            .expect("set-up probe thread panicked");
        reps.push(secs);
        if started.elapsed().as_secs_f64() >= args.seconds || reps.len() >= 15 {
            break;
        }
    }
    let mut out = Obj::new();
    out.str("workload", args.workload.name())
        .nums("setup_s", &reps);
    out
}
