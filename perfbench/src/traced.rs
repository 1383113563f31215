//! The traced run: the workload's cells re-run by calling each layer's
//! public functions in turn, with a timer around every call.
//!
//! Cells run in the runner's batches (`2 × pool` cells, `pool / concurrent`
//! engine threads per cell), so the traced run loads the machine like the
//! untraced one. A cell's layer times are thread time; dividing them by the
//! number of cells that ran at once gives each layer's share of the wall
//! clock, and the shares plus `unattributed_s` add up to the traced wall.
//! Per-operation figures (`*_ns`, `*_per_s`) use the undivided thread time.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use rayon::prelude::*;

use churn_core::expansion::{measure_expansion_on, SizeRange};
use churn_core::flooding::{run_flooding_parallel_observed, FloodingConfig, FloodingSource};
use churn_core::DynamicNetwork;
use churn_event::{
    run_async_flooding_faulty, run_async_raes_faulty, AsyncFloodingConfig, AsyncSource, EventStats,
    TraceMode,
};
use churn_graph::expansion::ExpansionConfig;
use churn_graph::GraphDelta;
use churn_observe::{IncrementalSnapshot, InformedOverlap};
use churn_sim::observe_rounds;
use churn_sim::scenario::{
    load_cell_records, run_scenario, AnyNet, CellSpec, Measurement, RoundBudget,
};
use churn_stochastic::rng::seeded_rng;

use crate::json::Obj;
use crate::workloads::{self, Workload};

/// Timed layer calls that do not overlap: their sum plus `unattributed_s`
/// is the traced wall. (`observe.apply_s` runs inside `observe.window_s`.)
const DISJOINT: [&str; 13] = [
    "core.build_s",
    "core.warm_s",
    "protocol.warm_s",
    "flood.run_s",
    "observe.overlap_s",
    "observe.init_s",
    "observe.window_s",
    "observe.to_snapshot_s",
    "expansion.large_s",
    "expansion.full_s",
    "event.loop_s",
    "sim.summary_s",
    "sim.records_s",
];

/// A cell's seed, the record metrics its traced re-run produced, and the
/// shape violations seen from inside the run.
type Replicated = (u64, Vec<(&'static str, f64)>, Vec<String>);

/// What one traced cell measured.
#[derive(Debug, Default)]
struct CellTrace {
    /// Thread seconds per layer call.
    secs: BTreeMap<&'static str, f64>,
    /// Counts, summed over the workload's cells.
    counts: BTreeMap<&'static str, f64>,
    /// Maxima over the workload's cells.
    maxima: BTreeMap<&'static str, f64>,
    /// The record metrics the untraced run must reproduce.
    replicated: Vec<(&'static str, f64)>,
    /// Shape violations seen only from inside the run.
    errors: Vec<String>,
}

impl CellTrace {
    /// Runs `f` and adds its duration to `layer`.
    fn time<T>(&mut self, layer: &'static str, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let value = f();
        *self.secs.entry(layer).or_default() += t0.elapsed().as_secs_f64();
        value
    }

    fn count(&mut self, name: &'static str, v: f64) {
        *self.counts.entry(name).or_default() += v;
    }

    fn max(&mut self, name: &'static str, v: f64) {
        let slot = self.maxima.entry(name).or_insert(0.0);
        *slot = slot.max(v);
    }

    fn event_stats(&mut self, stats: &EventStats) {
        self.count("event.events", stats.events_processed as f64);
        self.count("event.messages_sent", stats.messages_sent as f64);
        self.count("event.messages_delivered", stats.messages_delivered as f64);
        self.count("event.dropped", stats.messages_dropped as f64);
        self.count("event.lost", stats.messages_lost as f64);
        self.max("event.peak_backlog", stats.peak_backlog as f64);
        self.count("fault.crashes", stats.crashes as f64);
        self.count("fault.restarts", stats.restarts as f64);
        self.count("fault.lost", stats.messages_fault_lost as f64);
        self.count("retry.retransmits", stats.retransmits as f64);
        self.count("retry.exhausted", stats.retries_exhausted as f64);
        self.replicated
            .push(("events_processed", stats.events_processed as f64));
        self.replicated
            .push(("messages_sent", stats.messages_sent as f64));
    }
}

/// Builds and warms a cell's network, timing the constructor and the
/// warm-up (the RAES protocol's rounds count as the protocol layer).
fn build_and_warm(trace: &mut CellTrace, cell: &CellSpec, seed: u64) -> AnyNet {
    let mut net = trace.time("core.build_s", || workloads::build_net(cell, seed));
    let (layer, rounds) = match net {
        AnyNet::Raes(_) => ("protocol.warm_s", "protocol.warm_rounds"),
        _ => ("core.warm_s", "core.warm_rounds"),
    };
    trace.time(layer, || net.warm_up());
    trace.count(rounds, net.churn_steps() as f64);
    net
}

/// Protocol health of a RAES net, read after the cell's run.
fn raes_health(trace: &mut CellTrace, net: &AnyNet) {
    if let AnyNet::Raes(model) = net {
        let stats = model.stats();
        trace.count("protocol.requests", stats.requests_sent as f64);
        trace.count("protocol.rejected", stats.rejected as f64);
        trace.count("protocol.pending", model.pending_requests().len() as f64);
        trace.count("protocol.alive", model.alive_count() as f64);
        if model.max_in_degree() > model.in_degree_cap() {
            trace.errors.push(format!(
                "RAES max in-degree {} above cap {}",
                model.max_in_degree(),
                model.in_degree_cap()
            ));
        }
    }
}

fn parallel_flooding_cell(trace: &mut CellTrace, cell: &CellSpec, seed: u64, threads: usize) {
    let mut net = build_and_warm(trace, cell, seed);
    let max_rounds = workloads::resolve_budget(RoundBudget::EngineDefault, cell.n);
    let mut overlap = InformedOverlap::new();
    let mut overlap_s = 0.0;
    let t0 = Instant::now();
    let record = run_flooding_parallel_observed(
        &mut net,
        FloodingSource::NextToJoin,
        &FloodingConfig::with_max_rounds(max_rounds),
        threads,
        |_, delta, engine| {
            let t = Instant::now();
            overlap.apply(delta);
            for idx in engine.newly_informed_dense() {
                overlap.mark(idx);
            }
            overlap_s += t.elapsed().as_secs_f64();
        },
    );
    let total = t0.elapsed().as_secs_f64();
    *trace.secs.entry("flood.run_s").or_default() += total - overlap_s;
    *trace.secs.entry("observe.overlap_s").or_default() += overlap_s;
    let rounds = record
        .outcome
        .rounds()
        .unwrap_or(max_rounds)
        .min(max_rounds);
    trace.count("flood.rounds", rounds as f64);
    trace.count("flood.informed", record.peak_informed() as f64);
    // The measurement's end-of-run pass over the alive population.
    let (alive, uninformed) = trace.time("sim.summary_s", || {
        let graph = net.graph();
        let uninformed = graph
            .member_indices()
            .iter()
            .filter(|&&idx| !overlap.is_informed(idx))
            .count();
        (graph.len().max(1), uninformed)
    });
    trace
        .replicated
        .push(("uninformed_alive", uninformed as f64));
    trace.replicated.push(("flooding_rounds", rounds as f64));
    trace
        .replicated
        .push(("peak_informed", record.peak_informed() as f64));
    trace
        .replicated
        .push(("completed", f64::from(record.outcome.is_complete())));
    trace
        .replicated
        .push(("final_fraction", record.final_fraction()));
    trace
        .replicated
        .push(("informed_alive_overlap", overlap.overlap_fraction(alive)));
    raes_health(trace, &net);
}

fn async_flooding_cell(
    trace: &mut CellTrace,
    cell: &CellSpec,
    seed: u64,
    spec: churn_sim::scenario::AsyncFloodingSpec,
) {
    let mut net = build_and_warm(trace, cell, seed);
    let horizon = workloads::resolve_budget(spec.horizon, cell.n) as f64;
    let cfg = AsyncFloodingConfig {
        latency: spec.latency,
        bandwidth: spec.bandwidth,
        horizon,
        churn: true,
        trace: TraceMode::Off,
    };
    let plan = cell.fault.resolve();
    let record = trace.time("event.loop_s", || {
        run_async_flooding_faulty(&mut net, AsyncSource::Newest, &cfg, &plan, seed)
    });
    trace.event_stats(&record.stats);
    trace.replicated.push(("informed", record.informed as f64));
    trace.replicated.push(("alive", record.alive as f64));
    trace
        .replicated
        .push(("emergent_rounds", f64::from(record.emergent_rounds)));
    trace
        .replicated
        .push(("final_fraction", record.final_fraction()));
    raes_health(trace, &net);
}

fn async_raes_cell(
    trace: &mut CellTrace,
    cell: &CellSpec,
    seed: u64,
    spec: churn_sim::scenario::AsyncRaesSpec,
) {
    let cfg = workloads::async_raes_config(cell, spec);
    let plan = cell.fault.resolve();
    let record = trace.time("event.loop_s", || run_async_raes_faulty(&cfg, &plan, seed));
    trace.event_stats(&record.stats);
    trace.count("raes.repair_requests", record.repair_requests as f64);
    trace.count("raes.repairs_completed", record.repairs_completed as f64);
    trace.count(
        "raes.dangling",
        record.dangling_fraction * (record.alive * cell.d) as f64,
    );
    trace.count("raes.slots", (record.alive * cell.d) as f64);
    trace
        .replicated
        .push(("repairs_completed", record.repairs_completed as f64));
    trace
        .replicated
        .push(("repair_requests", record.repair_requests as f64));
    trace
        .replicated
        .push(("dangling_fraction", record.dangling_fraction));
}

fn expansion_cell(
    trace: &mut CellTrace,
    cell: &CellSpec,
    seed: u64,
    spec: churn_sim::scenario::ExpansionSpec,
    threads: usize,
) {
    let mut net = build_and_warm(trace, cell, seed);
    let config = if spec.fast {
        ExpansionConfig::fast()
    } else {
        ExpansionConfig::default()
    };
    let mut rng = seeded_rng(seed ^ 0xABCD);
    let streaming = net.has_streaming_churn();
    let mut inc = trace.time("observe.init_s", || {
        IncrementalSnapshot::new(net.graph()).with_threads(threads)
    });
    // The workload samples once, right after the initial window.
    assert_eq!(spec.samples, 1, "the traced expansion cell samples once");
    let window = (cell.n / spec.initial_window_div).max(4) as u64;
    let mut apply_s = 0.0;
    let mut dirty = 0usize;
    trace.time("observe.window_s", || {
        observe_rounds(&mut net, window, |_, m, _, delta: &GraphDelta| {
            let t = Instant::now();
            inc.apply(m.graph(), delta);
            apply_s += t.elapsed().as_secs_f64();
            dirty += delta.dirty.len();
        });
    });
    *trace.secs.entry("observe.apply_s").or_default() += apply_s;
    trace.count("observe.window_rounds", window as f64);
    trace.count("observe.dirty_cells", dirty as f64);
    let snapshot = trace.time("observe.to_snapshot_s", || inc.to_snapshot());
    let time = net.time();
    let large_bounds = SizeRange::LargeSets.bounds_for(snapshot.len(), cell.d, streaming);
    let large = trace.time("expansion.large_s", || {
        measure_expansion_on(&snapshot, large_bounds, &config, &mut rng, time).value()
    });
    let full_bounds = SizeRange::Full.bounds_for(snapshot.len(), cell.d, streaming);
    let full = trace.time("expansion.full_s", || {
        measure_expansion_on(&snapshot, full_bounds, &config, &mut rng, time).value()
    });
    trace
        .replicated
        .push(("large_set_expansion", large.unwrap_or(f64::NAN)));
    trace
        .replicated
        .push(("large_min_size", large_bounds.0 as f64));
    trace
        .replicated
        .push(("full_range_expansion", full.unwrap_or(f64::NAN)));
}

fn trace_cell(measurement: &Measurement, cell: &CellSpec, seed: u64, threads: usize) -> CellTrace {
    let mut trace = CellTrace::default();
    match *measurement {
        Measurement::ParallelFlooding(_) => parallel_flooding_cell(&mut trace, cell, seed, threads),
        Measurement::AsyncFlooding(spec) => async_flooding_cell(&mut trace, cell, seed, spec),
        Measurement::AsyncRaes(spec) => async_raes_cell(&mut trace, cell, seed, spec),
        Measurement::Expansion(spec) => expansion_cell(&mut trace, cell, seed, spec, threads),
        ref other => unreachable!("no benchmark workload measures {other:?}"),
    }
    trace
}

/// One untraced call plus one traced pass: every metric of the pass, and
/// the cross-check errors.
fn pass(workload: Workload, seed: u64, out: &Path) -> (Vec<(String, f64)>, Vec<String>, usize) {
    let scenario = workload.scenario(seed);
    let cells = workload.cells(&scenario);
    let mut errors = Vec::new();

    let t0 = Instant::now();
    let outcome = run_scenario(&scenario, &crate::run_options(out))
        .expect("benchmark output directory is writable");
    let untraced_wall = t0.elapsed().as_secs_f64();
    let (mut failed, mut msgs) = crate::check_outcome(workload, &cells, &outcome);
    errors.append(&mut msgs);

    let pool = rayon::current_num_threads().max(1);
    let t1 = Instant::now();
    let mut shares: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut thread_secs: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut counts: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut maxima: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut replicated: Vec<Replicated> = Vec::new();
    for batch in cells.chunks(pool * 2) {
        let concurrent = pool.min(batch.len());
        let threads = (pool / concurrent).max(1);
        let traces: Vec<CellTrace> = batch
            .par_iter()
            .map(|(cell, seed)| trace_cell(scenario.measurement(), cell, *seed, threads))
            .collect();
        for ((_, seed), trace) in batch.iter().zip(traces) {
            for (layer, secs) in trace.secs {
                *shares.entry(layer).or_default() += secs / concurrent as f64;
                *thread_secs.entry(layer).or_default() += secs;
            }
            for (name, v) in trace.counts {
                *counts.entry(name).or_default() += v;
            }
            for (name, v) in trace.maxima {
                let slot = maxima.entry(name).or_insert(0.0);
                *slot = slot.max(v);
            }
            replicated.push((*seed, trace.replicated, trace.errors));
        }
    }
    // The sim layer's record I/O on this workload's records.
    let records_path = out.join("traced-records.jsonl");
    let t2 = Instant::now();
    let mut text = String::new();
    for record in &outcome.records {
        text.push_str(&record.to_json_line());
        text.push('\n');
    }
    std::fs::write(&records_path, text).expect("benchmark output directory is writable");
    let reloaded = load_cell_records(&records_path).expect("records just written load back");
    shares.insert("sim.records_s", t2.elapsed().as_secs_f64());
    let traced_wall = t1.elapsed().as_secs_f64();
    if reloaded.len() != outcome.records.len() {
        failed.extend(0..cells.len());
        errors.push("record file did not load back whole".into());
    }

    // Cross-check: the layer-by-layer re-run reproduces the records.
    // A cell whose record is missing was already counted by the check.
    for (i, (seed, metrics, mut cell_errors)) in replicated.into_iter().enumerate() {
        if let Some(record) = outcome.records.iter().find(|r| r.seed == seed) {
            for (name, value) in metrics {
                let recorded = record.metric(name);
                if recorded.map(f64::to_bits) != Some(value.to_bits()) {
                    cell_errors.push(format!(
                        "seed {seed}: traced {name} = {value}, untraced record has {recorded:?}"
                    ));
                }
            }
        }
        if !cell_errors.is_empty() {
            failed.insert(i);
            errors.append(&mut cell_errors);
        }
    }

    let attributed: f64 = DISJOINT.iter().filter_map(|l| shares.get(l)).sum();
    let unattributed = traced_wall - attributed;
    if unattributed < -0.01 * traced_wall {
        failed.extend(0..cells.len());
        errors.push(format!(
            "layer times ({attributed} s) exceed the traced wall ({traced_wall} s)"
        ));
    }

    let get = |m: &BTreeMap<&'static str, f64>, k: &str| m.get(k).copied().unwrap_or(0.0);
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let events: f64 = outcome
        .records
        .iter()
        .filter_map(|r| r.metric("events_processed"))
        .fold(0.0, |sum, v| sum + v);
    let mut m: Vec<(String, f64)> = Vec::new();
    let mut put = |k: &str, v: f64| m.push((k.to_string(), v));
    put("events_per_s", events / untraced_wall);
    for layer in DISJOINT {
        put(layer, get(&shares, layer));
    }
    put("observe.apply_s", get(&shares, "observe.apply_s"));
    put("core.warm_rounds", get(&counts, "core.warm_rounds"));
    put(
        "core.round_ns",
        1e9 * ratio(
            get(&thread_secs, "core.warm_s"),
            get(&counts, "core.warm_rounds"),
        ),
    );
    put(
        "protocol.round_ns",
        1e9 * ratio(
            get(&thread_secs, "protocol.warm_s"),
            get(&counts, "protocol.warm_rounds"),
        ),
    );
    put(
        "protocol.rejection_rate",
        ratio(
            get(&counts, "protocol.rejected"),
            get(&counts, "protocol.requests"),
        ),
    );
    put(
        "protocol.pending_backlog",
        ratio(
            get(&counts, "protocol.pending"),
            get(&counts, "protocol.alive"),
        ),
    );
    put("flood.rounds", get(&counts, "flood.rounds"));
    put(
        "flood.informed_per_s",
        ratio(
            get(&counts, "flood.informed"),
            get(&thread_secs, "flood.run_s"),
        ),
    );
    put("observe.dirty_cells", get(&counts, "observe.dirty_cells"));
    put("event.events", get(&counts, "event.events"));
    put(
        "event.ns_per_event",
        1e9 * ratio(
            get(&thread_secs, "event.loop_s"),
            get(&counts, "event.events"),
        ),
    );
    put("event.messages_sent", get(&counts, "event.messages_sent"));
    put(
        "event.delivery_ratio",
        ratio(
            get(&counts, "event.messages_delivered"),
            get(&counts, "event.messages_sent"),
        ),
    );
    put("event.peak_backlog", get(&maxima, "event.peak_backlog"));
    put("event.dropped", get(&counts, "event.dropped"));
    put("event.lost", get(&counts, "event.lost"));
    put("raes.repair_requests", get(&counts, "raes.repair_requests"));
    put(
        "raes.repairs_completed",
        get(&counts, "raes.repairs_completed"),
    );
    put(
        "raes.repair_yield",
        ratio(
            get(&counts, "raes.repairs_completed"),
            get(&counts, "raes.repair_requests"),
        ),
    );
    put(
        "raes.dangling_fraction",
        ratio(get(&counts, "raes.dangling"), get(&counts, "raes.slots")),
    );
    for name in [
        "fault.crashes",
        "fault.restarts",
        "fault.lost",
        "retry.retransmits",
        "retry.exhausted",
    ] {
        put(name, get(&counts, name));
    }
    put("unattributed_s", unattributed);
    put("traced_wall_s", traced_wall);
    put("untraced_wall_s", untraced_wall);
    put("trace_overhead_s", traced_wall - untraced_wall);
    (m, errors, failed.len())
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// Runs untraced/traced pass pairs until `seconds` pass and reports the
/// median of every metric over the passes.
pub fn run(workload: Workload, seed: u64, seconds: f64, out: &Path) -> Obj {
    let started = Instant::now();
    let cells = workload.cells(&workload.scenario(seed)).len();
    let mut passes: Vec<Vec<(String, f64)>> = Vec::new();
    let mut errors = Vec::new();
    let mut failed = 0usize;
    loop {
        let t0 = Instant::now();
        let (metrics, mut errs, bad) = pass(workload, seed, out);
        passes.push(metrics);
        errors.append(&mut errs);
        failed += bad;
        if crate::budget_spent(started, seconds, t0.elapsed().as_secs_f64()) {
            break;
        }
    }
    let medians: Vec<(String, f64)> = passes[0]
        .iter()
        .enumerate()
        .map(|(i, (name, _))| {
            let mut values: Vec<f64> = passes.iter().map(|p| p[i].1).collect();
            (name.clone(), median(&mut values))
        })
        .collect();
    let get = |k: &str| {
        medians
            .iter()
            .find(|(name, _)| name == k)
            .map_or(0.0, |&(_, v)| v)
    };
    let mut obj = Obj::new();
    obj.str("workload", workload.name())
        .num("passes", passes.len() as f64)
        .num("attempted", (cells * passes.len()) as f64)
        .num("failed", failed as f64)
        .strs("errors", &errors)
        .num("n", workload.n() as f64)
        .num("events", get("event.events"))
        .num("messages", get("event.messages_sent"))
        .map("metrics", &medians);
    obj
}
