//! The benchmark's workloads: scenario values built from the run seed, the
//! shape invariants every produced record must satisfy, and the public
//! constructors that build a cell's network outside the runner.

use churn_core::{theory, ModelKind};
use churn_event::{BandwidthModel, CrashRestart, LatencyModel, LossModel};
use churn_protocol::{RaesConfig, RaesModel};
use churn_sim::scenario::{
    AnyNet, AsyncFloodingSpec, AsyncRaesSpec, CellRecord, CellSpec, ExpansionSpec, FaultSpec,
    FloodingSpec, Grid, GridPreset, Measurement, NetSpec, RetryPolicy, RoundBudget, Scenario,
};
use churn_stochastic::rng::derive_seed;

/// Network sizes, chosen so that one benchmark run of every workload fits
/// its time budget on a 2-core machine (see `perfbench/README.md`).
const SYNC_FLOOD_N: usize = 1 << 16;
const ASYNC_FLOOD_N: usize = 1 << 15;
const RAES_CHAOS_N: usize = 1 << 14;
const EXPANSION_N: usize = 1 << 16;

/// `flooding_rounds` must stay within this multiple of `log2 n` (the paper's
/// O(log n) flooding with edge regeneration).
const FLOOD_ROUNDS_PER_LOG2N: f64 = 1.0;
/// Floor on the async flood's final informed fraction: nodes born after the
/// flood passed are never informed, so the fraction sits just under 1.
const ASYNC_FINAL_FRACTION_FLOOR: f64 = 0.95;
/// Dangling out-slots per alive out-slot a lossy RAES run may end with.
const CHAOS_DANGLING_CEILING: f64 = 0.2;

/// The E16 asynchronous flooding spec (exponential latency, drop-tail
/// egress, horizon `6·log2 n`).
const E16: AsyncFloodingSpec = AsyncFloodingSpec {
    latency: LatencyModel::Exponential { mean: 0.5 },
    bandwidth: BandwidthModel::drop_tail(32.0, 64),
    horizon: RoundBudget::Log2Times(6),
};

/// The E17/E20 asynchronous RAES spec (exponential latency, delaying
/// egress, horizon `6·log2 n`) without the flood E17 starts a quarter into
/// the horizon. Under 30% loss and crashes that flood dies at its source in
/// about a third of the cells, which then process about 30% fewer events;
/// with two cells a call, that made the call's wall depend on the seed more
/// than on the code. The workload is about repair, retry, loss and crash
/// paths; `async-flood-32k` covers flood pushes.
const CHAOS_RAES: AsyncRaesSpec = AsyncRaesSpec {
    latency: LatencyModel::Exponential { mean: 0.5 },
    bandwidth: BandwidthModel::delaying(32.0),
    horizon: RoundBudget::Log2Times(6),
    flood: false,
};

/// The E20 retry policy: backoff ×2, jitter 0.25, budget 6.
const CHAOS_RETRY: RetryPolicy = RetryPolicy {
    factor: 2.0,
    jitter: 0.25,
    budget: 6,
};

/// The E20 lossy point: 30% i.i.d. loss, crash–restart at rate 0.002 with
/// downtime 4, and the E20 retry policy.
fn chaos_fault() -> FaultSpec {
    FaultSpec {
        loss: LossModel::Iid { p: 0.3 },
        crash: Some(CrashRestart {
            rate: 0.002,
            downtime: LatencyModel::Fixed(4.0),
        }),
        retry: Some(CHAOS_RETRY),
        ..FaultSpec::none()
    }
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SyncFlood,
    AsyncFlood,
    RaesChaos,
    Expansion,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::SyncFlood,
        Workload::AsyncFlood,
        Workload::RaesChaos,
        Workload::Expansion,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SyncFlood => "sync-flood-65k",
            Workload::AsyncFlood => "async-flood-32k",
            Workload::RaesChaos => "raes-chaos-16k",
            Workload::Expansion => "expansion-65k",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's scenario. The run seed only enters through the base
    /// seed, so the same seed gives the same cells and records.
    pub fn scenario(self, seed: u64) -> Scenario {
        let base_seed = derive_seed(seed, 0xBE_4C00 + self as u64);
        let scenario = match self {
            Workload::SyncFlood => Scenario::new(
                "bench-sync-flood",
                "Sharded flooding on SDGR (engine-default budget)",
                Measurement::ParallelFlooding(FloodingSpec {
                    budget: RoundBudget::EngineDefault,
                    record_isolation: false,
                }),
            )
            .nets([NetSpec::Baseline(ModelKind::Sdgr)])
            .full_grid(Grid::new([self.n()], [8], 2)),
            Workload::AsyncFlood => Scenario::new(
                "bench-async-flood",
                "E16 asynchronous flooding on SDGR and RAES",
                Measurement::AsyncFlooding(E16),
            )
            .nets([NetSpec::Baseline(ModelKind::Sdgr), NetSpec::raes_default()])
            .full_grid(Grid::new([self.n()], [8], 1)),
            Workload::RaesChaos => Scenario::new(
                "bench-raes-chaos",
                "E20 lossy crash-restart asynchronous RAES, no flood",
                Measurement::AsyncRaes(CHAOS_RAES),
            )
            .nets([NetSpec::raes_default()])
            .faults([chaos_fault()])
            .full_grid(Grid::new([self.n()], [8], 2)),
            Workload::Expansion => Scenario::new(
                "bench-expansion",
                "E2 large-set expansion on SDG (fast estimator)",
                Measurement::Expansion(ExpansionSpec {
                    initial_window_div: 16,
                    samples: 1,
                    interval_div: 16,
                    large_sets: true,
                    fast: true,
                }),
            )
            .nets([NetSpec::Baseline(ModelKind::Sdg)])
            .full_grid(Grid::new([self.n()], [20], 1)),
        };
        let scenario = scenario.base_seed(base_seed);
        scenario
            .validate()
            .expect("benchmark scenarios are valid by construction");
        scenario
    }

    /// The network size of every cell of the workload.
    pub fn n(self) -> usize {
        match self {
            Workload::SyncFlood => SYNC_FLOOD_N,
            Workload::AsyncFlood => ASYNC_FLOOD_N,
            Workload::RaesChaos => RAES_CHAOS_N,
            Workload::Expansion => EXPANSION_N,
        }
    }

    /// The cells of the workload, with their seeds, in record order.
    pub fn cells(self, scenario: &Scenario) -> Vec<(CellSpec, u64)> {
        scenario
            .cells(GridPreset::Full)
            .into_iter()
            .map(|cell| (cell, scenario.cell_seed(&cell)))
            .collect()
    }

    /// Checks the shape invariants of one record; `Err` names the first
    /// violated one.
    pub fn check(self, record: &CellRecord) -> Result<(), String> {
        let get = |name: &str| {
            record
                .metric(name)
                .ok_or_else(|| format!("seed {}: metric {name:?} missing", record.seed))
        };
        let fail = |what: String| Err(format!("seed {} ({}): {what}", record.seed, record.net));
        let log2n = (record.n as f64).log2();
        match self {
            Workload::SyncFlood => {
                if get("completed")? != 1.0 {
                    return fail("flood did not complete".into());
                }
                let rounds = get("flooding_rounds")?;
                if rounds > FLOOD_ROUNDS_PER_LOG2N * log2n {
                    return fail(format!(
                        "flooding_rounds {rounds} > {FLOOD_ROUNDS_PER_LOG2N}·log2 n"
                    ));
                }
                // The observe layer's overlap tracker and the flooding
                // engine must agree on the informed alive population.
                let (overlap, fraction) = (get("informed_alive_overlap")?, get("final_fraction")?);
                if overlap != fraction {
                    return fail(format!(
                        "observed overlap {overlap} != final_fraction {fraction}"
                    ));
                }
            }
            Workload::AsyncFlood => {
                let fraction = get("final_fraction")?;
                if !(ASYNC_FINAL_FRACTION_FLOOR..=1.0).contains(&fraction) {
                    return fail(format!(
                        "final_fraction {fraction} below {ASYNC_FINAL_FRACTION_FLOOR}"
                    ));
                }
                let horizon = resolve_budget(E16.horizon, record.n) as f64;
                if get("sim_time")? > horizon {
                    return fail("simulated past the horizon".into());
                }
            }
            Workload::RaesChaos => {
                let (max_in, cap) = (get("max_in_degree")?, get("in_degree_cap")?);
                if max_in > cap {
                    return fail(format!("max_in_degree {max_in} > cap {cap}"));
                }
                if get("max_retransmits")? > f64::from(CHAOS_RETRY.budget) {
                    return fail("a repair retransmitted past its budget".into());
                }
                let dangling = get("dangling_fraction")?;
                if dangling > CHAOS_DANGLING_CEILING {
                    return fail(format!(
                        "dangling_fraction {dangling} > {CHAOS_DANGLING_CEILING}"
                    ));
                }
                if get("repairs_completed")? <= 0.0 || get("crashes")? <= 0.0 {
                    return fail("no repairs or no crashes: the fault plan did not run".into());
                }
            }
            Workload::Expansion => {
                let large = get("large_set_expansion")?;
                if large.is_nan() || large < theory::EXPANSION_THRESHOLD {
                    return fail(format!(
                        "large_set_expansion {large} below the Lemma 3.6 bound {}",
                        theory::EXPANSION_THRESHOLD
                    ));
                }
                let full = get("full_range_expansion")?;
                if !(full >= 0.0 && full.is_finite()) {
                    return fail(format!("full_range_expansion {full} is not a finite h_out"));
                }
            }
        }
        Ok(())
    }
}

/// Builds a cell's network through the public constructors, as the runner
/// does (not yet warm).
pub fn build_net(cell: &CellSpec, seed: u64) -> AnyNet {
    match cell.net {
        NetSpec::Baseline(kind) => AnyNet::Baseline(
            kind.build_with_victim(cell.n, cell.d, seed, cell.victim)
                .expect("benchmark nets are valid"),
        ),
        NetSpec::Raes(spec) => AnyNet::Raes(Box::new(
            RaesModel::new(
                RaesConfig::new(cell.n, cell.d)
                    .churn(spec.churn)
                    .saturation(spec.saturation)
                    .capacity_factor(spec.capacity)
                    .attempts_per_round(spec.attempts)
                    .adversary(spec.adversary)
                    .victim_policy(cell.victim)
                    .seed(seed),
            )
            .expect("benchmark nets are valid"),
        )),
        NetSpec::Static | NetSpec::P2p => unreachable!("no benchmark workload uses {:?}", cell.net),
    }
}

/// Resolves a round budget against `n` as the runner does.
pub fn resolve_budget(budget: RoundBudget, n: usize) -> u64 {
    match budget {
        RoundBudget::Log2Times(factor) => u64::from(factor) * (n as f64).log2().ceil() as u64,
        RoundBudget::Fixed(rounds) => rounds,
        RoundBudget::EngineDefault => churn_core::flooding::FloodingConfig::default().max_rounds,
    }
}

/// The async RAES engine config of a cell, as the runner builds it.
pub fn async_raes_config(cell: &CellSpec, spec: AsyncRaesSpec) -> churn_event::AsyncRaesConfig {
    let NetSpec::Raes(net) = cell.net else {
        unreachable!("async RAES cells run RAES nets")
    };
    let retry = cell.fault.effective_retry();
    let horizon = resolve_budget(spec.horizon, cell.n) as f64;
    churn_event::AsyncRaesConfig {
        n: cell.n,
        d: cell.d,
        capacity_factor: net.capacity,
        latency: spec.latency,
        bandwidth: spec.bandwidth,
        horizon,
        flood_at: spec.flood.then_some(horizon / 4.0),
        retry_timeout: 8.0,
        backoff_factor: retry.factor,
        backoff_jitter: retry.jitter,
        retry_budget: retry.budget,
        trace: churn_event::TraceMode::Off,
    }
}
