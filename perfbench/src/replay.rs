//! Replays of the event layer's primitives through their public APIs, sized
//! from the workload's own operation counts: scheduler schedule/pop, latency
//! draws, egress enqueues and fault decisions. Each replay runs on a fresh
//! thread, so thread-local pools never carry over from one to the next.

use std::hint::black_box;
use std::time::Instant;

use churn_event::{EgressQueues, FaultState, LatencyModel, Scheduler};
use churn_sim::scenario::{GridPreset, Measurement, RoundBudget};
use churn_stochastic::rng::seeded_rng;

use crate::json::Obj;
use crate::workloads::{self, Workload};

/// Delays cycled through by the scheduler replay, so it times the queue and
/// not the random draws.
const DELAY_RING: usize = 4096;

fn on_fresh_thread<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    std::thread::spawn(f)
        .join()
        .expect("replay thread panicked")
}

/// Nanoseconds per (pop + schedule) pair of a hold model with `pending`
/// events queued, each pop rescheduling one event an exponential delay on.
fn sched_ns(ops: u64, pending: usize, latency: LatencyModel) -> f64 {
    on_fresh_thread(move || {
        let mut rng = seeded_rng(0x5C4E);
        let delays: Vec<f64> = (0..DELAY_RING).map(|_| latency.sample(&mut rng)).collect();
        let mut sched: Scheduler<u32> = Scheduler::new();
        for i in 0..pending {
            sched.schedule_at(delays[i % DELAY_RING], i as u32);
        }
        let t0 = Instant::now();
        for i in 0..ops as usize {
            let (now, payload) = sched.pop().expect("the hold model never drains");
            sched.schedule_at(now + delays[i % DELAY_RING], black_box(payload));
        }
        t0.elapsed().as_secs_f64() * 1e9 / ops as f64
    })
}

fn latency_ns(ops: u64, latency: LatencyModel) -> f64 {
    on_fresh_thread(move || {
        let mut rng = seeded_rng(0x1A7E);
        let t0 = Instant::now();
        let mut sum = 0.0;
        for _ in 0..ops {
            sum += latency.sample(&mut rng);
        }
        black_box(sum);
        t0.elapsed().as_secs_f64() * 1e9 / ops as f64
    })
}

/// Enqueues from senders drawn uniformly among `n`, the clock advancing so
/// that `ops` messages span `horizon` units of simulated time.
fn egress_ns(ops: u64, n: usize, horizon: f64, bandwidth: churn_event::BandwidthModel) -> f64 {
    on_fresh_thread(move || {
        let mut rng = seeded_rng(0xE9E5);
        let senders: Vec<u64> = (0..DELAY_RING)
            .map(|_| rand_below(&mut rng, n as u64))
            .collect();
        let mut queues = EgressQueues::new(bandwidth);
        let step = horizon / ops as f64;
        let t0 = Instant::now();
        for i in 0..ops as usize {
            black_box(queues.enqueue(senders[i % DELAY_RING], i as f64 * step));
        }
        t0.elapsed().as_secs_f64() * 1e9 / ops as f64
    })
}

fn fault_ns(ops: u64, n: usize, plan: churn_event::FaultPlan) -> f64 {
    on_fresh_thread(move || {
        let mut rng = seeded_rng(0xFA17);
        let links: Vec<(u64, u64)> = (0..DELAY_RING)
            .map(|_| {
                (
                    rand_below(&mut rng, n as u64),
                    rand_below(&mut rng, n as u64),
                )
            })
            .collect();
        let mut state = FaultState::new(&plan, 0xFA17);
        let t0 = Instant::now();
        let mut copies = 0u64;
        for i in 0..ops as usize {
            let (s, r) = links[i % DELAY_RING];
            copies += u64::from(state.copies(s, r));
        }
        black_box(copies);
        t0.elapsed().as_secs_f64() * 1e9 / ops as f64
    })
}

fn rand_below(rng: &mut churn_stochastic::rng::SimRng, bound: u64) -> u64 {
    use rand::Rng;
    rng.gen_range(0..bound)
}

/// Replays sized from the workload's event count (`events`) and message
/// count (`messages`); a workload without events reports zeros.
pub fn run(workload: Workload, events: u64, messages: u64) -> Obj {
    let scenario = workload.scenario(0);
    let cell = scenario.cells(GridPreset::Full)[0];
    let (latency, bandwidth, horizon) = match *scenario.measurement() {
        Measurement::AsyncFlooding(spec) => (spec.latency, spec.bandwidth, spec.horizon),
        Measurement::AsyncRaes(spec) => (spec.latency, spec.bandwidth, spec.horizon),
        // No events: every replay below is sized 0 and reports 0.
        _ => (
            LatencyModel::Fixed(1.0),
            churn_event::BandwidthModel::unlimited(),
            RoundBudget::Fixed(0),
        ),
    };
    let horizon = workloads::resolve_budget(horizon, cell.n) as f64;
    let mut obj = Obj::new();
    obj.str("workload", workload.name());
    let mut put = |name: &str, ops: u64, f: &dyn Fn(u64) -> f64| {
        obj.num(name, if ops == 0 { 0.0 } else { f(ops) });
    };
    put("sched.ns_per_op", events, &|ops| {
        sched_ns(ops, cell.n * cell.d, latency)
    });
    put("latency.ns_per_draw", messages, &|ops| {
        latency_ns(ops, latency)
    });
    put("egress.ns_per_enqueue", messages, &|ops| {
        egress_ns(ops, cell.n, horizon, bandwidth)
    });
    put("fault.ns_per_decision", messages, &|ops| {
        fault_ns(ops, cell.n, cell.fault.resolve())
    });
    obj
}
