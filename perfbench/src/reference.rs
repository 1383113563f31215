//! The reference loop that `wall_rel` divides by. On a machine whose speed
//! drifts (a shared host), its wall, timed right before and right after a
//! `run_scenario` call, slows and speeds up with the call's own wall, so
//! their ratio measures the program and not the host. It has two parts, as
//! the workloads do: branchy work on data that fits the L2 cache (sorting a
//! fixed pseudo-random array of `u32`s with `sort_unstable`) and dependent
//! random reads and writes over an array past it. The loop is the
//! benchmark's own code; nothing in the repository's crates changes it.

use std::hint::black_box;
use std::time::Instant;

/// Elements sorted per repetition (2 MiB of `u32`s, about 15 ms on a
/// 2.1 GHz Xeon core).
const SORT_LEN: usize = 1 << 19;
/// Sorts timed per measurement.
const SORT_REPS: usize = 3;
/// Cells of the random read-modify-write part (8 MiB of `u32`s).
const RMW_LEN: usize = 1 << 21;
/// Dependent steps of the random read-modify-write part per measurement.
const RMW_STEPS: u32 = 300_000;

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// The fixed sort input and a buffer to sort it in.
pub struct Reference {
    input: Vec<u32>,
    buffer: Vec<u32>,
}

impl Reference {
    pub fn new() -> Self {
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        let input = (0..SORT_LEN).map(|_| xorshift(&mut x) as u32).collect();
        let mut reference = Self {
            input,
            buffer: Vec::with_capacity(SORT_LEN),
        };
        // The first measurements of a process run slow (cold code and
        // buffers).
        reference.time();
        reference.time();
        reference
    }

    /// Seconds taken by the loop: `SORT_REPS` sorts of the fixed input plus
    /// `RMW_STEPS` random read-modify-writes. Filling the buffers is not
    /// timed. The read-modify-write array lives only for the measurement,
    /// so it does not raise the process's resident set between calls.
    pub fn time(&mut self) -> f64 {
        let mut total = 0.0;
        for _ in 0..SORT_REPS {
            self.buffer.clear();
            self.buffer.extend_from_slice(&self.input);
            let t0 = Instant::now();
            self.buffer.sort_unstable();
            total += t0.elapsed().as_secs_f64();
            black_box(&self.buffer);
        }
        let mut cells: Vec<u32> = self.input.iter().cycle().take(RMW_LEN).copied().collect();
        let mut x: u64 = 0x2545_F491_4F6C_DD1D;
        let mut at = 0usize;
        let t0 = Instant::now();
        for _ in 0..RMW_STEPS {
            let r = xorshift(&mut x);
            let v = cells[at];
            cells[at] = v.wrapping_add(r as u32);
            at = (u64::from(v) ^ r) as usize & (RMW_LEN - 1);
        }
        total += t0.elapsed().as_secs_f64();
        black_box(&cells);
        total
    }
}
