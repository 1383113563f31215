//! Verifies that steady-state churn of the four models (SDG, SDGR, PDG,
//! PDGR) performs no heap allocation, with a counting global allocator.
//!
//! Both degrees the scenarios use are covered: at `d = 8` and `d = 20` the
//! graph keeps every out-slot inline, and the in-degree tail of the
//! regenerating models reaches the overflow side store, whose buffers must
//! be recycled rather than reallocated.
//!
//! This file holds exactly one test so no concurrently running test can
//! pollute the global allocation counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use churn_core::{
    ChurnSummary, DynamicNetwork, EdgePolicy, PoissonConfig, PoissonModel, StreamingConfig,
    StreamingModel,
};

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

const N: usize = 2_000;

/// Allocations performed by `steps` calls of `step`.
fn allocations_over(steps: usize, mut step: impl FnMut()) -> u64 {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for _ in 0..steps {
        step();
    }
    ALLOCATIONS.load(Ordering::Relaxed) - before
}

#[test]
fn steady_state_churn_does_not_allocate() {
    for d in [8, 20] {
        for policy in [EdgePolicy::Static, EdgePolicy::Regenerate] {
            // Streaming (SDG / SDGR): one round = one death plus one birth.
            let mut model =
                StreamingModel::new(StreamingConfig::new(N, d).edge_policy(policy).seed(3))
                    .unwrap();
            model.warm_up();
            // Let every reused buffer (overflow pool, removal and sample
            // scratch, the caller-owned summary) reach its steady capacity.
            let mut summary = ChurnSummary::new();
            allocations_over(N, || model.step_round_into(&mut summary));
            let allocated = allocations_over(N, || model.step_round_into(&mut summary));
            assert_eq!(
                allocated,
                0,
                "{} d={d}: steady-state rounds must not touch the heap",
                model.model_kind()
            );

            // Poisson (PDG / PDGR): one jump-chain event per step.
            let mut model = PoissonModel::new(
                PoissonConfig::with_expected_size(N, d)
                    .edge_policy(policy)
                    .seed(3),
            )
            .unwrap();
            model.warm_up();
            allocations_over(4 * N, || {
                model.next_jump();
            });
            let allocated = allocations_over(4 * N, || {
                model.next_jump();
            });
            assert_eq!(
                allocated,
                0,
                "{} d={d}: steady-state jumps must not touch the heap",
                model.model_kind()
            );
        }
    }
}
