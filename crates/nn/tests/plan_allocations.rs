//! The compiled f32 plan's allocation contract, counted by a global
//! allocator on one 512-wide stage, single thread:
//!
//! - after one warm-up dispatch, executing the plan allocates nothing
//!   (its arena and the caller's output buffers are already sized);
//! - compiling a second batch shape of the stage allocates under 1 % of
//!   the bytes the first compile did, because the weight panels belong
//!   to the layer and every plan shape borrows them.
//!
//! The allocator counts only on a thread that has switched counting on,
//! so nothing the test harness does on its own threads adds to a count.

use eugene_nn::{set_parallelism, StagedNetwork, StagedNetworkConfig};
use eugene_tensor::{seeded_rng, standard_normal, Matrix};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts allocation events and requested bytes of the threads that
/// have switched counting on. Deallocations are pass-through; only
/// allocations matter for the claims.
struct CountingAlloc;

thread_local! {
    // Const-initialised and without destructors, so reading them never
    // allocates (which would recurse into the allocator).
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static EVENTS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    // `try_with`: a thread's locals may already be gone while it exits.
    let _ = COUNTING.try_with(|on| {
        if on.get() {
            EVENTS.with(|events| events.set(events.get() + 1));
            BYTES.with(|total| total.set(total.get() + bytes as u64));
        }
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; counting only touches this
// thread's const-initialised locals and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Runs `body` with counting on for this thread; returns its result and
/// the allocation events and bytes it made.
fn counted<R>(body: impl FnOnce() -> R) -> (R, u64, u64) {
    EVENTS.with(|events| events.set(0));
    BYTES.with(|total| total.set(0));
    COUNTING.with(|on| on.set(true));
    let result = body();
    COUNTING.with(|on| on.set(false));
    (result, EVENTS.with(Cell::get), BYTES.with(Cell::get))
}

fn random_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut rng = seeded_rng(seed);
    let data = (0..rows * cols)
        .map(|_| standard_normal(&mut rng))
        .collect();
    Matrix::from_vec(rows, cols, data)
}

#[test]
fn f32_plans_allocate_nothing_per_dispatch_and_share_weight_panels() {
    const DIM: usize = 512;
    const ROWS: usize = 8;
    set_parallelism(1);
    let config = StagedNetworkConfig {
        input_dim: DIM,
        num_classes: 10,
        stage_widths: vec![vec![DIM]],
        dropout: 0.0,
        input_skip: false,
    };
    let net = StagedNetwork::new(&config, &mut seeded_rng(0xF5));
    let input = random_matrix(ROWS, DIM, 0xBEEF);

    let (plan, _, first_bytes) = counted(|| net.stage_plan(0, ROWS).expect("stage compiles"));
    let (_, _, second_bytes) =
        counted(|| net.stage_plan(0, ROWS / 2).expect("second shape compiles"));
    assert!(
        second_bytes * 100 < first_bytes,
        "a second batch shape must borrow the layers' weight panels: it \
         allocated {second_bytes} B against {first_bytes} B for the first \
         shape (floor: under 1 %)"
    );

    let mut hidden = Matrix::zeros(0, 0);
    let mut logits = Matrix::zeros(0, 0);
    plan.execute_into(&net, &input, &input, &mut hidden, &mut logits);
    let (_, events, _) = counted(|| {
        for _ in 0..100 {
            plan.execute_into(&net, &input, &input, &mut hidden, &mut logits);
        }
    });
    assert_eq!(
        events, 0,
        "compiled f32 plan dispatch must not allocate after warm-up"
    );
}
