//! Pins the router's steady-state allocation rate, and the placement
//! annealer's freedom from per-move allocations.
//!
//! The hot loops (window selection, Dijkstra, segment pricing) run on
//! reusable scratch buffers and dense index tables; the only allocations a
//! routed task should make in steady state are its own result (the path's
//! node/edge vectors), occasional calendar growth and the candidate merge's
//! small heap. This test routes a warm-up batch, then counts allocations
//! over a measured batch through a counting global allocator and fails when
//! the per-task rate regresses past a generous bound — the tripwire for
//! accidentally reintroducing per-task `Vec`/`HashMap` churn. The annealer
//! must allocate the same amount whatever its move count.
//!
//! Allocations are counted per thread, so tests running side by side do not
//! see each other's allocations.
//!
//! (The counter lives here, in an integration test, because a global
//! allocator must be installed by the final binary — the library itself
//! stays `forbid(unsafe_code)`.)

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use biochip_arch::{
    place_devices, ConnectionGrid, PlacementOptions, Router, RoutingOptions, TransportKind,
    TransportTask,
};
use biochip_assay::OpId;
use biochip_schedule::DeviceId;

struct CountingAlloc;

thread_local! {
    // `const`-initialised and without a destructor: touching it never
    // allocates, so the allocator can bump it.
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

/// Allocations made so far by the calling thread.
fn allocations() -> usize {
    ALLOCATIONS.with(Cell::get)
}

// SAFETY: pure pass-through to `System` plus one thread-local counter bump —
// every GlobalAlloc contract obligation is delegated unchanged.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // `try_with` fails only while the thread is being torn down; such
        // allocations go uncounted.
        let _ = ALLOCATIONS.try_with(|count| count.set(count.get() + 1));
        // SAFETY: same layout the caller gave us, forwarded to System.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: ptr/layout come straight from the caller, which got ptr
        // from our alloc (i.e. from System) with this same layout.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn direct_task(sample: usize, from: usize, to: usize, start: u64) -> TransportTask {
    TransportTask {
        sample,
        producer: OpId(0),
        consumer: OpId(1),
        from_device: DeviceId(from),
        to_device: DeviceId(to),
        kind: TransportKind::Direct,
        window_start: start,
        window_end: start + 5,
        storage_interval: None,
        earliest_start: start,
        deadline: start + 25,
    }
}

fn store_fetch_pair(sample: usize, from: usize, to: usize, start: u64) -> [TransportTask; 2] {
    let stored_until = start + 40;
    [
        TransportTask {
            sample,
            producer: OpId(0),
            consumer: OpId(1),
            from_device: DeviceId(from),
            to_device: DeviceId(to),
            kind: TransportKind::Store,
            window_start: start,
            window_end: start + 5,
            storage_interval: Some((start + 5, stored_until)),
            earliest_start: start,
            deadline: start + 20,
        },
        TransportTask {
            sample,
            producer: OpId(0),
            consumer: OpId(1),
            from_device: DeviceId(from),
            to_device: DeviceId(to),
            kind: TransportKind::Fetch,
            window_start: stored_until,
            window_end: stored_until + 5,
            storage_interval: None,
            earliest_start: stored_until,
            deadline: stored_until + 30,
        },
    ]
}

/// A steady stream of direct, store and fetch tasks whose windows march
/// forward in time (so the calendars grow realistically but tasks stay
/// routable forever).
fn task_stream(count: usize, first_sample: usize, start_offset: u64) -> Vec<TransportTask> {
    let mut tasks = Vec::new();
    let mut sample = first_sample;
    let mut t = start_offset;
    while tasks.len() < count {
        tasks.push(direct_task(sample, 0, 1, t));
        tasks.push(direct_task(sample + 1, 2, 3, t + 7));
        tasks.extend(store_fetch_pair(sample + 2, 1, 2, t + 3));
        sample += 3;
        t += 60;
    }
    tasks.truncate(count);
    tasks
}

#[test]
fn steady_state_routing_stays_allocation_lean() {
    // Side 10 → scale mode: the dense tables, guards and the segment index
    // are all on the measured path.
    let grid = ConnectionGrid::square(10);
    let warmup = task_stream(60, 0, 10);
    let placement = place_devices(&grid, 4, &warmup, &PlacementOptions::default()).unwrap();
    let mut router = Router::new(&grid, &placement, RoutingOptions::default());

    for task in &warmup {
        router.route(task).unwrap_or_else(|e| panic!("warmup: {e}"));
    }

    let measured = task_stream(100, 10_000, 10 + 16 * 60);
    let before = allocations();
    for task in &measured {
        router
            .route(task)
            .unwrap_or_else(|e| panic!("measured: {e}"));
    }
    let allocations = allocations() - before;

    // Generous bound: each task legitimately allocates its result path and
    // the store stage its merge heap; the pre-refactor per-task `HashSet` /
    // `BTreeSet` / full-candidate-vector churn sat an order of magnitude
    // above this.
    let per_task = allocations as f64 / measured.len() as f64;
    assert!(
        per_task <= 48.0,
        "steady-state routing allocates {per_task:.1} times per task \
         ({allocations} allocations over {} tasks) — scratch reuse regressed",
        measured.len()
    );
}

#[test]
fn placement_allocations_do_not_grow_with_annealing_moves() {
    // Side 8 puts the devices on the spacing-2 lattice with free candidate
    // nodes left over, so the annealer runs both swaps and moves.
    let grid = ConnectionGrid::square(8);
    let tasks = task_stream(60, 0, 10);
    let count = |annealing_moves| {
        let options = PlacementOptions {
            annealing_moves,
            ..PlacementOptions::default()
        };
        let before = allocations();
        place_devices(&grid, 4, &tasks, &options).unwrap();
        allocations() - before
    };
    let short = count(2_000);
    let long = count(20_000);
    assert_eq!(
        short, long,
        "placement made {short} allocations at 2,000 moves but {long} at 20,000 — \
         the annealer allocates per move"
    );
}
