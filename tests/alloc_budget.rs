//! Heap-allocation budget of the steady order path.
//!
//! A counting global allocator counts allocations (including
//! reallocations) made on this test's thread while a flag is set. The
//! test drives a fixed, fault-free stream through `VmShop::create` — the
//! `steady_lifecycle` shape: `experiment_dag` orders 10 sim s apart, VM
//! monitors ticking every 10 sim s, each VM destroyed 600 sim s after it
//! is created — and checks that the event loop's allocations per order
//! stay under a ceiling. The stream is deterministic, so the count is
//! exact and repeats from run to run in debug and release builds alike.
//! The same stream also checks that a fault-free site keeps no transport
//! trace: its memory must not grow with run length.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::rc::Rc;

use vmplants::{SimSite, SiteConfig};
use vmplants_dag::graph::experiment_dag;
use vmplants_plant::VmId;
use vmplants_simkit::{SimDuration, SimTime};
use vmplants_virt::VmSpec;

struct Counting;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn note_alloc() {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    let _ = COUNTING.try_with(|on| {
        if on.get() {
            let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        }
    });
}

// SAFETY: every call is forwarded unchanged to the system allocator, which
// upholds the `GlobalAlloc` contract; counting touches only `const`-
// initialised thread-local cells, which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const ORDERS: u64 = 300;

/// Allocations per order the event loop may make. The stream measures
/// 393.5 per order; the ceiling leaves 5 % of headroom. Lower it when a
/// change removes allocations, so the saving stays pinned.
const CEILING_PER_ORDER: f64 = 414.0;

/// Run the stream; returns (allocations per order, successful creates,
/// transport trace lines kept at quiesce).
fn allocations_per_order() -> (f64, usize, usize) {
    let mut site = SimSite::build(SiteConfig {
        seed: 1,
        ..SiteConfig::default()
    });
    let orders: Vec<_> = (0..ORDERS)
        .map(|_| site.order(VmSpec::mandrake(64), experiment_dag("arijit")))
        .collect();
    let created = Rc::new(Cell::new(0usize));
    let failed_destroys = Rc::new(Cell::new(0usize));

    COUNTING.with(|on| on.set(true));
    let horizon = SimTime::from_secs(ORDERS * 10 + 7_500);
    for plant in &site.plants {
        plant.start_monitor(&mut site.engine, SimDuration::from_secs(10), horizon);
    }
    for (i, order) in (0u64..).zip(orders) {
        let shop = site.shop.clone();
        let created = Rc::clone(&created);
        let failed_destroys = Rc::clone(&failed_destroys);
        site.engine
            .schedule_at(SimTime::from_secs(10 * i), move |engine| {
                let destroyer = shop.clone();
                shop.create(
                    engine,
                    order,
                    Box::new(move |engine, res| {
                        let Ok(ad) = res else { return };
                        created.set(created.get() + 1);
                        let id = VmId(ad.get_str("vmid").expect("vmid"));
                        engine.schedule(SimDuration::from_secs(600), move |engine| {
                            destroyer.destroy(
                                engine,
                                &id,
                                Box::new(move |_, res| {
                                    if res.is_err() {
                                        failed_destroys.set(failed_destroys.get() + 1);
                                    }
                                }),
                            );
                        });
                    }),
                );
            });
    }
    site.engine.run();
    COUNTING.with(|on| on.set(false));

    assert_eq!(failed_destroys.get(), 0, "a fault-free destroy failed");
    let allocs = ALLOCS.with(|n| n.replace(0));
    let trace_len = site.shop.transport().trace_len();
    (allocs as f64 / ORDERS as f64, created.get(), trace_len)
}

#[test]
fn steady_order_path_stays_within_its_allocation_budget() {
    let (per_order, created, trace_len) = allocations_per_order();
    assert_eq!(created as u64, ORDERS, "the fault-free stream lost orders");
    assert_eq!(trace_len, 0, "a site nobody asked for a trace kept one");
    println!("{per_order:.2} allocations per order");
    assert!(
        per_order <= CEILING_PER_ORDER,
        "{per_order:.1} allocations per order exceeds the ceiling of {CEILING_PER_ORDER}"
    );
}
