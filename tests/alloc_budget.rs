//! Heap-allocation budget of the order path.
//!
//! A counting global allocator counts allocations (including
//! reallocations) made on this test's thread while a flag is set. Each
//! test drives a fixed, fault-free stream through `VmShop::create` — each
//! VM destroyed 600 sim s after it is created — and checks that the event
//! loop's allocations per order stay under a ceiling. Two streams:
//!
//! * steady — the `steady_lifecycle` shape: `experiment_dag` orders 10
//!   sim s apart against the experiment goldens;
//! * zipf — the `zipf_warehouse` shape: `zipf_dag` orders 15 sim s apart,
//!   their ranks drawn from a seeded Zipf(1.1) over 120 published
//!   goldens, under a 32 GiB warehouse budget, so eviction and
//!   re-derivation run on the order path.
//!
//! The steady stream runs twice: untraced, and on a site built with
//! `Obs::enabled()`, which records and retains every span. The traced
//! run prices the observability layer as allocations per order.
//!
//! The streams are deterministic, so the counts are exact and repeat from
//! run to run in debug and release builds alike. Besides allocations, the
//! untraced steady and the zipf stream pin the engine events they run
//! per order, and the steady streams pin spans per order (none untraced)
//! and shop journal records per order. The untraced steady stream also
//! checks that a fault-free site keeps no transport trace: its memory
//! must not grow with run length.
//!
//! The plants run no periodic events (the VM monitor samples the host
//! when a classad is read), so a run ends when its last VM is destroyed,
//! and no idle tail adds events or allocations to the counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::rc::Rc;

use vmplants::{SimSite, SiteConfig};
use vmplants_dag::graph::{experiment_dag, zipf_dag};
use vmplants_dag::ConfigDag;
use vmplants_plant::VmId;
use vmplants_simkit::{Obs, SimDuration, SimRng, SimTime};
use vmplants_virt::VmSpec;
use vmplants_warehouse::WarehouseConfig;

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

/// Allocations per order the steady stream may make. It measures 168.36
/// per order; the ceiling leaves 5 % of headroom. Lower it when a change
/// removes allocations, so the saving stays pinned.
const STEADY_CEILING_PER_ORDER: f64 = 176.0;

/// Allocations per order the steady stream may make with every trace
/// recorded (`Obs::enabled`). It measures 231.46 per order; the ceiling
/// leaves 5 % of headroom. Typed spans should lower it towards the
/// untraced count.
const TRACED_CEILING_PER_ORDER: f64 = 243.0;

/// Engine events one untraced steady order runs, exactly: 9,020 for the
/// stream, about 30.07 per order.
const STEADY_EVENTS_PER_ORDER: f64 = 9_020.0 / ORDERS as f64;

/// Spans one traced steady order records, exactly.
const SPANS_PER_ORDER: f64 = 13.0;

/// Records one steady order appends to the shop's journal, exactly.
const JOURNAL_RECORDS_PER_ORDER: f64 = 4.0;

/// Allocations per order the zipf stream may make. It measures 177.24
/// per order; the ceiling leaves 5 % of headroom.
const ZIPF_CEILING_PER_ORDER: f64 = 186.0;

/// Engine events one zipf order runs, exactly: 9,128 for the stream,
/// about 30.43 per order.
const ZIPF_EVENTS_PER_ORDER: f64 = 9_128.0 / ORDERS as f64;

/// What one stream measured.
struct Stream {
    per_order: f64,
    /// Engine events executed per order.
    events_per_order: f64,
    created: usize,
    /// Transport trace lines kept at quiesce.
    trace_len: usize,
    site: SimSite,
}

/// Order `dags` into `site`, `spacing_s` sim s apart, and count the event
/// loop's allocations.
fn run_stream(mut site: SimSite, dags: Vec<ConfigDag>, spacing_s: u64) -> Stream {
    let count = dags.len() as u64;
    let orders: Vec<_> = dags
        .into_iter()
        .map(|dag| site.order(VmSpec::mandrake(64), dag))
        .collect();
    let created = Rc::new(Cell::new(0usize));
    let failed_destroys = Rc::new(Cell::new(0usize));

    COUNTING.with(|on| on.set(true));
    for (i, order) in (0u64..).zip(orders) {
        let shop = site.shop.clone();
        let created = Rc::clone(&created);
        let failed_destroys = Rc::clone(&failed_destroys);
        site.engine
            .schedule_at(SimTime::from_secs(spacing_s * i), move |engine| {
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
    Stream {
        per_order: allocs as f64 / count as f64,
        events_per_order: site.engine.events_executed() as f64 / count as f64,
        created: created.get(),
        trace_len: site.shop.transport().trace_len(),
        site,
    }
}

/// `ORDERS` ranks of a Zipf(1.1) over `population` goldens, drawn from a
/// seeded stream: rank *k* has weight 1 / (k + 1)^1.1.
fn zipf_ranks(population: u32, seed: u64) -> Vec<u32> {
    let mut cumulative = Vec::with_capacity(population as usize);
    let mut total = 0.0;
    for k in 0..population {
        total += 1.0 / f64::from(k + 1).powf(1.1);
        cumulative.push(total);
    }
    let mut rng = SimRng::seed_from_u64(seed);
    (0..ORDERS)
        .map(|_| {
            let u = rng.uniform(0.0, total);
            cumulative
                .partition_point(|&c| c <= u)
                .min(population as usize - 1) as u32
        })
        .collect()
}

/// Run the steady stream on a site built with `obs`.
fn steady_stream(obs: Obs) -> Stream {
    let site = SimSite::build_with_obs(
        SiteConfig {
            seed: 1,
            ..SiteConfig::default()
        },
        obs,
    );
    let dags = (0..ORDERS).map(|_| experiment_dag("arijit")).collect();
    let stream = run_stream(site, dags, 10);
    assert_eq!(
        stream.created as u64, ORDERS,
        "the fault-free stream lost orders"
    );
    stream
}

/// Spans and journal records per order of a stream, from its site's
/// registry.
fn spans_and_records_per_order(stream: &Stream) -> (f64, f64) {
    let obs = &stream.site.obs;
    let records = obs
        .counter_value("shop.journal_records")
        .expect("the shop registers its journal counter");
    (
        obs.span_count() as f64 / ORDERS as f64,
        records as f64 / ORDERS as f64,
    )
}

#[test]
fn steady_order_path_stays_within_its_allocation_budget() {
    let stream = steady_stream(Obs::disabled());
    assert_eq!(
        stream.trace_len, 0,
        "a site nobody asked for a trace kept one"
    );
    let (spans, records) = spans_and_records_per_order(&stream);
    let per_order = stream.per_order;
    let events = stream.events_per_order;
    println!(
        "steady: {per_order:.2} allocations and {events:.2} events per order; {spans:.2} \
         spans and {records:.2} journal records per order"
    );
    assert_eq!(events, STEADY_EVENTS_PER_ORDER, "events per steady order");
    assert_eq!(spans, 0.0, "a disabled sink recorded spans");
    assert_eq!(
        records, JOURNAL_RECORDS_PER_ORDER,
        "journal records per order"
    );
    assert!(
        per_order <= STEADY_CEILING_PER_ORDER,
        "{per_order:.1} allocations per order exceeds the ceiling of {STEADY_CEILING_PER_ORDER}"
    );
}

#[test]
fn traced_steady_order_path_stays_within_its_allocation_budget() {
    let stream = steady_stream(Obs::enabled());
    let (spans, records) = spans_and_records_per_order(&stream);
    let per_order = stream.per_order;
    println!(
        "steady traced: {per_order:.2} allocations per order; {spans:.2} spans and \
         {records:.2} journal records per order"
    );
    assert_eq!(spans, SPANS_PER_ORDER, "spans per traced order");
    assert_eq!(
        records, JOURNAL_RECORDS_PER_ORDER,
        "journal records per order"
    );
    assert!(
        per_order <= TRACED_CEILING_PER_ORDER,
        "{per_order:.1} allocations per order exceeds the ceiling of {TRACED_CEILING_PER_ORDER}"
    );
}

#[test]
fn zipf_order_path_stays_within_its_allocation_budget() {
    let mut config = SiteConfig {
        seed: 1,
        zipf_goldens: 120,
        warehouse: WarehouseConfig {
            dedup: true,
            capacity_bytes: Some(32 << 30),
            replicate_after: Some(6),
        },
        ..SiteConfig::default()
    };
    config.testbed.replica_servers = 2;
    let site = SimSite::build(config);
    let dags = zipf_ranks(120, 1)
        .into_iter()
        .map(|rank| zipf_dag(rank, "arijit"))
        .collect();
    let stream = run_stream(site, dags, 15);
    assert_eq!(
        stream.created as u64, ORDERS,
        "the fault-free stream lost orders"
    );
    let warehouse = stream.site.warehouse.borrow();
    assert!(warehouse.eviction_count() > 0, "the budget evicted nothing");
    assert!(
        warehouse.rederive_count() > 0,
        "no evicted golden was re-derived"
    );
    let per_order = stream.per_order;
    let events = stream.events_per_order;
    println!("zipf: {per_order:.2} allocations and {events:.2} events per order");
    assert_eq!(events, ZIPF_EVENTS_PER_ORDER, "events per zipf order");
    assert!(
        per_order <= ZIPF_CEILING_PER_ORDER,
        "{per_order:.1} allocations per order exceeds the ceiling of {ZIPF_CEILING_PER_ORDER}"
    );
}
