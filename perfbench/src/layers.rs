//! Per-layer replays: the benchmark calls single layers through their
//! public API, order by order, on a separately built site, and times
//! each call. The measured passes are never touched.

use std::hint::black_box;
use std::time::Instant;

use vmplants::plant::{Request, VmId};
use vmplants::shop::bidding::collect_bids;
use vmplants::simkit::Obs;

use crate::drive::prepare;
use crate::reference;
use crate::workload::Plan;

/// Mean host cost per order of each replayed layer call, scaled to the
/// reference machine.
#[derive(Clone, Debug, Default)]
pub struct Replays {
    /// Mean `<create-vm>` wire size, bytes.
    pub order_bytes: f64,
    pub encode_us: f64,
    pub decode_us: f64,
    pub collect_us: f64,
    pub lookup_us: f64,
    /// Orders whose wire form did not survive a decode/encode round trip.
    pub roundtrip_mismatches: usize,
    /// Replayed orders that drew fewer bids than there are plants.
    pub short_bids: usize,
    /// Replayed orders for which the warehouse found no golden.
    pub lookup_misses: usize,
}

/// Replay every order of `plan` through the XML codec, the bidding
/// protocol and the warehouse lookup.
pub fn replay(plan: &Plan) -> Replays {
    let prepared = prepare(plan, Obs::disabled(), true);
    let site = &prepared.site;
    let mut r = Replays::default();
    let (mut bytes, mut encode, mut decode, mut collect, mut lookup) = (0usize, 0.0, 0.0, 0.0, 0.0);
    let mut probes = vec![reference::probe_s()];
    for (i, order) in prepared.orders.iter().enumerate() {
        if i % 1_000 == 999 {
            probes.push(reference::probe_s());
        }
        // The shop renders orders after assigning the VMID.
        let request = Request::Create(order.clone().with_vm_id(VmId(format!("vm-shop-{i:05}"))));

        let t0 = Instant::now();
        let wire = black_box(request.to_wire());
        encode += t0.elapsed().as_secs_f64();
        bytes += wire.len();

        let t0 = Instant::now();
        let back = black_box(Request::from_wire(&wire));
        decode += t0.elapsed().as_secs_f64();
        if back.map(|b| b.to_wire()).as_deref() != Ok(wire.as_str()) {
            r.roundtrip_mismatches += 1;
        }

        let t0 = Instant::now();
        let bids = black_box(collect_bids(&site.plants, order)).len();
        collect += t0.elapsed().as_secs_f64();
        if bids < site.plants.len() {
            r.short_bids += 1;
        }

        let t0 = Instant::now();
        let found = black_box(
            site.warehouse
                .borrow()
                .lookup(&order.spec, &order.dag)
                .is_some(),
        );
        lookup += t0.elapsed().as_secs_f64();
        if !found {
            r.lookup_misses += 1;
        }
    }
    probes.push(reference::probe_s());
    let n = prepared.orders.len().max(1) as f64;
    let per_order_us = |host_s: f64| reference::nominal(host_s, &probes) * 1e6 / n;
    r.order_bytes = bytes as f64 / n;
    r.encode_us = per_order_us(encode);
    r.decode_us = per_order_us(decode);
    r.collect_us = per_order_us(collect);
    r.lookup_us = per_order_us(lookup);
    r
}
