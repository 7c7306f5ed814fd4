//! Client-side failover for shop submissions.
//!
//! The shop's crash model (see [`crate::VmShop::crash`]) refuses new
//! work while down and may lose in-memory progress notifications. A
//! [`ShopClient`] makes submissions survive that: every order gets a
//! stable idempotency key and is resubmitted across shop incarnations
//! with capped exponential backoff until the shop settles it. The key
//! plus the shop's durable journal give exactly-once semantics — a
//! resubmission of a settled order is answered from the journal, and a
//! resubmission of an in-flight order attaches as a waiter instead of
//! forking a second execution.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use vmplants_plant::ProductionOrder;
use vmplants_simkit::{Engine, SimDuration, SimTime};

use crate::shop::{ShopDone, ShopError, VmShop};

/// Failover knobs for a [`ShopClient`].
#[derive(Clone, Debug)]
pub struct ClientTuning {
    /// First resubmission delay; doubles per retry.
    pub backoff_base: SimDuration,
    /// Ceiling on the resubmission delay.
    pub backoff_cap: SimDuration,
    /// Total time after which an unsettled order fails client-side
    /// (covers a permanently crashed shop).
    pub give_up: SimDuration,
}

impl Default for ClientTuning {
    fn default() -> Self {
        ClientTuning {
            backoff_base: SimDuration::from_secs(10),
            backoff_cap: SimDuration::from_secs(120),
            give_up: SimDuration::from_secs(7200),
        }
    }
}

/// One settled client submission.
#[derive(Clone, Debug)]
pub struct ClientRequestLog {
    /// The idempotency key the order was submitted under.
    pub key: String,
    /// Virtual time of the first submission.
    pub requested_at: SimTime,
    /// Virtual time the client saw the result.
    pub responded_at: SimTime,
    /// End-to-end latency including any failover gaps.
    pub latency: SimDuration,
    /// Whether the order ultimately succeeded.
    pub success: bool,
    /// How many times the order was (re)submitted.
    pub submissions: u32,
}

struct ClientState {
    name: String,
    shop: VmShop,
    tuning: ClientTuning,
    next: u64,
    log: Vec<ClientRequestLog>,
    resubmits: u64,
}

/// A shop client that rides out shop crashes by resubmitting keyed
/// orders until they settle.
#[derive(Clone)]
pub struct ShopClient {
    inner: Rc<RefCell<ClientState>>,
}

impl ShopClient {
    /// A named client bound to `shop`. The name seeds the idempotency
    /// keys, so clients sharing a shop must use distinct names.
    pub fn new(name: impl Into<String>, shop: VmShop) -> ShopClient {
        ShopClient {
            inner: Rc::new(RefCell::new(ClientState {
                name: name.into(),
                shop,
                tuning: ClientTuning::default(),
                next: 0,
                log: Vec::new(),
                resubmits: 0,
            })),
        }
    }

    /// Replace the failover knobs.
    pub fn set_tuning(&self, tuning: ClientTuning) {
        self.inner.borrow_mut().tuning = tuning;
    }

    /// Every settled submission, in settle order.
    pub fn log(&self) -> Vec<ClientRequestLog> {
        self.inner.borrow().log.clone()
    }

    /// Total resubmissions across all orders. Not 0 in a crash-free
    /// run: the backoff timer fires after `backoff_base` whether or not
    /// the shop is up, so an order that takes longer than that to
    /// settle is re-sent to a live shop, which attaches the copy to the
    /// in-flight original.
    pub fn resubmits(&self) -> u64 {
        self.inner.borrow().resubmits
    }

    /// Submit an order. The client keys it, forwards it to the shop,
    /// and — if the shop is down or crashes before answering —
    /// resubmits under the same key with capped exponential backoff
    /// until the order settles or `give_up` elapses. `done` fires
    /// exactly once.
    pub fn submit(&self, engine: &mut Engine, order: ProductionOrder, done: ShopDone) {
        let key = {
            let mut state = self.inner.borrow_mut();
            let seq = state.next;
            state.next += 1;
            format!("order:{}:{seq}", state.name)
        };
        let ctx = SubmitCtx {
            key,
            order,
            requested_at: engine.now(),
            settled: Rc::new(Cell::new(false)),
            submissions: Rc::new(Cell::new(0)),
            done: Rc::new(RefCell::new(Some(done))),
        };
        self.try_submit(engine, ctx, 0);
    }

    fn try_submit(&self, engine: &mut Engine, ctx: SubmitCtx, resubmit_no: u32) {
        if ctx.settled.get() {
            return;
        }
        let tuning = self.inner.borrow().tuning.clone();
        if resubmit_no > 0 && engine.now().since(ctx.requested_at) >= tuning.give_up {
            self.finish(engine, &ctx, Err(ShopError::ShopDown));
            return;
        }
        ctx.submissions.set(ctx.submissions.get() + 1);
        if resubmit_no > 0 {
            self.inner.borrow_mut().resubmits += 1;
        }
        let shop = self.inner.borrow().shop.clone();
        let client = self.clone();
        let hctx = ctx.clone();
        let handler: ShopDone = Box::new(move |engine, result| {
            if hctx.settled.get() {
                return;
            }
            match result {
                // The shop was down when the submission arrived; the
                // backoff timer will resubmit.
                Err(ShopError::ShopDown) => {}
                other => client.finish(engine, &hctx, other),
            }
        });
        shop.create_keyed(engine, ctx.key.clone(), ctx.order.clone(), handler);
        // Arm the next resubmission. A settled order makes this a no-op.
        let delay = backoff_for(&tuning, resubmit_no);
        let client = self.clone();
        engine.schedule(delay, move |engine| {
            client.try_submit(engine, ctx, resubmit_no + 1);
        });
    }

    fn finish(
        &self,
        engine: &mut Engine,
        ctx: &SubmitCtx,
        result: Result<vmplants_classad::ClassAd, ShopError>,
    ) {
        ctx.settled.set(true);
        let responded_at = engine.now();
        self.inner.borrow_mut().log.push(ClientRequestLog {
            key: ctx.key.clone(),
            requested_at: ctx.requested_at,
            responded_at,
            latency: responded_at.since(ctx.requested_at),
            success: result.is_ok(),
            submissions: ctx.submissions.get(),
        });
        if let Some(done) = ctx.done.borrow_mut().take() {
            done(engine, result);
        }
    }
}

#[derive(Clone)]
struct SubmitCtx {
    key: String,
    order: ProductionOrder,
    requested_at: SimTime,
    settled: Rc<Cell<bool>>,
    submissions: Rc<Cell<u32>>,
    done: Rc<RefCell<Option<ShopDone>>>,
}

fn backoff_for(tuning: &ClientTuning, resubmit_no: u32) -> SimDuration {
    let factor = 1u64 << resubmit_no.min(16);
    let delay = tuning.backoff_base * factor;
    if delay.as_millis() > tuning.backoff_cap.as_millis() {
        tuning.backoff_cap
    } else {
        delay
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_and_caps() {
        let t = ClientTuning {
            backoff_base: SimDuration::from_secs(10),
            backoff_cap: SimDuration::from_secs(120),
            give_up: SimDuration::from_secs(7200),
        };
        assert_eq!(backoff_for(&t, 0), SimDuration::from_secs(10));
        assert_eq!(backoff_for(&t, 1), SimDuration::from_secs(20));
        assert_eq!(backoff_for(&t, 3), SimDuration::from_secs(80));
        assert_eq!(backoff_for(&t, 4), SimDuration::from_secs(120));
        assert_eq!(backoff_for(&t, 63), SimDuration::from_secs(120));
    }
}
