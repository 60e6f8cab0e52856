//! Transparent wrappers installed by the traced run: a counting
//! [`Mobility`] and a timing [`Protocol`]. Both delegate every call
//! unchanged, so a wrapped run is bit-identical to a bare one (the
//! `transparent` test checks this against `Experiment::run_once`).

use std::cell::RefCell;
use std::sync::Arc;
use std::time::Instant;

use diknn_core::{KnnProtocol, QueryOutcome};
use diknn_geom::Point;
use diknn_mobility::Mobility;
use diknn_sim::{Ctx, NodeId, Protocol, SharedMobility};

use crate::spans::{self, Agg};

/// Counts `position_at` calls on the current thread, then delegates.
pub struct Counting(SharedMobility);

impl Mobility for Counting {
    #[inline]
    fn position_at(&self, t: f64) -> Point {
        spans::count_mobility_call();
        self.0.position_at(t)
    }

    fn speed_at(&self, t: f64) -> f64 {
        self.0.speed_at(t)
    }

    fn max_speed(&self) -> f64 {
        self.0.max_speed()
    }
}

/// Wrap every plan in a [`Counting`] shim.
pub fn counting(plans: Vec<SharedMobility>) -> Vec<SharedMobility> {
    plans
        .into_iter()
        .map(|p| Arc::new(Counting(p)) as SharedMobility)
        .collect()
}

/// Host nanoseconds per `position_at` call through the counting shim,
/// from a batched loop over `plans` at times spread over `[0, horizon]`.
/// Timing each call inside a run would slow the traced run by half, so
/// the traced run charges counted calls at this rate instead.
pub fn ns_per_call(plans: &[SharedMobility], horizon: f64) -> f64 {
    const CALLS: usize = 200_000;
    if plans.is_empty() {
        return 0.0;
    }
    let steps = (CALLS / plans.len()).clamp(4, 256);
    let t0 = Instant::now(); // lint: wall-clock-ok (host-side calibration)
    let mut acc = 0.0;
    for s in 0..steps {
        let t = horizon * (s as f64 + 0.5) / steps as f64;
        for p in plans {
            let q = p.position_at(std::hint::black_box(t));
            acc += q.x + q.y;
        }
    }
    std::hint::black_box(acc);
    t0.elapsed().as_nanos() as f64 / (steps * plans.len()) as f64
}

/// The four protocol callbacks, in `Agg` order.
pub const CALLBACKS: [&str; 4] = [
    "protocol.on_start",
    "protocol.on_message",
    "protocol.on_timer",
    "protocol.on_send_failed",
];

#[derive(Clone, Copy, Default)]
struct Tally {
    count: u64,
    ns: u64,
    mobility_calls: u64,
}

thread_local! {
    static TALLY: RefCell<[Tally; 4]> = const { RefCell::new([Tally { count: 0, ns: 0, mobility_calls: 0 }; 4]) };
}

/// Take the callback tallies accumulated since the last drain, as
/// aggregates under span `parent`.
pub fn drain_callbacks(parent: usize) -> Vec<Agg> {
    let tallies = TALLY.with(|t| std::mem::take(&mut *t.borrow_mut()));
    CALLBACKS
        .iter()
        .zip(tallies)
        .map(|(&name, t)| Agg {
            name,
            layer: spans::PROTOCOL,
            parent,
            count: t.count,
            ns: t.ns,
            mobility_calls: t.mobility_calls,
        })
        .collect()
}

/// Times every callback into the wrapped protocol.
pub struct Timed<P>(pub P);

#[inline]
fn time_callback<R>(kind: usize, f: impl FnOnce() -> R) -> R {
    let calls = spans::mobility_calls();
    let t0 = Instant::now(); // lint: wall-clock-ok (host-side callback timing)
    let out = f();
    let ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
    let calls = spans::mobility_calls() - calls;
    TALLY.with(|t| {
        let slot = &mut t.borrow_mut()[kind];
        slot.count += 1;
        slot.ns += ns;
        slot.mobility_calls += calls;
    });
    out
}

impl<P: Protocol> Protocol for Timed<P> {
    type Msg = P::Msg;

    fn on_start(&mut self, ctx: &mut Ctx<Self::Msg>) {
        time_callback(0, || self.0.on_start(ctx));
    }

    fn on_message(&mut self, at: NodeId, from: NodeId, msg: &Self::Msg, ctx: &mut Ctx<Self::Msg>) {
        time_callback(1, || self.0.on_message(at, from, msg, ctx));
    }

    fn on_timer(&mut self, at: NodeId, key: u64, ctx: &mut Ctx<Self::Msg>) {
        time_callback(2, || self.0.on_timer(at, key, ctx));
    }

    fn on_send_failed(
        &mut self,
        at: NodeId,
        to: NodeId,
        msg: &Self::Msg,
        ctx: &mut Ctx<Self::Msg>,
    ) {
        time_callback(3, || self.0.on_send_failed(at, to, msg, ctx));
    }
}

impl<P: KnnProtocol> KnnProtocol for Timed<P> {
    fn outcomes(&self) -> &[QueryOutcome] {
        self.0.outcomes()
    }

    fn outcomes_mut(&mut self) -> &mut [QueryOutcome] {
        self.0.outcomes_mut()
    }

    fn finish(&mut self, ctx: &Ctx<Self::Msg>) {
        self.0.finish(ctx);
    }
}
