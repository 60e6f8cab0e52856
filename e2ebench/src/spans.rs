//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark's own code around calls into each
//! layer's public functions; nothing inside the simulator is instrumented.
//! Protocol callbacks are too many to keep one span each, so they arrive as
//! aggregates (count + total time) attached to the span they ran under.
//! `position_at` calls are counted, not timed: every span carries the
//! number of counted calls made while it was open, and the traced run
//! charges them to the mobility layer at a separately calibrated cost.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Layer names, one per module whose public boundary is timed.
pub const SCENARIO: &str = "workloads.scenario";
pub const SETUP: &str = "sim.setup";
pub const ENGINE: &str = "sim.engine";
pub const MOBILITY: &str = "mobility";
pub const PROTOCOL: &str = "core.protocol";
pub const INVARIANTS: &str = "workloads.invariants";
pub const ORACLE: &str = "workloads.oracle";
pub const SERVICE: &str = "workloads.service";
pub const SNAP: &str = "snap";
/// The run's root span: its self time is benchmark glue, reported as
/// `trace.unattributed_share`.
pub const UNATTRIBUTED: &str = "bench";

thread_local! {
    /// Counted `position_at` calls on this thread (see `wrap::Counting`).
    static MOBILITY_CALLS: Cell<u64> = const { Cell::new(0) };
}

/// Count one `position_at` call.
#[inline]
pub fn count_mobility_call() {
    MOBILITY_CALLS.with(|c| c.set(c.get() + 1));
}

/// Counted `position_at` calls so far on this thread.
#[inline]
pub fn mobility_calls() -> u64 {
    MOBILITY_CALLS.with(Cell::get)
}

/// Nanoseconds since `origin`, saturating.
pub fn nanos_since(origin: Instant) -> u64 {
    u64::try_from(origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// One timed call into a layer.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub layer: &'static str,
    /// One id per seed × protocol run (a service lifecycle is one run).
    pub run: u32,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Counted `position_at` calls while the span was open, children
    /// included.
    pub mobility_calls: u64,
}

/// Aggregated callbacks of one kind under one parent span.
#[derive(Debug, Clone, PartialEq)]
pub struct Agg {
    pub name: &'static str,
    pub layer: &'static str,
    pub parent: usize,
    pub count: u64,
    pub ns: u64,
    pub mobility_calls: u64,
}

/// Self time of every span: its duration minus the part of it covered by
/// child spans (union of their intervals) and minus the time of callbacks
/// aggregated under it. Mobility calls are not subtracted here.
pub fn self_ns(spans: &[Span], aggs: &[Agg]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    let mut agg_ns = vec![0u64; spans.len()];
    for a in aggs {
        agg_ns[a.parent] += a.ns;
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .zip(agg_ns)
        .map(|((s, kids), agg)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end_ns - s.start_ns)
                .saturating_sub(covered)
                .saturating_sub(agg)
        })
        .collect()
}

/// Counted mobility calls made by each span itself (children and
/// aggregated callbacks excluded).
pub fn self_mobility_calls(spans: &[Span], aggs: &[Agg]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.mobility_calls).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.mobility_calls);
        }
    }
    for a in aggs {
        own[a.parent] = own[a.parent].saturating_sub(a.mobility_calls);
    }
    own
}

/// Layer accounting of all recorded runs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Split {
    /// Self seconds per layer, mobility charged to `mobility`.
    pub layer_s: BTreeMap<&'static str, f64>,
    /// Self seconds per span or aggregate name, mobility subtracted.
    pub name_s: BTreeMap<&'static str, f64>,
    /// Counted mobility calls per layer of the caller.
    pub mobility_calls: BTreeMap<&'static str, u64>,
    /// Callbacks per aggregate name.
    pub callbacks: BTreeMap<&'static str, u64>,
    /// Total duration of the root spans.
    pub wall_s: f64,
}

/// Records spans and callback aggregates, in memory, for the whole
/// invocation.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    aggs: Vec<Agg>,
    open: Vec<usize>,
    run: u32,
    /// Calibrated host nanoseconds per `position_at` call, per run id.
    ns_per_call: BTreeMap<u32, f64>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            origin: Instant::now(), // lint: wall-clock-ok (host-side trace clock)
            spans: Vec::new(),
            aggs: Vec::new(),
            open: Vec::new(),
            run: 0,
            ns_per_call: BTreeMap::new(),
        }
    }
}

impl Recorder {
    /// Start the next run id.
    pub fn next_run(&mut self) -> u32 {
        self.run += 1;
        self.run
    }

    /// Open a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str, layer: &'static str) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            layer,
            run: self.run,
            parent: self.open.last().copied(),
            start_ns: nanos_since(self.origin),
            end_ns: 0,
            mobility_calls: mobility_calls(),
        });
        self.open.push(id);
        id
    }

    /// Close span `id` (the innermost open span). Protocol callbacks timed
    /// since the last close ran under it (no span opens inside a callback),
    /// so their aggregates attach here.
    pub fn exit(&mut self, id: usize) {
        let end = nanos_since(self.origin);
        let calls = mobility_calls();
        if self.open.last() == Some(&id) {
            self.open.pop();
        }
        let s = &mut self.spans[id];
        s.end_ns = end;
        s.mobility_calls = calls.saturating_sub(s.mobility_calls);
        let callbacks = crate::wrap::drain_callbacks(id);
        self.aggs
            .extend(callbacks.into_iter().filter(|a| a.count > 0));
    }

    /// Record the mobility cost calibrated for the current run.
    pub fn calibrated(&mut self, ns_per_call: f64) {
        self.ns_per_call.insert(self.run, ns_per_call);
    }

    /// Calibrated cost per run id.
    pub fn ns_per_call(&self) -> &BTreeMap<u32, f64> {
        &self.ns_per_call
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn aggs(&self) -> &[Agg] {
        &self.aggs
    }

    /// Layer split of all runs, charging every counted mobility call to the
    /// mobility layer, at its run's calibrated cost, instead of its caller.
    pub fn split(&self) -> Split {
        let own_ns = self_ns(&self.spans, &self.aggs);
        let own_calls = self_mobility_calls(&self.spans, &self.aggs);
        let cost = |run: u32| self.ns_per_call.get(&run).copied().unwrap_or(0.0);
        let mut out = Split::default();
        let mut charge = |run, layer: &'static str, name: &'static str, ns: u64, calls: u64| {
            let mob = calls as f64 * cost(run) * 1e-9;
            let own = ns as f64 * 1e-9 - mob;
            *out.layer_s.entry(layer).or_default() += own;
            *out.name_s.entry(name).or_default() += own;
            *out.layer_s.entry(MOBILITY).or_default() += mob;
            *out.mobility_calls.entry(layer).or_default() += calls;
        };
        for (i, s) in self.spans.iter().enumerate() {
            charge(s.run, s.layer, s.name, own_ns[i], own_calls[i]);
        }
        for a in &self.aggs {
            charge(
                self.spans[a.parent].run,
                a.layer,
                a.name,
                a.ns,
                a.mobility_calls,
            );
            *out.callbacks.entry(a.name).or_default() += a.count;
        }
        out.wall_s = self
            .spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
            .sum();
        out
    }

    /// Write every span and aggregate as one JSON object per line.
    pub fn write_jsonl(&self, out: &mut impl Write, header: &str) -> std::io::Result<()> {
        writeln!(out, "{header}")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"span\":{i},\"name\":\"{}\",\"layer\":\"{}\",\"run\":{},\"parent\":{parent},\
                 \"start_ns\":{},\"end_ns\":{},\"mobility_calls\":{}}}",
                s.name, s.layer, s.run, s.start_ns, s.end_ns, s.mobility_calls
            )?;
        }
        for a in &self.aggs {
            writeln!(
                out,
                "{{\"agg\":\"{}\",\"layer\":\"{}\",\"parent\":{},\"count\":{},\"ns\":{},\
                 \"mobility_calls\":{}}}",
                a.name, a.layer, a.parent, a.count, a.ns, a.mobility_calls
            )?;
        }
        out.flush()
    }
}

/// Optional tracing handle threaded through a workload run: `None` runs
/// the bare program with no spans.
pub struct Probe<'a>(pub Option<&'a mut Recorder>);

impl Probe<'_> {
    pub fn on(&self) -> bool {
        self.0.is_some()
    }

    /// Run `f` inside a span when tracing.
    pub fn span<T>(&mut self, name: &'static str, layer: &'static str, f: impl FnOnce() -> T) -> T {
        match self.0.as_deref_mut() {
            None => f(),
            Some(rec) => {
                let id = rec.enter(name, layer);
                let out = f();
                rec.exit(id);
                out
            }
        }
    }

    /// Run `f` as one run: a fresh run id under a root span.
    pub fn root<T>(&mut self, f: impl FnOnce(&mut Self) -> T) -> T {
        let id = self.0.as_deref_mut().map(|rec| {
            rec.next_run();
            rec.enter("run", UNATTRIBUTED)
        });
        let out = f(self);
        if let (Some(id), Some(rec)) = (id, self.0.as_deref_mut()) {
            rec.exit(id);
        }
        out
    }

    /// When tracing, calibrate the cost of one `position_at` call for the
    /// latest run from a batched loop over its own plans.
    pub fn calibrate(&mut self, plans: &[diknn_sim::SharedMobility], horizon: f64) {
        if let Some(rec) = self.0.as_deref_mut() {
            rec.calibrated(crate::wrap::ns_per_call(plans, horizon));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: "s",
            layer: "l",
            run: 1,
            parent,
            start_ns,
            end_ns,
            mobility_calls: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        // root [0,100] > a [10,60] > b [20,30]: root keeps 50, a keeps 40.
        let spans = vec![
            span(None, 0, 100),
            span(Some(0), 10, 60),
            span(Some(1), 20, 30),
        ];
        assert_eq!(self_ns(&spans, &[]), vec![50, 40, 10]);
    }

    #[test]
    fn self_time_with_back_to_back_children() {
        // Two children touching at 40 cover [10,70] exactly.
        let spans = vec![
            span(None, 0, 100),
            span(Some(0), 10, 40),
            span(Some(0), 40, 70),
        ];
        assert_eq!(self_ns(&spans, &[]), vec![40, 30, 30]);
    }

    #[test]
    fn self_time_clips_children_and_subtracts_aggregates() {
        let spans = vec![span(None, 0, 100), span(Some(0), 90, 120)];
        let aggs = vec![Agg {
            name: "cb",
            layer: PROTOCOL,
            parent: 0,
            count: 3,
            ns: 25,
            mobility_calls: 0,
        }];
        assert_eq!(self_ns(&spans, &aggs), vec![65, 30]);
    }

    #[test]
    fn split_charges_mobility_calls_to_the_mobility_layer() {
        let mut root = span(None, 0, 1_000);
        root.layer = UNATTRIBUTED;
        root.mobility_calls = 30;
        let mut engine = span(Some(0), 0, 900);
        engine.layer = ENGINE;
        engine.mobility_calls = 30;
        let rec = Recorder {
            origin: Instant::now(), // lint: wall-clock-ok (test fixture)
            spans: vec![root, engine],
            aggs: vec![Agg {
                name: "on_message",
                layer: PROTOCOL,
                parent: 1,
                count: 2,
                ns: 300,
                mobility_calls: 10,
            }],
            open: Vec::new(),
            run: 1,
            ns_per_call: BTreeMap::from([(1, 2.0)]),
        };
        let split = rec.split();
        let ns = |layer: &str| (split.layer_s[layer] * 1e9).round() as i64;
        assert_eq!(ns(UNATTRIBUTED), 100);
        assert_eq!(ns(ENGINE), 600 - 40);
        assert_eq!(ns(PROTOCOL), 300 - 20);
        assert_eq!(ns(MOBILITY), 60);
        assert_eq!(split.mobility_calls[ENGINE], 20);
        assert_eq!(split.mobility_calls[PROTOCOL], 10);
        let total: f64 = split.layer_s.values().sum();
        assert!((total - split.wall_s).abs() < 1e-15);
    }
}
