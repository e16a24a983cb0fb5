//! The per-layer ledger of a traced run.
//!
//! Layers are named after the repository's crates and timed from
//! outside: calls the benchmark makes itself are timed around the call,
//! and work nested inside `jcr-core` is read from what the program
//! already exports — the op context's `SolverContext::stats()` counters
//! and its `obs_snapshot()` span self-times, rolled up by span prefix.
//! The online loop's rung contexts are private, so `online_hours` reads
//! a [`PhaseProbe`] attached through `AnytimeConfig::probe` instead.

use std::cell::Cell;
use std::collections::BTreeMap;

use jcr_ctx::obs::ObsSnapshot;
use jcr_ctx::{Counter, Phase, Probe, SolverStats};

/// The layer a span's self time belongs to, by span-name prefix.
/// `alg1.pipage` is Algorithm 1's call into `jcr-submodular`'s pipage
/// rounding; every other `alg1.*`/`alt.*`/`online.*` span is `jcr-core`.
pub fn layer_of(span: &str) -> Option<&'static str> {
    const PREFIXES: [(&str, &str); 9] = [
        ("alg1.pipage", "submodular"),
        ("lp.", "lp"),
        ("cg.", "flow"),
        ("flow.", "flow"),
        ("graph.", "graph"),
        ("pool.", "pool"),
        ("alg1.", "core"),
        ("alt.", "core"),
        ("online.", "core"),
    ];
    PREFIXES
        .iter()
        .find(|(prefix, _)| span.starts_with(prefix))
        .map(|&(_, layer)| layer)
}

/// Visits every span node's self time, scaled so that the tree adds up
/// to at most `wall_ns`: where a node's children (pool-worker subtrees
/// merged from two threads) sum to more than the node's own duration,
/// the children share the node's duration in proportion to their totals.
/// On the serial path no scaling ever applies.
pub fn scaled_self_times(snap: &ObsSnapshot, wall_ns: f64, visit: &mut dyn FnMut(&str, f64)) {
    fn walk(snap: &ObsSnapshot, node: usize, scale: f64, visit: &mut dyn FnMut(&str, f64)) {
        let n = &snap.nodes[node];
        let own = n.total_nanos as f64;
        let children: f64 = n
            .children
            .iter()
            .map(|&c| snap.nodes[c].total_nanos as f64)
            .sum();
        visit(n.name, scale * (own - children).max(0.0));
        let child_scale = if children > own {
            scale * own / children
        } else {
            scale
        };
        for &c in &n.children {
            walk(snap, c, child_scale, visit);
        }
    }
    let Some(root) = snap.nodes.first() else {
        return;
    };
    let top: f64 = root
        .children
        .iter()
        .map(|&c| snap.nodes[c].total_nanos as f64)
        .sum();
    let scale = if top > wall_ns && top > 0.0 {
        wall_ns / top
    } else {
        1.0
    };
    for &c in &root.children {
        walk(snap, c, scale, visit);
    }
}

/// Mirrors counters and phase timers of every context it is attached to
/// (the online loop attaches it to each rung context).
#[derive(Default)]
pub struct PhaseProbe {
    counters: [Cell<u64>; Counter::ALL.len()],
    phase_nanos: [Cell<u64>; Phase::ALL.len()],
}

impl PhaseProbe {
    /// Counter total so far.
    pub fn counter(&self, counter: Counter) -> u64 {
        let i = Counter::ALL.iter().position(|&c| c == counter);
        i.map_or(0, |i| self.counters[i].get())
    }

    /// Phase time so far, in nanoseconds.
    pub fn phase_nanos(&self, phase: Phase) -> u64 {
        let i = Phase::ALL.iter().position(|&p| p == phase);
        i.map_or(0, |i| self.phase_nanos[i].get())
    }
}

impl Probe for PhaseProbe {
    fn count(&self, counter: Counter, by: u64) {
        if let Some(i) = Counter::ALL.iter().position(|&c| c == counter) {
            self.counters[i].set(self.counters[i].get() + by);
        }
    }

    fn phase_elapsed(&self, phase: Phase, nanos: u64) {
        if let Some(i) = Phase::ALL.iter().position(|&p| p == phase) {
            self.phase_nanos[i].set(self.phase_nanos[i].get() + nanos);
        }
    }
}

/// Layer totals summed over the ops of one traced child run.
#[derive(Debug, Default)]
pub struct Ledger {
    ops: u64,
    sums: BTreeMap<&'static str, f64>,
}

/// Time attributed to layers; the rest of an op's wall time is
/// `bench.unattributed_share`.
const ATTRIBUTED: &str = "attributed_ns";

impl Ledger {
    /// Adds `value` to the named running sum.
    pub fn add(&mut self, name: &'static str, value: f64) {
        *self.sums.entry(name).or_insert(0.0) += value;
    }

    fn sum(&self, name: &str) -> f64 {
        self.sums.get(name).copied().unwrap_or(0.0)
    }

    /// Counts `nanos` of op wall time as spent in some layer.
    pub fn attribute(&mut self, nanos: f64) {
        self.add(ATTRIBUTED, nanos);
    }

    /// Records a benchmark-timed call that runs no span of its own, so
    /// its whole wall time belongs to one layer.
    pub fn add_timed(&mut self, name: &'static str, nanos: f64) {
        self.add(name, nanos);
        self.attribute(nanos);
    }

    /// Closes one op of `wall_ns` wall time.
    pub fn end_op(&mut self, wall_ns: f64) {
        self.ops += 1;
        self.add("wall_ns", wall_ns);
    }

    /// Folds in an op context's counters and span tree.
    pub fn add_context(&mut self, stats: &SolverStats, snap: &ObsSnapshot, wall_ns: f64) {
        self.add_stats(stats);
        let counter = |name: &str| snap.counters.get(name).copied().unwrap_or(0) as f64;
        self.add("lp.warm_start", counter("lp.warm_start"));
        self.add("lp.warm_fallback", counter("lp.warm_fallback"));
        self.add("cg.seed_accepted", counter("cg.seed_accepted"));
        self.add("cg.seed_rejected", counter("cg.seed_rejected"));
        self.add("graph.rows_carried", counter("graph.oracle.rows_carried"));
        self.add("graph.rows_dropped", counter("graph.oracle.rows_dropped"));
        let regions = counter(jcr_ctx::par::REGIONS);
        self.add("pool.regions", regions);
        let hist_sum = |name: &str| snap.histograms.get(name).map_or(0.0, |h| h.sum() as f64);
        self.add("pool.busy_ns", hist_sum(jcr_ctx::par::WORKER_BUSY_NS));
        self.add("pool.idle_ns", hist_sum(jcr_ctx::par::WORKER_IDLE_NS));
        if regions > 0.0 {
            if let Some(&imbalance) = snap.gauges.get(jcr_ctx::par::IMBALANCE) {
                self.add("pool.imbalance_sum", imbalance);
                self.add("pool.imbalance_ops", 1.0);
            }
        }
        let mut spans: Vec<(&'static str, f64)> = Vec::new();
        scaled_self_times(snap, wall_ns, &mut |name, nanos| {
            let Some(layer) = layer_of(name) else {
                return;
            };
            spans.push((ATTRIBUTED, nanos));
            let key = match layer {
                "lp" => "lp_ns",
                "graph" => "graph_ns",
                "submodular" => "submodular.pipage_ns",
                "flow" if name == "flow.rounding" => "flow.rounding_ns",
                "flow" if name.starts_with("cg.") => "flow.cg_ns",
                _ => return,
            };
            spans.push((key, nanos));
        });
        for (key, nanos) in spans {
            self.add(key, nanos);
        }
    }

    /// Folds in the six solver counters.
    pub fn add_stats(&mut self, stats: &SolverStats) {
        self.add("lp.pivots", stats.simplex_pivots as f64);
        self.add("lp.refactorizations", stats.refactorizations as f64);
        self.add("graph.dijkstra_calls", stats.dijkstra_calls as f64);
        self.add("flow.cg_columns", stats.cg_columns as f64);
        self.add("flow.rounding_passes", stats.rounding_passes as f64);
    }

    /// Folds in what a [`PhaseProbe`] saw over one online hour. Phase
    /// timers are the only timing the rung contexts export: column
    /// generation, rounding and min-cost flow, all `jcr-flow`.
    pub fn add_probe(&mut self, probe: &PhaseProbe) {
        let stats = SolverStats {
            simplex_pivots: probe.counter(Counter::SimplexPivots),
            refactorizations: probe.counter(Counter::Refactorizations),
            dijkstra_calls: probe.counter(Counter::DijkstraCalls),
            cg_columns: probe.counter(Counter::CgColumns),
            decomposition_paths: probe.counter(Counter::DecompositionPaths),
            rounding_passes: probe.counter(Counter::RoundingPasses),
            ..SolverStats::default()
        };
        self.add_stats(&stats);
        let cg = probe.phase_nanos(Phase::ColumnGeneration) as f64;
        let rounding = probe.phase_nanos(Phase::Rounding) as f64;
        let mcf = probe.phase_nanos(Phase::MinCostFlow) as f64;
        self.add("flow.cg_ns", cg);
        self.add("flow.rounding_ns", rounding);
        self.attribute(cg + rounding + mcf);
    }

    /// The per-layer metrics, per op unless a ratio: `(name, value,
    /// unit)`. `setup` carries the set-up layer times, in milliseconds.
    pub fn metrics(&self, setup: &[(&'static str, f64)]) -> Vec<(String, f64, &'static str)> {
        let ops = self.ops.max(1) as f64;
        let per_op = |name: &str| self.sum(name) / ops;
        let ms = |name: &str| per_op(name) / 1e6;
        let share = |num: &str, other: &str| {
            let (a, b) = (self.sum(num), self.sum(other));
            if a + b > 0.0 {
                a / (a + b)
            } else {
                0.0
            }
        };
        let mut out: Vec<(String, f64, &'static str)> = vec![
            ("lp.ms".into(), ms("lp_ns"), "ms"),
            ("lp.pivots".into(), per_op("lp.pivots"), "count"),
            (
                "lp.refactorizations".into(),
                per_op("lp.refactorizations"),
                "count",
            ),
            (
                "lp.warm_hit_ratio".into(),
                share("lp.warm_start", "lp.warm_fallback"),
                "ratio",
            ),
            ("flow.cg_ms".into(), ms("flow.cg_ns"), "ms"),
            ("flow.cg_columns".into(), per_op("flow.cg_columns"), "count"),
            (
                "flow.cg_seed_reuse_ratio".into(),
                share("cg.seed_accepted", "cg.seed_rejected"),
                "ratio",
            ),
            ("flow.rounding_ms".into(), ms("flow.rounding_ns"), "ms"),
            (
                "flow.rounding_passes".into(),
                per_op("flow.rounding_passes"),
                "count",
            ),
            ("graph.oracle_ms".into(), ms("graph.oracle_ns"), "ms"),
            ("graph.ms".into(), ms("graph_ns"), "ms"),
            (
                "graph.dijkstra_calls".into(),
                per_op("graph.dijkstra_calls"),
                "count",
            ),
            (
                "graph.rows_carried_ratio".into(),
                share("graph.rows_carried", "graph.rows_dropped"),
                "ratio",
            ),
            (
                "submodular.greedy_ms".into(),
                ms("submodular.greedy_ns"),
                "ms",
            ),
            (
                "submodular.pipage_ms".into(),
                ms("submodular.pipage_ns"),
                "ms",
            ),
            ("pool.regions".into(), per_op("pool.regions"), "count"),
            ("pool.busy_ms".into(), ms("pool.busy_ns"), "ms"),
            ("pool.idle_ms".into(), ms("pool.idle_ns"), "ms"),
            (
                "pool.utilisation".into(),
                share("pool.busy_ns", "pool.idle_ns"),
                "ratio",
            ),
            (
                "pool.imbalance".into(),
                {
                    let n = self.sum("pool.imbalance_ops");
                    if n > 0.0 {
                        self.sum("pool.imbalance_sum") / n
                    } else {
                        0.0
                    }
                },
                "ratio",
            ),
            ("core.alg1_ms".into(), ms("core.alg1_ns"), "ms"),
            ("core.alg2_ms".into(), ms("core.alg2_ns"), "ms"),
            (
                "core.alternating_ms".into(),
                ms("core.alternating_ns"),
                "ms",
            ),
            ("core.hour_ms".into(), ms("core.hour_ns"), "ms"),
            ("core.certify_ms".into(), ms("core.certify_ns"), "ms"),
            (
                "core.alt_iterations".into(),
                per_op("core.alt_iterations"),
                "count",
            ),
        ];
        for rung in jcr_core::online::Rung::ALL {
            out.push((
                format!("core.rung.{}", rung.name()),
                per_op(rung_key(rung)),
                "count",
            ));
        }
        out.push(("core.repairs".into(), per_op("core.repairs"), "count"));
        for &(name, value) in setup {
            out.push((name.into(), value, "ms"));
        }
        let wall = self.sum("wall_ns");
        let unattributed = if wall > 0.0 {
            (wall - self.sum(ATTRIBUTED)) / wall
        } else {
            0.0
        };
        out.push(("bench.unattributed_share".into(), unattributed, "ratio"));
        out
    }
}

/// The running-sum key counting hours served by `rung`.
pub fn rung_key(rung: jcr_core::online::Rung) -> &'static str {
    use jcr_core::online::Rung;
    match rung {
        Rung::Full => "rung.full",
        Rung::ColdRestore => "rung.cold-restore",
        Rung::Incumbent => "rung.incumbent",
        Rung::RetryHalved => "rung.retry-halved",
        Rung::RoutingOnly => "rung.routing-only",
        Rung::CarryForward => "rung.carry-forward",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jcr_ctx::SolverContext;

    #[test]
    fn span_prefixes_map_to_crates() {
        assert_eq!(layer_of("lp.phase2"), Some("lp"));
        assert_eq!(layer_of("cg.pricing"), Some("flow"));
        assert_eq!(layer_of("flow.rounding"), Some("flow"));
        assert_eq!(layer_of("graph.oracle.prime"), Some("graph"));
        assert_eq!(layer_of("pool.chunk"), Some("pool"));
        assert_eq!(layer_of("alg1.pipage"), Some("submodular"));
        assert_eq!(layer_of("alg1.lp"), Some("core"));
        assert_eq!(layer_of("alt.solve"), Some("core"));
        assert_eq!(layer_of("unknown"), None);
    }

    #[test]
    fn serial_self_times_add_up_to_the_span_totals() {
        let ctx = SolverContext::new().with_workers(1);
        {
            let _outer = ctx.span("alt.solve");
            let _inner = ctx.span("lp.solve");
            std::hint::black_box(vec![0u8; 1 << 16]);
        }
        let snap = ctx.obs_snapshot();
        let total: u64 = snap.nodes[0]
            .children
            .iter()
            .map(|&c| snap.nodes[c].total_nanos)
            .sum();
        let mut sum = 0.0;
        scaled_self_times(&snap, f64::INFINITY, &mut |_, ns| sum += ns);
        assert!((sum - total as f64).abs() < 1.0, "{sum} vs {total}");
    }

    #[test]
    fn oversubscribed_children_share_their_parents_duration() {
        // A parent of 10 ns whose merged worker children report 30 ns:
        // the children are scaled to the parent's 10 ns.
        let ctx = SolverContext::new();
        let mut snap = ctx.obs_snapshot();
        use jcr_ctx::obs::SpanNode;
        let node = |name: &'static str, total: u64, child: u64, children: Vec<usize>| SpanNode {
            name,
            children,
            count: 1,
            total_nanos: total,
            child_nanos: child,
        };
        snap.nodes = vec![
            node("root", 0, 10, vec![1]),
            node("cg.pricing", 10, 30, vec![2, 3]),
            node("pool.chunk", 15, 0, vec![]),
            node("graph.dijkstra", 15, 0, vec![]),
        ];
        let mut seen = Vec::new();
        scaled_self_times(&snap, 10.0, &mut |name, ns| {
            seen.push((name.to_string(), ns))
        });
        let total: f64 = seen.iter().map(|(_, ns)| ns).sum();
        assert!((total - 10.0).abs() < 1e-9, "{seen:?}");
        assert_eq!(seen[0], ("cg.pricing".to_string(), 0.0));
        assert!((seen[1].1 - 5.0).abs() < 1e-9);
    }

    #[test]
    fn ratios_and_per_op_means() {
        let mut ledger = Ledger::default();
        ledger.add("lp.warm_start", 3.0);
        ledger.add("lp.warm_fallback", 1.0);
        ledger.add("lp.pivots", 10.0);
        ledger.add_timed("submodular.greedy_ns", 4e6);
        ledger.end_op(8e6);
        ledger.end_op(8e6);
        let metrics = ledger.metrics(&[("topo.generate_ms", 1.5)]);
        let get = |name: &str| metrics.iter().find(|m| m.0 == name).unwrap().1;
        assert_eq!(get("lp.warm_hit_ratio"), 0.75);
        assert_eq!(get("lp.pivots"), 5.0);
        assert_eq!(get("submodular.greedy_ms"), 2.0);
        assert_eq!(get("topo.generate_ms"), 1.5);
        assert_eq!(get("bench.unattributed_share"), 0.75);
        assert_eq!(get("flow.cg_seed_reuse_ratio"), 0.0);
    }

    #[test]
    fn phase_probe_mirrors_counters_and_timers() {
        let probe = std::rc::Rc::new(PhaseProbe::default());
        let ctx = SolverContext::new().with_probe(Box::new(std::rc::Rc::clone(&probe)));
        ctx.count(Counter::SimplexPivots, 4);
        {
            let _t = ctx.time(Phase::ColumnGeneration);
        }
        assert_eq!(probe.counter(Counter::SimplexPivots), 4);
        let mut ledger = Ledger::default();
        ledger.add_probe(&probe);
        ledger.end_op(1.0);
        let metrics = ledger.metrics(&[]);
        let pivots = metrics.iter().find(|m| m.0 == "lp.pivots").unwrap().1;
        assert_eq!(pivots, 4.0);
    }
}
