//! The three workloads. Each is built once per set-up from the workload
//! seed and then runs ops closed-loop. Op `k`'s inputs are a pure
//! function of the seed and `k` (an online hour also carries the state
//! of the earlier hours of its operator); each op builds a fresh
//! `Instance` and reports one [`Outcome`] per solve it attempted.

use std::rc::Rc;
use std::time::Instant;

use jcr_bench::{build_instance_with, flatten_rates, DemandBase, Scenario, ScenarioDemand};
use jcr_core::alg2::solve_binary_caches_with_context;
use jcr_core::certify::certify_solution;
use jcr_core::online::{AnytimeConfig, OnlineSimulator, Rung};
use jcr_core::prelude::{Algorithm1, Alternating, Instance, JcrError, Request, Solution};
use jcr_ctx::rng::{SeedableRng, StdRng};
use jcr_ctx::SolverContext;
use jcr_topo::{Topology, TopologyKind};

use crate::ledger::{rung_key, Ledger, PhaseProbe};
use crate::stats::Outcome;

/// The workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 3] = ["paper_cold", "online_hours", "stress_greedy"];

/// Paper topologies `paper_cold` cycles through (Table 5).
const PAPER_KINDS: [TopologyKind; 3] = [
    TopologyKind::Abovenet,
    TopologyKind::Tinet,
    TopologyKind::Deltacom,
];

/// Length of one `online_hours` operator. The trace has 100 evaluation
/// hours and `Scenario::demand_base` panics past them.
pub const OPERATOR_HOURS: usize = 100;

/// Seed of the fixed `Stress` topology (the network is an input like
/// the paper topologies; the workload seed varies the demand).
const STRESS_TOPOLOGY_SEED: u64 = 7;
/// `stress_greedy` catalog, head and requesters per head item.
const STRESS_ITEMS: usize = 1024;
const STRESS_HEAD: usize = 128;
const STRESS_REQUESTERS: usize = 4;
/// Per-edge-cache capacity ζ of `stress_greedy`, in items.
const STRESS_ZETA: f64 = 4.0;

/// Set-up layer times, in nanoseconds.
#[derive(Clone, Copy, Debug)]
pub struct SetupTimes {
    /// `jcr-topo` topology generation.
    pub topo_ns: f64,
    /// `jcr-trace` view trace and GPR forecasts.
    pub demand_ns: f64,
}

/// The seed of op `k`'s random draws (share seed or demand seed):
/// SplitMix64 of the workload seed and the op index.
pub fn op_seed(seed: u64, k: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(k.wrapping_add(1).wrapping_mul(0xbf58_476d_1ce4_e5b9));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn nanos_since(t: Instant) -> f64 {
    t.elapsed().as_nanos() as f64
}

/// Times `f` into the ledger's `name` sum when tracing.
fn timed<R>(ledger: &mut Option<&mut Ledger>, name: &'static str, f: impl FnOnce() -> R) -> R {
    let t = Instant::now();
    let out = f();
    if let Some(l) = ledger.as_deref_mut() {
        l.add(name, nanos_since(t));
    }
    out
}

/// Certifies a solver result from outside: served only if the solver
/// returned a solution and `certify_solution` verifies it. Link
/// capacities are recorded, not gated, as every pipeline here is
/// uncapacitated or bicriteria.
fn certified(
    inst: &Instance,
    result: Result<Solution, JcrError>,
    ledger: &mut Option<&mut Ledger>,
) -> Outcome {
    let Ok(solution) = result else {
        return Outcome::Failed;
    };
    let t = Instant::now();
    let verified = certify_solution(inst, &solution, false).verified();
    if let Some(l) = ledger.as_deref_mut() {
        l.add_timed("core.certify_ns", nanos_since(t));
    }
    if verified {
        Outcome::Full {
            cost: solution.cost(inst),
        }
    } else {
        Outcome::Failed
    }
}

/// A set-up workload: runs op `k` at pool width `width`, folding layer
/// times into `ledger` when tracing.
pub trait Workload {
    /// Runs op `k`.
    fn op(&mut self, k: u64, width: usize, ledger: Option<&mut Ledger>) -> OpResult;
}

/// The result of one op.
pub struct OpResult {
    /// One outcome per attempted solve, in solve order.
    pub outcomes: Vec<Outcome>,
    /// A failed output check, if any: the benchmark's own correctness
    /// condition, separate from a counted solve failure.
    pub check_failure: Option<String>,
}

/// Builds the named workload's fixed inputs from `seed`.
pub fn setup(name: &str, seed: u64) -> Option<(Box<dyn Workload>, SetupTimes)> {
    fn boxed<W: Workload + 'static>((w, t): (W, SetupTimes)) -> (Box<dyn Workload>, SetupTimes) {
        (Box::new(w), t)
    }
    Some(match name {
        "paper_cold" => boxed(PaperCold::setup(seed)),
        "online_hours" => boxed(OnlineHours::setup(seed)),
        "stress_greedy" => boxed(StressGreedy::setup(seed)),
        _ => return None,
    })
}

/// One paper topology with its scenario.
struct PaperCase {
    scenario: Scenario,
    topo: Topology,
    n_edges: usize,
}

/// `paper_cold`: §6 chunk-level defaults (|C| = 54, ζ = 12, κ = 0.007)
/// cycling through Abovenet, Tinet and Deltacom, one fresh share seed
/// per op. An op runs Alg1 on the c_uv = ∞ copy, Alg2 (K = 1000, first
/// cache node as storer) and alternating IC-IR, each on a fresh instance.
pub struct PaperCold {
    seed: u64,
    cases: Vec<PaperCase>,
    base: DemandBase,
}

impl PaperCold {
    fn setup(seed: u64) -> (Self, SetupTimes) {
        let t = Instant::now();
        let cases: Vec<PaperCase> = PAPER_KINDS
            .iter()
            .map(|&kind| {
                let scenario = Scenario {
                    kind,
                    hours: 1,
                    ..Scenario::chunk_default()
                };
                let topo = scenario.topology();
                let n_edges = topo.edge_nodes.len();
                PaperCase {
                    scenario,
                    topo,
                    n_edges,
                }
            })
            .collect();
        let topo_ns = nanos_since(t);
        // The trace and its forecasts depend on the trace seed, hours and
        // catalog only — identical for the three topologies.
        let t = Instant::now();
        let base = cases[0].scenario.demand_base();
        let demand_ns = nanos_since(t);
        (
            PaperCold { seed, cases, base },
            SetupTimes { topo_ns, demand_ns },
        )
    }
}

impl Workload for PaperCold {
    fn op(&mut self, k: u64, width: usize, mut ledger: Option<&mut Ledger>) -> OpResult {
        let start = Instant::now();
        let case = &self.cases[(k % PAPER_KINDS.len() as u64) as usize];
        let scenario = Scenario {
            share_seed: op_seed(self.seed, k),
            ..case.scenario.clone()
        };
        let rates = scenario
            .demand_from(&self.base, case.n_edges)
            .true_rates(0, case.n_edges);
        let inst = build_instance_with(&case.topo, &scenario, &rates);
        let unlimited = Scenario {
            kappa_fraction: None,
            ..scenario.clone()
        };
        let inst_unlim = build_instance_with(&case.topo, &unlimited, &rates);
        // Alg2's binary-cache case (c_v = |C| at the storer, 0 elsewhere),
        // so its full-catalog placement certifies against the capacities
        // it assumes.
        let storer = inst.cache_nodes()[0];
        let mut inst_binary = inst.clone();
        inst_binary.cache_cap = vec![0.0; inst.graph.node_count()];
        inst_binary.cache_cap[storer.index()] = inst.num_items() as f64;
        let ctx = SolverContext::new().with_workers(width);

        timed(&mut ledger, "graph.oracle_ns", || {
            inst_unlim.all_pairs_with_context(&ctx);
            inst.all_pairs_with_context(&ctx);
        });
        let alg1 = timed(&mut ledger, "core.alg1_ns", || {
            Algorithm1::new().solve_with_context(&inst_unlim, &ctx)
        });
        let alg2 = timed(&mut ledger, "core.alg2_ns", || {
            solve_binary_caches_with_context(&inst_binary, &[storer], 1000, &ctx)
                .map(|b| b.solution)
        });
        let alt = timed(&mut ledger, "core.alternating_ns", || {
            Alternating::new().solve_with_context(&inst, &ctx)
        });
        if let (Some(l), Ok(a)) = (ledger.as_deref_mut(), &alt) {
            l.add("core.alt_iterations", a.iterations as f64);
        }
        let outcomes = vec![
            certified(&inst_unlim, alg1, &mut ledger),
            certified(&inst_binary, alg2, &mut ledger),
            certified(&inst, alt.map(|a| a.solution), &mut ledger),
        ];
        if let Some(l) = ledger {
            let wall = nanos_since(start);
            l.add_context(&ctx.stats(), &ctx.obs_snapshot(), wall);
            l.end_op(wall);
        }
        OpResult {
            check_failure: cost_check(&outcomes),
            outcomes,
        }
    }
}

/// Output check shared by the workloads: every served objective is a
/// finite, non-negative number.
fn cost_check(outcomes: &[Outcome]) -> Option<String> {
    outcomes
        .iter()
        .filter_map(|o| o.cost())
        .find(|c| !c.is_finite() || *c < 0.0)
        .map(|c| format!("served objective {c} is not a finite non-negative cost"))
}

/// One independent 100-hour operator of `online_hours`.
struct Operator {
    scenario: Scenario,
    demand: ScenarioDemand,
    sim: OnlineSimulator,
}

/// `online_hours`: the §6 protocol on Abovenet. An op is one
/// `OnlineSimulator::step_anytime` hour on the GPR-forecast instance,
/// scored on the true rates; every [`OPERATOR_HOURS`] hours a new
/// operator starts with a fresh share seed.
pub struct OnlineHours {
    seed: u64,
    scenario: Scenario,
    topo: Topology,
    n_edges: usize,
    base: DemandBase,
    operator: Option<Operator>,
}

impl OnlineHours {
    fn setup(seed: u64) -> (Self, SetupTimes) {
        let scenario = Scenario {
            hours: OPERATOR_HOURS,
            ..Scenario::chunk_default()
        };
        let t = Instant::now();
        let topo = scenario.topology();
        let topo_ns = nanos_since(t);
        let t = Instant::now();
        let base = scenario.demand_base();
        let demand_ns = nanos_since(t);
        let n_edges = topo.edge_nodes.len();
        (
            OnlineHours {
                seed,
                scenario,
                topo,
                n_edges,
                base,
                operator: None,
            },
            SetupTimes { topo_ns, demand_ns },
        )
    }
}

impl Workload for OnlineHours {
    /// The rung contexts take their pool width from `JCR_WORKERS`, which
    /// the coordinator sets for this process.
    fn op(&mut self, k: u64, _width: usize, ledger: Option<&mut Ledger>) -> OpResult {
        let start = Instant::now();
        let hour = (k % OPERATOR_HOURS as u64) as usize;
        if hour == 0 {
            let scenario = Scenario {
                share_seed: op_seed(self.seed, k / OPERATOR_HOURS as u64),
                ..self.scenario.clone()
            };
            self.operator = Some(Operator {
                demand: scenario.demand_from(&self.base, self.n_edges),
                scenario,
                sim: OnlineSimulator::new(Alternating::new()),
            });
        }
        let op = self.operator.as_mut().expect("operator set above");
        let predicted = op.demand.predicted_rates(hour, self.n_edges);
        let inst = build_instance_with(&self.topo, &op.scenario, &predicted);
        let truth: Vec<f64> = flatten_rates(&op.demand.true_rates(hour, self.n_edges))
            .into_iter()
            .map(|r| r.max(1e-6))
            .collect();
        let probe = ledger.as_ref().map(|_| Rc::new(PhaseProbe::default()));
        let mut cfg = AnytimeConfig::new();
        if let Some(p) = &probe {
            cfg = cfg.with_probe(Rc::clone(p) as Rc<dyn jcr_ctx::Probe>);
        }
        let t = Instant::now();
        let step = op.sim.step_anytime(&inst, &truth, &cfg);
        let hour_ns = nanos_since(t);

        let mut check_failure = None;
        let outcome = match &step {
            Err(_) => Outcome::Failed,
            Ok(out) if !out.certificate.verified() => Outcome::Failed,
            Ok(out) => {
                if out.rung == Rung::CarryForward && out.repair.is_none() {
                    check_failure = Some(format!("hour {k}: carry-forward served unrepaired"));
                }
                let cost = out.realized_cost;
                if out.rung == Rung::Full {
                    Outcome::Full { cost }
                } else {
                    Outcome::Degraded { cost }
                }
            }
        };
        if let Some(l) = ledger {
            l.add("core.hour_ns", hour_ns);
            if let Ok(out) = &step {
                l.add(rung_key(out.rung), 1.0);
                l.add("core.repairs", f64::from(u8::from(out.repair.is_some())));
            }
            l.add_probe(probe.as_deref().expect("probe attached when tracing"));
            l.end_op(nanos_since(start));
        }
        let outcomes = vec![outcome];
        OpResult {
            check_failure: check_failure.or_else(|| cost_check(&outcomes)),
            outcomes,
        }
    }
}

/// `stress_greedy`: a fixed `Stress` topology (1000 nodes, 20k directed
/// links, 64 edge caches); each op draws a 1024-item Zipf demand of 512
/// requests (128-item head × 4 requesters), ζ = 4, unlimited links, and
/// solves it with the §5 greedy, route-to-nearest-replica and
/// `certify_solution`.
pub struct StressGreedy {
    seed: u64,
    topo: Topology,
}

impl StressGreedy {
    fn setup(seed: u64) -> (Self, SetupTimes) {
        let t = Instant::now();
        let topo = Topology::generate(TopologyKind::Stress, STRESS_TOPOLOGY_SEED)
            .expect("the stress family generates");
        let topo_ns = nanos_since(t);
        (
            StressGreedy { seed, topo },
            SetupTimes {
                topo_ns,
                demand_ns: 0.0,
            },
        )
    }

    fn instance(&self, k: u64) -> Instance {
        let topo = &self.topo;
        let mut rng = StdRng::seed_from_u64(op_seed(self.seed, k));
        let requests: Vec<Request> = jcr_trace::zipf::zipf_demand_sparse(
            STRESS_ITEMS,
            topo.edge_nodes.len(),
            0.8,
            4_000.0,
            STRESS_HEAD,
            STRESS_REQUESTERS,
            &mut rng,
        )
        .into_iter()
        .map(|(item, s, rate)| Request {
            item,
            node: topo.edge_nodes[s],
            rate,
        })
        .collect();
        let mut cache_cap = vec![0.0; topo.graph.node_count()];
        for &v in &topo.edge_nodes {
            cache_cap[v.index()] = STRESS_ZETA;
        }
        Instance::new(
            topo.graph.clone(),
            topo.cost.clone(),
            vec![f64::INFINITY; topo.graph.edge_count()],
            cache_cap,
            vec![1.0; STRESS_ITEMS],
            requests,
            Some(topo.origin),
        )
        .expect("stress instances are valid")
        // On-demand rows: no |V|² block at this scale.
        .with_oracle_dense_max(0)
    }
}

impl Workload for StressGreedy {
    fn op(&mut self, k: u64, width: usize, mut ledger: Option<&mut Ledger>) -> OpResult {
        let start = Instant::now();
        let inst = self.instance(k);
        let ctx = SolverContext::new().with_workers(width);
        timed(&mut ledger, "graph.oracle_ns", || {
            let mut sources = self.topo.edge_nodes.clone();
            sources.push(self.topo.origin);
            inst.all_pairs_with_context(&ctx)
                .oracle()
                .prime_rows_with_context(&sources, &ctx);
        });
        let t = Instant::now();
        let placement = jcr_core::hetero::greedy_placement_rnr(&inst);
        if let Some(l) = ledger.as_deref_mut() {
            l.add_timed("submodular.greedy_ns", nanos_since(t));
        }
        // RNR is `jcr-core` work that opens no span of its own.
        let t = Instant::now();
        let routing = jcr_core::rnr::route_to_nearest_replica(&inst, &placement);
        if let Some(l) = ledger.as_deref_mut() {
            l.attribute(nanos_since(t));
        }
        let result = routing
            .map(|routing| Solution { placement, routing })
            .ok_or(JcrError::Infeasible);
        let outcomes = vec![certified(&inst, result, &mut ledger)];
        if let Some(l) = ledger {
            let wall = nanos_since(start);
            l.add_context(&ctx.stats(), &ctx.obs_snapshot(), wall);
            l.end_op(wall);
        }
        OpResult {
            check_failure: cost_check(&outcomes),
            outcomes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_seeds_differ_by_seed_and_op() {
        assert_ne!(op_seed(1, 0), op_seed(1, 1));
        assert_ne!(op_seed(1, 0), op_seed(2, 0));
        assert_eq!(op_seed(5, 9), op_seed(5, 9));
    }
}
