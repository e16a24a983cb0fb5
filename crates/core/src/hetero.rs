//! Heterogeneous item sizes (§5): greedy content placement under the
//! per-node knapsack (*p*-independence) constraint of Lemma 5.1.
//!
//! Pipage rounding cannot swap fractions of different-sized items without
//! overflowing caches, but both cost-saving objectives remain monotone
//! submodular (Lemmas 4.1 and 5.3), so lazy greedy achieves a `1/(1+p)`
//! approximation with `p = ⌈b_max/b_min⌉` (Theorem 5.2). The same greedy
//! is also valid (with ratio 1/2) for equal-sized items, where the
//! knapsack degenerates to a partition matroid.
//!
//! The ground set holds only `(cache, item)` pairs of *requested* items:
//! an item nobody requests has zero gain under both objectives, so a
//! 10⁶-item catalog with a few hundred requests costs a few thousand
//! elements, not |caches|·|catalog|. The `F̃_RNR` oracle indexes requests
//! by item and holds one distance row per cache node, so a gain costs
//! O(requests of the item). It reads `w_max` — on an on-demand oracle a
//! |V|-Dijkstra sweep — only if some requester cannot reach the origin.

use std::cell::OnceCell;

use jcr_graph::oracle::Row;
use jcr_graph::NodeId;
use jcr_submodular::constraint::Knapsack;
use jcr_submodular::greedy::{lazy_greedy, GreedyResult};
use jcr_submodular::Oracle;

use crate::instance::Instance;
use crate::placement::Placement;
use crate::placement_opt::{extract_segments, Segment};
use crate::routing::Routing;

/// Ground-set bookkeeping: element `vi * items.len() + j` is "cache item
/// `items[j]` at `cache_nodes[vi]`". `items` is the ascending list of
/// requested items, so this numbering is a monotone renumbering of the
/// dense `vi * num_items + item` and greedy's tie-breaks (smallest element
/// first) pick the same pairs in the same order.
struct Ground {
    cache_nodes: Vec<NodeId>,
    /// Requested items, ascending.
    items: Vec<usize>,
    /// Request indices grouped by item (in `items` order), ascending within
    /// each group; group `j` is `by_item[start[j]..start[j + 1]]`.
    by_item: Vec<usize>,
    start: Vec<usize>,
}

impl Ground {
    fn new(inst: &Instance) -> Self {
        let mut by_item: Vec<usize> = (0..inst.requests.len()).collect();
        // Stable: request indices stay ascending within an item.
        by_item.sort_by_key(|&k| inst.requests[k].item);
        let mut items = Vec::new();
        let mut start = Vec::new();
        for (pos, &k) in by_item.iter().enumerate() {
            let item = inst.requests[k].item;
            if items.last() != Some(&item) {
                items.push(item);
                start.push(pos);
            }
        }
        start.push(by_item.len());
        Ground {
            cache_nodes: inst.cache_nodes(),
            items,
            by_item,
            start,
        }
    }

    fn size(&self) -> usize {
        self.cache_nodes.len() * self.items.len()
    }

    /// `(cache position, item position)` of element `e`.
    fn split(&self, e: usize) -> (usize, usize) {
        (e / self.items.len(), e % self.items.len())
    }

    fn decode(&self, e: usize) -> (NodeId, usize) {
        let (vi, j) = self.split(e);
        (self.cache_nodes[vi], self.items[j])
    }

    /// The element for catalog item `item` at cache position `vi`, if the
    /// item is requested.
    fn element(&self, vi: usize, item: usize) -> Option<usize> {
        let j = self.items.binary_search(&item).ok()?;
        Some(vi * self.items.len() + j)
    }

    /// Indices of the requests for `items[j]`, ascending.
    fn requests_of(&self, j: usize) -> &[usize] {
        &self.by_item[self.start[j]..self.start[j + 1]]
    }

    fn knapsack(&self, inst: &Instance) -> Knapsack {
        let (group_of, size) = (0..self.size())
            .map(|e| {
                let (vi, j) = self.split(e);
                (vi, inst.item_size[self.items[j]])
            })
            .unzip();
        let capacity: Vec<f64> = self
            .cache_nodes
            .iter()
            .map(|&v| inst.cache_cap[v.index()])
            .collect();
        Knapsack::new(group_of, size, capacity)
    }

    fn placement(&self, selected: &[usize], inst: &Instance) -> Placement {
        let mut p = Placement::empty(inst);
        for &e in selected {
            let (v, i) = self.decode(e);
            p.set(v, i, true);
        }
        p
    }
}

/// Oracle for `F̃_RNR` (Lemma 4.1): the saving of serving each request
/// from its nearest replica instead of its current best source.
struct RnrOracle<'a> {
    inst: &'a Instance,
    ground: &'a Ground,
    /// Distance row rooted at each cache node, in `ground.cache_nodes`
    /// order (empty when the ground set is).
    rows: Vec<Row<'a>>,
    /// Current least cost per request (starts at the origin's distance, or
    /// `w_max` when unreachable).
    best: Vec<f64>,
    value: f64,
}

impl<'a> RnrOracle<'a> {
    fn new(inst: &'a Instance, ground: &'a Ground) -> Self {
        let oracle = inst.all_pairs().oracle();
        let w_max = OnceCell::new();
        let origin_row = inst.origin.map(|o| oracle.row(o));
        let best = inst
            .requests
            .iter()
            .map(|r| match origin_row.as_ref().map(|row| row.dist(r.node)) {
                Some(d) if d.is_finite() => d,
                _ => *w_max.get_or_init(|| inst.w_max()),
            })
            .collect();
        let rows = if ground.size() == 0 {
            Vec::new()
        } else {
            ground.cache_nodes.iter().map(|&v| oracle.row(v)).collect()
        };
        RnrOracle {
            inst,
            ground,
            rows,
            best,
            value: 0.0,
        }
    }
}

impl Oracle for RnrOracle<'_> {
    fn ground_size(&self) -> usize {
        self.ground.size()
    }

    fn gain(&self, element: usize) -> f64 {
        let (vi, j) = self.ground.split(element);
        let dist = self.rows[vi].dists();
        self.ground
            .requests_of(j)
            .iter()
            .map(|&k| {
                let r = &self.inst.requests[k];
                let d = dist[r.node.index()];
                if d.is_finite() {
                    r.rate * (self.best[k] - d).max(0.0)
                } else {
                    0.0
                }
            })
            .sum()
    }

    fn insert(&mut self, element: usize) {
        let (vi, j) = self.ground.split(element);
        let dist = self.rows[vi].dists();
        for &k in self.ground.requests_of(j) {
            let r = &self.inst.requests[k];
            let d = dist[r.node.index()];
            if d.is_finite() && d < self.best[k] {
                self.value += r.rate * (self.best[k] - d);
                self.best[k] = d;
            }
        }
    }

    fn value(&self) -> f64 {
        self.value
    }
}

/// Oracle for `F̃_{r,f}` (Lemma 5.3) over the segments of Eq. (14): a
/// weighted-coverage function (an element covers the segments of its item
/// whose prefix contains its node).
struct CoverOracle {
    /// Segment weights.
    weight: Vec<f64>,
    /// Segments covered by each element.
    covers: Vec<Vec<usize>>,
    covered: Vec<bool>,
    value: f64,
}

impl CoverOracle {
    fn new(inst: &Instance, ground: &Ground, segments: &[Segment]) -> Self {
        let mut node_pos = vec![None; inst.graph.node_count()];
        for (k, &v) in ground.cache_nodes.iter().enumerate() {
            node_pos[v.index()] = Some(k);
        }
        let mut weight = Vec::new();
        let mut covers = vec![Vec::new(); ground.size()];
        for seg in segments {
            if seg.saved_by_origin || seg.weight <= 0.0 {
                continue;
            }
            let s = weight.len();
            weight.push(seg.weight);
            for &v in &seg.prefix {
                if let Some(e) = node_pos[v.index()].and_then(|vi| ground.element(vi, seg.item)) {
                    covers[e].push(s);
                }
            }
        }
        let covered = vec![false; weight.len()];
        CoverOracle {
            weight,
            covers,
            covered,
            value: 0.0,
        }
    }
}

impl Oracle for CoverOracle {
    fn ground_size(&self) -> usize {
        self.covers.len()
    }

    fn gain(&self, element: usize) -> f64 {
        self.covers[element]
            .iter()
            .filter(|&&s| !self.covered[s])
            .map(|&s| self.weight[s])
            .sum()
    }

    fn insert(&mut self, element: usize) {
        for &s in &self.covers[element] {
            if !self.covered[s] {
                self.covered[s] = true;
                self.value += self.weight[s];
            }
        }
    }

    fn value(&self) -> f64 {
        self.value
    }
}

fn greedy_rnr(inst: &Instance) -> (Ground, GreedyResult) {
    let ground = Ground::new(inst);
    let mut oracle = RnrOracle::new(inst, &ground);
    let mut constraint = ground.knapsack(inst);
    let result = lazy_greedy(&mut oracle, &mut constraint);
    (ground, result)
}

fn greedy_given_routing(inst: &Instance, routing: &Routing) -> (Ground, GreedyResult) {
    let ground = Ground::new(inst);
    let segments = extract_segments(inst, routing);
    let mut oracle = CoverOracle::new(inst, &ground, &segments);
    let mut constraint = ground.knapsack(inst);
    let result = lazy_greedy(&mut oracle, &mut constraint);
    (ground, result)
}

/// Greedy placement maximizing `F̃_RNR` under per-node knapsack
/// constraints — the unlimited-link-capacity case of §5.2.2
/// (`1/(1+p)`-approximate, Theorem 5.2).
pub fn greedy_placement_rnr(inst: &Instance) -> Placement {
    let (ground, result) = greedy_rnr(inst);
    ground.placement(&result.selected, inst)
}

/// Greedy placement maximizing `F̃_{r,f}` under per-node knapsack
/// constraints — the placement step of the general-case alternating
/// optimization for heterogeneous sizes (§5.2.3).
pub fn greedy_placement_given_routing(inst: &Instance, routing: &Routing) -> Placement {
    let (ground, result) = greedy_given_routing(inst, routing);
    ground.placement(&result.selected, inst)
}

/// The independence parameter `p = ⌈b_max/b_min⌉` of the instance
/// (Lemma 5.1); the greedy guarantee is `1/(1+p)`.
pub fn independence_parameter(inst: &Instance) -> usize {
    let b_max = inst.item_size.iter().copied().fold(0.0f64, f64::max);
    let b_min = inst.item_size.iter().copied().fold(f64::INFINITY, f64::min);
    (b_max / b_min).ceil() as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alg1::f_rnr;
    use crate::instance::{InstanceBuilder, Request};
    use crate::placement_opt::f_given_routing;
    use crate::rnr;
    use jcr_ctx::rng::{Rng, SeedableRng, StdRng};
    use jcr_topo::{Topology, TopologyKind};

    fn file_level_inst(seed: u64) -> Instance {
        // Sizes in 100-MB units, like the paper's file-level simulation.
        InstanceBuilder::new(Topology::generate(TopologyKind::Abovenet, seed).unwrap())
            .item_sizes(vec![4.5, 6.1, 7.5, 3.9, 8.5, 4.3, 1.6, 7.1, 1.6, 3.1])
            .cache_capacity(10.0)
            .zipf_demand(0.8, 100.0, seed)
            .build()
            .unwrap()
    }

    #[test]
    fn rnr_greedy_is_feasible_and_saves_cost() {
        let inst = file_level_inst(31);
        let p = greedy_placement_rnr(&inst);
        assert!(p.is_feasible(&inst));
        assert!(!p.is_empty());
        let empty_cost = rnr::rnr_cost(&inst, &Placement::empty(&inst)).unwrap();
        let greedy_cost = rnr::rnr_cost(&inst, &p).unwrap();
        assert!(greedy_cost < empty_cost);
    }

    #[test]
    fn routing_greedy_is_feasible_and_saves_cost() {
        let inst = file_level_inst(32);
        let routing = rnr::route_to_nearest_replica(&inst, &Placement::empty(&inst)).unwrap();
        let p = greedy_placement_given_routing(&inst, &routing);
        assert!(p.is_feasible(&inst));
        assert!(f_given_routing(&inst, &routing, &p) > 0.0);
    }

    #[test]
    fn cover_oracle_gain_matches_objective_delta() {
        // The oracle's marginal gains must agree with recomputing the
        // set-function value from scratch.
        let inst = file_level_inst(35);
        let routing = rnr::route_to_nearest_replica(&inst, &Placement::empty(&inst)).unwrap();
        let ground = Ground::new(&inst);
        let segments = extract_segments(&inst, &routing);
        let mut oracle = CoverOracle::new(&inst, &ground, &segments);
        let mut placement = Placement::empty(&inst);
        for e in [0usize, 3, 7, 11] {
            let e = e % ground.size();
            let before = f_given_routing(&inst, &routing, &placement);
            let gain = oracle.gain(e);
            let (v, i) = ground.decode(e);
            if placement.has(v, i) {
                continue;
            }
            oracle.insert(e);
            placement.set(v, i, true);
            let after = f_given_routing(&inst, &routing, &placement);
            assert!(
                (after - before - gain).abs() < 1e-6 * (1.0 + after.abs()),
                "element {e}: gain {gain} vs delta {}",
                after - before
            );
        }
    }

    #[test]
    fn independence_parameter_matches_sizes() {
        let inst = file_level_inst(33);
        // 8.5 / 1.6 = 5.3 → p = 6.
        assert_eq!(independence_parameter(&inst), 6);
    }

    #[test]
    fn greedy_matches_alg1_objective_shape_on_homogeneous() {
        // On equal-sized items both RNR-placements chase the same
        // objective; greedy (1/2) should land within a factor of the LP
        // pipage result (1 − 1/e).
        let inst = InstanceBuilder::new(Topology::generate(TopologyKind::Abovenet, 17).unwrap())
            .items(8)
            .cache_capacity(2.0)
            .zipf_demand(0.8, 100.0, 17)
            .build()
            .unwrap();
        let greedy = greedy_placement_rnr(&inst);
        let alg1 = crate::alg1::Algorithm1::new().place(&inst).unwrap();
        let fg = f_rnr(&inst, &greedy);
        let fa = f_rnr(&inst, &alg1);
        assert!(fg > 0.0 && fa > 0.0);
        assert!(fg >= 0.5 * fa, "greedy {fg} too far below alg1 {fa}");
    }

    #[test]
    fn half_approximation_against_brute_force() {
        // Tiny heterogeneous instance with brute-forced optimum.
        let inst = InstanceBuilder::new(Topology::generate_custom(8, 10, 2, 5).unwrap())
            .item_sizes(vec![2.0, 1.0, 3.0])
            .cache_capacity(3.0)
            .zipf_demand(1.0, 50.0, 5)
            .build()
            .unwrap();
        let p = greedy_placement_rnr(&inst);
        let achieved = f_rnr(&inst, &p) - baseline_f(&inst);
        let opt = brute_force(&inst) - baseline_f(&inst);
        let bound = opt / (1.0 + independence_parameter(&inst) as f64);
        assert!(
            achieved >= bound - 1e-6,
            "greedy {achieved} below 1/(1+p) bound {bound}"
        );
    }

    /// `F_RNR` of the empty placement (the origin's baseline saving).
    fn baseline_f(inst: &Instance) -> f64 {
        f_rnr(inst, &Placement::empty(inst))
    }

    fn brute_force(inst: &Instance) -> f64 {
        let ground = Ground::new(inst);
        let n = ground.size();
        assert!(n <= 16);
        let mut best = f64::NEG_INFINITY;
        'mask: for mask in 0u32..(1 << n) {
            let mut p = Placement::empty(inst);
            let mut used = vec![0.0; ground.cache_nodes.len()];
            for e in 0..n {
                if mask & (1 << e) != 0 {
                    let (v, i) = ground.decode(e);
                    let (vi, _) = ground.split(e);
                    used[vi] += inst.item_size[i];
                    if used[vi] > inst.cache_cap[v.index()] + 1e-9 {
                        continue 'mask;
                    }
                    p.set(v, i, true);
                }
            }
            best = best.max(f_rnr(inst, &p));
        }
        best
    }

    /// The full-scan implementation the sparse ground set replaced, kept
    /// as the equivalence reference: a dense `|caches| × |catalog|` ground
    /// set, a scan of every request per gain, and an eager `w_max`.
    mod reference {
        use super::*;

        pub struct DenseGround {
            cache_nodes: Vec<NodeId>,
            n_items: usize,
        }

        impl DenseGround {
            pub fn new(inst: &Instance) -> Self {
                DenseGround {
                    cache_nodes: inst.cache_nodes(),
                    n_items: inst.num_items(),
                }
            }

            fn size(&self) -> usize {
                self.cache_nodes.len() * self.n_items
            }

            pub fn decode(&self, e: usize) -> (NodeId, usize) {
                (self.cache_nodes[e / self.n_items], e % self.n_items)
            }

            fn knapsack(&self, inst: &Instance) -> Knapsack {
                let group_of = (0..self.size()).map(|e| e / self.n_items).collect();
                let size = (0..self.size())
                    .map(|e| inst.item_size[e % self.n_items])
                    .collect();
                let capacity = self
                    .cache_nodes
                    .iter()
                    .map(|&v| inst.cache_cap[v.index()])
                    .collect();
                Knapsack::new(group_of, size, capacity)
            }
        }

        pub struct FullScanRnr<'a> {
            inst: &'a Instance,
            ground: &'a DenseGround,
            best: Vec<f64>,
            value: f64,
        }

        impl<'a> FullScanRnr<'a> {
            pub fn new(inst: &'a Instance, ground: &'a DenseGround) -> Self {
                let ap = inst.all_pairs();
                let w_max = inst.w_max();
                let best = inst
                    .requests
                    .iter()
                    .map(|r| match inst.origin {
                        Some(o) => {
                            let d = ap.dist(o, r.node);
                            if d.is_finite() {
                                d
                            } else {
                                w_max
                            }
                        }
                        None => w_max,
                    })
                    .collect();
                FullScanRnr {
                    inst,
                    ground,
                    best,
                    value: 0.0,
                }
            }
        }

        impl Oracle for FullScanRnr<'_> {
            fn ground_size(&self) -> usize {
                self.ground.size()
            }

            fn gain(&self, element: usize) -> f64 {
                let (v, i) = self.ground.decode(element);
                let ap = self.inst.all_pairs();
                self.inst
                    .requests
                    .iter()
                    .enumerate()
                    .filter(|(_, r)| r.item == i)
                    .map(|(k, r)| {
                        let d = ap.dist(v, r.node);
                        if d.is_finite() {
                            r.rate * (self.best[k] - d).max(0.0)
                        } else {
                            0.0
                        }
                    })
                    .sum()
            }

            fn insert(&mut self, element: usize) {
                let (v, i) = self.ground.decode(element);
                let ap = self.inst.all_pairs();
                for (k, r) in self.inst.requests.iter().enumerate() {
                    if r.item == i {
                        let d = ap.dist(v, r.node);
                        if d.is_finite() && d < self.best[k] {
                            self.value += r.rate * (self.best[k] - d);
                            self.best[k] = d;
                        }
                    }
                }
            }

            fn value(&self) -> f64 {
                self.value
            }
        }

        fn dense_cover(inst: &Instance, ground: &DenseGround, routing: &Routing) -> CoverOracle {
            let mut node_pos = vec![None; inst.graph.node_count()];
            for (k, &v) in ground.cache_nodes.iter().enumerate() {
                node_pos[v.index()] = Some(k);
            }
            let mut weight = Vec::new();
            let mut covers = vec![Vec::new(); ground.size()];
            for seg in extract_segments(inst, routing) {
                if seg.saved_by_origin || seg.weight <= 0.0 {
                    continue;
                }
                let s = weight.len();
                weight.push(seg.weight);
                for &v in &seg.prefix {
                    if let Some(vi) = node_pos[v.index()] {
                        covers[vi * ground.n_items + seg.item].push(s);
                    }
                }
            }
            let covered = vec![false; weight.len()];
            CoverOracle {
                weight,
                covers,
                covered,
                value: 0.0,
            }
        }

        pub fn greedy_rnr(inst: &Instance) -> (DenseGround, GreedyResult) {
            let ground = DenseGround::new(inst);
            let mut oracle = FullScanRnr::new(inst, &ground);
            let result = lazy_greedy(&mut oracle, &mut ground.knapsack(inst));
            (ground, result)
        }

        pub fn greedy_given_routing(
            inst: &Instance,
            routing: &Routing,
        ) -> (DenseGround, GreedyResult) {
            let ground = DenseGround::new(inst);
            let mut oracle = dense_cover(inst, &ground, routing);
            let result = lazy_greedy(&mut oracle, &mut ground.knapsack(inst));
            (ground, result)
        }
    }

    /// A seeded instance on a 30-node custom topology with a 400-item
    /// catalog of mixed sizes, few of them requested. `island` adds a
    /// two-node component `{a, b}` the origin cannot reach: `a` caches,
    /// `b` requests. `ties` uses integer costs and rates so many marginal
    /// gains tie and the tie-break order is exercised.
    fn sparse_inst(seed: u64, island: bool, origin: bool, ties: bool) -> Instance {
        const N_ITEMS: usize = 400;
        let topo = Topology::generate_custom(30, 45, 6, seed).unwrap();
        let mut graph = topo.graph.clone();
        let mut cost: Vec<f64> = if ties {
            topo.cost.iter().map(|c| c.round().max(1.0)).collect()
        } else {
            topo.cost.clone()
        };
        let mut cache_cap = vec![0.0; graph.node_count()];
        for &v in &topo.edge_nodes {
            cache_cap[v.index()] = 5.0;
        }
        let mut requesters = topo.edge_nodes.clone();
        let mut rng = StdRng::seed_from_u64(seed);
        let item_size: Vec<f64> = (0..N_ITEMS)
            .map(|_| if ties { 1.0 } else { rng.gen_range(1.0..4.0) })
            .collect();
        let draw = |rng: &mut StdRng, node: NodeId| Request {
            // A popular head plus a sparse tail across the whole catalog.
            item: if rng.gen_bool(0.5) {
                rng.gen_range(0..8usize)
            } else {
                rng.gen_range(0..N_ITEMS)
            },
            node,
            rate: if ties {
                rng.gen_range(1..4usize) as f64
            } else {
                rng.gen_range(0.5..20.0)
            },
        };
        let mut requests: Vec<Request> = (0..60)
            .map(|_| {
                let node = requesters[rng.gen_range(0..requesters.len())];
                draw(&mut rng, node)
            })
            .collect();
        if island {
            let nodes = graph.add_nodes(2);
            graph.add_edge(nodes[0], nodes[1]);
            cost.push(2.0);
            graph.add_edge(nodes[1], nodes[0]);
            cost.push(2.0);
            cache_cap.extend([5.0, 0.0]);
            requesters.push(nodes[1]);
            requests.extend((0..6).map(|_| draw(&mut rng, nodes[1])));
        }
        let edges = graph.edge_count();
        Instance::new(
            graph,
            cost,
            vec![f64::INFINITY; edges],
            cache_cap,
            item_size,
            requests,
            origin.then_some(topo.origin),
        )
        .unwrap()
    }

    /// Runs both greedy objectives through the sparse implementation and
    /// the full-scan reference and requires the same picks in the same
    /// order with a bit-identical objective value. Returns whether the
    /// routing-based objective ran (it needs a feasible RNR routing).
    fn assert_matches_reference(inst: &Instance, label: &str) -> bool {
        let (ground, fast) = greedy_rnr(inst);
        let (dense, slow) = reference::greedy_rnr(inst);
        let picks = |r: &GreedyResult, decode: &dyn Fn(usize) -> (NodeId, usize)| {
            r.selected.iter().map(|&e| decode(e)).collect::<Vec<_>>()
        };
        assert_eq!(
            picks(&fast, &|e| ground.decode(e)),
            picks(&slow, &|e| dense.decode(e)),
            "{label}: RNR picks differ"
        );
        assert_eq!(
            fast.value.to_bits(),
            slow.value.to_bits(),
            "{label}: RNR value {} vs {}",
            fast.value,
            slow.value
        );
        assert!(!fast.selected.is_empty(), "{label}: nothing placed");

        // Route on a half-greedy placement so segments cover caches too.
        let mut seed_placement = Placement::empty(inst);
        for &e in fast.selected.iter().step_by(2) {
            let (v, i) = ground.decode(e);
            seed_placement.set(v, i, true);
        }
        let Some(routing) = rnr::route_to_nearest_replica(inst, &seed_placement) else {
            return false;
        };
        let (ground, fast) = greedy_given_routing(inst, &routing);
        let (dense, slow) = reference::greedy_given_routing(inst, &routing);
        assert_eq!(
            picks(&fast, &|e| ground.decode(e)),
            picks(&slow, &|e| dense.decode(e)),
            "{label}: routing-greedy picks differ"
        );
        assert_eq!(
            fast.value.to_bits(),
            slow.value.to_bits(),
            "{label}: routing-greedy value {} vs {}",
            fast.value,
            slow.value
        );
        true
    }

    #[test]
    fn sparse_greedy_matches_full_scan_reference() {
        let mut routed = 0;
        for seed in 0..6u64 {
            let mut cases = vec![(format!("file-level {seed}"), file_level_inst(40 + seed))];
            for (island, origin, ties) in [
                (false, true, false),
                (false, true, true),
                (true, true, false),
                (true, false, true),
                (false, false, false),
            ] {
                cases.push((
                    format!("sparse {seed} island={island} origin={origin} ties={ties}"),
                    sparse_inst(seed, island, origin, ties),
                ));
            }
            for (label, inst) in cases {
                assert!(inst.all_pairs().oracle().is_dense(), "{label}");
                let on_demand = inst.clone().with_oracle_dense_max(0);
                assert!(!on_demand.all_pairs().oracle().is_dense(), "{label}");
                routed += usize::from(assert_matches_reference(&inst, &label));
                routed += usize::from(assert_matches_reference(
                    &on_demand,
                    &format!("{label} on-demand"),
                ));
            }
        }
        assert!(
            routed >= 24,
            "only {routed} cases exercised the routing greedy"
        );
    }

    #[test]
    fn rnr_gains_match_full_scan_bit_for_bit() {
        // Every marginal gain, not just the greedy's picks: a change in
        // summation order shifts gains by an ulp long before it flips a
        // pick.
        for seed in 0..4u64 {
            for inst in [
                file_level_inst(50 + seed),
                sparse_inst(seed, true, true, false),
                sparse_inst(seed, false, false, false),
            ] {
                let ground = Ground::new(&inst);
                let dense = reference::DenseGround::new(&inst);
                let mut fast = RnrOracle::new(&inst, &ground);
                let mut slow = reference::FullScanRnr::new(&inst, &dense);
                let n_items = inst.num_items();
                let to_dense = |e: usize| {
                    let (vi, j) = ground.split(e);
                    vi * n_items + ground.items[j]
                };
                let (_, picks) = greedy_rnr(&inst);
                for step in 0..=picks.selected.len() {
                    for e in 0..ground.size() {
                        assert_eq!(
                            fast.gain(e).to_bits(),
                            slow.gain(to_dense(e)).to_bits(),
                            "seed {seed} step {step} element {e}"
                        );
                    }
                    assert_eq!(fast.value().to_bits(), slow.value().to_bits());
                    if let Some(&e) = picks.selected.get(step) {
                        fast.insert(e);
                        slow.insert(to_dense(e));
                    }
                }
            }
        }
    }

    #[test]
    fn w_max_is_read_only_for_requesters_the_origin_cannot_reach() {
        // Every requester reachable: no |V|-row max_cost sweep, only the
        // origin row and one row per cache node.
        let inst = sparse_inst(3, false, true, false).with_oracle_dense_max(0);
        greedy_placement_rnr(&inst);
        let rows = inst.all_pairs().oracle().rows_computed();
        assert_eq!(rows, 1 + inst.cache_nodes().len() as u64);

        // The island's requester forces `w_max`, hence the sweep.
        let inst = sparse_inst(3, true, true, false).with_oracle_dense_max(0);
        greedy_placement_rnr(&inst);
        let n = inst.graph.node_count() as u64;
        let rows = inst.all_pairs().oracle().rows_computed();
        assert_eq!(rows, 1 + inst.cache_nodes().len() as u64 + n);
    }
}
