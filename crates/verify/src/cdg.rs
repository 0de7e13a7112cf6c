//! The channel-dependency graph and its cycle detector.
//!
//! Dally & Seitz: a deterministic routing function is deadlock-free iff
//! the *channel-dependency graph* — vertices are `(link, vc)` channels,
//! with an edge A → B whenever some packet can hold A while requesting
//! B — is acyclic. The route walk adds one edge per routing hop that
//! holds a channel; cycles are found with an iterative Tarjan SCC pass
//! (the graph can have tens of thousands of vertices, so the recursive
//! formulation would risk stack overflow) and reported as concrete
//! witnesses: the channels on the cycle plus one inducing route per edge.

use crate::report::{CdgStats, Channel, RouteId};
use crate::TraceStep;
use ruche_noc::prelude::*;
use std::collections::VecDeque;

/// Router ports per node in the dense layout: every [`Dir`], whether or
/// not the topology has it.
const PORTS: usize = Dir::ALL.len();

/// Dense index of `(at, port, vc)`. VC-major, unlike the simulator's
/// `(node * ports + port) * max_vcs + vc` slots: a VC index beyond the
/// configuration's count (which an injected routing function may request)
/// only appends to a table indexed this way, instead of re-laying it out.
pub(crate) fn dense(dims: Dims, at: Coord, port: Dir, vc: u8) -> usize {
    (usize::from(vc) * dims.count() + dims.index(at)) * PORTS + port as usize
}

/// One dependency edge: the channel requested, and the first route (by
/// enumeration index) that requests it while holding the edge's source.
#[derive(Debug, Clone, Copy)]
struct Dep {
    to: u32,
    first: usize,
    route: RouteId,
}

/// One dependency cycle: its channels in order, and for each the route
/// that holds it while requesting the next.
pub(crate) type Cycle = (Vec<Channel>, Vec<RouteId>);

/// Channel-dependency graph under construction, over the dense channel
/// indices of [`dense`].
#[derive(Debug)]
pub(crate) struct Cdg {
    dims: Dims,
    /// Whether a route drives the channel.
    used: Vec<bool>,
    /// Adjacency: `deps[a]` = channels requested while holding `a`.
    deps: Vec<Vec<Dep>>,
    channels: usize,
    edges: usize,
}

impl Cdg {
    pub(crate) fn new(dims: Dims) -> Self {
        Cdg {
            dims,
            used: Vec::new(),
            deps: Vec::new(),
            channels: 0,
            edges: 0,
        }
    }

    /// Marks the channel `at -out-> vc` as driven and returns its index.
    pub(crate) fn channel(&mut self, at: Coord, out: Dir, vc: u8) -> u32 {
        let id = dense(self.dims, at, out, vc);
        if id >= self.used.len() {
            let len = (usize::from(vc) + 1) * self.dims.count() * PORTS;
            self.used.resize(len, false);
            self.deps.resize_with(len, Vec::new);
        }
        if !self.used[id] {
            self.used[id] = true;
            self.channels += 1;
        }
        id as u32
    }

    /// Records that route number `index` (`route`) holds `held` while
    /// requesting `next`. Each edge keeps the smallest such index, so its
    /// witness does not depend on the order routes are walked in.
    pub(crate) fn depend(&mut self, held: u32, next: u32, index: usize, route: RouteId) {
        let deps = &mut self.deps[held as usize];
        match deps.iter_mut().find(|d| d.to == next) {
            Some(dep) if index < dep.first => {
                dep.first = index;
                dep.route = route;
            }
            Some(_) => {}
            None => {
                deps.push(Dep {
                    to: next,
                    first: index,
                    route,
                });
                self.edges += 1;
            }
        }
    }

    /// Replays one traced route, number `index`, into the graph. Steps
    /// whose output has no link behind it (ejection at P, exits into edge
    /// endpoints) do not form channels: a packet never holds them while
    /// waiting.
    pub(crate) fn add_trace(
        &mut self,
        cfg: &NetworkConfig,
        index: usize,
        route: RouteId,
        steps: &[TraceStep],
    ) {
        let mut held: Option<u32> = None;
        for step in steps {
            if cfg.neighbor(step.here, step.out).is_none() {
                held = None;
                continue;
            }
            let id = self.channel(step.here, step.out, step.out_vc);
            if let Some(h) = held {
                self.depend(h, id, index, route);
            }
            held = Some(id);
        }
    }

    /// The graph's statistics for `routes` enumerated routes, and one
    /// witness cycle per non-trivial SCC (and per self-loop), from a
    /// single Tarjan pass.
    pub(crate) fn finish(&self, routes: usize) -> (CdgStats, Vec<Cycle>) {
        let (largest_scc, cyclic) = self.cyclic_sccs();
        let stats = CdgStats {
            channels: self.channels,
            dependencies: self.edges,
            routes,
            largest_scc,
        };
        let cycles = cyclic.iter().map(|scc| self.extract_cycle(scc)).collect();
        (stats, cycles)
    }

    /// Iterative Tarjan over the driven channels: the size of the largest
    /// SCC (0 on an empty graph, 1 on an acyclic one) and every SCC that
    /// holds a cycle, in completion order.
    fn cyclic_sccs(&self) -> (usize, Vec<Vec<u32>>) {
        const UNVISITED: u32 = u32::MAX;
        let n = self.used.len();
        let mut index = vec![UNVISITED; n];
        let mut low = vec![0u32; n];
        let mut on_stack = vec![false; n];
        let mut stack: Vec<u32> = Vec::new();
        let mut next_index = 0u32;
        let mut largest = 0usize;
        let mut cyclic = Vec::new();
        // Explicit DFS frames: (vertex, next child position).
        let mut call: Vec<(u32, usize)> = Vec::new();
        for root in 0..n as u32 {
            if !self.used[root as usize] || index[root as usize] != UNVISITED {
                continue;
            }
            call.push((root, 0));
            while let Some(&(v, child)) = call.last() {
                let vu = v as usize;
                if child == 0 {
                    index[vu] = next_index;
                    low[vu] = next_index;
                    next_index += 1;
                    stack.push(v);
                    on_stack[vu] = true;
                }
                if child < self.deps[vu].len() {
                    call.last_mut().expect("frame").1 += 1;
                    let wu = self.deps[vu][child].to as usize;
                    if index[wu] == UNVISITED {
                        call.push((wu as u32, 0));
                    } else if on_stack[wu] {
                        low[vu] = low[vu].min(index[wu]);
                    }
                } else {
                    call.pop();
                    if let Some(&(parent, _)) = call.last() {
                        let pu = parent as usize;
                        low[pu] = low[pu].min(low[vu]);
                    }
                    if low[vu] == index[vu] {
                        let at = stack.iter().rposition(|&w| w == v).expect("scc root");
                        let comp = stack.split_off(at);
                        for &w in &comp {
                            on_stack[w as usize] = false;
                        }
                        largest = largest.max(comp.len());
                        if comp.len() > 1 || self.deps[vu].iter().any(|d| d.to == v) {
                            cyclic.push(comp);
                        }
                    }
                }
            }
        }
        (largest, cyclic)
    }

    /// The channel behind dense index `id`.
    fn channel_at(&self, id: u32) -> Channel {
        let id = id as usize;
        let per_vc = self.dims.count() * PORTS;
        let (vc, rest) = (id / per_vc, id % per_vc);
        Channel {
            from: self.dims.coord(rest / PORTS),
            out: Dir::ALL[rest % PORTS],
            vc: vc as u8,
        }
    }

    /// Shortest cycle through the smallest-id vertex of `scc`, found by
    /// BFS restricted to the component.
    fn extract_cycle(&self, scc: &[u32]) -> Cycle {
        const NONE: u32 = u32::MAX;
        let mut member = vec![false; self.used.len()];
        for &v in scc {
            member[v as usize] = true;
        }
        let start = *scc.iter().min().expect("non-empty scc");
        let mut pred = vec![NONE; self.used.len()];
        let mut queue = VecDeque::from([start]);
        while let Some(v) = queue.pop_front() {
            for dep in &self.deps[v as usize] {
                let w = dep.to;
                if !member[w as usize] {
                    continue;
                }
                if w == start {
                    // Close the cycle: start ⇝ v, then the edge v → start.
                    let mut nodes = vec![v];
                    let mut cur = v;
                    while cur != start {
                        cur = pred[cur as usize];
                        nodes.push(cur);
                    }
                    nodes.reverse();
                    let channels = nodes.iter().map(|&u| self.channel_at(u)).collect();
                    let routes = (0..nodes.len())
                        .map(|i| {
                            let (a, b) = (nodes[i], nodes[(i + 1) % nodes.len()]);
                            let edge = self.deps[a as usize].iter().find(|d| d.to == b);
                            edge.expect("cycle edge").route
                        })
                        .collect();
                    return (channels, routes);
                }
                if pred[w as usize] == NONE {
                    pred[w as usize] = v;
                    queue.push_back(w);
                }
            }
        }
        unreachable!("SCC flagged cyclic but no cycle through its root")
    }
}
