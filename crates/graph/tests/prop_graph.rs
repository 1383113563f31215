//! Property-based tests for the dynamic graph substrate.
//!
//! These exercise the core invariants of [`churn_graph::DynamicGraph`] under
//! arbitrary interleavings of joins, leaves and rewirings — exactly the kind of
//! operation sequences the churn models generate — plus structural identities of
//! snapshots, traversal and expansion.
//!
//! Out-degrees range past the widest inline record (32 out-slots) and a
//! hub-biased rewire piles in-references onto the oldest alive node, so both
//! adjacency lists overflow their inline capacity into the side store, and
//! hub deaths recycle its entries.

use std::collections::{BTreeMap, HashSet};

use churn_graph::expansion::{
    exact_isoperimetric, expansion_of, outer_boundary, ExpansionConfig, ExpansionEstimator,
};
use churn_graph::traversal::{bfs_distances, connected_components};
use churn_graph::{DynamicGraph, NodeId, Snapshot};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A random mutation applied to the graph under test.
#[derive(Debug, Clone)]
enum Op {
    Add {
        out_degree: usize,
    },
    Remove {
        victim: usize,
    },
    Rewire {
        owner: usize,
        slot: usize,
        target: usize,
    },
    /// A rewire whose target is the oldest alive node.
    RewireToHub {
        owner: usize,
        slot: usize,
    },
    Clear {
        owner: usize,
        slot: usize,
    },
    /// Severs the oldest in-reference of a node.
    Shed {
        victim: usize,
    },
}

/// Out-degrees and slot picks reach past the widest inline out-slot record.
const MAX_OUT: usize = 40;

fn op_strategy() -> impl Strategy<Value = Op> {
    let add = || {
        // Mostly small degrees, so the first node usually fixes a narrow
        // record (few inline in-references) and wide nodes overflow it.
        prop_oneof![Just(0usize), 0usize..4, 0usize..MAX_OUT]
            .prop_map(|out_degree| Op::Add { out_degree })
    };
    let hub_rewire =
        || (0usize..64, 0usize..MAX_OUT).prop_map(|(owner, slot)| Op::RewireToHub { owner, slot });
    // Adds and hub rewires are listed repeatedly: the population grows and
    // the oldest node collects more in-references than any inline record
    // holds.
    prop_oneof![
        add(),
        add(),
        (0usize..64).prop_map(|victim| Op::Remove { victim }),
        (0usize..64, 0usize..MAX_OUT, 0usize..64).prop_map(|(owner, slot, target)| Op::Rewire {
            owner,
            slot,
            target
        }),
        hub_rewire(),
        hub_rewire(),
        hub_rewire(),
        hub_rewire(),
        (0usize..64, 0usize..MAX_OUT).prop_map(|(owner, slot)| Op::Clear { owner, slot }),
        // Half the sheds hit the hub.
        prop_oneof![Just(0usize), 0usize..64].prop_map(|victim| Op::Shed { victim }),
    ]
}

/// Resolves an op against the alive list (oldest first) to a concrete
/// mutation, or `None` when it does not apply to the current graph.
fn resolve(op: &Op, g: &DynamicGraph, alive: &[NodeId]) -> Option<Mutation> {
    let slot_of = |owner: NodeId, slot: usize| {
        let slots = g.out_slot_count(owner).unwrap_or(0);
        (slots > 0).then(|| slot % slots)
    };
    let pick = |i: usize| alive[i % alive.len()];
    match *op {
        Op::Add { out_degree } => Some(Mutation::Add(out_degree)),
        Op::Remove { victim } => {
            (!alive.is_empty()).then(|| Mutation::Remove(victim % alive.len()))
        }
        Op::Rewire {
            owner,
            slot,
            target,
        } => {
            if alive.len() < 2 {
                return None;
            }
            let (o, t) = (pick(owner), pick(target));
            (o != t).then_some(())?;
            Some(Mutation::Set(o, slot_of(o, slot)?, t))
        }
        Op::RewireToHub { owner, slot } => {
            if alive.len() < 2 {
                return None;
            }
            let (o, t) = (pick(owner), alive[0]);
            (o != t).then_some(())?;
            Some(Mutation::Set(o, slot_of(o, slot)?, t))
        }
        Op::Clear { owner, slot } => {
            if alive.is_empty() {
                return None;
            }
            let o = pick(owner);
            Some(Mutation::Clear(o, slot_of(o, slot)?))
        }
        Op::Shed { victim } => (!alive.is_empty()).then(|| Mutation::Shed(pick(victim))),
    }
}

/// A concrete, valid graph mutation.
enum Mutation {
    Add(usize),
    /// Position in the alive list.
    Remove(usize),
    Set(NodeId, usize, NodeId),
    Clear(NodeId, usize),
    Shed(NodeId),
}

/// Applies a sequence of operations, ignoring rejected ones (the point is the
/// invariant check, not that every random op is valid).
fn apply_ops(ops: &[Op]) -> DynamicGraph {
    mirror_ops(ops).0
}

/// An obviously-correct identifier-keyed mirror of the out-slot semantics,
/// used to cross-check the slab implementation (including index recycling).
///
/// It also mirrors the documented *order* of each in-reference multiset:
/// a new link appends its owner, a dropped link swap-removes the owner's
/// first entry (the last entry takes its place), and shedding removes the
/// front entry keeping the rest in order.
#[derive(Debug, Default)]
struct NaiveGraph {
    nodes: BTreeMap<NodeId, Vec<Option<NodeId>>>,
    in_order: BTreeMap<NodeId, Vec<NodeId>>,
}

impl NaiveGraph {
    fn add(&mut self, id: NodeId, out_degree: usize) {
        self.nodes.insert(id, vec![None; out_degree]);
        self.in_order.insert(id, Vec::new());
    }

    fn drop_in_ref(&mut self, target: NodeId, owner: NodeId) {
        let refs = self.in_order.get_mut(&target).unwrap();
        let pos = refs.iter().position(|&o| o == owner).unwrap();
        refs.swap_remove(pos);
    }

    fn set(&mut self, owner: NodeId, slot: usize, target: NodeId) {
        let prev = self.nodes.get_mut(&owner).unwrap()[slot].replace(target);
        if prev != Some(target) {
            if let Some(prev) = prev {
                self.drop_in_ref(prev, owner);
            }
            self.in_order.get_mut(&target).unwrap().push(owner);
        }
    }

    fn clear(&mut self, owner: NodeId, slot: usize) {
        if let Some(prev) = self.nodes.get_mut(&owner).unwrap()[slot].take() {
            self.drop_in_ref(prev, owner);
        }
    }

    /// Severs the front in-reference of `id`: the owner's first slot
    /// pointing at `id` is cleared.
    fn shed(&mut self, id: NodeId) {
        let refs = self.in_order.get_mut(&id).unwrap();
        if refs.is_empty() {
            return;
        }
        let owner = refs.remove(0);
        let slots = self.nodes.get_mut(&owner).unwrap();
        let slot = slots.iter().position(|&t| t == Some(id)).unwrap();
        slots[slot] = None;
    }

    fn remove(&mut self, id: NodeId) {
        let slots = self.nodes.remove(&id).unwrap();
        for target in slots.into_iter().flatten() {
            self.drop_in_ref(target, id);
        }
        self.in_order.remove(&id);
        for slots in self.nodes.values_mut() {
            for slot in slots.iter_mut() {
                if *slot == Some(id) {
                    *slot = None;
                }
            }
        }
    }

    /// Neighbours in the graph's iteration order: connected out-slots in
    /// slot order, then in-reference owners in multiset order.
    fn neighbor_order(&self, id: NodeId) -> Vec<NodeId> {
        let mut out: Vec<NodeId> = self.nodes[&id].iter().flatten().copied().collect();
        out.extend(&self.in_order[&id]);
        out
    }

    fn sorted_ids(&self) -> Vec<NodeId> {
        self.nodes.keys().copied().collect()
    }

    fn out_slots(&self, id: NodeId) -> Vec<Option<NodeId>> {
        self.nodes[&id].clone()
    }

    fn filled_slot_count(&self) -> usize {
        self.nodes
            .values()
            .map(|slots| slots.iter().flatten().count())
            .sum()
    }

    fn neighbors(&self, id: NodeId) -> Vec<NodeId> {
        let mut out: Vec<NodeId> = self.nodes[&id].iter().flatten().copied().collect();
        for (&other, slots) in &self.nodes {
            if slots.iter().flatten().any(|&t| t == id) {
                out.push(other);
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    fn in_request_count(&self, id: NodeId) -> usize {
        self.nodes
            .values()
            .map(|slots| slots.iter().flatten().filter(|&&t| t == id).count())
            .sum()
    }

    fn is_isolated(&self, id: NodeId) -> bool {
        self.neighbors(id).is_empty()
    }

    fn distinct_edge_count(&self) -> usize {
        let mut edges: HashSet<(NodeId, NodeId)> = HashSet::new();
        for (&u, slots) in &self.nodes {
            for &v in slots.iter().flatten() {
                edges.insert(if u <= v { (u, v) } else { (v, u) });
            }
        }
        edges.len()
    }
}

/// Applies `ops` to a graph and to the naive reference in lockstep,
/// checking the graph's invariants and every removal's dangling report after
/// each step. Returns both plus the peak alive population.
fn mirror_ops(ops: &[Op]) -> (DynamicGraph, NaiveGraph, usize) {
    let mut g = DynamicGraph::new();
    let mut reference = NaiveGraph::default();
    let mut alive: Vec<NodeId> = Vec::new();
    let mut next_id = 0u64;
    let mut peak_alive = 0usize;
    for op in ops {
        match resolve(op, &g, &alive) {
            None => {}
            Some(Mutation::Add(out_degree)) => {
                let id = NodeId::new(next_id);
                next_id += 1;
                g.add_node(id, out_degree).expect("fresh id");
                reference.add(id, out_degree);
                alive.push(id);
                peak_alive = peak_alive.max(alive.len());
            }
            Some(Mutation::Remove(pos)) => {
                let id = alive.remove(pos);
                let removed = g.remove_node(id).expect("alive node");
                reference.remove(id);
                // The dense dangling view names the same slots.
                assert_eq!(removed.dangling_dense.len(), removed.dangling_slots.len());
                for (edge_slot, &(owner_idx, slot)) in
                    removed.dangling_slots.iter().zip(&removed.dangling_dense)
                {
                    assert_eq!(g.id_at(owner_idx), Some(edge_slot.owner));
                    assert_eq!(edge_slot.slot, slot);
                }
            }
            Some(Mutation::Set(o, slot, t)) => {
                g.set_out_slot(o, slot, t).expect("valid rewire");
                reference.set(o, slot, t);
            }
            Some(Mutation::Clear(o, slot)) => {
                g.clear_out_slot(o, slot).expect("valid clear");
                reference.clear(o, slot);
            }
            Some(Mutation::Shed(v)) => {
                g.shed_oldest_in_ref(g.dense_index_of(v).unwrap());
                reference.shed(v);
            }
        }
        g.assert_invariants();
    }
    (g, reference, peak_alive)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// After any sequence of operations, the internal bookkeeping (in-reference
    /// multisets, filled-slot counter, absence of dangling references) stays
    /// consistent.
    #[test]
    fn graph_invariants_hold_under_arbitrary_churn(ops in proptest::collection::vec(op_strategy(), 0..200)) {
        let g = apply_ops(&ops);
        g.assert_invariants();
    }

    /// Adjacency is symmetric: `has_edge(u, v) == has_edge(v, u)` for all pairs.
    #[test]
    fn adjacency_is_symmetric(ops in proptest::collection::vec(op_strategy(), 0..120)) {
        let g = apply_ops(&ops);
        let ids = g.sorted_node_ids();
        for &u in &ids {
            for &v in &ids {
                prop_assert_eq!(g.has_edge(u, v), g.has_edge(v, u));
            }
        }
    }

    /// A snapshot faithfully reflects the graph: same node set, symmetric
    /// deduplicated adjacency, degrees matching the graph's distinct-neighbour
    /// counts.
    #[test]
    fn snapshot_matches_graph(ops in proptest::collection::vec(op_strategy(), 0..150)) {
        let g = apply_ops(&ops);
        let snap = Snapshot::of(&g);
        prop_assert_eq!(snap.len(), g.len());
        prop_assert_eq!(snap.edge_count(), g.distinct_edge_count());
        for &id in snap.ids() {
            prop_assert_eq!(snap.degree(id), g.degree(id));
            let from_snap: HashSet<NodeId> = snap.neighbors(id).unwrap().into_iter().collect();
            let from_graph: HashSet<NodeId> = g.neighbors(id).unwrap().into_iter().collect();
            prop_assert_eq!(from_snap, from_graph);
        }
    }

    /// The sum of component sizes equals the node count, and BFS from any node
    /// reaches exactly its component.
    #[test]
    fn components_partition_nodes(ops in proptest::collection::vec(op_strategy(), 0..150)) {
        let g = apply_ops(&ops);
        let snap = Snapshot::of(&g);
        let comps = connected_components(&snap);
        prop_assert_eq!(comps.sizes.iter().sum::<usize>(), snap.len());
        if !snap.is_empty() {
            let dist = bfs_distances(&snap, 0);
            let reached = dist.iter().filter(|d| d.is_some()).count();
            prop_assert_eq!(reached, comps.sizes[comps.component[0]]);
        }
    }

    /// The outer boundary is disjoint from the set and every boundary node has a
    /// neighbour inside the set.
    #[test]
    fn outer_boundary_is_sound(
        ops in proptest::collection::vec(op_strategy(), 0..120),
        picks in proptest::collection::vec(0usize..64, 1..16),
    ) {
        let g = apply_ops(&ops);
        let snap = Snapshot::of(&g);
        if snap.is_empty() {
            return Ok(());
        }
        let set: Vec<usize> = picks.iter().map(|p| p % snap.len()).collect();
        let members: HashSet<usize> = set.iter().copied().collect();
        let boundary = outer_boundary(&snap, &set);
        for &b in &boundary {
            prop_assert!(!members.contains(&b), "boundary node inside the set");
            let has_inside_neighbor = snap.neighbors_of(b).iter().any(|j| members.contains(j));
            prop_assert!(has_inside_neighbor, "boundary node without inside neighbour");
        }
        // Ratio is consistent with the raw boundary size.
        let ratio = expansion_of(&snap, &set).unwrap();
        prop_assert!((ratio - boundary.len() as f64 / members.len() as f64).abs() < 1e-12);
    }

    /// The slab graph agrees with a naive identifier-keyed reference under
    /// arbitrary add/remove/rewire/clear/shed interleavings — including after
    /// slab cells have been vacated and recycled for new nodes, which is where
    /// a stale dense index or unrecycled in-reference would show up.
    #[test]
    fn slab_recycling_matches_naive_reference(ops in proptest::collection::vec(op_strategy(), 0..200)) {
        let (g, reference, peak_alive) = mirror_ops(&ops);

        // Recycling really happened: the arena never outgrows the peak
        // concurrent population, no matter how many nodes ever existed.
        prop_assert!(g.slab_len() <= peak_alive.max(1) || g.slab_len() == 0,
            "slab length {} exceeds peak alive population {}", g.slab_len(), peak_alive);

        // Full structural agreement with the reference.
        prop_assert_eq!(g.sorted_node_ids(), reference.sorted_ids());
        prop_assert_eq!(g.filled_slot_count(), reference.filled_slot_count());
        prop_assert_eq!(g.distinct_edge_count(), reference.distinct_edge_count());
        for &id in &reference.sorted_ids() {
            prop_assert_eq!(g.out_slots(id).unwrap(), reference.out_slots(id));
            prop_assert_eq!(g.neighbors(id).unwrap(), reference.neighbors(id));
            prop_assert_eq!(g.degree(id).unwrap(), reference.neighbors(id).len());
            prop_assert_eq!(g.in_request_count(id).unwrap(), reference.in_request_count(id));
            prop_assert_eq!(g.is_isolated(id).unwrap(), reference.is_isolated(id));
        }
        let snap = Snapshot::of(&g);
        prop_assert_eq!(snap.len(), reference.sorted_ids().len());
        prop_assert_eq!(snap.edge_count(), reference.distinct_edge_count());
    }

    /// `neighbor_indices_at` walks exactly the documented order — connected
    /// out-slots in slot order, then in-reference owners in multiset order —
    /// whether the lists sit inline or overflow into the side store.
    #[test]
    fn neighbor_iteration_follows_slot_then_multiset_order(
        ops in proptest::collection::vec(op_strategy(), 0..200),
    ) {
        let (g, reference, _) = mirror_ops(&ops);
        for id in reference.sorted_ids() {
            let idx = g.dense_index_of(id).unwrap();
            let order: Vec<NodeId> =
                g.neighbor_indices_at(idx).map(|i| g.id_at(i).unwrap()).collect();
            prop_assert_eq!(order, reference.neighbor_order(id));
        }
    }

    /// On small graphs, the candidate-set estimator never reports a value below
    /// the exact isoperimetric number (it is an upper bound), and with the
    /// default configuration it finds the exact optimum often enough that it
    /// never exceeds it by more than a factor accounted for by candidate-family
    /// coverage on graphs with <= 10 nodes.
    #[test]
    fn estimator_upper_bounds_exact_h_out(
        ops in proptest::collection::vec(op_strategy(), 0..40),
        seed in any::<u64>(),
    ) {
        let g = apply_ops(&ops);
        let snap = Snapshot::of(&g);
        if snap.len() < 2 || snap.len() > 10 {
            return Ok(());
        }
        let exact = exact_isoperimetric(&snap).expect("small graph");
        let mut rng = StdRng::seed_from_u64(seed);
        let est = ExpansionEstimator::new(ExpansionConfig::default())
            .estimate(&snap, 1, snap.len() / 2, &mut rng);
        let value = est.value().expect("non-empty graph yields candidates");
        prop_assert!(value >= exact.value - 1e-9,
            "estimator {} must not undercut exact {}", value, exact.value);
    }
}
