//! Role-hierarchy closure: SCCs, transitive closure, longest chain.
//!
//! Footnote 3 of the paper deliberately does *not* assume `RH` is a partial
//! order, so the hierarchy may contain cycles. We compute strongly connected
//! components (iterative Tarjan) and fill each SCC's closure row as Tarjan
//! emits it, sinks first, by one recurrence: an SCC reaches its members and
//! everything their successors' SCCs reach. The longest chain of `RH`
//! (needed for the Remark 2 enumeration bound) is read off the rows on
//! demand.
//!
//! Closure rows are stored once per SCC behind an [`Arc`], so cloning a
//! closure is `O(|SCC|)` reference bumps and the incremental maintenance
//! entry points ([`add_edge_incremental`](RoleClosure::add_edge_incremental),
//! [`remove_edge_incremental`](RoleClosure::remove_edge_incremental))
//! copy-on-write only the rows an edge delta actually changes — the
//! substrate of the snapshot publisher's delta path. A removal re-runs
//! `build`'s recurrence over the rows that reached the edge's source, so
//! it never costs more than `build`'s own row pass.

use std::sync::Arc;

use crate::bitset::BitSet;

/// Whether an incremental closure update applied, or the structure
/// changed in a way that needs a from-scratch rebuild.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ClosureDelta {
    /// The delta was applied in place; the closure is exact.
    Applied,
    /// The delta would merge or split SCCs (a cycle formed or an
    /// intra-SCC edge vanished); the caller must rebuild with
    /// [`RoleClosure::build`].
    Rebuild,
}

/// Transitive-closure index over a role graph with `n` roles.
///
/// Closure rows are stored once per SCC and shared by its members (and,
/// via [`Arc`], across snapshot epochs).
#[derive(Debug, Clone)]
pub struct RoleClosure {
    n: usize,
    /// SCC id of each role. `build` emits SCC ids in reverse topological
    /// order (sinks have low ids); incremental edge additions may relax
    /// that ordering, so maintenance code never relies on it. Behind an
    /// `Arc` because the partition only ever changes on a full rebuild —
    /// delta-derived closures share it with their parent outright.
    scc_of: Arc<Vec<u32>>,
    /// Closure row per SCC: all roles reachable from (any member of) the
    /// SCC, members included. The outer `Arc` makes cloning free for
    /// batches with no role-edge deltas; the inner `Arc`s share
    /// individual untouched rows across epochs when a delta does copy
    /// the table.
    rows: Arc<Vec<Arc<BitSet>>>,
}

/// The row recurrence `build` and removal share: SCC `s`'s closure row is
/// its `members` plus the row of every other SCC a member's successor lies
/// in. Those rows must already be final in `rows`.
fn fill_row<I: IntoIterator<Item = u32>>(
    scc_of: &[u32],
    rows: &[Arc<BitSet>],
    s: u32,
    members: impl IntoIterator<Item = u32>,
    succ: impl Fn(u32) -> I,
) -> BitSet {
    let mut row = BitSet::new(scc_of.len());
    for v in members {
        row.insert(v as usize);
        for w in succ(v) {
            let t = scc_of[w as usize];
            // A successor already in the row brought its own row with it.
            if t != s && !row.contains(w as usize) {
                row.union_with(&rows[t as usize]);
            }
        }
    }
    row
}

impl RoleClosure {
    /// Builds the closure from an edge list over roles `0..n`.
    pub fn build(n: usize, edges: impl IntoIterator<Item = (u32, u32)>) -> Self {
        let edges: Vec<(u32, u32)> = edges.into_iter().collect();
        // Adjacency in CSR form for cache-friendly traversal.
        let mut degree = vec![0u32; n];
        for &(s, _) in &edges {
            degree[s as usize] += 1;
        }
        let mut offsets = vec![0u32; n + 1];
        for i in 0..n {
            offsets[i + 1] = offsets[i] + degree[i];
        }
        let mut adj = vec![0u32; offsets[n] as usize];
        let mut cursor = offsets.clone();
        for (s, t) in edges {
            adj[cursor[s as usize] as usize] = t;
            cursor[s as usize] += 1;
        }
        let succ = |v: u32| &adj[offsets[v as usize] as usize..offsets[v as usize + 1] as usize];

        // Iterative Tarjan. SCCs are emitted sinks-first (reverse
        // topological order of the condensation), so every SCC a member's
        // successor lies in already has its final row when the SCC pops.
        const UNVISITED: u32 = u32::MAX;
        let mut index = vec![UNVISITED; n];
        let mut lowlink = vec![0u32; n];
        let mut on_stack = vec![false; n];
        let mut scc_of = vec![0u32; n];
        let mut rows: Vec<Arc<BitSet>> = Vec::new();
        let mut stack: Vec<u32> = Vec::new();
        let mut next_index = 0u32;
        // (vertex, next-child-offset) call frames.
        let mut frames: Vec<(u32, u32)> = Vec::new();

        for start in 0..n {
            if index[start] != UNVISITED {
                continue;
            }
            frames.push((start as u32, 0));
            index[start] = next_index;
            lowlink[start] = next_index;
            next_index += 1;
            stack.push(start as u32);
            on_stack[start] = true;

            while let Some(&mut (v, ref mut child)) = frames.last_mut() {
                let vs = v as usize;
                let children = succ(v);
                if (*child as usize) < children.len() {
                    let w = children[*child as usize] as usize;
                    *child += 1;
                    if index[w] == UNVISITED {
                        index[w] = next_index;
                        lowlink[w] = next_index;
                        next_index += 1;
                        stack.push(w as u32);
                        on_stack[w] = true;
                        frames.push((w as u32, 0));
                    } else if on_stack[w] {
                        lowlink[vs] = lowlink[vs].min(index[w]);
                    }
                } else {
                    frames.pop();
                    if let Some(&mut (parent, _)) = frames.last_mut() {
                        let p = parent as usize;
                        lowlink[p] = lowlink[p].min(lowlink[vs]);
                    }
                    if lowlink[vs] == index[vs] {
                        // Root of an SCC: its members are the stack above it.
                        let at = stack.iter().rposition(|&w| w == v).expect("root on stack");
                        let s = rows.len() as u32;
                        for &w in &stack[at..] {
                            on_stack[w as usize] = false;
                            scc_of[w as usize] = s;
                        }
                        let members = stack[at..].iter().copied();
                        let row = fill_row(&scc_of, &rows, s, members, |w| succ(w).iter().copied());
                        rows.push(Arc::new(row));
                        stack.truncate(at);
                    }
                }
            }
        }

        RoleClosure {
            n,
            scc_of: Arc::new(scc_of),
            rows: Arc::new(rows),
        }
    }

    // ----- incremental maintenance (the snapshot delta path) -----------

    /// Applies the addition of edge `a → b` in place.
    ///
    /// **Add-edge split lemma** (the same argument the bounded search's
    /// incremental goal check rests on): after adding `(a, b)`, a path
    /// `x →' y` exists iff `x → y` already held, or `x → a ∧ b → y` —
    /// every new path must cross the new edge exactly at `(a, b)` the
    /// first time it uses it. At closure-row granularity that is
    /// `row'(s) = row(s) ∪ row(scc(b))` for exactly the SCCs `s` whose
    /// row contains `a` (the reverse-reachability frontier of the new
    /// edge's source); all other rows are untouched and keep sharing
    /// their allocation with the parent epoch.
    ///
    /// Returns [`ClosureDelta::Rebuild`] when `b → a` already holds in a
    /// *different* SCC: the edge closes a new cycle, the SCC partition
    /// changes, and only a from-scratch build renumbers it correctly.
    /// An intra-SCC addition is a no-op (`Applied`): members of one SCC
    /// already reach one another.
    pub fn add_edge_incremental(&mut self, a: u32, b: u32) -> ClosureDelta {
        let (ai, bi) = (a as usize, b as usize);
        if ai >= self.n || bi >= self.n {
            return ClosureDelta::Rebuild;
        }
        if self.scc_of[ai] == self.scc_of[bi] {
            return ClosureDelta::Applied;
        }
        if self.rows[self.scc_of[bi] as usize].contains(ai) {
            // b already reaches a: the new edge merges SCCs.
            return ClosureDelta::Rebuild;
        }
        let row_b = Arc::clone(&self.rows[self.scc_of[bi] as usize]);
        for row in Arc::make_mut(&mut self.rows) {
            if row.contains(ai) && !row_b.is_subset(row) {
                Arc::make_mut(row).union_with(&row_b);
            }
        }
        ClosureDelta::Applied
    }

    /// Applies the removal of edge `a → b` in place, given `succ` — each
    /// role's successors **after** the removal.
    ///
    /// Removal can only shrink rows of SCCs that currently reach `a`
    /// (every lost path crossed the removed edge), so `build`'s row
    /// recurrence is re-run over exactly those, smallest old row first.
    /// That is children first: whatever such an SCC still reaches it
    /// reached before, with a strictly smaller row. Unaffected rows keep
    /// sharing their allocation. An edge *inside* an SCC may split it,
    /// so that removal answers [`ClosureDelta::Rebuild`].
    pub fn remove_edge_incremental<I: IntoIterator<Item = u32>>(
        &mut self,
        a: u32,
        b: u32,
        succ: impl Fn(u32) -> I,
    ) -> ClosureDelta {
        let (ai, bi) = (a as usize, b as usize);
        if ai >= self.n || bi >= self.n {
            return ClosureDelta::Rebuild;
        }
        if self.scc_of[ai] == self.scc_of[bi] {
            return ClosureDelta::Rebuild;
        }
        let mut affected: Vec<(usize, u32)> = (0..self.rows.len() as u32)
            .filter(|&s| self.rows[s as usize].contains(ai))
            .map(|s| (self.rows[s as usize].count(), s))
            .collect();
        affected.sort_unstable();
        let scc_of = &self.scc_of;
        let rows = Arc::make_mut(&mut self.rows);
        for (_, s) in affected {
            let old = &rows[s as usize];
            let members = old.iter().filter(|&v| scc_of[v] == s).map(|v| v as u32);
            let row = fill_row(scc_of, rows, s, members, &succ);
            rows[s as usize] = Arc::new(row);
        }
        ClosureDelta::Applied
    }

    /// Number of roles indexed.
    pub fn len(&self) -> usize {
        self.n
    }

    /// `true` iff no roles are indexed.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// `true` iff role `from` reaches role `to` (reflexive).
    #[inline]
    pub fn reaches(&self, from: u32, to: u32) -> bool {
        if from == to {
            return true;
        }
        let (f, t) = (from as usize, to as usize);
        if f >= self.n || t >= self.n {
            return from == to;
        }
        self.rows[self.scc_of[f] as usize].contains(t)
    }

    /// The closure row of `role`: every role reachable from it, itself
    /// included.
    pub fn row(&self, role: u32) -> &BitSet {
        &self.rows[self.scc_of[role as usize] as usize]
    }

    /// Number of SCCs.
    pub fn scc_count(&self) -> usize {
        self.rows.len()
    }

    /// SCC id of a role (reverse topological: sinks get low ids).
    pub fn scc_of(&self, role: u32) -> u32 {
        self.scc_of[role as usize]
    }

    /// Longest chain of the hierarchy measured in roles (an acyclic path
    /// visiting `k` roles has chain length `k`; a cyclic SCC of size `s`
    /// contributes `s`).
    ///
    /// Remark 2 of the paper conjectures that `n` applications of rule (3)
    /// suffice where “`n` is the length of the longest chain in RH”; we
    /// expose both the role count and the edge count
    /// ([`RoleClosure::longest_chain_edges`]) so callers can pick the
    /// reading they need.
    ///
    /// Computed from the rows on each call: `chain(s) = |s| + max
    /// chain(t)` over the SCCs `t ≠ s` in `row(s)`, taken in ascending
    /// row size, which puts every such `t` before `s`. A longest path
    /// through the closure is one through `RH`: a shortcut skips roles.
    pub fn longest_chain_roles(&self) -> u32 {
        let c = self.rows.len();
        let mut chain = vec![0u32; c];
        for &s in self.scc_of.iter() {
            chain[s as usize] += 1;
        }
        let mut order: Vec<usize> = (0..c).collect();
        order.sort_by_cached_key(|&s| self.rows[s].count());
        for s in order {
            let below = self.rows[s]
                .iter()
                .map(|v| self.scc_of[v] as usize)
                .filter(|&t| t != s)
                .map(|t| chain[t])
                .max();
            chain[s] += below.unwrap_or(0);
        }
        chain.into_iter().max().unwrap_or(0)
    }

    /// Longest chain measured in edges (`roles - 1`, saturating).
    pub fn longest_chain_edges(&self) -> u32 {
        self.longest_chain_roles().saturating_sub(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    use proptest::prelude::*;

    fn closure(n: usize, edges: &[(u32, u32)]) -> RoleClosure {
        RoleClosure::build(n, edges.iter().copied())
    }

    #[test]
    fn empty_graph() {
        let c = closure(0, &[]);
        assert_eq!(c.scc_count(), 0);
        assert_eq!(c.longest_chain_roles(), 0);
        assert!(c.is_empty());
    }

    #[test]
    fn single_chain() {
        // 0 -> 1 -> 2 -> 3
        let c = closure(4, &[(0, 1), (1, 2), (2, 3)]);
        assert!(c.reaches(0, 3));
        assert!(c.reaches(1, 3));
        assert!(!c.reaches(3, 0));
        assert!(c.reaches(2, 2), "reflexive");
        assert_eq!(c.scc_count(), 4);
        assert_eq!(c.longest_chain_roles(), 4);
        assert_eq!(c.longest_chain_edges(), 3);
    }

    #[test]
    fn diamond() {
        // 0 -> {1,2} -> 3
        let c = closure(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]);
        assert!(c.reaches(0, 3));
        assert!(!c.reaches(1, 2));
        assert_eq!(c.longest_chain_roles(), 3);
    }

    #[test]
    fn cycle_collapses_to_one_scc() {
        // 0 -> 1 -> 2 -> 0, plus 2 -> 3
        let c = closure(4, &[(0, 1), (1, 2), (2, 0), (2, 3)]);
        assert_eq!(c.scc_of(0), c.scc_of(1));
        assert_eq!(c.scc_of(1), c.scc_of(2));
        assert_ne!(c.scc_of(0), c.scc_of(3));
        for a in 0..3u32 {
            for b in 0..3u32 {
                assert!(c.reaches(a, b), "{a} should reach {b} inside the cycle");
            }
            assert!(c.reaches(a, 3));
        }
        assert!(!c.reaches(3, 0));
        assert_eq!(c.longest_chain_roles(), 4, "3-cycle + tail role");
    }

    #[test]
    fn self_loop_is_not_a_chain_extension() {
        let c = closure(2, &[(0, 0), (0, 1)]);
        assert!(c.reaches(0, 1));
        assert!(c.reaches(0, 0));
        assert_eq!(c.longest_chain_roles(), 2);
    }

    #[test]
    fn disconnected_components() {
        let c = closure(5, &[(0, 1), (3, 4)]);
        assert!(c.reaches(0, 1));
        assert!(!c.reaches(0, 3));
        assert!(!c.reaches(2, 0));
        assert!(c.reaches(2, 2));
        assert_eq!(c.longest_chain_roles(), 2);
    }

    #[test]
    fn out_of_range_roles_only_reach_themselves() {
        let c = closure(2, &[(0, 1)]);
        assert!(c.reaches(9, 9));
        assert!(!c.reaches(9, 0));
        assert!(!c.reaches(0, 9));
    }

    #[test]
    fn closure_matches_bfs_on_random_graphs() {
        // Deterministic pseudo-random graphs; compare against a naive BFS.
        let mut state = 0x2545F4914F6CDD1Du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for n in [1usize, 5, 17, 40] {
            let mut edges = Vec::new();
            for _ in 0..(n * 2) {
                let a = (next() % n as u64) as u32;
                let b = (next() % n as u64) as u32;
                edges.push((a, b));
            }
            let c = closure(n, &edges);
            // Naive BFS per source.
            for s in 0..n as u32 {
                let mut seen = vec![false; n];
                let mut queue = vec![s];
                seen[s as usize] = true;
                while let Some(v) = queue.pop() {
                    for &(a, b) in &edges {
                        if a == v && !seen[b as usize] {
                            seen[b as usize] = true;
                            queue.push(b);
                        }
                    }
                }
                for t in 0..n as u32 {
                    assert_eq!(
                        c.reaches(s, t),
                        seen[t as usize] || s == t,
                        "n={n} s={s} t={t}"
                    );
                }
            }
        }
    }

    #[test]
    fn rows_are_shared_within_scc() {
        let c = closure(3, &[(0, 1), (1, 0), (1, 2)]);
        assert_eq!(c.row(0).iter().collect::<Vec<_>>(), vec![0, 1, 2]);
        assert_eq!(c.row(1).iter().collect::<Vec<_>>(), vec![0, 1, 2]);
        assert_eq!(c.row(2).iter().collect::<Vec<_>>(), vec![2]);
    }

    fn adjacency(n: usize, edges: &[(u32, u32)]) -> Vec<BTreeSet<u32>> {
        let mut succ = vec![BTreeSet::new(); n];
        for &(a, b) in edges {
            succ[a as usize].insert(b);
        }
        succ
    }

    /// Removes `a → b` given the edge list after the removal.
    fn remove(c: &mut RoleClosure, a: u32, b: u32, after: &[(u32, u32)]) -> ClosureDelta {
        let succ = adjacency(c.len(), after);
        c.remove_edge_incremental(a, b, |v| succ[v as usize].iter().copied())
    }

    /// Same reachability answers and observables, independent of SCC
    /// numbering.
    fn assert_equivalent(a: &RoleClosure, b: &RoleClosure, n: usize) {
        for x in 0..n as u32 {
            assert_eq!(a.row(x), b.row(x), "row of {x}");
        }
        assert_eq!(a.scc_count(), b.scc_count());
        assert_eq!(a.longest_chain_roles(), b.longest_chain_roles());
    }

    #[test]
    fn incremental_add_matches_rebuild() {
        // 0 -> 1 -> 2, 3 -> 4; add 2 -> 3 (joins the chains).
        let base = vec![(0, 1), (1, 2), (3, 4)];
        let mut inc = closure(5, &base);
        assert_eq!(inc.add_edge_incremental(2, 3), ClosureDelta::Applied);
        let mut edges = base.clone();
        edges.push((2, 3));
        assert_equivalent(&inc, &closure(5, &edges), 5);
        assert_eq!(inc.longest_chain_roles(), 5);
        // Untouched rows still share their allocation with... the edge
        // only fans out to 0, 1, 2; role 4's row is the same Arc.
        assert!(inc.reaches(0, 4));
        assert!(!inc.reaches(4, 0));
    }

    #[test]
    fn incremental_add_detects_new_cycle() {
        let mut inc = closure(3, &[(0, 1), (1, 2)]);
        // 2 -> 0 closes a cycle: SCCs merge, rebuild required.
        assert_eq!(inc.add_edge_incremental(2, 0), ClosureDelta::Rebuild);
        // Intra-SCC additions are no-ops.
        let mut cyc = closure(3, &[(0, 1), (1, 0), (1, 2)]);
        assert_eq!(cyc.add_edge_incremental(0, 1), ClosureDelta::Applied);
        assert_equivalent(&cyc, &closure(3, &[(0, 1), (1, 0), (1, 2)]), 3);
    }

    #[test]
    fn incremental_remove_matches_rebuild() {
        // Diamond 0 -> {1, 2} -> 3; removing 1 -> 3 keeps 0 -> 3 via 2.
        let base = vec![(0, 1), (0, 2), (1, 3), (2, 3)];
        let mut inc = closure(4, &base);
        let after: Vec<(u32, u32)> = base.iter().copied().filter(|&e| e != (1, 3)).collect();
        assert_eq!(remove(&mut inc, 1, 3, &after), ClosureDelta::Applied);
        assert_equivalent(&inc, &closure(4, &after), 4);
        assert!(inc.reaches(0, 3), "still reachable via 2");
        assert!(!inc.reaches(1, 3));
    }

    #[test]
    fn incremental_remove_refuses_intra_scc() {
        let mut cyc = closure(3, &[(0, 1), (1, 0), (1, 2)]);
        assert_eq!(
            remove(&mut cyc, 1, 0, &[(0, 1), (1, 2)]),
            ClosureDelta::Rebuild,
            "intra-SCC removal may split the SCC"
        );
    }

    #[test]
    fn incremental_sequence_stays_exact_without_canonical_scc_order() {
        // Interleave adds and removes so SCC ids drift from Tarjan's
        // canonical numbering, then compare against rebuilds throughout.
        let mut edges: Vec<(u32, u32)> = vec![(0, 1), (2, 3), (4, 5)];
        let mut inc = closure(6, &edges);
        let script: &[(u32, u32, bool)] = &[
            (1, 2, true),
            (5, 0, true),
            (3, 4, true), // closes the 6-cycle: forces the rebuild path
            (2, 3, false),
            (1, 2, false),
            (0, 3, true),
        ];
        for &(a, b, add) in script {
            let outcome = if add {
                edges.push((a, b));
                inc.add_edge_incremental(a, b)
            } else {
                edges.retain(|&e| e != (a, b));
                remove(&mut inc, a, b, &edges)
            };
            if outcome == ClosureDelta::Rebuild {
                inc = closure(6, &edges);
            }
            assert_equivalent(&inc, &closure(6, &edges), 6);
        }
    }

    /// Remark 2's bound by brute force: the heaviest path between SCCs,
    /// each SCC weighing its role count, found by DFS from every role
    /// over naively computed reachability.
    fn reference_chain(n: usize, edges: &[(u32, u32)]) -> u32 {
        let reach: Vec<Vec<bool>> = (0..n)
            .map(|s| {
                let mut seen = vec![false; n];
                let mut queue = vec![s];
                seen[s] = true;
                while let Some(v) = queue.pop() {
                    for &(a, b) in edges {
                        if a as usize == v && !seen[b as usize] {
                            seen[b as usize] = true;
                            queue.push(b as usize);
                        }
                    }
                }
                seen
            })
            .collect();
        fn heaviest(v: usize, reach: &[Vec<bool>], edges: &[(u32, u32)]) -> u32 {
            let same = |x: usize, y: usize| reach[x][y] && reach[y][x];
            let size = (0..reach.len()).filter(|&w| same(v, w)).count() as u32;
            let below = edges
                .iter()
                .map(|&(a, b)| (a as usize, b as usize))
                .filter(|&(a, b)| same(a, v) && !same(b, v))
                .map(|(_, b)| heaviest(b, reach, edges))
                .max();
            size + below.unwrap_or(0)
        }
        (0..n)
            .map(|v| heaviest(v, &reach, edges))
            .max()
            .unwrap_or(0)
    }

    fn graph(n: usize, raw: &[(u32, u32)]) -> Vec<(u32, u32)> {
        let mut edges: Vec<(u32, u32)> = raw
            .iter()
            .map(|&(a, b)| (a % n as u32, b % n as u32))
            .collect();
        edges.sort_unstable();
        edges.dedup();
        edges
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The chain read off the rows of a fresh build equals the
        /// brute-force heaviest SCC path, cycles and self-loops included.
        #[test]
        fn longest_chain_matches_reference_after_build(
            n in 1usize..8,
            raw in prop::collection::vec((0u32..7, 0u32..7), 0..14),
        ) {
            let edges = graph(n, &raw);
            prop_assert_eq!(closure(n, &edges).longest_chain_roles(), reference_chain(n, &edges));
        }

        /// The same after random additions and removals applied
        /// incrementally (rebuilding only where a delta asks for it).
        #[test]
        fn longest_chain_matches_reference_after_deltas(
            n in 1usize..8,
            raw in prop::collection::vec((0u32..7, 0u32..7), 0..10),
            script in prop::collection::vec((0u32..7, 0u32..7, any::<bool>()), 1..16),
        ) {
            let mut edges = graph(n, &raw);
            let mut inc = closure(n, &edges);
            for (a, b, add) in script {
                let (a, b) = (a % n as u32, b % n as u32);
                let present = edges.contains(&(a, b));
                let outcome = if add && !present {
                    edges.push((a, b));
                    inc.add_edge_incremental(a, b)
                } else if !add && present {
                    edges.retain(|&e| e != (a, b));
                    remove(&mut inc, a, b, &edges)
                } else {
                    continue;
                };
                if outcome == ClosureDelta::Rebuild {
                    inc = closure(n, &edges);
                }
                assert_equivalent(&inc, &closure(n, &edges), n);
                prop_assert_eq!(inc.longest_chain_roles(), reference_chain(n, &edges));
            }
        }
    }
}
