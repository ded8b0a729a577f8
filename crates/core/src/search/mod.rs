//! A compact-state, sequential breadth-first search engine.
//!
//! The bounded analyses in this workspace — policy reachability
//! ([`crate::safety`]) and ARBAC user-role reachability
//! (`adminref-baselines`) — are exponential searches over state spaces
//! whose states are *subsets of a finite universe*: policies reachable
//! from a root differ from it only on a finite edge alphabet, ARBAC
//! membership states are subsets of the role set. This module exploits
//! that shape:
//!
//! * **Compact canonical states** — a state is a fixed-width bitset over
//!   the finite universe, interned once in a [`StateArena`]; the `seen`
//!   set and parent links hold `u32` indices instead of cloned states.
//! * **One sequential loop** — frontier states are expanded one at a
//!   time, in frontier order, into a single reused [`CandidateSet`],
//!   whose candidates are committed before the next state is expanded.
//!   The search returns at the first goal candidate, so its witness is
//!   shortest and nothing past it is expanded. It runs on the caller's
//!   thread and starts none of its own.
//! * **Exact truncation accounting** — [`SearchOutcome::Truncated`] is
//!   reported only when an *unseen* successor was actually cut off by
//!   the state cap or the depth bound, so an exhaustively explored
//!   space is never misreported as inconclusive.
//!
//! A state space implements [`StateSpace`]: it sizes the bitset, writes
//! the root state, and expands one state into labelled successor
//! candidates (each flagged with whether it satisfies the goal). The
//! driver guarantees the *goal invariant*: every state it asks to be
//! expanded was previously reported as not satisfying the goal (the
//! caller must check the root before starting). Expanders can lean on
//! that invariant for O(1) incremental goal evaluation against an index
//! of the parent state.

pub mod arena;
pub mod policy_space;

pub use arena::{words_for, InternOutcome, StateArena};
pub use policy_space::{PolicySearch, SearchGoal};

/// Bounds for one search.
#[derive(Clone, Copy, Debug)]
pub struct SearchLimits {
    /// Maximum depth (number of labels in a witness) to explore.
    /// `usize::MAX` means unbounded.
    pub max_depth: usize,
    /// Maximum number of distinct states to retain (the root counts).
    pub max_states: usize,
}

impl Default for SearchLimits {
    fn default() -> Self {
        SearchLimits {
            max_depth: usize::MAX,
            max_states: 50_000,
        }
    }
}

/// Result of a bounded search.
#[derive(Clone, Debug)]
pub enum SearchOutcome<L> {
    /// A goal state was reached; `witness` is the label path from the
    /// root to it, front first.
    Found {
        /// The label path reaching the goal, front first.
        witness: Vec<L>,
    },
    /// The reachable space was exhausted without hitting the goal.
    Exhausted,
    /// At least one unseen successor was cut off by a bound before the
    /// space was exhausted.
    Truncated,
}

/// Counters reported alongside the outcome.
#[derive(Clone, Copy, Debug, Default)]
pub struct SearchStats {
    /// Distinct states retained (root included).
    pub states: usize,
    /// Deepest fully generated frontier depth.
    pub depth: usize,
    /// Whether the state cap dropped at least one unseen successor.
    /// `false` on a truncated outcome means only the depth bound cut
    /// the search off — raising `max_states` alone won't help.
    pub cap_hit: bool,
}

/// Successor candidates emitted by expanding one state.
///
/// Labels, goal flags, and state words live in flat arrays. A search
/// clears and reuses one set for every expansion, so the arrays grow to
/// the widest expansion once instead of being allocated per candidate.
#[derive(Debug)]
pub struct CandidateSet<L> {
    words_per_state: usize,
    words: Vec<u64>,
    meta: Vec<(L, bool)>,
}

impl<L: Copy> CandidateSet<L> {
    fn new(words_per_state: usize) -> Self {
        CandidateSet {
            words_per_state,
            words: Vec::new(),
            meta: Vec::new(),
        }
    }

    fn clear(&mut self) {
        self.words.clear();
        self.meta.clear();
    }

    /// Appends a candidate successor with its label and goal flag.
    pub fn push(&mut self, label: L, goal: bool, words: &[u64]) {
        debug_assert_eq!(words.len(), self.words_per_state);
        self.words.extend_from_slice(words);
        self.meta.push((label, goal));
    }

    /// Number of candidates.
    pub fn len(&self) -> usize {
        self.meta.len()
    }

    /// `true` iff no candidate was emitted.
    pub fn is_empty(&self) -> bool {
        self.meta.is_empty()
    }

    fn candidate(&self, i: usize) -> (L, bool, &[u64]) {
        let (label, goal) = self.meta[i];
        let start = i * self.words_per_state;
        (
            label,
            goal,
            &self.words[start..start + self.words_per_state],
        )
    }

    /// Iterates `(label, goal, words)` in emission order.
    pub fn iter(&self) -> impl Iterator<Item = (L, bool, &[u64])> + '_ {
        (0..self.len()).map(|i| self.candidate(i))
    }
}

/// One searchable state space.
pub trait StateSpace {
    /// Label attached to each transition (the witness element).
    type Label: Copy;

    /// Number of bits in a state.
    fn state_bits(&self) -> usize;

    /// Writes the root state into `out` (pre-zeroed).
    fn write_root(&self, out: &mut [u64]);

    /// Expands `state`, pushing every *distinct, actually changed*
    /// successor into `out` together with its goal flag.
    ///
    /// The driver guarantees `state` itself does not satisfy the goal
    /// (see the module docs), which licenses incremental goal
    /// evaluation against the parent state.
    fn expand(&self, state: &[u64], out: &mut CandidateSet<Self::Label>);
}

/// Runs the breadth-first search over `space` under `limits`.
///
/// Frontier states are expanded and committed one at a time, in
/// frontier order; the first goal candidate ends the search.
///
/// The root state must already have been checked against the goal by
/// the caller — the engine only evaluates goals on successors.
pub fn search<S: StateSpace>(
    space: &S,
    limits: SearchLimits,
) -> (SearchOutcome<S::Label>, SearchStats) {
    let mut arena = StateArena::new(space.state_bits());
    let mut set = CandidateSet::new(arena.words_per_state());
    let mut root = vec![0u64; arena.words_per_state()];
    space.write_root(&mut root);
    arena.intern(&root);
    // Parent link of state `i` (i ≥ 1) lives at `parents[i - 1]`; the
    // root has none.
    let mut parents: Vec<(u32, S::Label)> = Vec::new();
    let mut frontier: Vec<u32> = vec![0];
    let mut truncated = false;
    let mut cap_hit = false;
    let mut depth = 0usize;

    while !frontier.is_empty() {
        if depth >= limits.max_depth {
            // Depth bound reached: the frontier is not expanded, but a
            // genuinely exhausted space must still answer `Exhausted` —
            // probe whether any unseen successor is being cut off.
            truncated = truncated
                || frontier.iter().any(|&ix| {
                    set.clear();
                    space.expand(arena.get(ix), &mut set);
                    set.iter()
                        .any(|(_, _, words)| arena.lookup(words).is_none())
                });
            break;
        }
        let mut next: Vec<u32> = Vec::new();
        for &parent in &frontier {
            set.clear();
            space.expand(arena.get(parent), &mut set);
            for (label, goal, words) in set.iter() {
                if goal {
                    let stats = SearchStats {
                        states: arena.len(),
                        depth: depth + 1,
                        cap_hit,
                    };
                    return (
                        SearchOutcome::Found {
                            witness: rebuild_witness(&parents, parent, label),
                        },
                        stats,
                    );
                }
                match arena.intern_capped(words, limits.max_states) {
                    InternOutcome::Existing(_) => {}
                    InternOutcome::CapHit => {
                        // Cut off by the state cap: drop the state
                        // without recording a parent link, so memory
                        // stays bounded by the cap.
                        truncated = true;
                        cap_hit = true;
                    }
                    InternOutcome::Interned(ix) => {
                        parents.push((parent, label));
                        next.push(ix);
                    }
                }
            }
        }
        frontier = next;
        depth += 1;
    }

    let stats = SearchStats {
        states: arena.len(),
        depth,
        cap_hit,
    };
    if truncated {
        (SearchOutcome::Truncated, stats)
    } else {
        (SearchOutcome::Exhausted, stats)
    }
}

/// Walks parent links from the state *preceding* the goal hit back to
/// the root, then appends the final label.
fn rebuild_witness<L: Copy>(parents: &[(u32, L)], mut state: u32, last: L) -> Vec<L> {
    let mut out = vec![last];
    while state != 0 {
        let (parent, label) = parents[(state - 1) as usize];
        out.push(label);
        state = parent;
    }
    out.reverse();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    /// Toy space: states are subsets of `0..n`; from any state every
    /// absent element can be added (label = element). Goal: `goal_bit`
    /// becomes present, reachable only after `prereq` is present.
    struct ToySpace {
        n: usize,
        prereq: usize,
        goal_bit: usize,
    }

    impl StateSpace for ToySpace {
        type Label = usize;

        fn state_bits(&self) -> usize {
            self.n
        }

        fn write_root(&self, _out: &mut [u64]) {}

        fn expand(&self, state: &[u64], out: &mut CandidateSet<usize>) {
            use super::arena::{clear_bit, set_bit, test_bit};
            let mut scratch = state.to_vec();
            for b in 0..self.n {
                if test_bit(state, b) {
                    continue;
                }
                if b == self.goal_bit && !test_bit(state, self.prereq) {
                    continue; // locked until the prerequisite is in
                }
                set_bit(&mut scratch, b);
                out.push(b, b == self.goal_bit, &scratch);
                clear_bit(&mut scratch, b);
            }
        }
    }

    #[test]
    fn finds_shortest_witness() {
        let space = ToySpace {
            n: 6,
            prereq: 2,
            goal_bit: 5,
        };
        let (out, stats) = search(&space, SearchLimits::default());
        let SearchOutcome::Found { witness } = out else {
            panic!("{out:?}");
        };
        assert_eq!(witness, vec![2, 5], "prereq first, then the goal");
        assert!(stats.states >= 2);
    }

    /// Counts the states a search asks `inner` to expand.
    struct Counting<S> {
        inner: S,
        expands: Cell<usize>,
    }

    impl<S: StateSpace> StateSpace for Counting<S> {
        type Label = S::Label;

        fn state_bits(&self) -> usize {
            self.inner.state_bits()
        }

        fn write_root(&self, out: &mut [u64]) {
            self.inner.write_root(out)
        }

        fn expand(&self, state: &[u64], out: &mut CandidateSet<S::Label>) {
            self.expands.set(self.expands.get() + 1);
            self.inner.expand(state, out)
        }
    }

    #[test]
    fn stops_expanding_at_the_first_goal() {
        // The goal is one toggle away from `{0}`, the first state of
        // depth 1: the root and `{0}` are expanded, `{1}`..`{8}` never.
        let space = Counting {
            inner: ToySpace {
                n: 10,
                prereq: 0,
                goal_bit: 9,
            },
            expands: Cell::new(0),
        };
        let (out, stats) = search(&space, SearchLimits::default());
        let SearchOutcome::Found { witness } = out else {
            panic!("{out:?}");
        };
        assert_eq!(witness, vec![0, 9]);
        assert_eq!(stats.depth, 2);
        assert_eq!(space.expands.get(), 2, "the root and {{0}} only");
    }

    #[test]
    fn exhausted_vs_truncated_depth() {
        // Unreachable goal (prereq can never be set: prereq == goal
        // keeps the goal locked forever).
        let space = ToySpace {
            n: 4,
            prereq: 3,
            goal_bit: 3,
        };
        // Full exploration: 3 free bits → depth 3 exhausts the space.
        let (out, stats) = search(
            &space,
            SearchLimits {
                max_depth: 3,
                ..SearchLimits::default()
            },
        );
        assert!(matches!(out, SearchOutcome::Exhausted), "{out:?}");
        assert_eq!(stats.states, 8, "all subsets of the 3 free bits");
        // One level short: unseen successors are cut off.
        let (out, stats) = search(
            &space,
            SearchLimits {
                max_depth: 2,
                ..SearchLimits::default()
            },
        );
        assert!(matches!(out, SearchOutcome::Truncated), "{out:?}");
        assert!(
            !stats.cap_hit,
            "the depth bound, not the state cap, truncated this search"
        );
    }

    #[test]
    fn state_cap_truncates_without_growing() {
        let space = ToySpace {
            n: 8,
            prereq: 7,
            goal_bit: 7,
        };
        let (out, stats) = search(
            &space,
            SearchLimits {
                max_states: 5,
                ..SearchLimits::default()
            },
        );
        assert!(matches!(out, SearchOutcome::Truncated), "{out:?}");
        assert!(stats.states <= 5, "cap respected: {}", stats.states);
        assert!(stats.cap_hit, "the state cap is what truncated: {stats:?}");
    }

    #[test]
    fn depth_zero_with_no_successors_is_exhausted() {
        // n == 0: the root has no successors at all; even max_depth == 0
        // must answer Exhausted, not Truncated.
        let space = ToySpace {
            n: 0,
            prereq: 0,
            goal_bit: 0,
        };
        let (out, _) = search(
            &space,
            SearchLimits {
                max_depth: 0,
                ..SearchLimits::default()
            },
        );
        assert!(matches!(out, SearchOutcome::Exhausted), "{out:?}");
    }
}
