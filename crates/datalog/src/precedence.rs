//! Precedence graph, strongly connected components, and stratification.
//!
//! The precedence graph has one node per relation and an edge `B → A`
//! whenever `B` occurs in the body of a rule with head `A` ("A depends on
//! B").  Relations in the same strongly connected component are mutually
//! recursive and must be evaluated together in one fixpoint; the condensation
//! of the graph, topologically ordered, yields the evaluation *strata*
//! (paper §V-A: "generation of a precedence graph so that relations that
//! rely on other relations will be calculated only after their dependencies
//! are calculated").
//!
//! Stratified negation additionally requires that a negated dependency never
//! stays inside one SCC: `A :- ..., !B, ...` with `A` and `B` mutually
//! recursive has no least fixpoint and is rejected.

use carac_storage::RelId;

use crate::ast::{AggregateSpec, RelationDecl, Rule, RuleId};
use crate::error::DatalogError;

/// One stratum: a set of relations evaluated in a single semi-naive fixpoint
/// together with the rules that define them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stratum {
    /// Relations computed by this stratum (IDB relations only).
    pub relations: Vec<RelId>,
    /// Rules whose head belongs to this stratum.
    pub rules: Vec<RuleId>,
    /// Whether any rule in the stratum is recursive (its body mentions a
    /// relation of the same stratum).  Non-recursive strata need a single
    /// pass rather than a fixpoint loop.
    pub recursive: bool,
}

/// The full stratification of a program, in evaluation order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Stratification {
    strata: Vec<Stratum>,
}

impl Stratification {
    /// Strata in evaluation order (dependencies first).
    pub fn strata(&self) -> &[Stratum] {
        &self.strata
    }

    /// Number of strata.
    pub fn len(&self) -> usize {
        self.strata.len()
    }

    /// Whether there are no strata (a facts-only program).
    pub fn is_empty(&self) -> bool {
        self.strata.is_empty()
    }

    /// Computes the stratification of `rules` (and `aggregates`) over
    /// `decls`.  An aggregation contributes a dependency edge from its
    /// output to its input.  When that edge crosses strata the aggregate is
    /// stratified — like negation, the input is fully computed before the
    /// fold runs once.  When output and input land in the same SCC the
    /// aggregate is recursive; because all four aggregation functions are
    /// monotone over growing input sets (min/max over the value lattice,
    /// sum/count over saturating naturals), it is classified as a monotone
    /// *lattice* fold (`spec.lattice = true`) that re-runs inside the
    /// stratum's fixpoint loop instead of being rejected.
    pub fn compute(
        decls: &[RelationDecl],
        rules: &[Rule],
        aggregates: &mut [AggregateSpec],
    ) -> Result<Self, DatalogError> {
        let n = decls.len();

        // Dependency edges head -> body (and aggregate output -> input),
        // sorted and deduplicated into one flat adjacency.
        let rule_edges = rules.iter().flat_map(|rule| {
            let head = rule.head.rel.0;
            rule.body.iter().map(move |l| (head, l.atom.rel.0))
        });
        let aggregate_edges = aggregates.iter().map(|a| (a.output.0, a.input.0));
        let deps = Adjacency::new(n, rule_edges.chain(aggregate_edges).collect());

        let sccs = tarjan_sccs(&deps);

        // Map each relation to its SCC index.
        let mut scc_of = vec![0; n];
        for (scc_idx, members) in sccs.iter().enumerate() {
            for &m in members {
                scc_of[m] = scc_idx;
            }
        }
        let scc = |rel: RelId| scc_of[rel.index()];

        // Reject negation inside an SCC.
        for rule in rules {
            for literal in rule.negative_body() {
                if scc(rule.head.rel) == scc(literal.atom.rel) {
                    return Err(DatalogError::NotStratifiable {
                        head: decls[rule.head.rel.index()].name.clone(),
                        negated: decls[literal.atom.rel.index()].name.clone(),
                    });
                }
            }
        }
        // Classify each aggregate: output and input in the same SCC means
        // the fold participates in that stratum's fixpoint (monotone lattice
        // mode); otherwise it is an ordinary stratified aggregate whose
        // input is finalized before the fold runs once.
        for spec in aggregates.iter_mut() {
            spec.lattice = scc(spec.output) == scc(spec.input);
        }

        // Per SCC: how many rules it holds, and whether any of them reads
        // its own SCC.
        let mut rule_counts = vec![0usize; sccs.len()];
        let mut recursive = vec![false; sccs.len()];
        for rule in rules {
            let home = scc(rule.head.rel);
            rule_counts[home] += 1;
            recursive[home] |= rule.body.iter().any(|l| scc(l.atom.rel) == home);
        }

        // Tarjan emits an SCC only after all SCCs reachable from it, and the
        // edges point head -> body (head depends on body), so dependencies
        // come first: exactly evaluation order.
        let mut strata = Vec::new();
        let mut stratum_of = vec![usize::MAX; sccs.len()];
        for (scc_idx, members) in sccs.iter().enumerate() {
            // Only intensional relations form strata worth evaluating.
            let relations: Vec<RelId> = members
                .iter()
                .filter(|&&m| !decls[m].is_edb)
                .map(|&m| RelId(m as u32))
                .collect();
            if relations.is_empty() {
                continue;
            }
            stratum_of[scc_idx] = strata.len();
            strata.push(Stratum {
                relations,
                rules: Vec::with_capacity(rule_counts[scc_idx]),
                recursive: recursive[scc_idx],
            });
        }
        for rule in rules {
            strata[stratum_of[scc(rule.head.rel)]].rules.push(rule.id);
        }

        Ok(Stratification { strata })
    }
}

/// A directed graph over `0..n` in compressed form: the successors of
/// node `v` are `targets[offsets[v]..offsets[v + 1]]`, ascending.
struct Adjacency {
    offsets: Vec<usize>,
    /// The `(from, to)` edges, sorted and deduplicated.
    edges: Vec<(u32, u32)>,
}

impl Adjacency {
    /// Builds the graph from `(from, to)` edges; duplicates collapse.
    fn new(n: usize, mut edges: Vec<(u32, u32)>) -> Self {
        edges.sort_unstable();
        edges.dedup();
        let mut offsets = vec![0; n + 1];
        for &(from, _) in &edges {
            offsets[from as usize + 1] += 1;
        }
        for v in 0..n {
            offsets[v + 1] += offsets[v];
        }
        Adjacency { offsets, edges }
    }

    fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    fn successor(&self, v: usize, i: usize) -> Option<usize> {
        let at = self.offsets[v] + i;
        (at < self.offsets[v + 1]).then(|| self.edges[at].1 as usize)
    }
}

/// Strongly connected components, each one's members ascending, stored
/// back to back.
struct Sccs {
    members: Vec<usize>,
    /// End of each component in `members`.
    ends: Vec<usize>,
}

impl Sccs {
    fn len(&self) -> usize {
        self.ends.len()
    }

    fn iter(&self) -> impl Iterator<Item = &[usize]> {
        let starts = std::iter::once(0).chain(self.ends.iter().copied());
        starts
            .zip(&self.ends)
            .map(|(start, &end)| &self.members[start..end])
    }
}

/// Iterative Tarjan SCC.
///
/// Returns the SCCs in an order where every SCC appears after all SCCs it
/// has edges into (i.e. dependencies first, given edges point from dependent
/// to dependency).
fn tarjan_sccs(adj: &Adjacency) -> Sccs {
    #[derive(Clone, Copy)]
    struct NodeState {
        index: u32,
        lowlink: u32,
        on_stack: bool,
        visited: bool,
    }

    let n = adj.len();
    let mut state = vec![
        NodeState {
            index: 0,
            lowlink: 0,
            on_stack: false,
            visited: false,
        };
        n
    ];
    let mut next_index: u32 = 0;
    let mut stack: Vec<usize> = Vec::with_capacity(n);
    let mut sccs = Sccs {
        members: Vec::with_capacity(n),
        ends: Vec::with_capacity(n),
    };
    // Explicit DFS stack: (node, position in its successor list).
    let mut call_stack: Vec<(usize, usize)> = Vec::with_capacity(n);
    let mut enter = |v: usize, state: &mut [NodeState], stack: &mut Vec<usize>| {
        state[v] = NodeState {
            index: next_index,
            lowlink: next_index,
            on_stack: true,
            visited: true,
        };
        next_index += 1;
        stack.push(v);
    };

    for start in 0..n {
        if state[start].visited {
            continue;
        }
        enter(start, &mut state, &mut stack);
        call_stack.push((start, 0));

        while let Some((node, mut pos)) = call_stack.pop() {
            let mut descended = false;
            while let Some(next) = adj.successor(node, pos) {
                pos += 1;
                if !state[next].visited {
                    enter(next, &mut state, &mut stack);
                    call_stack.push((node, pos));
                    call_stack.push((next, 0));
                    descended = true;
                    break;
                } else if state[next].on_stack {
                    state[node].lowlink = state[node].lowlink.min(state[next].index);
                }
            }
            if descended {
                continue;
            }
            // Node finished.
            if state[node].lowlink == state[node].index {
                let start = sccs.members.len();
                while let Some(w) = stack.pop() {
                    state[w].on_stack = false;
                    sccs.members.push(w);
                    if w == node {
                        break;
                    }
                }
                sccs.members[start..].sort_unstable();
                sccs.ends.push(sccs.members.len());
            }
            // Propagate lowlink to parent.
            if let Some(&(parent, _)) = call_stack.last() {
                state[parent].lowlink = state[parent].lowlink.min(state[node].lowlink);
            }
        }
    }
    sccs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;

    #[test]
    fn single_recursive_stratum() {
        let mut b = ProgramBuilder::new();
        b.relation("Edge", 2);
        b.relation("Path", 2);
        b.rule("Path", &["x", "y"]).when("Edge", &["x", "y"]).end();
        b.rule("Path", &["x", "y"])
            .when("Edge", &["x", "z"])
            .when("Path", &["z", "y"])
            .end();
        let p = b.build().unwrap();
        let strat = p.stratification();
        assert_eq!(strat.len(), 1);
        assert!(strat.strata()[0].recursive);
        assert_eq!(strat.strata()[0].rules.len(), 2);
    }

    #[test]
    fn dependencies_evaluate_before_dependents() {
        let mut b = ProgramBuilder::new();
        b.relation("Edge", 2);
        b.relation("Path", 2);
        b.relation("Reachable", 1);
        b.rule("Path", &["x", "y"]).when("Edge", &["x", "y"]).end();
        b.rule("Path", &["x", "y"])
            .when("Edge", &["x", "z"])
            .when("Path", &["z", "y"])
            .end();
        b.rule("Reachable", &["y"]).when("Path", &["x", "y"]).end();
        let p = b.build().unwrap();
        let strat = p.stratification();
        assert_eq!(strat.len(), 2);
        let path = p.relation_by_name("Path").unwrap();
        let reach = p.relation_by_name("Reachable").unwrap();
        assert_eq!(strat.strata()[0].relations, vec![path]);
        assert_eq!(strat.strata()[1].relations, vec![reach]);
        assert!(!strat.strata()[1].recursive);
    }

    #[test]
    fn mutual_recursion_lands_in_one_stratum() {
        let mut b = ProgramBuilder::new();
        b.relation("Base", 2);
        b.relation("A", 2);
        b.relation("B", 2);
        b.rule("A", &["x", "y"]).when("Base", &["x", "y"]).end();
        b.rule("A", &["x", "y"]).when("B", &["x", "y"]).end();
        b.rule("B", &["x", "y"]).when("A", &["y", "x"]).end();
        let p = b.build().unwrap();
        assert_eq!(p.stratification().len(), 1);
        assert_eq!(p.stratification().strata()[0].relations.len(), 2);
    }

    #[test]
    fn stratified_negation_is_accepted() {
        let mut b = ProgramBuilder::new();
        b.relation("Num", 1);
        b.relation("Composite", 1);
        b.relation("Prime", 1);
        b.rule("Composite", &["x"]).when("Num", &["x"]).end();
        b.rule("Prime", &["x"])
            .when("Num", &["x"])
            .when_not("Composite", &["x"])
            .end();
        let p = b.build().unwrap();
        assert_eq!(p.stratification().len(), 2);
    }

    #[test]
    fn negation_through_recursion_is_rejected() {
        let mut b = ProgramBuilder::new();
        b.relation("Base", 1);
        b.relation("Win", 1);
        b.relation("Lose", 1);
        b.rule("Win", &["x"])
            .when("Base", &["x"])
            .when_not("Lose", &["x"])
            .end();
        b.rule("Lose", &["x"])
            .when("Base", &["x"])
            .when_not("Win", &["x"])
            .end();
        assert!(matches!(
            b.build(),
            Err(DatalogError::NotStratifiable { .. })
        ));
    }

    #[test]
    fn tarjan_on_diamond_graph() {
        // 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3 ; no cycles, 4 singleton SCCs, with
        // 3 (the sink / dependency) emitted before 0.
        let adj = Adjacency::new(4, vec![(0, 1), (0, 2), (1, 3), (2, 3)]);
        let sccs = tarjan_sccs(&adj);
        assert_eq!(sccs.len(), 4);
        let pos = |x: usize| sccs.iter().position(|s| s.contains(&x)).unwrap();
        assert!(pos(3) < pos(1));
        assert!(pos(3) < pos(2));
        assert!(pos(1) < pos(0));
    }

    #[test]
    fn tarjan_detects_cycles() {
        // 0 <-> 1, 2 alone depending on the cycle.
        let adj = Adjacency::new(3, vec![(0, 1), (1, 0), (2, 0)]);
        let sccs = tarjan_sccs(&adj);
        assert_eq!(sccs.len(), 2);
        let sccs: Vec<&[usize]> = sccs.iter().collect();
        assert_eq!(sccs, [&[0, 1][..], &[2][..]]);
    }
}
