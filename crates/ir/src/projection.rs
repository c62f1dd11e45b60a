//! Projection plans: which join levels may skip bindings they have already
//! expanded.
//!
//! A conjunctive query projects its join onto the head, so once a variable
//! has been read for the last time — by its own atom's probe, a later
//! atom's filter, a comparison constraint, a negated atom or the head —
//! its value no longer changes anything below.  At join level `L`, the
//! subtree that runs for a candidate row is then a function of the *live*
//! bound variables only; two rows that agree on them expand to the same
//! emissions.  The plan names, per level, that key; every evaluator keeps a
//! per-execution [`SeenKeys`] set per keyed level and skips a row whose key
//! it has already expanded.  Skipping never changes the derived fact set,
//! nor the order in which new facts are first emitted: a skipped subtree
//! only repeats rows an earlier one emitted.

use carac_datalog::{HeadBinding, VarId};
use carac_storage::hasher::FxHashSet;
use carac_storage::Value;

use crate::query::ConjunctiveQuery;

/// The projection plan of one join-ordered [`ConjunctiveQuery`]: one entry
/// per join level (per positive atom, in execution order).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProjectionPlan {
    /// `Some(key)` when at least one variable bound at this level or above
    /// is dead below it: `key` is the live bound variables, in `VarId`
    /// order, whose values decide everything the level's subtree emits (an
    /// empty key means the subtree runs once).  `None` when every bound
    /// variable is still live, and always at the last level — deduplicating
    /// the emitted rows is the insert path's job.
    pub keys: Vec<Option<Vec<VarId>>>,
}

impl ProjectionPlan {
    /// Whether no level skips anything (the query runs exactly as without
    /// a plan).
    pub fn is_empty(&self) -> bool {
        self.keys.iter().all(Option::is_none)
    }
}

impl ConjunctiveQuery {
    /// Computes the projection plan of the query for its current atom
    /// order.
    pub fn projection_plan(&self) -> ProjectionPlan {
        let levels = self.atoms.len();
        if levels < 2 {
            return ProjectionPlan {
                keys: vec![None; levels],
            };
        }
        // Join level at which each variable is first bound, and the last
        // one that reads it; `levels` stands for the negation checks and
        // the head, which run below the last atom.
        let mut bind_level = vec![usize::MAX; self.num_vars];
        let mut last_read = vec![0usize; self.num_vars];
        let mut read = |v: VarId, level: usize| {
            let slot = &mut last_read[v.index()];
            *slot = (*slot).max(level);
        };
        for (level, atom) in self.atoms.iter().enumerate() {
            for (_, v) in atom.variable_columns() {
                bind_level[v.index()] = bind_level[v.index()].min(level);
                read(v, level);
            }
        }
        for constraint in &self.constraints {
            // Decided at the level binding its last operand (the kernels'
            // placement); an operand no atom binds keeps everything live.
            let decided = constraint
                .variables()
                .map(|v| bind_level[v.index()])
                .max()
                .map_or(levels, |level| level.min(levels));
            for v in constraint.variables() {
                read(v, decided);
            }
        }
        for atom in &self.negated {
            for (_, v) in atom.variable_columns() {
                read(v, levels);
            }
        }
        for binding in &self.head_bindings {
            if let HeadBinding::Var(v) = binding {
                read(*v, levels);
            }
        }
        let keys = (0..levels)
            .map(|level| {
                let bound = |v: &usize| bind_level[*v] <= level;
                let dead = (0..self.num_vars)
                    .filter(bound)
                    .any(|v| last_read[v] <= level);
                // The last level never skips: deduplicating the emitted
                // rows is the insert path's job.
                (dead && level + 1 < levels).then(|| {
                    (0..self.num_vars)
                        .filter(|v| bound(v) && last_read[*v] > level)
                        .map(|v| VarId(v as u32))
                        .collect()
                })
            })
            .collect();
        ProjectionPlan { keys }
    }
}

/// The keys one keyed join level has already expanded during one query
/// execution.  Keys are exact values: up to two are packed into a `u64`,
/// wider ones are stored whole.  Every key of one set has the same length
/// (the level's key width).  `clear` keeps the capacity, so a set reused
/// across executions stops allocating once warm.
#[derive(Debug, Default)]
pub struct SeenKeys {
    narrow: FxHashSet<u64>,
    wide: FxHashSet<Box<[Value]>>,
    /// Gather buffer for the key being inserted.
    key: Vec<Value>,
}

impl SeenKeys {
    /// Records `key`; returns `Ok(false)` when it was already recorded
    /// (the row's subtree has been expanded before), and the first error
    /// the key's values raise.
    pub fn insert<E>(
        &mut self,
        key: impl IntoIterator<Item = Result<Value, E>>,
    ) -> Result<bool, E> {
        self.key.clear();
        for value in key {
            self.key.push(value?);
        }
        Ok(match *self.key.as_slice() {
            [] => self.narrow.insert(0),
            [a] => self.narrow.insert(u64::from(a.raw())),
            [a, b] => self
                .narrow
                .insert(u64::from(a.raw()) | (u64::from(b.raw()) << 32)),
            _ => {
                if self.wide.contains(self.key.as_slice()) {
                    false
                } else {
                    self.wide.insert(self.key.as_slice().into())
                }
            }
        })
    }

    /// Forgets every key, keeping the allocated capacity.
    pub fn clear(&mut self) {
        // Clearing an empty table still sweeps its whole capacity.
        if !self.narrow.is_empty() {
            self.narrow.clear();
        }
        if !self.wide.is_empty() {
            self.wide.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use carac_datalog::parser::parse;
    use carac_datalog::Program;

    /// The plan of `source`'s first rule, with every atom read from
    /// `Derived` in the written order.
    fn plan_of(source: &str) -> (Program, ProjectionPlan) {
        let p = parse(source).unwrap();
        let plan = ConjunctiveQuery::from_rule(&p.rules()[0], None).projection_plan();
        (p, plan)
    }

    /// Key variable names per level (`None` = not keyed).
    fn named(p: &Program, plan: &ProjectionPlan) -> Vec<Option<Vec<String>>> {
        let rule = &p.rules()[0];
        plan.keys
            .iter()
            .map(|key| {
                key.as_ref().map(|vars| {
                    let mut names: Vec<String> = vars
                        .iter()
                        .map(|v| rule.var_names[v.index()].clone())
                        .collect();
                    names.sort();
                    names
                })
            })
            .collect()
    }

    fn key(names: &[&str]) -> Option<Vec<String>> {
        Some(names.iter().map(ToString::to_string).collect())
    }

    #[test]
    fn cspa_valias_keys_the_middle_level_on_the_live_pair() {
        // v3 is dead once VaFlow(v3, v1) has probed on it.
        let (p, plan) =
            plan_of("VAlias(v1, v2) :- MAlias(v3, v0), VaFlow(v3, v1), VaFlow(v0, v2).");
        assert_eq!(named(&p, &plan), vec![None, key(&["v0", "v1"]), None]);
        assert!(!plan.is_empty());
    }

    #[test]
    fn two_atom_rules_have_an_empty_plan() {
        let (_, plan) = plan_of("Path(x, y) :- Path(x, z), Edge(z, y).");
        assert_eq!(plan.keys, vec![None, None]);
        assert!(plan.is_empty());
    }

    #[test]
    fn a_later_constraint_keeps_a_variable_live() {
        // w is read by `w < y`, decided at level 2 where y is bound.
        let (p, plan) = plan_of("Out(x) :- A(x, w), B(x, z), C(z, y), w < y.");
        assert_eq!(named(&p, &plan), vec![None, None, None]);
        // Decided at level 1 (both bound there): w dies after level 1.
        let (p, plan) = plan_of("Out(x) :- A(x, w), B(x, z), C(z, y), w < z.");
        assert_eq!(named(&p, &plan), vec![None, key(&["x", "z"]), None]);
    }

    #[test]
    fn a_negated_atom_keeps_a_variable_live() {
        let (p, plan) = plan_of("Out(x) :- A(x, w), B(x, z), C(z), !D(w).");
        assert_eq!(named(&p, &plan), vec![None, None, None]);
        let (p, plan) = plan_of("Out(x) :- A(x, w), B(x, z), C(z), !D(x).");
        assert_eq!(named(&p, &plan), vec![key(&["x"]), key(&["x", "z"]), None]);
    }

    #[test]
    fn the_head_keeps_a_variable_live() {
        let (p, plan) = plan_of("Out(x, w) :- A(x, w), B(x, z), C(z).");
        assert_eq!(named(&p, &plan), vec![None, None, None]);
        let (p, plan) = plan_of("Out(x) :- A(x, w), B(x, z), C(z).");
        assert_eq!(named(&p, &plan), vec![key(&["x"]), key(&["x", "z"]), None]);
    }

    #[test]
    fn a_repeated_variable_in_a_later_atom_keeps_it_live() {
        let (p, plan) = plan_of("Out(x) :- A(x, y), B(x, z), C(y, y).");
        assert_eq!(named(&p, &plan), vec![None, key(&["x", "y"]), None]);
    }

    #[test]
    fn a_constant_head_column_reads_nothing() {
        let (p, plan) = plan_of("Out(7, x) :- A(x, y), B(y, z), C(x).");
        assert_eq!(named(&p, &plan), vec![None, key(&["x"]), None]);
    }

    #[test]
    fn an_empty_key_at_level_zero_runs_the_subtree_once() {
        // Nothing A binds is read again: its subtree runs for one row.
        let (p, plan) = plan_of("Out(x) :- A(y), B(x), C(x).");
        assert_eq!(named(&p, &plan), vec![key(&[]), key(&["x"]), None]);
    }

    #[test]
    fn keys_of_three_or_more_values() {
        let (p, plan) = plan_of("Out(a, b, c) :- A(a, b, c, d), B(d), C(a).");
        assert_eq!(named(&p, &plan), vec![None, key(&["a", "b", "c"]), None]);
    }

    #[test]
    fn seen_keys_are_exact_at_every_width() {
        let mut seen = SeenKeys::default();
        let ok = |values: &[u32]| -> Vec<Result<Value, ()>> {
            values.iter().map(|&v| Ok(Value::int(v))).collect()
        };
        assert_eq!(seen.insert(ok(&[])), Ok(true));
        assert_eq!(seen.insert(ok(&[])), Ok(false));
        let mut pairs = SeenKeys::default();
        assert_eq!(pairs.insert(ok(&[1, 2])), Ok(true));
        assert_eq!(pairs.insert(ok(&[2, 1])), Ok(true));
        assert_eq!(pairs.insert(ok(&[1, 2])), Ok(false));
        let mut triples = SeenKeys::default();
        assert_eq!(triples.insert(ok(&[1, 2, 3])), Ok(true));
        assert_eq!(triples.insert(ok(&[1, 2, 4])), Ok(true));
        assert_eq!(triples.insert(ok(&[1, 2, 3])), Ok(false));
        triples.clear();
        assert_eq!(triples.insert(ok(&[1, 2, 3])), Ok(true));
        let failing = [Ok(Value::int(1)), Err("unbound")];
        assert_eq!(triples.insert(failing), Err("unbound"));
    }
}
