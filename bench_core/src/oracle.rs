//! The benchmark's oracle: a second Datalog evaluator that shares no code
//! with `carac-exec`, `carac-optimizer`, `carac-vm` or `carac-storage`.
//!
//! It reads the validated AST (`carac_datalog::Program`) and nothing else:
//! relations are `HashSet<Vec<u32>>` plus a row vector, strata are computed
//! here, joins run in the order the rule was written (delta atom first),
//! and in-recursion lattice folds are evaluated by plain re-iteration.  It
//! is an order of magnitude slower than the engine and that is fine: it
//! runs outside every timed region.
//!
//! The result of an evaluation is a [`Fingerprint`]: per visible relation
//! its row count and an order-independent 64-bit hash of its rows.  The
//! engine's result is fingerprinted through the same two functions from the
//! tuples it hands back across its public API.

use std::collections::{BTreeMap, HashMap, HashSet};

use carac_datalog::{AggFunc, Atom, CmpOp, Program, Rule, Term};

use crate::json::Json;

type Row = Vec<u32>;

/// Counts and sums stop here instead of running into the symbol half of
/// the 32-bit value space (the engine's documented saturation point).
const SATURATION: u64 = 0x7FFF_FFFF;

/// Relations whose name carries this marker are the builder's hidden
/// aggregation inputs.  Inside a recursive lattice fold their contents
/// depend on the iteration schedule, so they are not part of a fingerprint.
const HIDDEN_MARKER: &str = "__agg_input";

pub fn is_visible(relation: &str) -> bool {
    !relation.contains(HIDDEN_MARKER)
}

/// Row count and order-independent row hash of one relation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RelationPrint {
    pub rows: u64,
    pub hash: u64,
}

/// Per visible relation, by name.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Fingerprint(pub BTreeMap<String, RelationPrint>);

fn row_hash(row: impl Iterator<Item = u32>) -> u64 {
    // FNV-style fold with a splitmix finalizer: position-sensitive inside
    // the row, so (1, 2) and (2, 1) differ.
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for v in row {
        h = (h ^ u64::from(v)).wrapping_mul(0x0000_0100_0000_01B3);
    }
    h ^= h >> 30;
    h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94D0_49BB_1331_11EB);
    h ^ (h >> 31)
}

impl Fingerprint {
    /// Adds one relation from an iterator over its (distinct) rows, each an
    /// iterator over its values, so no caller has to copy rows to be hashed.
    pub fn add<R: Iterator<Item = u32>>(&mut self, relation: &str, rows: impl Iterator<Item = R>) {
        let mut print = RelationPrint { rows: 0, hash: 0 };
        for row in rows {
            print.rows += 1;
            // A wrapping sum does not depend on the order rows arrive in.
            print.hash = print.hash.wrapping_add(row_hash(row));
        }
        self.0.insert(relation.to_string(), print);
    }

    /// One number for the whole fingerprint, for the pinned verdicts of
    /// `expected.json`.
    pub fn digest(&self) -> u64 {
        let mut digest = 0u64;
        for (name, print) in &self.0 {
            let name_hash = row_hash(name.bytes().map(u32::from));
            digest = row_hash(
                [digest, name_hash, print.rows, print.hash]
                    .into_iter()
                    .flat_map(|word| [word as u32, (word >> 32) as u32]),
            );
        }
        digest
    }

    /// One number for a list of fingerprints, order included.
    pub fn digest_all(prints: &[Fingerprint]) -> u64 {
        prints.iter().fold(0, |chained, print| {
            row_hash(
                [chained, print.digest()]
                    .into_iter()
                    .flat_map(|word| [word as u32, (word >> 32) as u32]),
            )
        })
    }

    /// A relation on which the two fingerprints disagree, if any.
    pub fn first_difference(&self, other: &Fingerprint) -> Option<String> {
        self.0
            .keys()
            .chain(other.0.keys())
            .find(|name| self.0.get(*name) != other.0.get(*name))
            .map(|name| {
                format!(
                    "{name}: {:?} vs {:?} rows",
                    self.0.get(name).map(|p| p.rows),
                    other.0.get(name).map(|p| p.rows)
                )
            })
    }

    pub fn to_json(&self) -> Json {
        Json::Obj(
            self.0
                .iter()
                .map(|(name, print)| {
                    (
                        name.clone(),
                        Json::obj([
                            ("rows", Json::Num(print.rows as f64)),
                            // 64 bits do not fit a JSON number.
                            ("hash", Json::Str(format!("{:016x}", print.hash))),
                        ]),
                    )
                })
                .collect(),
        )
    }

    pub fn from_json(value: &Json) -> Option<Fingerprint> {
        let mut out = BTreeMap::new();
        for (name, print) in value.members() {
            let rows = print.get("rows")?.as_f64()? as u64;
            let hash = u64::from_str_radix(print.get("hash")?.as_str()?, 16).ok()?;
            out.insert(name.clone(), RelationPrint { rows, hash });
        }
        Some(Fingerprint(out))
    }
}

/// One relation: rows in insertion order, a membership set, and hash
/// indexes keyed by the set of bound columns, grown on demand.
#[derive(Default)]
struct Rel {
    rows: Vec<Row>,
    set: HashSet<Row>,
    /// bound-column bitmask -> (rows indexed so far, key -> row positions)
    indexes: HashMap<u32, (usize, HashMap<Row, Vec<usize>>)>,
}

impl Rel {
    fn insert(&mut self, row: Row) -> bool {
        if self.set.contains(&row) {
            return false;
        }
        self.set.insert(row.clone());
        self.rows.push(row);
        true
    }

    fn replace(&mut self, rows: impl IntoIterator<Item = Row>) {
        *self = Rel::default();
        for row in rows {
            self.insert(row);
        }
    }

    fn ensure_index(&mut self, mask: u32) {
        if mask == 0 {
            return;
        }
        let (upto, index) = self.indexes.entry(mask).or_default();
        for (pos, row) in self.rows.iter().enumerate().skip(*upto) {
            index.entry(key_of(row, mask)).or_default().push(pos);
        }
        *upto = self.rows.len();
    }
}

fn key_of(row: &[u32], mask: u32) -> Row {
    row.iter()
        .enumerate()
        .filter(|(col, _)| mask & (1 << col) != 0)
        .map(|(_, &v)| v)
        .collect()
}

/// A rule variant ready to run: its positive atoms in evaluation order,
/// each with the columns that are already bound when it is reached.
struct Variant<'a> {
    rule: &'a Rule,
    /// (atom, bound-column mask, restrict to the delta range)
    steps: Vec<(&'a Atom, u32, bool)>,
}

fn plan_variant(rule: &Rule, delta: Option<usize>) -> Result<Variant<'_>, String> {
    let positives: Vec<&Atom> = rule.positive_body().map(|l| &l.atom).collect();
    let mut order: Vec<usize> = (0..positives.len()).collect();
    if let Some(d) = delta {
        order.remove(d);
        order.insert(0, d);
    }
    let mut bound = vec![false; rule.num_vars()];
    let mut steps = Vec::new();
    for position in order {
        let atom = positives[position];
        if atom.arity() > 32 {
            return Err(format!("arity {} is beyond the oracle", atom.arity()));
        }
        let mut mask = 0u32;
        for (col, term) in atom.terms.iter().enumerate() {
            match term {
                Term::Const(_) => mask |= 1 << col,
                Term::Var(v) if bound[v.index()] => mask |= 1 << col,
                Term::Var(_) => {}
            }
        }
        // A variable repeated inside one atom binds at its first column and
        // is checked at the others; only earlier atoms make a column a key.
        for (_, v) in atom.variables() {
            bound[v.index()] = true;
        }
        steps.push((atom, mask, Some(position) == delta));
    }
    Ok(Variant { rule, steps })
}

fn term_value(term: Term, env: &[Option<u32>]) -> Option<u32> {
    match term {
        Term::Const(c) => Some(c.raw()),
        Term::Var(v) => env[v.index()],
    }
}

fn compare(op: CmpOp, a: u32, b: u32) -> bool {
    match op {
        CmpOp::Lt => a < b,
        CmpOp::Le => a <= b,
        CmpOp::Gt => a > b,
        CmpOp::Ge => a >= b,
        CmpOp::Eq => a == b,
        CmpOp::Ne => a != b,
    }
}

struct Evaluator<'a> {
    rels: &'a [Rel],
    /// Per relation the half-open range of row positions that is "delta".
    delta: &'a [(usize, usize)],
    /// Head rows derived so far that the head relation does not hold yet.
    out: HashSet<Row>,
}

impl Evaluator<'_> {
    fn run(&mut self, variant: &Variant<'_>) -> Result<(), String> {
        let mut env = vec![None; variant.rule.num_vars()];
        self.step(variant, 0, &mut env)
    }

    fn step(
        &mut self,
        variant: &Variant<'_>,
        depth: usize,
        env: &mut Vec<Option<u32>>,
    ) -> Result<(), String> {
        let Some(&(atom, mask, delta_only)) = variant.steps.get(depth) else {
            return self.finish(variant.rule, env);
        };
        let rel = &self.rels[atom.rel.index()];
        // The delta step scans its range (the row check below covers its
        // constants); every other step reads the whole relation, through an
        // index when a column is already bound.
        let positions: Box<dyn Iterator<Item = usize> + '_> = if delta_only {
            let (lo, hi) = self.delta[atom.rel.index()];
            Box::new(lo..hi)
        } else if mask == 0 {
            Box::new(0..rel.rows.len())
        } else {
            let key: Row = atom
                .terms
                .iter()
                .enumerate()
                .filter(|(col, _)| mask & (1 << col) != 0)
                .map(|(_, &t)| term_value(t, env).expect("masked column is bound"))
                .collect();
            let (_, index) = rel
                .indexes
                .get(&mask)
                .ok_or("index was not prepared before evaluation")?;
            match index.get(&key) {
                Some(found) => Box::new(found.iter().copied()),
                None => Box::new(std::iter::empty()),
            }
        };
        for position in positions {
            let row = &rel.rows[position];
            let mut newly_bound: Vec<usize> = Vec::new();
            let mut matches = true;
            for (col, term) in atom.terms.iter().enumerate() {
                match term_value(*term, env) {
                    Some(value) if value != row[col] => {
                        matches = false;
                        break;
                    }
                    Some(_) => {}
                    None => {
                        let var = term.as_var().expect("constants always have a value");
                        env[var.index()] = Some(row[col]);
                        newly_bound.push(var.index());
                    }
                }
            }
            if matches {
                self.step(variant, depth + 1, env)?;
            }
            for var in newly_bound {
                env[var] = None;
            }
        }
        Ok(())
    }

    fn finish(&mut self, rule: &Rule, env: &[Option<u32>]) -> Result<(), String> {
        let ground = |atom: &Atom| -> Result<Row, String> {
            atom.terms
                .iter()
                .map(|&t| term_value(t, env).ok_or_else(|| "unbound variable".to_string()))
                .collect()
        };
        for literal in rule.negative_body() {
            if self.rels[literal.atom.rel.index()]
                .set
                .contains(&ground(&literal.atom)?)
            {
                return Ok(());
            }
        }
        for constraint in &rule.constraints {
            let (Some(a), Some(b)) = (
                term_value(constraint.lhs, env),
                term_value(constraint.rhs, env),
            ) else {
                return Err("constraint over an unbound variable".to_string());
            };
            if !compare(constraint.op, a, b) {
                return Ok(());
            }
        }
        let head = ground(&rule.head)?;
        if !self.rels[rule.head.rel.index()].set.contains(&head) {
            self.out.insert(head);
        }
        Ok(())
    }
}

/// Stratum number per relation: a head sits at least as high as every
/// relation it reads, strictly higher than what it negates or folds outside
/// recursion.
fn stratify(program: &Program) -> Result<Vec<usize>, String> {
    let n = program.relations().len();
    let mut level = vec![0usize; n];
    for _ in 0..=n {
        let mut changed = false;
        let mut raise = |level: &mut Vec<usize>, rel: usize, at_least: usize| {
            if level[rel] < at_least {
                level[rel] = at_least;
                changed = true;
            }
        };
        for rule in program.rules() {
            let head = rule.head.rel.index();
            for literal in &rule.body {
                let body = level[literal.atom.rel.index()];
                raise(&mut level, head, body + usize::from(literal.negated));
            }
        }
        for spec in program.aggregates() {
            let (input, output) = (spec.input.index(), spec.output.index());
            if spec.lattice {
                let top = level[input].max(level[output]);
                raise(&mut level, input, top);
                raise(&mut level, output, top);
            } else {
                let below = level[input];
                raise(&mut level, output, below + 1);
            }
        }
        if !changed {
            return Ok(level);
        }
    }
    Err("program is not stratifiable".to_string())
}

fn fold(input: &Rel, aggs: &[(usize, AggFunc)]) -> Vec<Row> {
    // group key (non-aggregated columns) -> one accumulator per aggregate
    let mut groups: BTreeMap<Row, Vec<u64>> = BTreeMap::new();
    let is_agg = |col: usize| aggs.iter().any(|&(c, _)| c == col);
    for row in &input.rows {
        let key: Row = row
            .iter()
            .enumerate()
            .filter(|(col, _)| !is_agg(*col))
            .map(|(_, &v)| v)
            .collect();
        let accs = groups.entry(key).or_insert_with(|| {
            aggs.iter()
                .map(|&(_, func)| match func {
                    AggFunc::Min => u64::MAX,
                    AggFunc::Count | AggFunc::Sum | AggFunc::Max => 0,
                })
                .collect()
        });
        for (acc, &(col, func)) in accs.iter_mut().zip(aggs) {
            let value = u64::from(row[col]);
            *acc = match func {
                AggFunc::Count => *acc + 1,
                AggFunc::Sum => *acc + value,
                AggFunc::Min => (*acc).min(value),
                AggFunc::Max => (*acc).max(value),
            };
        }
    }
    let arity = input.rows.first().map_or(0, Vec::len);
    groups
        .into_iter()
        .map(|(key, accs)| {
            let mut key = key.into_iter();
            (0..arity)
                .map(|col| match aggs.iter().position(|&(c, _)| c == col) {
                    Some(i) => match aggs[i].1 {
                        AggFunc::Count | AggFunc::Sum => accs[i].min(SATURATION) as u32,
                        AggFunc::Min | AggFunc::Max => accs[i] as u32,
                    },
                    None => key.next().expect("one key value per group column"),
                })
                .collect()
        })
        .collect()
}

/// Evaluates `program` (its rules over its own facts) to its fixpoint.
/// `Err` means the oracle cannot decide this program, never that the
/// program is wrong.
pub fn evaluate(program: &Program) -> Result<Fingerprint, String> {
    let n = program.relations().len();
    let level = stratify(program)?;
    let mut rels: Vec<Rel> = (0..n).map(|_| Rel::default()).collect();
    for (rel, tuple) in program.facts() {
        rels[rel.index()].insert(tuple.values().iter().map(|v| v.raw()).collect());
    }

    let top = level.iter().copied().max().unwrap_or(0);
    for stratum in 0..=top {
        let in_stratum = |rel: usize| level[rel] == stratum;
        let rules: Vec<&Rule> = program
            .rules()
            .iter()
            .filter(|r| in_stratum(r.head.rel.index()))
            .collect();
        let folds: Vec<_> = program
            .aggregates()
            .iter()
            .filter(|spec| in_stratum(spec.output.index()))
            .collect();
        let refold = |rels: &mut Vec<Rel>| -> bool {
            let mut changed = false;
            for spec in &folds {
                let rows = fold(&rels[spec.input.index()], &spec.aggs);
                let output = &mut rels[spec.output.index()];
                if rows.len() != output.rows.len() || rows.iter().any(|r| !output.set.contains(r)) {
                    output.replace(rows);
                    changed = true;
                }
            }
            changed
        };
        refold(&mut rels);

        if folds.iter().any(|spec| spec.lattice) {
            // A lattice fold replaces rows (an optimum improves), so there
            // is no append-only delta to drive: re-run every rule over the
            // full relations until nothing moves.
            let variants = rules
                .iter()
                .map(|r| plan_variant(r, None))
                .collect::<Result<Vec<_>, _>>()?;
            loop {
                let mut changed = false;
                for variant in &variants {
                    changed |= derive(&mut rels, variant, &[])? > 0;
                }
                changed |= refold(&mut rels);
                if !changed {
                    break;
                }
            }
            continue;
        }

        // Semi-naive: every rule once over the full relations, then only the
        // variants that read the previous round's new rows.
        let mut watermark: Vec<usize> = rels.iter().map(|r| r.rows.len()).collect();
        for rule in &rules {
            derive(&mut rels, &plan_variant(rule, None)?, &[])?;
        }
        let mut variants = Vec::new();
        for rule in &rules {
            for (position, literal) in rule.positive_body().enumerate() {
                if in_stratum(literal.atom.rel.index()) {
                    variants.push(plan_variant(rule, Some(position))?);
                }
            }
        }
        loop {
            let delta: Vec<(usize, usize)> = rels
                .iter()
                .zip(&watermark)
                .map(|(rel, &seen)| (seen, rel.rows.len()))
                .collect();
            if delta.iter().all(|(lo, hi)| lo == hi) {
                break;
            }
            watermark = delta.iter().map(|&(_, hi)| hi).collect();
            for variant in &variants {
                derive(&mut rels, variant, &delta)?;
            }
        }
    }

    let mut print = Fingerprint::default();
    for decl in program.relations() {
        if is_visible(&decl.name) {
            print.add(
                &decl.name,
                rels[decl.id.index()].rows.iter().map(|r| r.iter().copied()),
            );
        }
    }
    Ok(print)
}

/// Runs one variant and inserts what it derives; returns how many rows
/// were new.  An empty `delta` means "no step is delta-restricted".
fn derive(
    rels: &mut [Rel],
    variant: &Variant<'_>,
    delta: &[(usize, usize)],
) -> Result<usize, String> {
    for &(atom, mask, delta_only) in &variant.steps {
        if !delta_only {
            rels[atom.rel.index()].ensure_index(mask);
        }
    }
    let mut evaluator = Evaluator {
        rels,
        delta,
        out: HashSet::new(),
    };
    evaluator.run(variant)?;
    let derived = evaluator.out;
    let head = &mut rels[variant.rule.head.rel.index()];
    Ok(derived
        .into_iter()
        .filter(|row| head.insert(row.clone()))
        .count())
}

/// Reachability by breadth-first search: the closed form of the
/// transitive-closure program `tc_live` maintains, as a check on the oracle
/// itself that involves no rule evaluation at all.
pub fn reachability(edges: &[(u32, u32)]) -> Fingerprint {
    let mut successors: HashMap<u32, Vec<u32>> = HashMap::new();
    let mut edge_set: HashSet<(u32, u32)> = HashSet::new();
    for &(a, b) in edges {
        if edge_set.insert((a, b)) {
            successors.entry(a).or_default().push(b);
        }
    }
    let mut paths: Vec<Row> = Vec::new();
    for &source in successors.keys() {
        let mut seen: HashSet<u32> = HashSet::new();
        let mut frontier = vec![source];
        while let Some(node) = frontier.pop() {
            for &next in successors.get(&node).map_or(&[][..], Vec::as_slice) {
                if seen.insert(next) {
                    frontier.push(next);
                }
            }
        }
        paths.extend(seen.into_iter().map(|target| vec![source, target]));
    }
    let mut print = Fingerprint::default();
    print.add("Edge", edge_set.iter().map(|&(a, b)| [a, b].into_iter()));
    print.add("Path", paths.iter().map(|r| r.iter().copied()));
    print
}

#[cfg(test)]
mod tests {
    use super::*;
    use carac_datalog::parser::parse;

    fn rows_of(print: &Fingerprint, relation: &str) -> u64 {
        print.0[relation].rows
    }

    #[test]
    fn transitive_closure_matches_breadth_first_search() {
        let edges = [(1, 2), (2, 3), (3, 1), (3, 4), (7, 8), (1, 2)];
        let mut source =
            String::from("Path(x, y) :- Edge(x, y).\nPath(x, y) :- Edge(x, z), Path(z, y).\n");
        for (a, b) in edges {
            source.push_str(&format!("Edge({a}, {b}).\n"));
        }
        let evaluated = evaluate(&parse(&source).unwrap()).unwrap();
        assert_eq!(evaluated, reachability(&edges));
        // 1, 2, 3 reach {1, 2, 3, 4}; 7 reaches 8.
        assert_eq!(rows_of(&evaluated, "Path"), 13);
    }

    #[test]
    fn negation_constraints_and_stratified_count() {
        let program = parse(
            "Reach(x) :- Start(x).\n\
             Reach(y) :- Reach(x), Edge(x, y).\n\
             Unreached(x) :- Node(x), !Reach(x).\n\
             Ordered(x, y) :- Edge(x, y), x < y.\n\
             InDeg(y, count x) :- Edge(x, y), Reach(x).\n\
             Start(1). Node(1). Node(2). Node(3). Node(4).\n\
             Edge(1, 2). Edge(2, 1). Edge(1, 3). Edge(2, 3). Edge(4, 3).",
        )
        .unwrap();
        let print = evaluate(&program).unwrap();
        assert_eq!(rows_of(&print, "Reach"), 3);
        assert_eq!(rows_of(&print, "Unreached"), 1);
        assert_eq!(rows_of(&print, "Ordered"), 3);
        // InDeg over reached sources: 1 <- {2}, 2 <- {1}, 3 <- {1, 2}.
        let mut expected = Fingerprint::default();
        let rows = [vec![1u32, 1], vec![2, 1], vec![3, 2]];
        expected.add("InDeg", rows.iter().map(|r| r.iter().copied()));
        assert_eq!(print.0["InDeg"], expected.0["InDeg"]);
        assert!(!print.0.contains_key("InDeg__agg_input"));
    }

    #[test]
    fn min_lattice_is_bounded_shortest_path() {
        let program = parse(
            "Dist(y, min d)  :- Start(y), Zero(d).\n\
             Dist(y, min d2) :- Dist(x, d1), Edge(x, y), Succ(d1, d2).\n\
             Start(0). Zero(0). Succ(0, 1). Succ(1, 2). Succ(2, 3).\n\
             Edge(0, 1). Edge(1, 2). Edge(0, 2). Edge(2, 0). Edge(2, 3). Edge(3, 4). Edge(4, 5).",
        )
        .unwrap();
        let print = evaluate(&program).unwrap();
        let mut expected = Fingerprint::default();
        // 5 is four hops away, beyond the Succ chain.
        let rows = [
            vec![0u32, 0],
            vec![1, 1],
            vec![2, 1],
            vec![3, 2],
            vec![4, 3],
        ];
        expected.add("Dist", rows.iter().map(|r| r.iter().copied()));
        assert_eq!(print.0["Dist"], expected.0["Dist"]);
    }

    #[test]
    fn max_lattice_on_a_dag_is_the_longest_walk() {
        let program = parse(
            "Walk(y, max d)  :- Start(y), Zero(d).\n\
             Walk(y, max d2) :- Walk(x, d1), Edge(x, y), Succ(d1, d2).\n\
             Start(0). Zero(0). Succ(0, 1). Succ(1, 2). Succ(2, 3). Succ(3, 4).\n\
             Edge(0, 1). Edge(1, 2). Edge(0, 2). Edge(2, 3).",
        )
        .unwrap();
        let print = evaluate(&program).unwrap();
        let mut expected = Fingerprint::default();
        let rows = [vec![0u32, 0], vec![1, 1], vec![2, 2], vec![3, 3]];
        expected.add("Walk", rows.iter().map(|r| r.iter().copied()));
        assert_eq!(print.0["Walk"], expected.0["Walk"]);
    }

    #[test]
    fn fingerprints_ignore_row_order_but_not_column_order() {
        let (a, b) = ([1u32, 2], [2u32, 1]);
        let mut forward = Fingerprint::default();
        forward.add("R", [a, b].into_iter().map(IntoIterator::into_iter));
        let mut backward = Fingerprint::default();
        backward.add("R", [b, a].into_iter().map(IntoIterator::into_iter));
        assert_eq!(forward, backward);
        let mut swapped = Fingerprint::default();
        swapped.add("R", [a, a].into_iter().map(IntoIterator::into_iter));
        assert_ne!(forward, swapped);
        assert!(forward.first_difference(&swapped).is_some());
        assert_eq!(Fingerprint::from_json(&forward.to_json()), Some(forward));
    }
}
