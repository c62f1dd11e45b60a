//! Basic relational operators.
//!
//! The execution backends implement their own fused n-way join kernels for
//! performance, but the relational layer also exposes the textbook unary and
//! binary operators (paper §V-D: "select, project, join, and union").  They
//! are used by the baseline engines, by tests as an executable specification
//! of the fused kernels, and by users who want to poke at relations directly.

use crate::hasher::FxHashMap;
use crate::relation::Relation;
use crate::tuple::Tuple;
use crate::value::Value;

/// The sign of one fact in a signed delta relation: whether the fact is
/// being added to or removed from the extensional database.  Update batches
/// ship `(relation, sign, row)` triples; the incremental maintenance
/// subsystem turns them into insert propagation and witness-checked
/// deletion.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeltaSign {
    /// The fact enters the database.
    Insert,
    /// The fact leaves the database.
    Retract,
}

/// A binary comparison operator between two [`Value`]s.
///
/// Comparisons are over the raw 32-bit representation: plain integers order
/// numerically, interned symbols order by interning id (and always above
/// every integer).  The frontend exposes these as the `<`, `<=`, `>`, `>=`,
/// `=`, `!=` body constraints.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// Strictly less than.
    Lt,
    /// Less than or equal.
    Le,
    /// Strictly greater than.
    Gt,
    /// Greater than or equal.
    Ge,
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
}

impl CmpOp {
    /// Evaluates the comparison on two values (raw 32-bit order).
    #[inline]
    pub fn eval(self, a: Value, b: Value) -> bool {
        match self {
            CmpOp::Lt => a.raw() < b.raw(),
            CmpOp::Le => a.raw() <= b.raw(),
            CmpOp::Gt => a.raw() > b.raw(),
            CmpOp::Ge => a.raw() >= b.raw(),
            CmpOp::Eq => a == b,
            CmpOp::Ne => a != b,
        }
    }

    /// The concrete-syntax spelling of the operator.
    pub fn symbol(self) -> &'static str {
        match self {
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
            CmpOp::Eq => "=",
            CmpOp::Ne => "!=",
        }
    }

    /// The operator with its operands swapped (`a op b` ⇔ `b op.flip() a`).
    pub fn flip(self) -> CmpOp {
        match self {
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
            CmpOp::Eq => CmpOp::Eq,
            CmpOp::Ne => CmpOp::Ne,
        }
    }
}

/// An aggregation function applicable to one column of a relation.
///
/// Aggregation runs under set semantics: the aggregated relation is a set of
/// rows, so `Count` counts distinct rows per group and `Sum` adds each
/// distinct row's value once.  `Sum` and `Count` results saturate at the top
/// of the plain-integer value range ([`Value::SYMBOL_BASE`]` - 1`) so they
/// can never collide with an interned symbol; `Min`/`Max` return one of the
/// input values unchanged.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggFunc {
    /// Number of distinct rows in the group.
    Count,
    /// Sum of the column over the group's distinct rows.
    Sum,
    /// Smallest value of the column in the group (raw 32-bit order).
    Min,
    /// Largest value of the column in the group (raw 32-bit order).
    Max,
}

impl AggFunc {
    /// The concrete-syntax spelling of the function.
    pub fn name(self) -> &'static str {
        match self {
            AggFunc::Count => "count",
            AggFunc::Sum => "sum",
            AggFunc::Min => "min",
            AggFunc::Max => "max",
        }
    }

    /// Parses a concrete-syntax spelling.
    pub fn from_name(name: &str) -> Option<AggFunc> {
        match name {
            "count" => Some(AggFunc::Count),
            "sum" => Some(AggFunc::Sum),
            "min" => Some(AggFunc::Min),
            "max" => Some(AggFunc::Max),
            _ => None,
        }
    }

    /// Fresh accumulator state for this function.
    #[inline]
    pub fn init(self) -> u64 {
        match self {
            AggFunc::Count | AggFunc::Sum => 0,
            AggFunc::Min => u64::MAX,
            AggFunc::Max => 0,
        }
    }

    /// Folds one row's column value into the accumulator.
    #[inline]
    pub fn fold(self, acc: u64, value: Value) -> u64 {
        let raw = value.raw() as u64;
        match self {
            AggFunc::Count => acc + 1,
            AggFunc::Sum => acc.saturating_add(raw),
            AggFunc::Min => acc.min(raw),
            AggFunc::Max => acc.max(raw),
        }
    }

    /// Finalizes the accumulator into a value.  `Count`/`Sum` saturate at
    /// the top of the plain-integer range; `Min` over an empty group (which
    /// the engine never produces — empty groups emit no row) would saturate
    /// the same way.
    #[inline]
    pub fn finish(self, acc: u64) -> Value {
        match self {
            AggFunc::Count | AggFunc::Sum => Value(acc.min((Value::SYMBOL_BASE - 1) as u64) as u32),
            AggFunc::Min | AggFunc::Max => Value(acc.min(u32::MAX as u64) as u32),
        }
    }
}

/// A selection predicate on a single relation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Predicate {
    /// Column `col` must equal the constant `value`.
    ColumnEqualsConst {
        /// Filtered column position.
        col: usize,
        /// Constant the column must carry.
        value: Value,
    },
    /// Column `left` must equal column `right` (a self-join condition within
    /// one tuple).
    ColumnsEqual {
        /// Left column position.
        left: usize,
        /// Right column position.
        right: usize,
    },
}

impl Predicate {
    /// Evaluates the predicate against one tuple.
    pub fn matches(&self, tuple: &Tuple) -> bool {
        self.matches_row(tuple.values())
    }

    /// Evaluates the predicate against one row slice (the storage-layout
    /// variant used when scanning a relation's row pool directly).
    pub fn matches_row(&self, row: &[Value]) -> bool {
        match *self {
            Predicate::ColumnEqualsConst { col, value } => row.get(col) == Some(&value),
            Predicate::ColumnsEqual { left, right } => {
                row.get(left).is_some() && row.get(left) == row.get(right)
            }
        }
    }
}

/// σ: returns the tuples of `input` satisfying all `predicates`.
pub fn select(input: &Relation, predicates: &[Predicate]) -> Vec<Tuple> {
    input
        .iter_rows()
        .filter(|row| predicates.iter().all(|p| p.matches_row(row)))
        .map(Tuple::from_row)
        .collect()
}

/// π: projects each tuple of `input` onto `columns` (in the given order).
/// Duplicates introduced by the projection are preserved in the returned
/// vector; callers inserting into a [`Relation`] get set semantics back.
pub fn project(input: &[Tuple], columns: &[usize]) -> Vec<Tuple> {
    input.iter().map(|t| t.project(columns)).collect()
}

/// ⋈: hash join of `left` and `right` on `left_col = right_col`.
///
/// The output tuples are the concatenation of the left tuple and the right
/// tuple (no column elimination); use [`project`] afterwards to shape the
/// result.  The smaller side is used as the build side.
pub fn hash_join(left: &[Tuple], right: &[Tuple], left_col: usize, right_col: usize) -> Vec<Tuple> {
    // Build on the smaller input to bound the hash table size.
    if right.len() < left.len() {
        let swapped = hash_join(right, left, right_col, left_col);
        // Re-concatenate in the caller's expected order (left ++ right).
        return swapped
            .into_iter()
            .map(|t| {
                let values = t.values();
                let (r, l) = values.split_at(right.first().map_or(0, Tuple::arity));
                Tuple::new(l.iter().chain(r.iter()).copied().collect())
            })
            .collect();
    }

    let mut table: FxHashMap<Value, Vec<&Tuple>> = FxHashMap::default();
    for tuple in left {
        if let Some(key) = tuple.get(left_col) {
            table.entry(key).or_default().push(tuple);
        }
    }
    let mut out = Vec::new();
    for r in right {
        let Some(key) = r.get(right_col) else {
            continue;
        };
        if let Some(matches) = table.get(&key) {
            for l in matches {
                out.push(l.concat(r));
            }
        }
    }
    out
}

/// Cartesian product of two tuple sets (the degenerate join with no key).
pub fn cartesian_product(left: &[Tuple], right: &[Tuple]) -> Vec<Tuple> {
    let mut out = Vec::with_capacity(left.len() * right.len());
    for l in left {
        for r in right {
            out.push(l.concat(r));
        }
    }
    out
}

/// ∪: set union of two tuple collections.
pub fn union(left: &[Tuple], right: &[Tuple]) -> Vec<Tuple> {
    let mut seen: crate::hasher::FxHashSet<Tuple> = crate::hasher::FxHashSet::default();
    let mut out = Vec::with_capacity(left.len() + right.len());
    for t in left.iter().chain(right.iter()) {
        if seen.insert(t.clone()) {
            out.push(t.clone());
        }
    }
    out
}

/// ∖: tuples of `left` that are not in `right`.
pub fn difference(left: &[Tuple], right: &Relation) -> Vec<Tuple> {
    left.iter()
        .filter(|t| !right.contains(t))
        .cloned()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{RelId, RelationSchema};

    fn rel(name: &str, arity: usize, rows: &[&[u32]]) -> Relation {
        let mut r = Relation::new(RelationSchema::new(RelId(0), name, arity, true));
        for row in rows {
            r.insert(Tuple::from_ints(row)).unwrap();
        }
        r
    }

    #[test]
    fn cmp_op_eval_and_flip() {
        let a = Value::int(3);
        let b = Value::int(7);
        assert!(CmpOp::Lt.eval(a, b));
        assert!(CmpOp::Le.eval(a, a));
        assert!(CmpOp::Gt.eval(b, a));
        assert!(CmpOp::Ge.eval(b, b));
        assert!(CmpOp::Eq.eval(a, a));
        assert!(CmpOp::Ne.eval(a, b));
        for op in [
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
            CmpOp::Eq,
            CmpOp::Ne,
        ] {
            assert_eq!(op.eval(a, b), op.flip().eval(b, a));
            assert_eq!(AggFunc::from_name(op.symbol()), None);
        }
    }

    #[test]
    fn agg_func_fold_and_saturation() {
        // Sum saturates below the symbol range instead of wrapping into it.
        let mut acc = AggFunc::Sum.init();
        for _ in 0..3 {
            acc = AggFunc::Sum.fold(acc, Value::int(Value::SYMBOL_BASE - 1));
        }
        let result = AggFunc::Sum.finish(acc);
        assert!(!result.is_symbol());
        assert_eq!(result.raw(), Value::SYMBOL_BASE - 1);
        // Count counts folds.
        let mut c = AggFunc::Count.init();
        c = AggFunc::Count.fold(c, Value::int(9));
        c = AggFunc::Count.fold(c, Value::int(1));
        assert_eq!(AggFunc::Count.finish(c), Value::int(2));
        // Round-trip names.
        for f in [AggFunc::Count, AggFunc::Sum, AggFunc::Min, AggFunc::Max] {
            assert_eq!(AggFunc::from_name(f.name()), Some(f));
        }
    }

    #[test]
    fn select_filters_by_constant_and_column_equality() {
        let r = rel("R", 2, &[&[1, 1], &[1, 2], &[2, 2]]);
        let by_const = select(
            &r,
            &[Predicate::ColumnEqualsConst {
                col: 0,
                value: Value::int(1),
            }],
        );
        assert_eq!(by_const.len(), 2);

        let diagonal = select(&r, &[Predicate::ColumnsEqual { left: 0, right: 1 }]);
        assert_eq!(diagonal, vec![Tuple::pair(1, 1), Tuple::pair(2, 2)]);
    }

    #[test]
    fn project_reorders_columns() {
        let rows = vec![Tuple::pair(1, 2), Tuple::pair(3, 4)];
        let projected = project(&rows, &[1, 0]);
        assert_eq!(projected, vec![Tuple::pair(2, 1), Tuple::pair(4, 3)]);
    }

    #[test]
    fn hash_join_matches_nested_loop() {
        let left = vec![Tuple::pair(1, 10), Tuple::pair(2, 20), Tuple::pair(3, 10)];
        let right = vec![
            Tuple::pair(10, 100),
            Tuple::pair(10, 200),
            Tuple::pair(20, 300),
        ];
        let mut joined = hash_join(&left, &right, 1, 0);
        let mut expected = Vec::new();
        for l in &left {
            for r in &right {
                if l.get(1) == r.get(0) {
                    expected.push(l.concat(r));
                }
            }
        }
        joined.sort();
        expected.sort();
        assert_eq!(joined, expected);
        assert_eq!(joined.len(), 5);
    }

    #[test]
    fn hash_join_swaps_build_side_transparently() {
        // Left bigger than right triggers the swap path; output order of
        // columns must still be left ++ right.
        let left = vec![
            Tuple::pair(1, 5),
            Tuple::pair(2, 5),
            Tuple::pair(3, 5),
            Tuple::pair(4, 6),
        ];
        let right = vec![Tuple::pair(5, 50)];
        let joined = hash_join(&left, &right, 1, 0);
        assert_eq!(joined.len(), 3);
        for t in &joined {
            assert_eq!(t.arity(), 4);
            assert_eq!(t.get(1), Some(Value::int(5)));
            assert_eq!(t.get(2), Some(Value::int(5)));
            assert_eq!(t.get(3), Some(Value::int(50)));
        }
    }

    #[test]
    fn cartesian_product_sizes_multiply() {
        let left = vec![Tuple::from_ints(&[1]), Tuple::from_ints(&[2])];
        let right = vec![
            Tuple::from_ints(&[3]),
            Tuple::from_ints(&[4]),
            Tuple::from_ints(&[5]),
        ];
        assert_eq!(cartesian_product(&left, &right).len(), 6);
    }

    #[test]
    fn union_dedups() {
        let a = vec![Tuple::pair(1, 2), Tuple::pair(3, 4)];
        let b = vec![Tuple::pair(3, 4), Tuple::pair(5, 6)];
        let u = union(&a, &b);
        assert_eq!(u.len(), 3);
    }

    #[test]
    fn difference_removes_existing() {
        let existing = rel("R", 2, &[&[1, 2]]);
        let candidate = vec![Tuple::pair(1, 2), Tuple::pair(7, 8)];
        assert_eq!(difference(&candidate, &existing), vec![Tuple::pair(7, 8)]);
    }
}
