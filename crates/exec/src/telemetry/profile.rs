//! Per-rule and per-aggregate execution profiles.
//!
//! This is the profiling substrate the tiered-JIT roadmap item needs: for
//! every rule, how often its subquery ran, how many delta rows it consumed,
//! how many tuples it emitted/inserted and how much wall-clock time it
//! cost — plus the optimizer's *estimated* delta cardinality, so observed
//! vs. estimated drift detection is a subtraction.  Profiles are always on
//! (they fire once per subquery execution, never per tuple) and reconcile
//! exactly with the aggregate `RunStats` counters; `tests/trace_integrity.rs`
//! asserts that equality across all three engines.
//!
//! Aggregates have no `RuleId` (an `AggregateSpec` is keyed by its output
//! relation), so they get their own small table; together the two tables
//! account for every `tuples_emitted`/`tuples_inserted` increment.

use std::collections::BTreeMap;
use std::time::Duration;

use carac_datalog::RuleId;
use carac_storage::RelId;

/// Execution profile of one rule's subquery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RuleProfile {
    /// The rule.
    pub rule: RuleId,
    /// Stratum the rule executed in (index in plan order).
    pub stratum: u32,
    /// Number of subquery executions (one per fixpoint pass that reached
    /// the rule).
    pub executions: u64,
    /// Total rows present in the rule's delta (`DeltaKnown`) atoms across
    /// executions — the semi-naive work driver.
    pub delta_rows_in: u64,
    /// Tuples emitted before deduplication, after projection: a join level
    /// whose key was already expanded emits nothing again (see
    /// `ConjunctiveQuery::projection_plan`), so the count depends on the
    /// join order the rule ran in.
    pub tuples_emitted: u64,
    /// Tuples that were genuinely new.
    pub tuples_inserted: u64,
    /// Wall-clock time spent executing the subquery.
    pub cumulative_time: Duration,
    /// Optimizer-estimated delta rows at reorder time (0 when the run never
    /// consulted the optimizer, e.g. pure interpretation).
    pub estimated_delta_rows: u64,
}

impl RuleProfile {
    fn new(rule: RuleId) -> Self {
        RuleProfile {
            rule,
            stratum: 0,
            executions: 0,
            delta_rows_in: 0,
            tuples_emitted: 0,
            tuples_inserted: 0,
            cumulative_time: Duration::ZERO,
            estimated_delta_rows: 0,
        }
    }

    /// Observed minus estimated delta rows — positive when the optimizer
    /// underestimated.  The drift signal for the tiered-JIT policy.
    pub fn estimate_drift(&self) -> i64 {
        self.delta_rows_in as i64 - self.estimated_delta_rows as i64
    }
}

/// Execution profile of one aggregate finalization, keyed by its output
/// relation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AggregateProfile {
    /// Output relation of the aggregate.
    pub output: RelId,
    /// Number of finalizations.
    pub executions: u64,
    /// Tuples emitted before deduplication.
    pub tuples_emitted: u64,
    /// Tuples that were genuinely new.
    pub tuples_inserted: u64,
    /// Wall-clock time spent finalizing.
    pub cumulative_time: Duration,
}

/// The profile tables riding on `RunStats`.
#[derive(Debug, Clone, Default)]
pub struct ProfileTable {
    rules: BTreeMap<u32, RuleProfile>,
    aggregates: BTreeMap<u32, AggregateProfile>,
}

impl ProfileTable {
    fn rule_entry(&mut self, rule: RuleId) -> &mut RuleProfile {
        self.rules
            .entry(rule.0)
            .or_insert_with(|| RuleProfile::new(rule))
    }

    /// Records one subquery execution of `rule`.
    pub fn record_execution(
        &mut self,
        rule: RuleId,
        stratum: u32,
        delta_rows_in: u64,
        emitted: u64,
        time: Duration,
    ) {
        let entry = self.rule_entry(rule);
        entry.stratum = stratum;
        entry.executions += 1;
        entry.delta_rows_in += delta_rows_in;
        entry.tuples_emitted += emitted;
        entry.cumulative_time += time;
    }

    /// Credits `rule` with newly inserted tuples.
    pub fn record_inserted(&mut self, rule: RuleId, inserted: u64) {
        self.rule_entry(rule).tuples_inserted += inserted;
    }

    /// Records the optimizer's delta-cardinality estimate for `rule`.
    pub fn record_estimate(&mut self, rule: RuleId, estimated_delta_rows: u64) {
        self.rule_entry(rule).estimated_delta_rows += estimated_delta_rows;
    }

    /// Merges pre-accumulated per-rule tallies (used when the bytecode VM
    /// hands back its side counters after a run).
    #[allow(clippy::too_many_arguments)]
    pub fn merge_rule_tally(
        &mut self,
        rule: RuleId,
        stratum: u32,
        executions: u64,
        delta_rows_in: u64,
        emitted: u64,
        inserted: u64,
        time: Duration,
    ) {
        let entry = self.rule_entry(rule);
        entry.stratum = stratum;
        entry.executions += executions;
        entry.delta_rows_in += delta_rows_in;
        entry.tuples_emitted += emitted;
        entry.tuples_inserted += inserted;
        entry.cumulative_time += time;
    }

    /// Records one aggregate finalization.
    pub fn record_aggregate(&mut self, output: RelId, emitted: u64, inserted: u64, time: Duration) {
        let entry = self
            .aggregates
            .entry(output.0)
            .or_insert_with(|| AggregateProfile {
                output,
                executions: 0,
                tuples_emitted: 0,
                tuples_inserted: 0,
                cumulative_time: Duration::ZERO,
            });
        entry.executions += 1;
        entry.tuples_emitted += emitted;
        entry.tuples_inserted += inserted;
        entry.cumulative_time += time;
    }

    /// Merges pre-accumulated aggregate tallies (the aggregate companion of
    /// [`ProfileTable::merge_rule_tally`]).
    pub fn merge_aggregate_tally(
        &mut self,
        output: RelId,
        executions: u64,
        emitted: u64,
        inserted: u64,
        time: Duration,
    ) {
        let entry = self
            .aggregates
            .entry(output.0)
            .or_insert_with(|| AggregateProfile {
                output,
                executions: 0,
                tuples_emitted: 0,
                tuples_inserted: 0,
                cumulative_time: Duration::ZERO,
            });
        entry.executions += executions;
        entry.tuples_emitted += emitted;
        entry.tuples_inserted += inserted;
        entry.cumulative_time += time;
    }

    /// Folds `other` into `self` (mirrors `RunStats::merge`).
    pub fn merge(&mut self, other: &ProfileTable) {
        for profile in other.rules.values() {
            self.merge_rule_tally(
                profile.rule,
                profile.stratum,
                profile.executions,
                profile.delta_rows_in,
                profile.tuples_emitted,
                profile.tuples_inserted,
                profile.cumulative_time,
            );
            self.rule_entry(profile.rule).estimated_delta_rows += profile.estimated_delta_rows;
        }
        for agg in other.aggregates.values() {
            let entry = self
                .aggregates
                .entry(agg.output.0)
                .or_insert_with(|| AggregateProfile {
                    output: agg.output,
                    executions: 0,
                    tuples_emitted: 0,
                    tuples_inserted: 0,
                    cumulative_time: Duration::ZERO,
                });
            entry.executions += agg.executions;
            entry.tuples_emitted += agg.tuples_emitted;
            entry.tuples_inserted += agg.tuples_inserted;
            entry.cumulative_time += agg.cumulative_time;
        }
    }

    /// Rule profiles in `RuleId` order.
    pub fn rules(&self) -> impl Iterator<Item = &RuleProfile> {
        self.rules.values()
    }

    /// Aggregate profiles in output-relation order.
    pub fn aggregates(&self) -> impl Iterator<Item = &AggregateProfile> {
        self.aggregates.values()
    }

    /// Profile of a specific rule, if it ever executed.
    pub fn rule(&self, rule: RuleId) -> Option<&RuleProfile> {
        self.rules.get(&rule.0)
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty() && self.aggregates.is_empty()
    }

    /// Number of profiled rules.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// Sum of per-rule executions (reconciles with `RunStats::subqueries`).
    pub fn total_executions(&self) -> u64 {
        self.rules.values().map(|p| p.executions).sum()
    }

    /// Sum of rule + aggregate emitted tuples (reconciles with
    /// `RunStats::tuples_emitted`).
    pub fn total_emitted(&self) -> u64 {
        self.rules.values().map(|p| p.tuples_emitted).sum::<u64>()
            + self
                .aggregates
                .values()
                .map(|a| a.tuples_emitted)
                .sum::<u64>()
    }

    /// Sum of rule + aggregate inserted tuples (reconciles with
    /// `RunStats::tuples_inserted`).
    pub fn total_inserted(&self) -> u64 {
        self.rules.values().map(|p| p.tuples_inserted).sum::<u64>()
            + self
                .aggregates
                .values()
                .map(|a| a.tuples_inserted)
                .sum::<u64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_accumulate_per_rule() {
        let mut table = ProfileTable::default();
        table.record_execution(RuleId(1), 0, 10, 4, Duration::from_micros(5));
        table.record_execution(RuleId(1), 0, 2, 1, Duration::from_micros(3));
        table.record_inserted(RuleId(1), 3);
        table.record_estimate(RuleId(1), 9);
        let p = table.rule(RuleId(1)).unwrap();
        assert_eq!(p.executions, 2);
        assert_eq!(p.delta_rows_in, 12);
        assert_eq!(p.tuples_emitted, 5);
        assert_eq!(p.tuples_inserted, 3);
        assert_eq!(p.cumulative_time, Duration::from_micros(8));
        assert_eq!(p.estimated_delta_rows, 9);
        assert_eq!(p.estimate_drift(), 3);
    }

    #[test]
    fn merge_folds_both_tables() {
        let mut a = ProfileTable::default();
        a.record_execution(RuleId(0), 0, 1, 1, Duration::ZERO);
        a.record_aggregate(RelId(5), 2, 1, Duration::ZERO);
        let mut b = ProfileTable::default();
        b.record_execution(RuleId(0), 0, 1, 2, Duration::ZERO);
        b.record_execution(RuleId(1), 1, 4, 3, Duration::ZERO);
        b.record_aggregate(RelId(5), 1, 1, Duration::ZERO);
        a.merge(&b);
        assert_eq!(a.len(), 2);
        assert_eq!(a.rule(RuleId(0)).unwrap().executions, 2);
        assert_eq!(a.rule(RuleId(0)).unwrap().tuples_emitted, 3);
        assert_eq!(a.total_executions(), 3);
        assert_eq!(a.total_emitted(), 1 + 2 + 3 + 2 + 1);
        let agg: Vec<_> = a.aggregates().collect();
        assert_eq!(agg.len(), 1);
        assert_eq!(agg[0].executions, 2);
    }
}
