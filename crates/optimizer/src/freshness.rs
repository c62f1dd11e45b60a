//! The freshness test (paper §V-B.2).
//!
//! Recompiling a subtree has a cost; it only pays off when the cardinality
//! landscape has actually shifted since the last compilation.  Before
//! re-specializing a compiled node the JIT therefore checks whether the
//! relative change of any relation's cardinality exceeds a tunable
//! threshold.  The test is deliberately cheap — one pass over two slices of
//! cardinalities, no snapshot — so it can run at every safe point.

use crate::config::OptimizerConfig;

/// Whether any cardinality moved, relative to its value in `baseline`, by
/// more than `config.freshness_threshold`.
///
/// `baseline` holds the cardinalities an artifact was specialized against
/// and `current` the same relations' cardinalities now, in the same order.
/// A relation growing from zero counts its new cardinality as the change
/// (the "infinite" relative growth is capped), so a single new fact in an
/// empty relation still registers.
pub fn drifted(
    baseline: &[usize],
    current: impl IntoIterator<Item = usize>,
    config: &OptimizerConfig,
) -> bool {
    baseline.iter().zip(current).any(|(&old, new)| {
        let (old, new) = (old as f64, new as f64);
        let change = if old == 0.0 {
            new
        } else {
            ((new - old) / old).abs()
        };
        change > config.freshness_threshold
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(freshness_threshold: f64) -> OptimizerConfig {
        OptimizerConfig {
            freshness_threshold,
            ..OptimizerConfig::default()
        }
    }

    #[test]
    fn small_changes_are_fresh_large_changes_are_stale() {
        let config = config(0.5);
        assert!(!drifted(&[100, 10], [120, 10], &config)); // +20% < 50%
        assert!(drifted(&[100, 10], [200, 10], &config)); // +100% > 50%
        assert!(drifted(&[100, 10], [100, 4], &config)); // -60% > 50%
    }

    #[test]
    fn growth_from_zero_counts_new_tuples() {
        assert!(drifted(&[0], [3], &config(0.2)));
        assert!(!drifted(&[0], [0], &config(0.2)));
    }

    #[test]
    fn identical_cardinalities_never_drift() {
        assert!(!drifted(&[5, 5, 5], [5, 5, 5], &config(0.0)));
        assert!(!drifted(&[], [], &config(0.0)));
    }
}
