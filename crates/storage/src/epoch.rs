//! Row epochs: which iteration boundary appended a row, as a run table.
//!
//! The storage manager keeps one session-monotone counter, bumped at every
//! [`swap_and_clear`](crate::StorageManager::swap_and_clear), and row pools
//! are append-only — so a relation's slots are monotone in epoch and "the
//! epoch of row `r`" needs no per-row field: a table of
//! `(first slot, epoch)` runs, one entry per boundary that appended
//! anything, answers it with a binary search.
//!
//! The table enforces the monotonicity it relies on: a run can only begin
//! with an epoch above the previous run's.  Rows appended before any run
//! began carry epoch 0.

use crate::pool::RowId;

/// The `(first slot, epoch)` runs of one relation, first slots strictly
/// increasing and epochs strictly increasing with them.
#[derive(Debug, Clone, Default)]
pub(crate) struct EpochRuns(Vec<(RowId, u32)>);

impl EpochRuns {
    /// Rows appended from slot `next` on carry `epoch`.  An epoch at or
    /// below the current one continues the current run (equal is the same
    /// boundary; lower cannot come from a monotone counter and is ignored
    /// rather than allowed to break the order).
    #[inline]
    pub(crate) fn begin(&mut self, next: RowId, epoch: u32) {
        match self.0.last_mut() {
            Some(last) if epoch <= last.1 => {}
            // The previous boundary appended nothing: reuse its entry.
            Some(last) if last.0 == next => last.1 = epoch,
            None if epoch == 0 => {}
            _ => self.0.push((next, epoch)),
        }
    }

    /// The epoch of the row in slot `row`.
    #[inline]
    pub(crate) fn epoch_of(&self, row: RowId) -> u32 {
        match self.0.partition_point(|run| run.0 <= row) {
            0 => 0,
            i => self.0[i - 1].1,
        }
    }

    pub(crate) fn clear(&mut self) {
        self.0.clear();
    }

    pub(crate) fn as_slice(&self) -> &[(RowId, u32)] {
        &self.0
    }

    pub(crate) fn heap_bytes(&self) -> usize {
        self.0.capacity() * std::mem::size_of::<(RowId, u32)>()
    }

    /// The table after the slots failing `is_live` are compacted away:
    /// every first slot becomes the number of live slots before it, and
    /// runs left without rows give their entry to the next one.
    pub(crate) fn renumbered(&self, is_live: impl Fn(RowId) -> bool) -> EpochRuns {
        let mut out: Vec<(RowId, u32)> = Vec::with_capacity(self.0.len());
        let (mut slot, mut live) = (0, 0);
        for &(first, epoch) in &self.0 {
            while slot < first {
                live += RowId::from(is_live(slot));
                slot += 1;
            }
            match out.last_mut() {
                Some(last) if last.0 == live => last.1 = epoch,
                _ => out.push((live, epoch)),
            }
        }
        EpochRuns(out)
    }

    /// Adopts a table read from outside the process for a relation of
    /// `rows` rows, or `None` when it is not a run table: first slots must
    /// increase strictly and stay within the rows, epochs must increase.
    pub(crate) fn checked(runs: &[(RowId, u32)], rows: usize) -> Option<EpochRuns> {
        let ordered = runs
            .windows(2)
            .all(|pair| pair[0].0 < pair[1].0 && pair[0].1 < pair[1].1);
        let in_range = runs.last().is_none_or(|last| last.0 as usize <= rows);
        (ordered && in_range).then(|| EpochRuns(runs.to_vec()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_before_the_first_run_are_epoch_zero() {
        let mut runs = EpochRuns::default();
        runs.begin(0, 0);
        assert!(runs.as_slice().is_empty());
        runs.begin(3, 5);
        runs.begin(7, 9);
        assert_eq!(runs.epoch_of(0), 0);
        assert_eq!(runs.epoch_of(2), 0);
        assert_eq!(runs.epoch_of(3), 5);
        assert_eq!(runs.epoch_of(6), 5);
        assert_eq!(runs.epoch_of(7), 9);
        assert_eq!(runs.epoch_of(1_000), 9);
    }

    #[test]
    fn empty_boundaries_leave_no_entry_and_order_is_enforced() {
        let mut runs = EpochRuns::default();
        runs.begin(4, 1);
        runs.begin(4, 2); // boundary 1 appended nothing
        runs.begin(6, 2); // same epoch continues
        runs.begin(6, 1); // a stale epoch cannot reorder the table
        assert_eq!(runs.as_slice(), &[(4, 2)]);
        runs.begin(6, u32::MAX);
        runs.begin(9, u32::MAX); // a saturated counter: one last run
        assert_eq!(runs.as_slice(), &[(4, 2), (6, u32::MAX)]);
    }

    #[test]
    fn renumbering_drops_emptied_runs() {
        let mut runs = EpochRuns::default();
        runs.begin(2, 1);
        runs.begin(4, 2);
        runs.begin(6, 3);
        // Slots 0, 4 and 5 die: run 2 loses all its rows.
        let compacted = runs.renumbered(|slot| ![0, 4, 5].contains(&slot));
        assert_eq!(compacted.as_slice(), &[(1, 1), (3, 3)]);
        // Every slot dies: only the open run survives, at slot 0.
        assert_eq!(runs.renumbered(|_| false).as_slice(), &[(0, 3)]);
    }

    #[test]
    fn foreign_tables_are_validated() {
        assert!(EpochRuns::checked(&[], 0).is_some());
        assert!(EpochRuns::checked(&[(0, 1), (2, 4)], 2).is_some());
        assert!(EpochRuns::checked(&[(0, 1), (3, 4)], 2).is_none()); // past the rows
        assert!(EpochRuns::checked(&[(2, 1), (2, 4)], 5).is_none()); // repeated slot
        assert!(EpochRuns::checked(&[(0, 4), (2, 4)], 5).is_none()); // epoch not rising
    }
}
