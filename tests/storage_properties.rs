//! Property tests for the storage layer: random operation streams applied
//! both to a [`Relation`] (row pool + dedup table + indexes) and to a naive
//! `Vec`-of-rows model, asserting after every step that the two agree and
//! that the pool's internal invariants hold:
//!
//! * **dedup-map consistency** — membership, cardinality and iteration
//!   match the model exactly; re-inserting a present row or retracting an
//!   absent one is a no-op;
//! * **tombstone accounting** — `slot_count() == len() + dead_count()`, ids
//!   are never reused before a compaction, and compaction renumbers densely;
//! * **generation bumps** — `row_checked` accepts ids under the generation
//!   they were obtained under and rejects them (typed `StaleRowId`) once a
//!   compaction has moved ids;
//! * **epochs** — every live row keeps the epoch it was inserted under
//!   through retraction, compaction, clear, clone and the snapshot round
//!   trip, and epochs never decrease in slot order;
//! * **evaluation views** — through emits, iteration boundaries, lattice
//!   retract-and-reinsert, explicit delta sets, delta clears, compaction and
//!   clear, the derived, delta-known and delta-new views of a
//!   [`StorageManager`](carac_storage::StorageManager) relation hold exactly
//!   the published rows, the last run (or the explicit set) and the pending
//!   rows, and every index, scan and shard probe of each view answers with
//!   the model's matching rows in slot order.
//!
//! The streams are seeded (same RNG as the fuzz harness), so every failure
//! reproduces from its seed.

use std::collections::BTreeSet;

use carac_analysis::rng::SmallRng;
use carac_storage::{RelId, Relation, RelationSchema, RowId, StorageError, Tuple, Value};

const SEEDS: u64 = 40;
const OPS_PER_SEED: usize = 300;

fn test_relation(arity: usize) -> Relation {
    Relation::new(RelationSchema::new(RelId(0), "Prop", arity, true))
}

fn row(values: &[u32]) -> Vec<Value> {
    values.iter().copied().map(Value::int).collect()
}

/// Draws a row from a small value universe so inserts collide with earlier
/// rows often enough to exercise the dedup table and tombstone reuse paths.
fn random_row(rng: &mut SmallRng, arity: usize) -> Vec<u32> {
    (0..arity).map(|_| rng.gen_range_u32(0, 12)).collect()
}

/// One random op stream against a `Relation` and a naive ordered-set model,
/// checked for agreement after every single operation.
fn run_stream(seed: u64, arity: usize, with_indexes: bool, compactions: bool) {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xC0FF_EE00_u64.wrapping_mul(arity as u64 + 1));
    let mut relation = test_relation(arity);
    if with_indexes {
        relation.add_index(0).expect("column 0 exists");
        if arity >= 2 {
            relation
                .add_composite_index(&[0, 1])
                .expect("columns exist");
        }
    }
    // The model: live rows in insertion order (the order `iter_rows`
    // guarantees), plus a set view for membership.
    let mut model_order: Vec<Vec<u32>> = Vec::new();
    let mut model_set: BTreeSet<Vec<u32>> = BTreeSet::new();
    let mut inserted_ever = 0usize;

    for step in 0..OPS_PER_SEED {
        let ctx = || format!("seed {seed} arity {arity} step {step}");
        if compactions && rng.gen_bool(0.04) {
            let before = relation.generation();
            let had_dead = relation.dead_count() > 0;
            relation.compact();
            assert_eq!(
                relation.generation(),
                before + u64::from(had_dead),
                "compaction must bump the generation exactly when ids move ({})",
                ctx()
            );
            assert_eq!(relation.dead_count(), 0, "compaction clears tombstones");
        } else if !model_order.is_empty() && rng.gen_bool(0.35) {
            // Retract: half the time a present row, half a random (likely
            // absent) one — both must report exactly what the model says.
            let values = if rng.gen_bool(0.5) {
                model_order[rng.gen_range_usize(0, model_order.len())].clone()
            } else {
                random_row(&mut rng, arity)
            };
            let was_present = model_set.remove(&values);
            if was_present {
                model_order.retain(|r| r != &values);
            }
            let removed = relation.retract_row(&row(&values)).expect("arity matches");
            assert_eq!(removed, was_present, "retract effect ({})", ctx());
        } else {
            let values = random_row(&mut rng, arity);
            let was_new = model_set.insert(values.clone());
            if was_new {
                model_order.push(values.clone());
            }
            let inserted = relation.insert_row(&row(&values)).expect("arity matches");
            assert_eq!(inserted, was_new, "insert set semantics ({})", ctx());
            if inserted {
                inserted_ever += 1;
            }
        }

        // --- dedup-map consistency ----------------------------------------
        assert_eq!(relation.len(), model_set.len(), "cardinality ({})", ctx());
        let got: Vec<Vec<u32>> = relation
            .iter_rows()
            .map(|r| r.iter().map(|v| v.raw()).collect())
            .collect();
        assert_eq!(got, model_order, "iteration order ({})", ctx());
        // Membership agrees on present rows and on a random probe.
        let probe = random_row(&mut rng, arity);
        assert_eq!(
            relation.contains_row(&row(&probe)),
            model_set.contains(&probe),
            "membership probe ({})",
            ctx()
        );
        assert_eq!(
            relation.contains(&Tuple::new(row(&probe))),
            model_set.contains(&probe),
            "tuple membership probe ({})",
            ctx()
        );

        // --- tombstone accounting -----------------------------------------
        assert_eq!(
            relation.slot_count(),
            relation.len() + relation.dead_count(),
            "slots = live + dead ({})",
            ctx()
        );
        // Ids are never reused between compactions, so the allocated slots
        // can never exceed the number of effective insertions.
        assert!(
            relation.slot_count() <= inserted_ever,
            "slot count cannot exceed lifetime insertions ({})",
            ctx()
        );

        // --- index consistency --------------------------------------------
        if with_indexes {
            let needle = rng.gen_range_u32(0, 12);
            let expected = model_order
                .iter()
                .filter(|r| r[0] == needle)
                .cloned()
                .collect::<Vec<_>>();
            let via_index: Vec<Vec<u32>> = relation
                .lookup_rows(0, Value::int(needle))
                .into_iter()
                .map(|id| relation.row(id).iter().map(|v| v.raw()).collect())
                .collect();
            assert_eq!(via_index, expected, "single-column index ({})", ctx());
        }
    }
}

#[test]
fn random_op_streams_agree_with_the_vec_model() {
    for seed in 0..SEEDS {
        run_stream(seed, 2, false, false);
    }
}

#[test]
fn random_op_streams_agree_under_indexes_and_compaction() {
    for seed in 0..SEEDS {
        run_stream(seed, 2, true, true);
        run_stream(seed, 3, true, true);
    }
}

#[test]
fn unary_and_wide_rows_behave_identically() {
    for seed in 0..SEEDS / 2 {
        run_stream(seed, 1, true, true);
        run_stream(seed, 4, false, true);
    }
}

#[test]
fn row_ids_are_stable_until_compaction_then_stale() {
    for seed in 0..SEEDS {
        let mut rng = SmallRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9));
        let mut relation = test_relation(2);
        // Insert a batch and remember every row's id under generation 0.
        let mut live: Vec<(RowId, Vec<u32>)> = Vec::new();
        for _ in 0..40 {
            let values = random_row(&mut rng, 2);
            let hash = carac_storage::pool::row_hash(&row(&values));
            if relation.insert_row(&row(&values)).unwrap() {
                let id = relation
                    .find_row_hashed(&row(&values), hash)
                    .expect("just inserted");
                live.push((id, values));
            }
        }
        let generation = relation.generation();
        // Ids resolve to their rows while the generation stands.
        for (id, values) in &live {
            assert_eq!(
                relation.row_checked(*id, generation).unwrap(),
                &row(values)[..]
            );
        }
        // Retract a random half: the retracted ids now fail the liveness
        // check even under the same generation, the others still resolve.
        let mut retracted = BTreeSet::new();
        for (i, (_, values)) in live.iter().enumerate() {
            if rng.gen_bool(0.5) {
                assert!(relation.retract_row(&row(values)).unwrap());
                retracted.insert(i);
            }
        }
        for (i, (id, values)) in live.iter().enumerate() {
            if retracted.contains(&i) {
                assert!(matches!(
                    relation.row_checked(*id, generation),
                    Err(StorageError::StaleRowId { .. })
                ));
            } else {
                assert_eq!(
                    relation.row_checked(*id, generation).unwrap(),
                    &row(values)[..]
                );
            }
        }
        // Compaction renumbers: every pre-compaction id is rejected under
        // the old generation, and the surviving rows are all still present
        // under fresh ids.
        let moved = !retracted.is_empty();
        relation.compact();
        if moved {
            assert_eq!(relation.generation(), generation + 1);
            for (id, _) in &live {
                assert!(matches!(
                    relation.row_checked(*id, generation),
                    Err(StorageError::StaleRowId { .. })
                ));
            }
        }
        for (i, (_, values)) in live.iter().enumerate() {
            assert_eq!(
                relation.contains_row(&row(values)),
                !retracted.contains(&i),
                "seed {seed}: compaction must preserve exactly the live rows"
            );
        }
        // Dense renumbering: ids are 0..len again.
        assert_eq!(relation.slot_count(), relation.len());
    }
}

/// The epoch of every live row, in slot order.
fn live_epochs(relation: &Relation) -> Vec<(Vec<Value>, u32)> {
    (0..relation.slot_count() as RowId)
        .filter(|&slot| relation.is_live(slot))
        .map(|slot| (relation.row(slot).to_vec(), relation.epoch_of(slot)))
        .collect()
}

/// `epoch_runs()` expanded to one epoch per live row (`rows` of them).
fn expand_runs(runs: &[(RowId, u32)], rows: usize) -> Vec<u32> {
    (0..rows as RowId)
        .map(|ordinal| {
            runs.iter()
                .rev()
                .find(|run| run.0 <= ordinal)
                .map_or(0, |run| run.1)
        })
        .collect()
}

#[test]
fn epochs_follow_their_rows_through_every_operation() {
    // A random stream of epoch bumps, inserts, retractions, compactions,
    // clears and clones against a model that remembers the
    // epoch each live row was inserted under.  After every step: each live
    // row reports its model epoch, epochs never decrease in slot order, and
    // the run table in snapshot form (`epoch_runs`) says the same thing.
    for seed in 0..SEEDS {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xE90C_0000);
        let mut relation = test_relation(2);
        let mut model: Vec<(Vec<u32>, u32)> = Vec::new();
        let mut counter = 0u32;
        for step in 0..OPS_PER_SEED {
            match rng.gen_range_u32(0, 100) {
                0..=19 => {
                    // A boundary; now and then a jump to the saturated end.
                    counter = if rng.gen_bool(0.01) {
                        u32::MAX
                    } else {
                        counter.saturating_add(1)
                    };
                    relation.begin_epoch(counter);
                }
                20..=69 => {
                    let values = random_row(&mut rng, 2);
                    if relation.insert_row(&row(&values)).unwrap() {
                        model.push((values, counter));
                    }
                }
                70..=89 => {
                    let values = random_row(&mut rng, 2);
                    if relation.retract_row(&row(&values)).unwrap() {
                        model.retain(|(v, _)| *v != values);
                    }
                }
                90..=96 => relation.compact(),
                97..=98 => relation = relation.clone(),
                _ => {
                    relation.clear();
                    model.clear();
                    relation.begin_epoch(counter);
                }
            }
            let expected: Vec<(Vec<Value>, u32)> =
                model.iter().map(|(v, e)| (row(v), *e)).collect();
            assert_eq!(live_epochs(&relation), expected, "seed {seed} step {step}");
            let in_slot_order: Vec<u32> = (0..relation.slot_count() as RowId)
                .map(|slot| relation.epoch_of(slot))
                .collect();
            assert!(
                in_slot_order.windows(2).all(|pair| pair[0] <= pair[1]),
                "epochs decrease in slot order (seed {seed} step {step})"
            );
            let runs = relation.epoch_runs();
            assert!(
                runs.windows(2)
                    .all(|pair| pair[0].0 < pair[1].0 && pair[0].1 < pair[1].1),
                "run table out of order: {runs:?} (seed {seed} step {step})"
            );
            assert_eq!(
                expand_runs(&runs, relation.len()),
                model.iter().map(|(_, e)| *e).collect::<Vec<_>>(),
                "seed {seed} step {step}"
            );
        }
    }
}

#[test]
fn epochs_survive_the_snapshot_round_trip() {
    use carac_storage::{read_snapshot, write_snapshot, StorageManager, SymbolTable};

    let catalog =
        |sm: &mut StorageManager| (sm.register("Edge", 2, true), sm.register("Path", 2, false));
    for seed in 0..SEEDS {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x5EED_E90C);
        let mut sm = StorageManager::new(true);
        let (edge, path) = catalog(&mut sm);
        for _ in 0..40 {
            for _ in 0..rng.gen_range_u32(0, 6) {
                sm.insert_derived_row(path, &row(&random_row(&mut rng, 2)))
                    .unwrap();
            }
            if rng.gen_bool(0.3) {
                sm.insert_fact_row(edge, &row(&random_row(&mut rng, 2)))
                    .unwrap();
            }
            sm.swap_and_clear(&[path]).unwrap();
            if rng.gen_bool(0.4) {
                sm.retract_derived_row(path, &row(&random_row(&mut rng, 2)))
                    .unwrap();
            }
        }
        let file = std::env::temp_dir().join(format!(
            "carac-epoch-prop-{}-{seed}.snap",
            std::process::id()
        ));
        write_snapshot(&file, &sm, &SymbolTable::new(), 0).unwrap();
        let snapshot = read_snapshot(&file).unwrap();
        std::fs::remove_file(&file).ok();
        let mut restored = StorageManager::new(true);
        catalog(&mut restored);
        snapshot.apply(&mut restored).unwrap();
        for rel in [edge, path] {
            assert_eq!(
                live_epochs(restored.derived(rel).unwrap()),
                live_epochs(sm.derived(rel).unwrap()),
                "seed {seed}"
            );
        }
        // Rows merged after the restore rank above every restored row.
        let newest = live_epochs(restored.derived(path).unwrap())
            .iter()
            .map(|(_, epoch)| *epoch)
            .max()
            .unwrap_or(0);
        let fresh = row(&[90, 90]);
        restored.insert_derived_row(path, &fresh).unwrap();
        restored.swap_and_clear(&[path]).unwrap();
        let derived = restored.derived(path).unwrap();
        let slot = derived
            .find_row_hashed(&fresh, carac_storage::pool::row_hash(&fresh))
            .unwrap();
        assert!(derived.epoch_of(slot) > newest, "seed {seed}");
    }
}

/// What each evaluation view of one relation must hold: published rows (in
/// slot order, with their epochs), pending rows, the last run and the
/// explicit delta set (each in the order its rows were added).
#[derive(Default)]
struct ViewModel {
    published: Vec<(Vec<u32>, u32)>,
    pending: Vec<Vec<u32>>,
    run: Vec<Vec<u32>>,
    explicit: Vec<Vec<u32>>,
    epoch: u32,
}

impl ViewModel {
    fn rows(&self, kind: carac_storage::DbKind) -> Vec<Vec<u32>> {
        use carac_storage::DbKind;
        match kind {
            DbKind::Derived => self.published.iter().map(|(r, _)| r.clone()).collect(),
            DbKind::DeltaKnown if !self.explicit.is_empty() => self.explicit.clone(),
            DbKind::DeltaKnown => self.run.clone(),
            DbKind::DeltaNew => self.pending.clone(),
        }
    }

    fn is_published(&self, values: &[u32]) -> bool {
        self.published.iter().any(|(r, _)| r == values)
    }

    /// An emitted row: pending unless published or already pending.
    fn emit(&mut self, values: Vec<u32>) -> bool {
        let fresh = !self.is_published(&values) && !self.pending.contains(&values);
        if fresh {
            self.pending.push(values);
        }
        fresh
    }

    fn retract(&mut self, values: &[u32]) -> bool {
        let present = self.is_published(values);
        self.published.retain(|(r, _)| r != values);
        self.run.retain(|r| r != values);
        present
    }
}

fn raw(values: &[Value]) -> Vec<u32> {
    values.iter().map(|v| v.raw()).collect()
}

/// Asserts that every view of `rel` agrees with `model`: contents in slot
/// order, cardinality, membership, epochs, shard partitions, and the answer
/// of an index probe, a composite probe, a dedup-table probe, a scan probe
/// and a full scan (with the scan-fallback row count each one reports).
fn check_views(
    sm: &carac_storage::StorageManager,
    rel: RelId,
    model: &ViewModel,
    rng: &mut SmallRng,
    ctx: &str,
) {
    use carac_storage::DbKind;
    let mut scratch = Vec::new();
    for kind in DbKind::ALL {
        let view = sm.relation(kind, rel).unwrap();
        let expected = model.rows(kind);
        let got: Vec<Vec<u32>> = view.iter_rows().map(raw).collect();
        assert_eq!(got, expected, "{kind:?} rows ({ctx})");
        assert_eq!(view.len(), expected.len(), "{kind:?} len ({ctx})");
        assert_eq!(view.is_empty(), expected.is_empty(), "{kind:?} ({ctx})");
        for values in &expected {
            assert!(view.contains_row(&row(values)), "{kind:?} ({ctx})");
        }
        let needle = random_row(rng, 3).iter().map(|v| v % 5).collect::<Vec<_>>();
        assert_eq!(
            view.contains_row(&row(&needle)),
            expected.contains(&needle),
            "{kind:?} membership ({ctx})"
        );
        let (a, b, c) = (
            Value::int(needle[0]),
            Value::int(needle[1]),
            Value::int(needle[2]),
        );
        for filters in [
            vec![],
            vec![(0, a)],
            vec![(2, c)],
            vec![(0, a), (1, b)],
            vec![(0, a), (1, b), (2, c)],
        ] {
            let matches = |values: &[u32]| filters.iter().all(|&(col, v)| values[col] == v.raw());
            let probe = view.probe_rows(&filters, &mut scratch);
            let ids: Vec<RowId> = probe.iter().collect();
            assert!(
                ids.windows(2).all(|pair| pair[0] < pair[1]),
                "{kind:?} {filters:?}: candidates out of slot order ({ctx})"
            );
            let got: Vec<Vec<u32>> = ids
                .iter()
                .map(|&id| raw(view.row(id)))
                .filter(|values| matches(values))
                .collect();
            let want: Vec<Vec<u32>> = expected.iter().filter(|r| matches(r)).cloned().collect();
            assert_eq!(got, want, "{kind:?} probe {filters:?} ({ctx})");
            let indexed = view.has_index(0) && filters.iter().any(|&(col, _)| col == 0);
            let scanned = if filters.is_empty() || indexed {
                0
            } else {
                expected.len()
            };
            assert_eq!(
                probe.scanned_rows(),
                scanned,
                "{kind:?} {filters:?} ({ctx})"
            );
        }
        if view.is_sharded() {
            let mut all = Vec::new();
            for shard in 0..view.shard_count() {
                let rows = view.shard_rows(shard);
                assert!(rows.windows(2).all(|pair| pair[0] < pair[1]), "{ctx}");
                all.extend_from_slice(rows);
            }
            all.sort_unstable();
            let whole: Vec<RowId> = view.probe_rows(&[], &mut scratch).iter().collect();
            assert_eq!(all, whole, "{kind:?} shard partitions ({ctx})");
        }
    }
    let derived = sm.derived(rel).unwrap();
    for values in &model.pending {
        assert!(
            !derived.contains_row(&row(values)),
            "pending row read ({ctx})"
        );
    }
    let epochs: Vec<(Vec<u32>, u32)> = live_epochs(derived)
        .into_iter()
        .map(|(values, epoch)| (raw(&values), epoch))
        .collect();
    assert_eq!(epochs, model.published, "epochs ({ctx})");
}

fn run_view_stream(seed: u64, shards: usize) {
    use carac_storage::StorageManager;
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x71E3_5EED);
    let mut sm = StorageManager::new(true);
    let rel = sm.register("Prop", 3, false);
    sm.add_index(rel, 0).unwrap();
    sm.add_composite_index(rel, &[0, 1]).unwrap();
    sm.add_composite_index(rel, &[0, 1, 2]).unwrap();
    sm.set_sharding(shards).unwrap();
    let mut model = ViewModel::default();
    let draw =
        |rng: &mut SmallRng| -> Vec<u32> { random_row(rng, 3).iter().map(|v| v % 5).collect() };
    for step in 0..OPS_PER_SEED {
        let op = rng.gen_range_u32(0, 100);
        let ctx = format!("seed {seed} shards {shards} step {step} op {op}");
        match op {
            0..=34 => {
                let values = draw(&mut rng);
                let fresh = model.emit(values.clone());
                assert_eq!(
                    sm.insert_derived_row(rel, &row(&values)).unwrap(),
                    fresh,
                    "{ctx}"
                );
            }
            35..=49 => {
                let published = std::mem::take(&mut model.pending);
                assert_eq!(sm.swap_and_clear(&[rel]).unwrap(), published.len(), "{ctx}");
                model.epoch += 1;
                let epoch = model.epoch;
                model
                    .published
                    .extend(published.iter().map(|r| (r.clone(), epoch)));
                model.run = published;
                model.explicit.clear();
            }
            50..=59 => {
                // A lattice fold: the old optimum leaves the run, and the
                // same row or a better one enters delta-new.
                if model.run.is_empty() {
                    continue;
                }
                let old = model.run[rng.gen_range_usize(0, model.run.len())].clone();
                assert!(model.retract(&old));
                assert!(sm.retract_derived_row(rel, &row(&old)).unwrap(), "{ctx}");
                let new = if rng.gen_bool(0.5) {
                    old
                } else {
                    draw(&mut rng)
                };
                let fresh = model.emit(new.clone());
                assert_eq!(
                    sm.insert_derived_row(rel, &row(&new)).unwrap(),
                    fresh,
                    "{ctx}"
                );
            }
            60..=64 => {
                // A retraction anywhere (pending rows are left alone).
                let values = draw(&mut rng);
                let present = model.retract(&values);
                assert_eq!(
                    sm.retract_derived_row(rel, &row(&values)).unwrap(),
                    present,
                    "{ctx}"
                );
            }
            65..=74 => {
                let mut facts = Relation::new(RelationSchema::new(rel, "Facts", 3, false));
                for _ in 0..rng.gen_range_u32(1, 4) {
                    facts.insert_row(&row(&draw(&mut rng))).unwrap();
                }
                if model.explicit.is_empty() {
                    model.explicit = model.run.clone();
                }
                let mut added = 0;
                for values in facts.iter_rows().map(raw) {
                    if !model.explicit.contains(&values) {
                        model.explicit.push(values);
                        added += 1;
                    }
                }
                assert_eq!(sm.load_delta(rel, &facts).unwrap(), added, "{ctx}");
            }
            75..=79 => {
                // A base fact: published at once and added to delta-known;
                // refused while the iteration's rows are pending.
                let values = draw(&mut rng);
                let inserted = sm.insert_fact_row(rel, &row(&values));
                if !model.pending.is_empty() {
                    assert!(
                        matches!(inserted, Err(StorageError::PendingRows { .. })),
                        "{ctx}"
                    );
                    continue;
                }
                let fresh = !model.is_published(&values);
                assert_eq!(inserted.unwrap(), fresh, "{ctx}");
                if fresh {
                    model.published.push((values.clone(), model.epoch));
                    if model.explicit.is_empty() {
                        model.run.push(values);
                    } else if !model.explicit.contains(&values) {
                        model.explicit.push(values);
                    }
                }
            }
            80..=86 => {
                sm.clear_deltas(&[rel]).unwrap();
                model.pending.clear();
                model.run.clear();
                model.explicit.clear();
            }
            87..=95 => sm.derived_mut(rel).unwrap().compact(),
            _ => {
                sm.derived_mut(rel).unwrap().clear();
                model.published.clear();
                model.pending.clear();
                model.run.clear();
            }
        }
        check_views(&sm, rel, &model, &mut rng, &ctx);
    }
}

#[test]
fn evaluation_views_agree_with_the_semi_naive_model() {
    for seed in 0..SEEDS {
        run_view_stream(seed, 1);
        run_view_stream(seed, 4);
    }
}
