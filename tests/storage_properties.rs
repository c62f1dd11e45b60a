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
//!   through retraction, compaction, clear, clone, content swaps and the
//!   snapshot round trip, and epochs never decrease in slot order.
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
    // clears, clones and content swaps against a model that remembers the
    // epoch each live row was inserted under.  After every step: each live
    // row reports its model epoch, epochs never decrease in slot order, and
    // the run table in snapshot form (`epoch_runs`) says the same thing.
    for seed in 0..SEEDS {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xE90C_0000);
        let mut relation = test_relation(2);
        let mut other = test_relation(2);
        let mut model: Vec<(Vec<u32>, u32)> = Vec::new();
        let mut other_model: Vec<(Vec<u32>, u32)> = Vec::new();
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
                90..=94 => relation.compact(),
                95..=96 => {
                    relation.swap_contents(&mut other);
                    std::mem::swap(&mut model, &mut other_model);
                    // The swapped-in table may lag the counter.
                    relation.begin_epoch(counter);
                }
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
    use carac_storage::{read_snapshot, write_snapshot, DbKind, StorageManager, SymbolTable};

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
                live_epochs(restored.relation(DbKind::Derived, rel).unwrap()),
                live_epochs(sm.relation(DbKind::Derived, rel).unwrap()),
                "seed {seed}"
            );
        }
        // Rows merged after the restore rank above every restored row.
        let newest = live_epochs(restored.relation(DbKind::Derived, path).unwrap())
            .iter()
            .map(|(_, epoch)| *epoch)
            .max()
            .unwrap_or(0);
        let fresh = row(&[90, 90]);
        restored.insert_derived_row(path, &fresh).unwrap();
        restored.swap_and_clear(&[path]).unwrap();
        let derived = restored.relation(DbKind::Derived, path).unwrap();
        let slot = derived
            .find_row_hashed(&fresh, carac_storage::pool::row_hash(&fresh))
            .unwrap();
        assert!(derived.epoch_of(slot) > newest, "seed {seed}");
    }
}
