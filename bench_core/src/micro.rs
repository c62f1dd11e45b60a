//! Storage-layer microbenches, through `carac-storage`'s public API only.
//!
//! Every bench runs on an arity-2 relation of `rows` rows — the size of the
//! workload's largest derived relation — so the numbers sit at the working
//! set the workload actually has (csda's is larger than the last-level
//! cache, tc_live's is not).  Rows are distinct pairs whose first column
//! takes each of its values about eight times, like a join key does.

use std::hint::black_box;
use std::time::Instant;

use carac_storage::{RelId, Relation, RelationSchema, RowId, RowPool, StorageManager, Value};

use crate::stats::{median, Metric};

/// Smallest relation the microbenches run on, so a tiny workload still
/// times more than timer noise.
pub const MIN_ROWS: usize = 20_000;

/// How many distinct first-column keys the synthetic relation has per row.
const KEY_SHARE: usize = 8;

fn synthetic_rows(rows: usize) -> Vec<[Value; 2]> {
    let keys = (rows / KEY_SHARE).max(1);
    (0..rows)
        .map(|i| {
            // 2654435761 is odd, so the product walks all residues.
            let key = (i.wrapping_mul(2_654_435_761) % keys) as u32;
            [Value::int(key), Value::int(i as u32)]
        })
        .collect()
}

fn per_item_ns(started: Instant, items: usize) -> f64 {
    started.elapsed().as_secs_f64() * 1e9 / items.max(1) as f64
}

pub fn run(rows: usize, iterations: u64) -> Result<Vec<Metric>, String> {
    let rows = rows.max(MIN_ROWS);
    let data = synthetic_rows(rows);
    let error = |e: carac_storage::StorageError| e.to_string();
    let mut out = Vec::new();

    // Pool: insert of new rows, then the dedup hit path on the same rows.
    let mut pool = RowPool::new(2);
    let started = Instant::now();
    for row in &data {
        black_box(pool.insert(row));
    }
    out.push(Metric::new(
        "storage.pool.insert_ns_per_row",
        "ns",
        per_item_ns(started, rows),
    ));
    let started = Instant::now();
    for row in &data {
        black_box(pool.insert(row));
    }
    out.push(Metric::new(
        "storage.pool.dup_insert_ns_per_row",
        "ns",
        per_item_ns(started, rows),
    ));
    let stats = pool.stats();
    if stats.rows != rows {
        return Err(format!("pool holds {} rows, expected {rows}", stats.rows));
    }
    out.push(Metric::new("storage.pool.rehashes", "count", stats.rehashes as f64).exact());
    out.push(Metric::new(
        "storage.pool.bytes_per_fact",
        "bytes",
        stats.bytes as f64 / rows as f64,
    ));
    drop(pool);

    // Relation: index build on a filled relation, then probes.
    let mut rel = Relation::new(RelationSchema::new(RelId(0), "Bench", 2, false));
    for row in &data {
        rel.insert_row(row).map_err(error)?;
    }
    let started = Instant::now();
    rel.add_index(0).map_err(error)?;
    out.push(Metric::new(
        "storage.index.build_ns_per_row",
        "ns",
        per_item_ns(started, rows),
    ));

    let mut scratch: Vec<RowId> = Vec::new();
    let mut found = 0usize;
    let started = Instant::now();
    for row in &data {
        found += rel.probe_rows(&[(0, row[0])], &mut scratch).len();
    }
    out.push(Metric::new(
        "storage.relation.probe_ns_per_lookup",
        "ns",
        per_item_ns(started, rows),
    ));
    rel.add_composite_index(&[0, 1]).map_err(error)?;
    let started = Instant::now();
    for row in &data {
        found += rel
            .probe_rows(&[(0, row[0]), (1, row[1])], &mut scratch)
            .len();
    }
    out.push(Metric::new(
        "storage.relation.composite_probe_ns_per_lookup",
        "ns",
        per_item_ns(started, rows),
    ));
    if found < 2 * rows {
        return Err("probes lost rows".to_string());
    }

    // Retraction of every second row, then compaction of the survivors.
    let started = Instant::now();
    for row in data.iter().step_by(2) {
        black_box(rel.retract_row(row).map_err(error)?);
    }
    let retracted = rows.div_ceil(2);
    out.push(Metric::new(
        "storage.relation.retract_ns_per_row",
        "ns",
        per_item_ns(started, retracted),
    ));
    let started = Instant::now();
    rel.compact();
    out.push(Metric::new(
        "storage.relation.compact_ns_per_row",
        "ns",
        per_item_ns(started, rel.len()),
    ));
    if rel.len() != rows - retracted || rel.dead_count() != 0 {
        return Err("compaction lost rows".to_string());
    }
    drop(rel);

    // Iteration boundary: the relation grows to `rows` over as many
    // iterations as the workload's fixpoint took, each ending in
    // `swap_and_clear`; only that call is on the clock.
    let mut storage = StorageManager::new(true);
    let derived = storage.register("Bench", 2, false);
    storage.add_index(derived, 0).map_err(error)?;
    let steps = iterations.clamp(1, rows as u64) as usize;
    let mut swap_us = Vec::with_capacity(steps);
    for chunk in data.chunks(rows.div_ceil(steps)) {
        for row in chunk {
            storage.insert_derived_row(derived, row).map_err(error)?;
        }
        let started = Instant::now();
        black_box(storage.swap_and_clear(&[derived]).map_err(error)?);
        swap_us.push(started.elapsed().as_secs_f64() * 1e6);
    }
    out.push(Metric::new(
        "storage.db.swap_and_clear_us",
        "us",
        median(&swap_us),
    ));
    if storage.total_derived() != rows {
        return Err("swap_and_clear lost rows".to_string());
    }

    Ok(out)
}
