//! Trace and metrics exporters.
//!
//! Two formats, both plain JSON written with the same atomic temp-file +
//! rename discipline as `carac-storage::snapshot` (a crash mid-export never
//! leaves a truncated file behind):
//!
//! * **Chrome trace-event JSON** ([`write_chrome_trace`]): an array of
//!   `ph: "B"/"E"` duration events loadable in `chrome://tracing` or
//!   Perfetto.  All events share `pid` 1 / `tid` 1 — the tracer records one
//!   globally monotone stream (fork-join partition timing travels in the
//!   `duration_ns` arg of `partition` spans, see the tracer docs).
//! * **Flat metrics snapshot** ([`write_metrics_snapshot`]): one JSON
//!   object with the aggregate `RunStats` counters, the per-rule and
//!   per-aggregate profiles and the compile summary — the surface a future
//!   server layer would scrape.

use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

use crate::stats::RunStats;
use crate::telemetry::trace::{EventKind, TraceEvent};

/// Writes `bytes` to `path` atomically: staged in a `.tmp` sibling, synced,
/// renamed over the destination, parent directory fsynced best-effort.
fn atomic_write(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let tmp = tmp_sibling(path);
    {
        let mut file = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(&tmp)?;
        file.write_all(bytes)?;
        file.sync_all()?;
    }
    if let Err(err) = std::fs::rename(&tmp, path) {
        let _ = std::fs::remove_file(&tmp);
        return Err(err);
    }
    if let Some(parent) = path.parent() {
        if let Ok(dir) = File::open(parent) {
            let _ = dir.sync_all();
        }
    }
    Ok(())
}

fn tmp_sibling(path: &Path) -> PathBuf {
    let mut name = path
        .file_name()
        .map(std::ffi::OsStr::to_os_string)
        .unwrap_or_default();
    name.push(".tmp");
    path.with_file_name(name)
}

/// Minimal JSON string escape (names here are static identifiers, but the
/// exporter still refuses to emit malformed JSON for any input).
fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

fn chrome_event_json(out: &mut String, event: &TraceEvent) {
    let ph = match event.kind {
        EventKind::Begin => "B",
        EventKind::End => "E",
    };
    let ts_us = event.at.as_nanos() as f64 / 1000.0;
    out.push_str("{\"name\":");
    push_json_str(out, &format!("{} {}", event.phase.name(), event.detail));
    out.push_str(",\"cat\":\"carac\",\"ph\":\"");
    out.push_str(ph);
    out.push_str(&format!(
        "\",\"ts\":{ts_us:.3},\"pid\":1,\"tid\":1,\"args\":{{\"span\":{},\"parent\":{},\"detail\":{}",
        event.id, event.parent, event.detail
    ));
    for (name, value) in &event.counters {
        out.push(',');
        push_json_str(out, name);
        out.push_str(&format!(":{value}"));
    }
    out.push_str("}}");
}

/// Renders the retained trace events as chrome-trace-event JSON.
pub fn chrome_trace_json(stats: &RunStats) -> String {
    let events = stats.tracer.events();
    let mut out = String::with_capacity(events.len() * 96 + 2);
    out.push('[');
    for (i, event) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('\n');
        chrome_event_json(&mut out, event);
    }
    out.push_str("\n]\n");
    out
}

/// Writes the chrome-trace export of `stats` to `path` atomically.
pub fn write_chrome_trace(path: &Path, stats: &RunStats) -> io::Result<()> {
    atomic_write(path, chrome_trace_json(stats).as_bytes())
}

fn push_field(out: &mut String, first: &mut bool, name: &str, value: u64) {
    if !*first {
        out.push(',');
    }
    *first = false;
    out.push('\n');
    out.push_str("  ");
    push_json_str(out, name);
    out.push_str(&format!(":{value}"));
}

/// Renders the flat metrics snapshot of `stats` as JSON.
pub fn metrics_json(stats: &RunStats) -> String {
    let mut out = String::from("{");
    let mut first = true;
    push_field(&mut out, &mut first, "iterations", stats.iterations);
    push_field(&mut out, &mut first, "subqueries", stats.subqueries);
    push_field(&mut out, &mut first, "tuples_emitted", stats.tuples_emitted);
    push_field(
        &mut out,
        &mut first,
        "tuples_inserted",
        stats.tuples_inserted,
    );
    push_field(&mut out, &mut first, "reorders", stats.reorders);
    push_field(&mut out, &mut first, "deopts", stats.deopts);
    push_field(
        &mut out,
        &mut first,
        "compiled_executions",
        stats.compiled_executions,
    );
    push_field(
        &mut out,
        &mut first,
        "interpreted_fallbacks",
        stats.interpreted_fallbacks,
    );
    push_field(
        &mut out,
        &mut first,
        "descriptor_builds",
        stats.descriptor_builds,
    );
    push_field(
        &mut out,
        &mut first,
        "parallel_subqueries",
        stats.parallel_subqueries,
    );
    push_field(&mut out, &mut first, "parallel_tasks", stats.parallel_tasks);
    push_field(
        &mut out,
        &mut first,
        "probe_scan_rows",
        stats.probe_scan_rows,
    );
    push_field(
        &mut out,
        &mut first,
        "projection_skips",
        stats.projection_skips,
    );
    push_field(
        &mut out,
        &mut first,
        "witness_rows",
        stats.update.witness_rows,
    );
    push_field(
        &mut out,
        &mut first,
        "compilations",
        stats.compilations() as u64,
    );
    push_field(
        &mut out,
        &mut first,
        "compile_events_dropped",
        stats.compile_events_dropped,
    );
    push_field(
        &mut out,
        &mut first,
        "compile_time_ns",
        stats.compile_time().as_nanos() as u64,
    );
    push_field(
        &mut out,
        &mut first,
        "total_time_ns",
        stats.total_time.as_nanos() as u64,
    );
    push_field(
        &mut out,
        &mut first,
        "trace_events_dropped",
        stats.tracer.dropped(),
    );
    out.push_str(",\n  \"rule_profiles\": [");
    for (i, p) in stats.rule_profiles.rules().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"rule\":{},\"stratum\":{},\"executions\":{},\"delta_rows_in\":{},\
             \"tuples_emitted\":{},\"tuples_inserted\":{},\"cumulative_time_ns\":{},\
             \"estimated_delta_rows\":{}}}",
            p.rule.0,
            p.stratum,
            p.executions,
            p.delta_rows_in,
            p.tuples_emitted,
            p.tuples_inserted,
            p.cumulative_time.as_nanos(),
            p.estimated_delta_rows
        ));
    }
    out.push_str("\n  ],\n  \"aggregate_profiles\": [");
    for (i, a) in stats.rule_profiles.aggregates().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"output\":{},\"executions\":{},\"tuples_emitted\":{},\
             \"tuples_inserted\":{},\"cumulative_time_ns\":{}}}",
            a.output.0,
            a.executions,
            a.tuples_emitted,
            a.tuples_inserted,
            a.cumulative_time.as_nanos()
        ));
    }
    out.push_str("\n  ]\n}\n");
    out
}

/// Writes the flat metrics snapshot of `stats` to `path` atomically.
pub fn write_metrics_snapshot(path: &Path, stats: &RunStats) -> io::Result<()> {
    atomic_write(path, metrics_json(stats).as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::trace::{Phase, TraceConfig, Tracer};

    fn traced_stats() -> RunStats {
        let mut stats = RunStats {
            tracer: Tracer::new(TraceConfig::default()),
            ..RunStats::default()
        };
        let run = stats.tracer.begin(Phase::Run, 0);
        let sq = stats.tracer.begin(Phase::Subquery, 3);
        stats.tracer.end(sq, &[("emitted", 2)]);
        stats.tracer.end(run, &[]);
        stats.subqueries = 1;
        stats.tuples_emitted = 2;
        stats.update.witness_rows = 7;
        stats
    }

    #[test]
    fn chrome_trace_round_trips_through_tmpfile() {
        let stats = traced_stats();
        let dir = std::env::temp_dir().join("carac_export_test_chrome");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.json");
        write_chrome_trace(&path, &stats).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.trim_start().starts_with('['));
        assert!(text.contains("\"ph\":\"B\""));
        assert!(text.contains("\"ph\":\"E\""));
        assert!(text.contains("subquery 3"));
        // No stale temp file left behind.
        assert!(!tmp_sibling(&path).exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn metrics_snapshot_contains_counters_and_profiles() {
        let mut stats = traced_stats();
        stats.rule_profiles.record_execution(
            carac_datalog::RuleId(3),
            0,
            5,
            2,
            std::time::Duration::ZERO,
        );
        let json = metrics_json(&stats);
        assert!(json.contains("\"subqueries\":1"));
        assert!(json.contains("\"witness_rows\":7"));
        assert!(json.contains("\"rule\":3"));
        assert!(json.contains("\"delta_rows_in\":5"));
        assert!(json.contains("\"aggregate_profiles\""));
    }

    #[test]
    fn disabled_tracer_exports_empty_event_array() {
        let stats = RunStats::default();
        let json = chrome_trace_json(&stats);
        assert_eq!(json.trim(), "[\n]");
    }
}
