//! `bench_core`: the repository's end-to-end and per-layer benchmark.
//! See `README.md` beside this package for what it measures and why.
//!
//! Three ways in:
//!
//! * `--workload W --seed N --seconds S --trace 0|1` measures one workload
//!   in this process and prints one JSON object as its last line (the form
//!   `BENCHMARK.json`'s command is run in);
//! * with no `--workload`, the process re-executes itself once per workload
//!   and trace setting — so memory and allocator state do not leak between
//!   workloads — and writes `out/BENCH_core.json` (`--aa` does this twice
//!   and compares, `--smoke` does it at tiny sizes, `--bless` rewrites
//!   `expected.json`);
//! * `--oracle --workload W` prints the oracle's verdicts on W's inputs.

mod e2e;
mod env;
mod json;
mod layers;
mod micro;
mod oracle;
mod report;
mod spans;
mod stats;
mod workloads;

use std::path::{Path, PathBuf};
use std::time::Instant;

use json::Json;
use stats::Metric;
use workloads::{Sizes, WorkloadInfo, DEFAULT_SEED, FULL, SMOKE, WORKLOADS};

/// Set-up is repeated this often inside one run, and more often the smaller
/// the inputs are: the graph workloads set up in about a millisecond, and a
/// handful of such samples is not steady.  The count comes from the size of
/// the inputs and not from a clock, so that the heap is in the same state
/// after it in every run (`peak_rss_mb` depends on that).
const SETUP_REPEATS: usize = 9;
const MAX_SETUP_REPEATS: usize = 200;
const SETUP_BYTES: usize = 4 << 20;

pub struct Options {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    oracle: bool,
    aa: bool,
    bless: bool,
}

fn parse_options() -> Result<Options, String> {
    let mut options = Options {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: 26.0,
        trace: false,
        smoke: false,
        oracle: false,
        aa: false,
        bless: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |what: &str| args.next().ok_or_else(|| format!("{flag} needs {what}"));
        let number = |text: String| -> Result<u64, String> {
            let parsed = match text.strip_prefix("0x") {
                Some(hex) => u64::from_str_radix(hex, 16),
                None => text.parse(),
            };
            parsed.map_err(|_| format!("'{text}' is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => options.workload = Some(value("a workload name")?),
            "--seed" => options.seed = number(value("a number")?)?,
            "--seconds" => {
                let text = value("a number of seconds")?;
                options.seconds = text
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("'{text}' is not a number of seconds"))?;
            }
            "--trace" => options.trace = number(value("0 or 1")?)? != 0,
            "--smoke" => options.smoke = true,
            "--oracle" => options.oracle = true,
            "--aa" => options.aa = true,
            "--bless" => options.bless = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if options.smoke {
        options.seconds = options.seconds.min(1.0);
    }
    Ok(options)
}

impl Options {
    fn sizes(&self) -> Sizes {
        if self.smoke {
            SMOKE
        } else {
            FULL
        }
    }

    /// Whether these are the inputs `expected.json` was blessed for.
    fn is_blessed_input(&self) -> bool {
        self.seed == DEFAULT_SEED && !self.smoke
    }

    /// The arguments that select the same inputs in a re-executed process.
    fn input_args(&self, workload: &str) -> Vec<String> {
        let mut args = vec![
            "--workload".to_string(),
            workload.to_string(),
            "--seed".to_string(),
            self.seed.to_string(),
        ];
        if self.smoke {
            args.push("--smoke".to_string());
        }
        args
    }
}

fn package_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn out_dir() -> Result<PathBuf, String> {
    let dir = package_dir().join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

fn set_up(workload: &str, options: &Options) -> Result<workloads::Built, String> {
    workloads::build(workloads::generate(
        workload,
        &options.sizes(),
        options.seed,
    )?)
}

/// One workload, measured in this process.  Returns the contract's result
/// object; the full record goes to `out/result_<workload>_trace<n>.json`.
fn measure(info: &WorkloadInfo, options: &Options) -> Result<Json, String> {
    let workload = info.name;
    let out = out_dir()?;
    let ticks_before = env::cpu_ticks();

    let mut setup_s = Vec::new();
    let mut built = loop {
        let started = Instant::now();
        let built = set_up(workload, options)?;
        setup_s.push(started.elapsed().as_secs_f64());
        // The traced run does not report set-up time: once is enough.
        let repeats =
            (SETUP_BYTES / built.source_bytes.max(1)).clamp(SETUP_REPEATS, MAX_SETUP_REPEATS);
        if options.trace || setup_s.len() >= repeats {
            break built;
        }
    };

    let mut oracle_args = vec!["--oracle".to_string()];
    oracle_args.extend(options.input_args(workload));
    let expected = e2e::expectations(&mut built, &oracle_args)?;
    if options.is_blessed_input() {
        report::check_blessed(package_dir(), workload, &expected)?;
    }

    let mut tally = e2e::Tally::default();
    let mut rows: Vec<Metric>;
    let (mut case_rounds, mut session_rounds) = (0, 0);
    if options.trace {
        let (layered, recorder) = layers::run(workload, &built, &expected, &out, &mut tally);
        let trace_path = out.join(format!("trace_{workload}.json"));
        std::fs::write(&trace_path, recorder.to_json().render())
            .map_err(|e| format!("{}: {e}", trace_path.display()))?;
        rows = layered.0;
    } else {
        let _awake = env::KeepAwake::start();
        let mut warm_up = e2e::Samples::default();
        e2e::case_round(&built, &expected, &mut warm_up, &mut tally);
        e2e::session_round(&built, &expected, &out, &mut warm_up, &mut tally);
        // Memory is read here, after every kind of work has been done once:
        // how far the heap grows beyond this depends on how many rounds fit
        // into the run (on csda the peak at exit is 36 or 46 MB by the run).
        let peak_rss_mb = env::peak_rss_mb();

        // The workload's `case_share` of `--seconds` on the cases, the rest
        // on the sessions; another round only if it is likely to end inside
        // its share.
        let mut samples = e2e::Samples::default();
        let another = |started: Instant, done: usize, least: usize, budget: f64| {
            let elapsed = started.elapsed().as_secs_f64();
            done < least || elapsed + elapsed / done as f64 <= budget
        };
        let budget = options.seconds * info.case_share;
        let started = Instant::now();
        while another(started, case_rounds, e2e::MIN_CASE_ROUNDS, budget) {
            e2e::case_round(&built, &expected, &mut samples, &mut tally);
            case_rounds += 1;
        }
        let budget = options.seconds - budget;
        let started = Instant::now();
        while another(started, session_rounds, e2e::MIN_SESSION_ROUNDS, budget) {
            e2e::session_round(&built, &expected, &out, &mut samples, &mut tally);
            session_rounds += 1;
        }
        rows = e2e::reduce(&samples);
        rows.push(
            Metric::new("setup_s", "s", stats::lower_quartile(&setup_s)).reduced_from(&setup_s),
        );
        rows.push(Metric::new(
            "peak_rss_mb",
            "MB",
            peak_rss_mb.unwrap_or(f64::NAN),
        ));
        rows.push(
            Metric::new("exit_rss_mb", "MB", env::peak_rss_mb().unwrap_or(f64::NAN)).undeclared(),
        );
    }
    // Failures are the contract's `failed`/`attempted`; the share is kept
    // in the result file under the name the glossary uses.
    rows.push(
        Metric::new(
            "failed_share",
            "ratio",
            tally.failed as f64 / tally.attempted.max(1) as f64,
        )
        .undeclared(),
    );

    let ticks = env::ticks_between(ticks_before, env::cpu_ticks());
    let steal = ticks.map(|(steal, total)| steal as f64 / total as f64);
    let disturbed = steal.is_some_and(|share| share > env::STEAL_LIMIT);
    println!(
        "workload {workload}  trace {}  seed {:#x}",
        u8::from(options.trace),
        options.seed
    );
    println!(
        "  {} cases, {} sessions, {} undecided by the oracle and dropped; {} case rounds, {} session rounds",
        built.cases.len(),
        built.sessions.len(),
        expected.undecided,
        case_rounds,
        session_rounds
    );
    for row in &rows {
        println!(
            "  {:<48} {:>16.6} {}{}",
            row.name,
            row.value,
            row.unit,
            if row.declared {
                ""
            } else {
                "  (result file only)"
            }
        );
    }
    println!(
        "  operations: {} attempted, {} failed; steal {}{}",
        tally.attempted,
        tally.failed,
        steal.map_or("unknown".to_string(), |s| format!("{:.1}%", s * 100.0)),
        if disturbed { "  DISTURBED" } else { "" }
    );
    for reason in &tally.reasons {
        println!("  FAILED: {reason}");
    }

    let record = Json::obj([
        ("schema", Json::Num(1.0)),
        ("workload", Json::str(workload)),
        ("trace", Json::Bool(options.trace)),
        ("seed", Json::Num(options.seed as f64)),
        ("smoke", Json::Bool(options.smoke)),
        ("cases", Json::Num(built.cases.len() as f64)),
        ("sessions", Json::Num(built.sessions.len() as f64)),
        ("undecided", Json::Num(expected.undecided as f64)),
        ("case_rounds", Json::Num(case_rounds as f64)),
        ("session_rounds", Json::Num(session_rounds as f64)),
        ("attempted", Json::Num(tally.attempted as f64)),
        ("failed", Json::Num(tally.failed as f64)),
        (
            "failures",
            Json::Arr(tally.reasons.iter().map(Json::str).collect()),
        ),
        (
            "steal_ticks",
            ticks.map_or(Json::Null, |(steal, _)| Json::Num(steal as f64)),
        ),
        (
            "total_ticks",
            ticks.map_or(Json::Null, |(_, total)| Json::Num(total as f64)),
        ),
        ("steal_share", steal.map_or(Json::Null, Json::Num)),
        ("disturbed", Json::Bool(disturbed)),
        (
            "metrics",
            Json::Arr(rows.iter().map(Metric::to_json).collect()),
        ),
    ]);
    let record_path = out.join(report::record_name(workload, options.trace));
    std::fs::write(&record_path, record.pretty())
        .map_err(|e| format!("{}: {e}", record_path.display()))?;

    Ok(Json::obj([
        ("correct", Json::Bool(tally.failed == 0)),
        ("attempted", Json::Num(tally.attempted as f64)),
        ("failed", Json::Num(tally.failed as f64)),
        (
            "metrics",
            Json::Obj(
                rows.iter()
                    .filter(|row| row.declared)
                    .map(|row| {
                        (
                            row.name.clone(),
                            Json::obj([
                                ("value", Json::Num(row.value)),
                                ("unit", Json::str(row.unit)),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ]))
}

fn run() -> Result<Json, String> {
    let options = parse_options()?;
    let Some(workload) = options.workload.clone() else {
        return report::run_all(&options, package_dir(), &out_dir()?);
    };
    let Some(info) = WORKLOADS.iter().find(|w| w.name == workload) else {
        return Err(format!("unknown workload '{workload}'"));
    };
    if options.oracle {
        return Ok(e2e::oracle_verdicts(&set_up(&workload, &options)?));
    }
    measure(info, &options)
}

fn main() {
    match run() {
        // The result is always the last line of standard output.
        Ok(result) => println!("{}", result.render()),
        Err(message) => {
            eprintln!("bench_core: {message}");
            std::process::exit(2);
        }
    }
}
