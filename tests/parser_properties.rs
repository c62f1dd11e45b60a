//! Properties of the textual front end over generated programs.
//!
//! * **Round trip** — rendering a program back to text (every rule through
//!   `Program::display_rule`, aggregate rules with their aggregate head
//!   terms restored, then every fact) and parsing that text gives the same
//!   rules, facts, aggregations and strata.  Covered: every
//!   `carac_analysis` workload in both formulations and
//!   `fuzz_program(0..500)`.
//! * **Robustness** — seeded byte mutations of fuzzed sources never make
//!   `parse` panic, and every parse error cites a 1-based position that
//!   holds a character of the source.

use std::fmt::Write as _;

use carac_analysis::rng::SmallRng;
use carac_analysis::{fuzz_program, macro_suite, micro_suite, Formulation};
use carac_datalog::parser::parse;
use carac_datalog::{DatalogError, Program};

/// `program` as parser input.
fn render(program: &Program) -> String {
    let mut out = String::new();
    for rule in program.rules() {
        let shown = program.display_rule(rule);
        let aggregate = program
            .aggregates()
            .iter()
            .find(|spec| spec.input == rule.head.rel);
        match aggregate {
            // The rule derives a hidden aggregate input: write the head the
            // way the user did, `Out(x, count y)`.
            Some(spec) => {
                let terms: Vec<String> = rule
                    .head
                    .terms
                    .iter()
                    .enumerate()
                    .map(|(col, term)| {
                        let name = match term.as_var() {
                            Some(var) => rule.var_names[var.index()].clone(),
                            None => panic!("aggregate heads hold variables only"),
                        };
                        match spec.aggs.iter().find(|(c, _)| *c == col) {
                            Some((_, func)) => format!("{} {name}", func.name()),
                            None => name,
                        }
                    })
                    .collect();
                let tail = shown.find(" :- ").map_or(".", |at| &shown[at..]);
                let output = &program.relation(spec.output).name;
                writeln!(out, "{output}({}){tail}", terms.join(", ")).unwrap();
            }
            None => writeln!(out, "{shown}").unwrap(),
        }
    }
    for (rel, tuple) in program.facts() {
        let values: Vec<String> = tuple
            .values()
            .iter()
            .map(|&v| match program.symbols().resolve(v) {
                Some(text) => format!("\"{text}\""),
                None => program.symbols().display(v),
            })
            .collect();
        writeln!(
            out,
            "{}({}).",
            program.relation(*rel).name,
            values.join(", ")
        )
        .unwrap();
    }
    out
}

/// Everything the round trip must keep, by name: rules (ignoring their
/// origin), facts, aggregations and strata.
#[derive(Debug, PartialEq)]
struct Shape {
    rules: Vec<String>,
    facts: Vec<String>,
    aggregates: Vec<(String, bool)>,
    /// Per stratum: relation names, rule indices, recursive.
    strata: Vec<(Vec<String>, Vec<u32>, bool)>,
}

fn shape(program: &Program) -> Shape {
    let name = |rel: carac_storage::RelId| program.relation(rel).name.clone();
    Shape {
        rules: program
            .rules()
            .iter()
            .map(|r| program.display_rule(r))
            .collect(),
        facts: program
            .facts()
            .iter()
            .map(|(rel, t)| format!("{}{:?}", name(*rel), t.values()))
            .collect(),
        aggregates: program
            .aggregates()
            .iter()
            .map(|a| (program.display_aggregate(a), a.lattice))
            .collect(),
        strata: program
            .stratification()
            .strata()
            .iter()
            .map(|s| {
                let mut relations: Vec<String> = s.relations.iter().map(|&r| name(r)).collect();
                relations.sort();
                (
                    relations,
                    s.rules.iter().map(|r| r.0).collect(),
                    s.recursive,
                )
            })
            .collect(),
    }
}

fn assert_round_trips(what: &str, program: &Program) {
    let text = render(program);
    let reparsed = parse(&text).unwrap_or_else(|e| panic!("{what}: {e}\n{text}"));
    let (mut before, mut after) = (shape(program), shape(&reparsed));
    let same_ids = program
        .relations()
        .iter()
        .zip(reparsed.relations())
        .all(|(a, b)| a.name == b.name);
    if !same_ids {
        // Relations declared in another order than first use get other ids,
        // and independent strata may then come out in another (equally
        // valid) order.
        before.strata.sort();
        after.strata.sort();
    }
    assert_eq!(before, after, "{what} does not round-trip:\n{text}");
    for decl in reparsed.relations() {
        let original = program.relation_by_name(&decl.name).unwrap();
        let original = program.relation(original);
        assert_eq!(
            (original.arity, original.is_edb),
            (decl.arity, decl.is_edb),
            "{what}: {}",
            decl.name
        );
    }
}

#[test]
fn workloads_round_trip_through_text() {
    let workloads = macro_suite(4, 1).into_iter().chain(micro_suite(6));
    for workload in workloads {
        for formulation in Formulation::BOTH {
            let what = format!("{} {formulation:?}", workload.name);
            assert_round_trips(&what, workload.program(formulation));
        }
    }
}

/// A fuzzed program's rules followed by its facts.
fn fuzz_source(seed: u64) -> String {
    let case = fuzz_program(seed);
    let mut text = case.source;
    for (rel, values) in &case.facts {
        let values: Vec<String> = values.iter().map(u32::to_string).collect();
        writeln!(text, "{rel}({}).", values.join(", ")).unwrap();
    }
    text
}

#[test]
fn fuzzed_programs_round_trip_through_text() {
    for seed in 0..500 {
        let source = fuzz_source(seed);
        let program = parse(&source).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        assert_round_trips(&format!("fuzz seed {seed}"), &program);
        // Parsed text keeps its first-use relation order, so the round trip
        // is exact, ids and strata order included.
        let reparsed = parse(&render(&program)).unwrap();
        assert_eq!(
            format!("{:?}", program.stratification()),
            format!("{:?}", reparsed.stratification()),
            "seed {seed}"
        );
    }
}

/// Bytes a mutation may insert: the grammar's punctuation, a digit, a
/// letter, whitespace, a quote and a few multi-byte characters.
const INSERTS: &[&str] = &[
    "(",
    ")",
    ",",
    ".",
    "!",
    ":",
    "-",
    ":-",
    "<",
    "=",
    ">",
    "\"",
    "%",
    "#",
    "/",
    "7",
    "9999999999",
    "x",
    "count ",
    " ",
    "\n",
    "\t",
    "é",
    "\u{00a0}",
    "\u{2028}",
    "日",
    "@",
    "\0",
];

/// Applies 1–4 seeded edits (delete, insert, duplicate, truncate) to
/// `source`, at char boundaries so the result stays a `&str`.
fn mutate(source: &str, rng: &mut SmallRng) -> String {
    let mut text = source.to_string();
    for _ in 0..rng.gen_range_usize(1, 5) {
        let boundaries: Vec<usize> = (0..=text.len())
            .filter(|&i| text.is_char_boundary(i))
            .collect();
        let at = boundaries[rng.gen_range_usize(0, boundaries.len())];
        match rng.gen_range_u32(0, 4) {
            0 => {
                if let Some(c) = text[at..].chars().next() {
                    text.replace_range(at..at + c.len_utf8(), "");
                }
            }
            1 => text.insert_str(at, INSERTS[rng.gen_range_usize(0, INSERTS.len())]),
            2 => {
                let end = boundaries[rng.gen_range_usize(0, boundaries.len())].max(at);
                let span = text[at..end.min(at + 40).max(at)].to_string();
                if text.is_char_boundary(at + span.len()) {
                    text.insert_str(at, &span);
                }
            }
            _ => text.truncate(at),
        }
    }
    text
}

/// Whether the 1-based `(line, column)` names a character of `source`.
fn holds_a_char(source: &str, line: usize, column: usize) -> bool {
    line >= 1
        && column >= 1
        && source
            .split('\n')
            .nth(line - 1)
            .is_some_and(|text| column <= text.chars().count())
}

#[test]
fn mutated_sources_never_panic_and_errors_cite_the_source() {
    let mut rng = SmallRng::seed_from_u64(0x5EED_B17E);
    let (mut parsed, mut rejected) = (0, 0);
    for seed in 0..150 {
        let source = fuzz_source(seed);
        for _ in 0..8 {
            let text = mutate(&source, &mut rng);
            match parse(&text) {
                Ok(_) => parsed += 1,
                Err(DatalogError::Parse {
                    line,
                    column,
                    message,
                }) => {
                    rejected += 1;
                    assert!(
                        holds_a_char(&text, line, column),
                        "{line}:{column} ({message}) is outside the source:\n{text}"
                    );
                }
                Err(_) => rejected += 1,
            }
        }
    }
    // The mutations reach both outcomes.
    assert!(
        parsed > 0 && rejected > 0,
        "{parsed} parsed, {rejected} rejected"
    );
}
