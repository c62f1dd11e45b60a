//! The four workloads: what they are made of and how `--seed` makes them.
//!
//! The driver's contract wants every end-to-end metric from every workload,
//! so every workload is the same two things — Datalog programs to evaluate
//! from scratch (`cases`, the `run_s.*` metrics) and live sessions to keep
//! current under an update stream (`sessions`, the `update_*` and
//! `recover_s` metrics).  What differs is which layer the work lands on;
//! see `WORKLOADS` for why each is here.
//!
//! **How the seed is used.**  `small_programs` draws its programs from the
//! seed directly: a sum over many small draws is steady.  The three graph
//! workloads are not: ten seeds of `carac_analysis::cspa(100, seed)` run
//! between 0.09 s and 1.0 s under the default JIT, and no regression bound
//! can sit under a spread like that.  So their generator draw is fixed
//! (`SHAPE`) and the seed chooses the *identity* of the data: a random
//! renaming of every node and a random order of the facts.  Each seed is a
//! different input with different fingerprints, hash-table layouts and row
//! ids, and the same amount of join work.

use std::collections::BTreeSet;
use std::fmt::Write as _;

use carac::UpdateBatch;
use carac_analysis::generators::{csda_facts, cspa_facts, random_digraph};
use carac_analysis::rng::SmallRng;
use carac_analysis::{edge_update_stream, fuzz_program, UpdateStreamBatch, Workload};
use carac_datalog::parser::parse;
use carac_datalog::Program;
use carac_storage::{Tuple, Value};

/// The seed when none is given.
pub const DEFAULT_SEED: u64 = 0xCA2AC;

/// The generator draw of the three graph workloads (see the module notes).
const SHAPE: u64 = DEFAULT_SEED;

pub struct WorkloadInfo {
    pub name: &'static str,
    pub why: &'static str,
    /// The share of `--seconds` spent on case rounds, the rest going to
    /// session rounds: the metrics a workload is here for get the time.
    pub case_share: f64,
}

pub const WORKLOADS: [WorkloadInfo; 4] = [
    WorkloadInfo {
        name: "cspa",
        why: "join-bound: 10 rules with 3-atom joins over points-to facts, 8 iterations, 3.0M emitted tuples for 11k kept; joins are 72-98% of a run, the iteration boundary the rest; outside the fixpoint <1%",
        case_share: 0.7,
    },
    WorkloadInfo {
        name: "csda",
        why: "storage-bound: two 2-atom rules, 321 iterations, 204k derived facts (9 MB row pool, over the 4 MiB L2); 88% of emitted tuples are inserted; iteration boundary 27-38% of a run; join order irrelevant",
        case_share: 0.7,
    },
    WorkloadInfo {
        name: "small_programs",
        why: "fixed-cost-bound: 1200 tiny fuzzed programs parsed and run cold; parse, plan, prepare, compile and compiler-thread hand-offs are 85-94% of a call, evaluating the rules 6-15%",
        case_share: 0.7,
    },
    WorkloadInfo {
        name: "tc_live",
        why: "update-bound: transitive closure kept live under 280 single-edge updates; a retract over-deletes 9k facts and re-derives 98% (DRed); latency is bimodal: insert 0.1 ms, retract into the SCC 25 ms",
        case_share: 0.3,
    },
];

/// How big each workload is.  `FULL` is what the benchmark reports;
/// `SMOKE` runs the same code in seconds.  The `*_live_*` sizes exist
/// because the contract wants the update metrics from every workload; a
/// retraction on `cspa` or `csda` costs about two from-scratch runs today,
/// so their sessions are smaller than their cases.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    pub cspa_scale: u32,
    pub cspa_live_scale: u32,
    pub csda_scale: u32,
    pub csda_live_scale: u32,
    /// Update batches of the `cspa` and `csda` sessions.
    pub graph_batches: usize,
    pub programs: u64,
    /// How many of the small programs are also kept live, one session each.
    pub live_programs: u64,
    pub tc_nodes: u32,
    pub tc_edges: usize,
    pub tc_batches: usize,
}

pub const FULL: Sizes = Sizes {
    cspa_scale: 88,
    cspa_live_scale: 20,
    csda_scale: 640,
    csda_live_scale: 200,
    graph_batches: 272,
    programs: 1200,
    live_programs: 120,
    tc_nodes: 250,
    tc_edges: 375,
    tc_batches: 280,
};

pub const SMOKE: Sizes = Sizes {
    cspa_scale: 32,
    cspa_live_scale: 16,
    csda_scale: 80,
    csda_live_scale: 40,
    graph_batches: 20,
    programs: 12,
    live_programs: 6,
    tc_nodes: 40,
    tc_edges: 60,
    tc_batches: 24,
};

pub type Fact = (String, Vec<u32>);

/// One signed fact of an update batch, by relation name.
pub use carac_analysis::FuzzOp as Op;

/// A program to evaluate from scratch, as text, in both formulations.
pub struct CaseText {
    pub rules: String,
    pub unopt_rules: String,
    pub facts: Vec<Fact>,
}

/// A live session: a program, then batches; a checkpoint is taken after
/// three quarters of them and the rest are replayed on recovery.
pub struct SessionText {
    pub rules: String,
    pub facts: Vec<Fact>,
    pub batches: Vec<Vec<Op>>,
}

pub struct Generated {
    pub cases: Vec<CaseText>,
    pub sessions: Vec<SessionText>,
    /// Whether a caller of this workload pays for parsing on every run.
    pub cold_parse: bool,
}

pub fn render(rules: &str, facts: &[Fact]) -> String {
    let mut out = String::with_capacity(rules.len() + facts.len() * 16);
    out.push_str(rules);
    if !rules.ends_with('\n') {
        out.push('\n');
    }
    for (relation, values) in facts {
        let _ = write!(out, "{relation}(");
        for (i, v) in values.iter().enumerate() {
            let _ = write!(out, "{}{v}", if i > 0 { ", " } else { "" });
        }
        out.push_str(").\n");
    }
    out
}

/// The program a user with no ordering knowledge might have written: every
/// rule body back to front.  Works on text so the cold-parse workload can
/// time parsing it.
pub fn reverse_bodies(rules: &str) -> String {
    let mut out = String::with_capacity(rules.len());
    for line in rules.lines() {
        let Some((head, body)) = line.split_once(":-") else {
            out.push_str(line);
            out.push('\n');
            continue;
        };
        let body = body.trim().trim_end_matches('.');
        let mut literals = Vec::new();
        let (mut depth, mut start) = (0usize, 0usize);
        for (i, c) in body.char_indices() {
            match c {
                '(' => depth += 1,
                ')' => depth = depth.saturating_sub(1),
                ',' if depth == 0 => {
                    literals.push(body[start..i].trim());
                    start = i + 1;
                }
                _ => {}
            }
        }
        literals.push(body[start..].trim());
        literals.reverse();
        let _ = writeln!(out, "{}:- {}.", head, literals.join(", "));
    }
    out
}

/// The seed's renaming of node ids `0..n` and ordering of facts.
struct Identity {
    rename: Vec<u32>,
    rng: SmallRng,
}

impl Identity {
    fn new(nodes: u32, seed: u64) -> Identity {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut rename: Vec<u32> = (0..nodes).collect();
        shuffle(&mut rename, &mut rng);
        Identity { rename, rng }
    }

    fn node(&self, v: u32) -> u32 {
        self.rename.get(v as usize).copied().unwrap_or(v)
    }

    fn facts(&mut self, facts: impl IntoIterator<Item = Fact>) -> Vec<Fact> {
        let mut out: Vec<Fact> = facts
            .into_iter()
            .map(|(rel, values)| (rel, values.into_iter().map(|v| self.node(v)).collect()))
            .collect();
        shuffle(&mut out, &mut self.rng);
        out
    }

    fn stream(&self, relation: &str, stream: &[UpdateStreamBatch]) -> Vec<Vec<Op>> {
        let op = |insert: bool, &(a, b): &(u32, u32)| Op {
            relation: relation.to_string(),
            insert,
            values: vec![self.node(a), self.node(b)],
        };
        stream
            .iter()
            .map(|batch| {
                batch
                    .retracts
                    .iter()
                    .map(|e| op(false, e))
                    .chain(batch.inserts.iter().map(|e| op(true, e)))
                    .collect()
            })
            .collect()
    }
}

fn shuffle<T>(items: &mut [T], rng: &mut SmallRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range_usize(0, i + 1));
    }
}

fn rules_of(program: &Program) -> String {
    program
        .rules()
        .iter()
        .map(|rule| program.display_rule(rule) + "\n")
        .collect()
}

fn facts_of(program: &Program) -> Vec<Fact> {
    program
        .facts()
        .iter()
        .map(|(rel, tuple)| {
            (
                program.relation(*rel).name.clone(),
                tuple.values().iter().map(|v| v.raw()).collect(),
            )
        })
        .collect()
}

/// Applies the first `batches` batches to `facts`, keeping first-seen order.
pub fn facts_after(facts: &[Fact], batches: &[Vec<Op>]) -> Vec<Fact> {
    let mut live: Vec<Fact> = Vec::new();
    let mut present: BTreeSet<Fact> = BTreeSet::new();
    for fact in facts {
        if present.insert(fact.clone()) {
            live.push(fact.clone());
        }
    }
    for op in batches.iter().flatten() {
        let fact = (op.relation.clone(), op.values.clone());
        if op.insert {
            if present.insert(fact.clone()) {
                live.push(fact);
            }
        } else if present.remove(&fact) {
            live.retain(|f| *f != fact);
        }
    }
    live
}

/// One of `carac_analysis`'s program-analysis workloads at two scales: the
/// big one evaluated from scratch, the small one kept live under single-edge
/// updates to `edge_relation`.
fn analysis_workload(
    build: fn(u32, u64) -> Workload,
    edges: fn(u32, u64) -> Vec<(u32, u32)>,
    edge_relation: &str,
    (scale, live_scale, batches): (u32, u32, usize),
    seed: u64,
) -> Generated {
    let big = build(scale, SHAPE);
    let mut identity = Identity::new(scale.max(8), seed);
    let case = CaseText {
        rules: rules_of(&big.optimized),
        unopt_rules: rules_of(&big.unoptimized),
        facts: identity.facts(facts_of(&big.optimized)),
    };

    let small = build(live_scale, SHAPE);
    let nodes = live_scale.max(8);
    let stream = edge_update_stream(
        &edges(live_scale, SHAPE),
        nodes,
        batches,
        1,
        SHAPE.wrapping_add(1),
    );
    let mut identity = Identity::new(nodes, seed.wrapping_add(1));
    let session = SessionText {
        rules: rules_of(&small.optimized),
        facts: identity.facts(facts_of(&small.optimized)),
        batches: identity.stream(edge_relation, &stream),
    };
    Generated {
        cases: vec![case],
        sessions: vec![session],
        cold_parse: false,
    }
}

const TC_RULES: &str = "Path(x, y) :- Edge(x, y).\nPath(x, y) :- Edge(x, z), Path(z, y).\n";

/// Transitive closure kept live under single-edge updates; its case is the
/// same program from scratch on the starting graph (what recomputing
/// instead of maintaining costs).
fn tc_live(sizes: &Sizes, seed: u64) -> Generated {
    let edges = random_digraph(sizes.tc_nodes, sizes.tc_edges, SHAPE);
    let stream = edge_update_stream(
        &edges,
        sizes.tc_nodes,
        sizes.tc_batches,
        1,
        SHAPE.wrapping_add(1),
    );
    let mut identity = Identity::new(sizes.tc_nodes, seed);
    let facts = identity.facts(edges.iter().map(|&(a, b)| ("Edge".to_string(), vec![a, b])));
    Generated {
        cases: vec![CaseText {
            rules: TC_RULES.to_string(),
            unopt_rules: reverse_bodies(TC_RULES),
            facts: facts.clone(),
        }],
        sessions: vec![SessionText {
            rules: TC_RULES.to_string(),
            batches: identity.stream("Edge", &stream),
            facts,
        }],
        cold_parse: false,
    }
}

/// Fuzzed programs, each parsed and run cold; the first `live_programs` are
/// also kept live, a session each, under their own fuzzed batches.
fn small_programs(sizes: &Sizes, seed: u64) -> Generated {
    let mut cases = Vec::new();
    let mut sessions = Vec::new();
    for i in 0..sizes.programs {
        let fuzzed = fuzz_program(seed.wrapping_add(i));
        cases.push(CaseText {
            rules: fuzzed.source.clone(),
            unopt_rules: reverse_bodies(&fuzzed.source),
            facts: fuzzed.facts.clone(),
        });
        if i < sizes.live_programs {
            sessions.push(SessionText {
                rules: fuzzed.source,
                facts: fuzzed.facts,
                batches: fuzzed.batches,
            });
        }
    }
    Generated {
        cases,
        sessions,
        cold_parse: true,
    }
}

pub fn generate(workload: &str, sizes: &Sizes, seed: u64) -> Result<Generated, String> {
    Ok(match workload {
        "cspa" => analysis_workload(
            carac_analysis::cspa,
            |scale, shape| cspa_facts(scale, shape).assign,
            "Assign",
            (sizes.cspa_scale, sizes.cspa_live_scale, sizes.graph_batches),
            seed,
        ),
        "csda" => analysis_workload(
            carac_analysis::csda,
            csda_facts,
            "Nullflow",
            (sizes.csda_scale, sizes.csda_live_scale, sizes.graph_batches),
            seed,
        ),
        "small_programs" => small_programs(sizes, seed),
        "tc_live" => tc_live(sizes, seed),
        other => return Err(format!("unknown workload '{other}'")),
    })
}

/// A case with its programs built.
pub struct Case {
    pub source: String,
    pub unopt_source: String,
    pub program: Program,
    pub unopt_program: Program,
}

/// A session with its program and update batches built.
pub struct Session {
    pub text: SessionText,
    pub program: Program,
    pub batches: Vec<UpdateBatch>,
    /// Whether batch `i` retracts anything (the slow kind).
    pub retracts: Vec<bool>,
    pub checkpoint_after: usize,
}

impl Session {
    /// The session's program over the facts as they stand after every
    /// batch: what a from-scratch evaluation of the final state reads.
    pub fn final_source(&self) -> String {
        render(
            &self.text.rules,
            &facts_after(&self.text.facts, &self.text.batches),
        )
    }

    /// The final edge set, if this session maintains plain transitive
    /// closure (for the oracle's breadth-first cross-check).
    pub fn final_edges(&self) -> Option<Vec<(u32, u32)>> {
        (self.text.rules == TC_RULES).then(|| {
            facts_after(&self.text.facts, &self.text.batches)
                .iter()
                .map(|(_, values)| (values[0], values[1]))
                .collect()
        })
    }

    pub fn replayed(&self) -> usize {
        self.batches.len() - self.checkpoint_after
    }
}

pub struct Built {
    pub cases: Vec<Case>,
    pub sessions: Vec<Session>,
    pub cold_parse: bool,
    pub source_bytes: usize,
}

/// Everything a run needs before anything is timed: generated text parsed
/// into `Program`s, update streams resolved to `UpdateBatch`es.
pub fn build(generated: Generated) -> Result<Built, String> {
    let parse_named = |what: &str, source: &str| {
        parse(source).map_err(|e| format!("{what} does not parse: {e}\n{source}"))
    };
    let mut source_bytes = 0;
    let mut cases = Vec::new();
    for text in generated.cases {
        let source = render(&text.rules, &text.facts);
        let unopt_source = render(&text.unopt_rules, &text.facts);
        source_bytes += source.len();
        cases.push(Case {
            program: parse_named("case", &source)?,
            unopt_program: parse_named("unoptimized case", &unopt_source)?,
            source,
            unopt_source,
        });
    }
    let mut sessions = Vec::new();
    for text in generated.sessions {
        let program = parse_named("session", &render(&text.rules, &text.facts))?;
        let mut batches = Vec::new();
        for ops in &text.batches {
            let mut batch = UpdateBatch::new();
            for op in ops {
                let rel = program
                    .relation_by_name(&op.relation)
                    .map_err(|e| e.to_string())?;
                let tuple = Tuple::new(op.values.iter().copied().map(Value::int).collect());
                if op.insert {
                    batch.insert(rel, tuple);
                } else {
                    batch.retract(rel, tuple);
                }
            }
            batches.push(batch);
        }
        sessions.push(Session {
            retracts: text
                .batches
                .iter()
                .map(|ops| ops.iter().any(|op| !op.insert))
                .collect(),
            checkpoint_after: batches.len() * 3 / 4,
            program,
            batches,
            text,
        });
    }
    Ok(Built {
        cases,
        sessions,
        cold_parse: generated.cold_parse,
        source_bytes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bodies_reverse_at_top_level_commas_only() {
        let reversed = reverse_bodies(
            "P(x, y) :- Edge(x, z), P(z, y).\nU(x) :- Node(x), !Reach(x).\nO(x, y) :- P(x, y), x < y.\nFact(1, 2).\n",
        );
        assert_eq!(
            reversed,
            "P(x, y) :- P(z, y), Edge(x, z).\nU(x) :- !Reach(x), Node(x).\nO(x, y) :- x < y, P(x, y).\nFact(1, 2).\n"
        );
    }

    #[test]
    fn same_seed_same_inputs_and_other_seed_other_identity() {
        let text = |seed| {
            let g = generate("tc_live", &SMOKE, seed).unwrap();
            render(&g.sessions[0].rules, &g.sessions[0].facts)
        };
        assert_eq!(text(1), text(1));
        assert_ne!(text(1), text(2));
        // Same shape: the same number of facts under another naming.
        assert_eq!(text(1).lines().count(), text(2).lines().count());
    }

    #[test]
    fn facts_after_applies_batches_in_order() {
        let facts = vec![("E".to_string(), vec![1, 2]), ("E".to_string(), vec![2, 3])];
        let op = |insert, a, b| Op {
            relation: "E".to_string(),
            insert,
            values: vec![a, b],
        };
        let batches = vec![vec![op(false, 1, 2)], vec![op(true, 3, 4), op(true, 1, 2)]];
        assert_eq!(facts_after(&facts, &batches[..1]), vec![facts[1].clone()]);
        assert_eq!(
            facts_after(&facts, &batches),
            vec![
                facts[1].clone(),
                ("E".to_string(), vec![3, 4]),
                facts[0].clone()
            ]
        );
    }

    #[test]
    fn every_workload_builds_at_smoke_size() {
        for info in &WORKLOADS {
            let built = build(generate(info.name, &SMOKE, 7).unwrap()).unwrap();
            assert!(!built.cases.is_empty() && !built.sessions.is_empty());
            for session in &built.sessions {
                assert_eq!(session.batches.len(), session.retracts.len());
                assert!(session.checkpoint_after <= session.batches.len());
            }
        }
    }
}
