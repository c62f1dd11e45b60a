//! Recursive lattice aggregates: monotone `min`/`max`/`count` folds running
//! *inside* a fixpoint loop (single-stratum shortest path and friends),
//! checked against the classic two-stratum formulation, independent
//! reference implementations, every engine at several thread counts, and
//! incremental maintenance.

use carac::{knobs::BackendKind, Carac, EngineConfig};
use carac_datalog::parser::parse;

/// Shared road network for the shortest-path programs.
const ROADS: &[(u32, u32)] = &[
    (0, 1),
    (0, 2),
    (1, 3),
    (2, 3),
    (3, 4),
    (4, 5),
    (2, 6),
    (6, 5),
];

/// Distance-chain bound used by the `Succ` facts (hop counts 0..=D).
const D: u32 = 6;

fn edge_facts(name: &str, edges: &[(u32, u32)]) -> String {
    edges
        .iter()
        .map(|(a, b)| format!("{name}({a}, {b}). "))
        .collect()
}

fn succ_chain(bound: u32) -> String {
    let mut s = String::from("Zero(0). ");
    for d in 0..bound {
        s.push_str(&format!("Succ({d}, {}). ", d + 1));
    }
    s
}

/// The single-stratum lattice formulation: both rules aggregate into the
/// same head, so `Dist` folds `min` inside its own recursion.
fn single_rule_source(edges: &[(u32, u32)], bound: u32) -> String {
    format!(
        "{roads}{succ}Depot(0).\n\
         Dist(y, min d)  :- Depot(y), Zero(d).\n\
         Dist(y, min d2) :- Dist(x, d1), Road(x, y), Succ(d1, d2).",
        roads = edge_facts("Road", edges),
        succ = succ_chain(bound),
    )
}

/// The classic workaround: enumerate bounded reachability in one stratum,
/// collapse with a stratified `min` in the next.
fn two_stratum_source(edges: &[(u32, u32)], bound: u32) -> String {
    format!(
        "{roads}{succ}Depot(0).\n\
         Reach(y, d)  :- Depot(y), Zero(d).\n\
         Reach(y, d2) :- Reach(x, d1), Road(x, y), Succ(d1, d2).\n\
         Dist(y, min d) :- Reach(y, d).",
        roads = edge_facts("Road", edges),
        succ = succ_chain(bound),
    )
}

/// Independent shortest-path reference: BFS from `start`, keeping only
/// nodes within `bound` hops (matching the `Succ`-chain bound).
fn bfs_dists(edges: &[(u32, u32)], start: u32, bound: u32) -> Vec<(u32, u32)> {
    let mut dist = std::collections::BTreeMap::new();
    dist.insert(start, 0u32);
    let mut frontier = vec![start];
    let mut hops = 0;
    while !frontier.is_empty() && hops < bound {
        hops += 1;
        let mut next = Vec::new();
        for &x in &frontier {
            for &(a, b) in edges {
                if a == x && !dist.contains_key(&b) {
                    dist.insert(b, hops);
                    next.push(b);
                }
            }
        }
        frontier = next;
    }
    dist.into_iter().collect()
}

fn configs() -> Vec<EngineConfig> {
    let mut configs = Vec::new();
    for base in [
        EngineConfig::interpreted(),
        EngineConfig::eager_jit(BackendKind::Lambda, false),
        EngineConfig::eager_jit(BackendKind::Bytecode, false),
        EngineConfig::eager_jit(BackendKind::IrGen, false),
        EngineConfig::default(),
    ] {
        for threads in [1, 2, 8] {
            configs.push(base.with_parallelism(threads));
        }
    }
    configs
}

/// Runs `source` under `config` and returns `relation`'s rows, sorted.
fn run_rows(source: &str, config: EngineConfig, relation: &str) -> Vec<Vec<String>> {
    let program = parse(source).expect("program parses");
    let result = Carac::new(program)
        .with_config(config)
        .run()
        .expect("evaluation succeeds");
    let mut rows = result.rows(relation).expect("relation exists");
    rows.sort();
    rows
}

fn as_rows(pairs: &[(u32, u32)]) -> Vec<Vec<String>> {
    let mut rows: Vec<Vec<String>> = pairs
        .iter()
        .map(|(a, b)| vec![a.to_string(), b.to_string()])
        .collect();
    rows.sort();
    rows
}

#[test]
fn single_rule_min_shortest_path_matches_two_stratum_and_bfs() {
    let expected = as_rows(&bfs_dists(ROADS, 0, D));
    let single = single_rule_source(ROADS, D);
    let two = two_stratum_source(ROADS, D);
    for config in configs() {
        let label = config.label();
        let threads = config.parallelism;
        let got = run_rows(&single, config, "Dist");
        assert_eq!(
            got, expected,
            "single-rule lattice diverged from BFS under {label} x{threads}"
        );
        let classic = run_rows(&two, config, "Dist");
        assert_eq!(
            classic, expected,
            "two-stratum formulation diverged from BFS under {label} x{threads}"
        );
    }
}

#[test]
fn lattice_program_classifies_as_lattice() {
    let program = parse(&single_rule_source(ROADS, D)).unwrap();
    let specs = program.aggregates();
    assert_eq!(specs.len(), 1);
    assert!(specs[0].lattice, "in-recursion fold must be lattice mode");
    let two = parse(&two_stratum_source(ROADS, D)).unwrap();
    let specs = two.aggregates();
    assert_eq!(specs.len(), 1);
    assert!(!specs[0].lattice, "stratified fold must stay non-lattice");
}

/// Bellman-style fixpoint for the longest bounded walk: the reference for
/// the `max` lattice.  `M(y) = max over edges (x, y) of M(x) + 1`, capped
/// at `bound`, iterated to fixpoint.
fn longest_walk_fixpoint(edges: &[(u32, u32)], start: u32, bound: u32) -> Vec<(u32, u32)> {
    let mut m = std::collections::BTreeMap::new();
    m.insert(start, 0u32);
    loop {
        let mut changed = false;
        for &(x, y) in edges {
            if let Some(&dx) = m.get(&x) {
                if dx < bound {
                    let cand = dx + 1;
                    let cur = m.get(&y).copied();
                    if cur.is_none_or(|c| cand > c) {
                        m.insert(y, cand);
                        changed = true;
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }
    m.into_iter().collect()
}

#[test]
fn max_lattice_longest_bounded_walk_matches_reference() {
    // A DAG: two diamonds in sequence.
    let edges: &[(u32, u32)] = &[
        (0, 1),
        (0, 2),
        (1, 3),
        (2, 3),
        (3, 4),
        (3, 5),
        (4, 6),
        (5, 6),
    ];
    let bound = 7;
    let source = format!(
        "{e}{succ}Start(0).\n\
         Walk(y, max d)  :- Start(y), Zero(d).\n\
         Walk(y, max d2) :- Walk(x, d1), Edge(x, y), Succ(d1, d2).",
        e = edge_facts("Edge", edges),
        succ = succ_chain(bound),
    );
    let expected = as_rows(&longest_walk_fixpoint(edges, 0, bound));
    for config in configs() {
        let label = config.label();
        let threads = config.parallelism;
        let got = run_rows(&source, config, "Walk");
        assert_eq!(
            got, expected,
            "max lattice diverged from the Bellman fixpoint under {label} x{threads}"
        );
    }
}

#[test]
fn count_lattice_agrees_across_engines() {
    // `Seen` counts, per node, the distinct predecessors that have been
    // absorbed into the recursion — a monotone count fold whose fixpoint is
    // schedule-independent because the *input set* at fixpoint is.
    let edges: &[(u32, u32)] = &[(0, 1), (0, 2), (1, 3), (2, 3), (3, 1), (3, 4)];
    let source = format!(
        "{e}Root(0).\n\
         Seen(y, count x) :- Root(y), Root(x).\n\
         Seen(y, count x) :- Seen(x, n), Edge(x, y).",
        e = edge_facts("Edge", edges),
    );
    let reference = run_rows(&source, EngineConfig::interpreted(), "Seen");
    assert!(!reference.is_empty());
    for config in configs() {
        let label = config.label();
        let threads = config.parallelism;
        let got = run_rows(&source, config, "Seen");
        assert_eq!(
            got, reference,
            "count lattice diverged across engines under {label} x{threads}"
        );
    }
}

#[test]
fn lattice_apply_update_matches_from_scratch() {
    // Insert a shortcut that improves several optima, then retract the edge
    // supplying node 5's optimum — both against a scratch re-evaluation.
    let source = single_rule_source(ROADS, D);
    for config in [
        EngineConfig::interpreted(),
        EngineConfig::eager_jit(BackendKind::Lambda, false),
        EngineConfig::eager_jit(BackendKind::Bytecode, false),
    ] {
        let label = config.label();
        let mut engine = Carac::new(parse(&source).unwrap()).with_config(config);
        engine.run_live().unwrap();

        // Shortcut 0 -> 4: node 4 drops from 3 hops to 1, node 5 to 2.
        engine.apply_edge_updates("Road", &[(0, 4)], &[]).unwrap();
        let mut live = engine.live_tuples("Dist").unwrap();
        live.sort();
        let mut roads: Vec<(u32, u32)> = ROADS.to_vec();
        roads.push((0, 4));
        let mut scratch =
            Carac::new(parse(&single_rule_source(&roads, D)).unwrap()).with_config(config);
        let mut expected = scratch.live_tuples("Dist").unwrap();
        expected.sort();
        assert_eq!(live, expected, "insert diverged under {label}");
        let bfs = as_rows(&bfs_dists(&roads, 0, D));
        let got = {
            let result = scratch.run().unwrap();
            let mut rows = result.rows("Dist").unwrap();
            rows.sort();
            rows
        };
        assert_eq!(got, bfs, "scratch run diverged from BFS under {label}");

        // Retract the optimum-supplying shortcut again plus edge (4, 5):
        // node 4 falls back to 3 hops, node 5's optimum re-derives via 6.
        engine
            .apply_edge_updates("Road", &[], &[(0, 4), (4, 5)])
            .unwrap();
        let mut live = engine.live_tuples("Dist").unwrap();
        live.sort();
        let reduced: Vec<(u32, u32)> = ROADS.iter().copied().filter(|&e| e != (4, 5)).collect();
        let mut scratch =
            Carac::new(parse(&single_rule_source(&reduced, D)).unwrap()).with_config(config);
        let mut expected = scratch.live_tuples("Dist").unwrap();
        expected.sort();
        assert_eq!(live, expected, "retract diverged under {label}");
    }
}

#[test]
fn lattice_and_stratified_sum_can_coexist() {
    // A lattice min inside the recursion plus an ordinary stratified sum
    // one stratum above it.
    let source = format!(
        "{roads}{succ}Depot(0).\n\
         Dist(y, min d)  :- Depot(y), Zero(d).\n\
         Dist(y, min d2) :- Dist(x, d1), Road(x, y), Succ(d1, d2).\n\
         Total(sum d) :- Dist(y, d).",
        roads = edge_facts("Road", ROADS),
        succ = succ_chain(D),
    );
    // `sum` folds the *distinct* rows of its hidden input, which here has
    // the head's shape `(d)` — so each distance value contributes once.
    let expected_total: u32 = {
        let mut dists: Vec<u32> = bfs_dists(ROADS, 0, D).iter().map(|&(_, d)| d).collect();
        dists.sort_unstable();
        dists.dedup();
        dists.iter().sum()
    };
    for config in configs() {
        let label = config.label();
        let rows = run_rows(&source, config, "Total");
        assert_eq!(
            rows,
            vec![vec![expected_total.to_string()]],
            "stratified sum over lattice output diverged under {label}"
        );
    }
}
