//! Summary-coverage guarantee, mirroring `cfg_roundtrip.rs` one layer
//! up: every workspace function gets an effect summary (the summary
//! vector is index-aligned with the call graph), the SCC decomposition
//! is a bottom-up partition, and the summaries of known service
//! functions say what the source plainly does — `Service::seal` may
//! block, `Mono::live_lock` is a guard accessor for `live`.

use std::path::Path;

use analyzer::callgraph::CallGraph;
use analyzer::summaries::Summaries;
use analyzer::symbols::WorkspaceModel;

fn workspace() -> (WorkspaceModel, CallGraph) {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let files = analyzer::workspace_files(&root).expect("workspace walk");
    assert!(files.len() > 50, "workspace walk found too few files");
    let mut parsed = Vec::new();
    for path in &files {
        let rel = path
            .strip_prefix(&root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        let src = std::fs::read_to_string(path).expect("read workspace file");
        parsed.push(analyzer::parser::parse_file(&rel, &src));
    }
    let model = WorkspaceModel::new(parsed);
    let graph = CallGraph::build(&model);
    (model, graph)
}

#[test]
fn every_workspace_fn_gets_a_summary() {
    let (model, graph) = workspace();
    let sums = Summaries::build(&model, &graph);
    assert_eq!(
        sums.fns.len(),
        graph.nodes.len(),
        "summaries must be index-aligned with the call graph"
    );
    assert!(
        sums.fns.len() > 300,
        "suspiciously few functions summarized: {}",
        sums.fns.len()
    );
    for (i, (s, n)) in sums.fns.iter().zip(graph.nodes.iter()).enumerate() {
        assert_eq!(s.qual, n.qual, "summary {i} misaligned with its node");
        assert_eq!(s.file, n.file, "summary {i} misaligned with its node");
    }
}

#[test]
fn sccs_partition_the_graph_bottom_up() {
    let (_, graph) = workspace();
    let comps = graph.sccs();
    let n = graph.nodes.len();
    let mut comp_of = vec![usize::MAX; n];
    for (ci, comp) in comps.iter().enumerate() {
        for &v in comp {
            assert_eq!(comp_of[v], usize::MAX, "node {v} in two components");
            comp_of[v] = ci;
        }
    }
    assert!(
        comp_of.iter().all(|&c| c != usize::MAX),
        "some node missing from the SCC partition"
    );
    // Components are emitted callees-first: every edge points into the
    // same or an earlier component.
    for v in 0..n {
        for &w in graph.callees(v) {
            assert!(
                comp_of[w] <= comp_of[v],
                "edge {} -> {} breaks bottom-up component order",
                graph.nodes[v].qual,
                graph.nodes[w].qual
            );
        }
    }
}

#[test]
fn service_summaries_match_the_source() {
    let (model, graph) = workspace();
    let sums = Summaries::build(&model, &graph);

    let seal = graph
        .find("Service::seal")
        .into_iter()
        .next()
        .expect("Service::seal exists");
    assert!(
        sums.fns[seal].blocks.is_some(),
        "seal builds segments — it must summarize as may-block"
    );

    let live_lock = graph
        .find("Mono::live_lock")
        .into_iter()
        .next()
        .expect("Mono::live_lock exists");
    assert_eq!(
        sums.fns[live_lock].returns_guard_of.as_deref(),
        Some("live"),
        "live_lock is the audited accessor for the live lock"
    );
    assert!(
        sums.fns[live_lock].acquires.contains("live"),
        "live_lock acquires live: {:?}",
        sums.fns[live_lock].acquires
    );
}
