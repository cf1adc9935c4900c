//! Graphviz (DOT) export of the decode graph, the fused schedule, and the
//! memory plan — the debugging/documentation view of the whole co-design.
//!
//! Ops are nodes (MPE ops as boxes, SFU ops as ellipses), SSA values are
//! edges, fused kernels are clusters, and edge colors encode the memory
//! plan: green = on-chip recycled segment, red = HBM round-trip,
//! dashed gray = fused away (never materialized).

use std::fmt::Write as _;

use crate::fusion::Schedule;
use crate::memplan::{MemoryPlan, Placement};

use super::{Graph, ValueId};

fn esc(s: &str) -> String {
    s.replace('"', "\\\"")
}

/// Renders the graph with fused-kernel clusters and (optionally) memory
/// placements on the edges.
#[must_use]
pub fn schedule_to_dot(graph: &Graph, schedule: &Schedule, plan: Option<&MemoryPlan>) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "digraph speedllm {{");
    let _ = writeln!(out, "  rankdir=TB;");
    let _ = writeln!(out, "  node [fontsize=10, fontname=\"monospace\"];");

    let node = |oi: usize| format!("op{oi}");
    let emit_node = |out: &mut String, oi: usize| {
        let op = &graph.ops[oi];
        let shape = if op.kind.uses_mpe() { "box" } else { "ellipse" };
        let _ = writeln!(
            out,
            "    {} [label=\"{}\\n{}\", shape={shape}];",
            node(oi),
            esc(&op.label),
            op.kind.mnemonic()
        );
    };

    for (ki, kernel) in schedule.kernels.iter().enumerate() {
        let _ = writeln!(out, "  subgraph cluster_k{ki} {{");
        let _ = writeln!(out, "    label=\"K{ki}: {}\";", esc(&kernel.label));
        let _ = writeln!(out, "    style=rounded; color=gray;");
        for &oi in &kernel.ops {
            emit_node(&mut out, oi);
        }
        let _ = writeln!(out, "  }}");
    }

    // Edges: producer -> each consumer, labelled by the value.
    for (oi, op) in graph.ops.iter().enumerate() {
        for &outv in &op.outputs {
            for ci in graph.consumers(outv) {
                let (color, style) = edge_style(plan, outv);
                let _ = writeln!(
                    out,
                    "  {} -> {} [label=\"{}\", fontsize=8, color={color}, style={style}];",
                    node(oi),
                    node(ci),
                    esc(&graph.values[outv.0].name)
                );
            }
        }
    }
    let _ = writeln!(out, "}}");
    out
}

fn edge_style(plan: Option<&MemoryPlan>, v: ValueId) -> (&'static str, &'static str) {
    match plan.map(|p| p.placement(v)) {
        Some(Placement::Internal) => ("gray", "dashed"),
        Some(Placement::Ocm(_)) => ("darkgreen", "solid"),
        Some(Placement::Hbm) => ("red", "bold"),
        None => ("black", "solid"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fusion::fuse;
    use crate::ir::build_decode_graph;
    use crate::memplan::plan;
    use speedllm_llama::config::ModelConfig;

    fn graph() -> Graph {
        build_decode_graph(&ModelConfig::test_tiny())
    }

    fn dot(g: &Graph) -> String {
        schedule_to_dot(g, &fuse(g, true), None)
    }

    #[test]
    fn dot_contains_every_op() {
        let g = graph();
        let dot = dot(&g);
        assert!(dot.starts_with("digraph speedllm {"));
        assert!(dot.trim_end().ends_with('}'));
        for op in &g.ops {
            assert!(dot.contains(&op.label), "missing {}", op.label);
        }
    }

    #[test]
    fn clustered_dot_has_one_cluster_per_kernel() {
        let g = graph();
        let s = fuse(&g, true);
        let dot = schedule_to_dot(&g, &s, None);
        let clusters = dot.matches("subgraph cluster_").count();
        assert_eq!(clusters, s.kernels.len());
    }

    #[test]
    fn placement_colors_appear() {
        let g = graph();
        let s = fuse(&g, true);
        let p = plan(&g, &s, true, 2 << 20);
        let dot = schedule_to_dot(&g, &s, Some(&p));
        assert!(dot.contains("darkgreen"), "OCM edges expected");
        assert!(dot.contains("dashed"), "internal edges expected");
        // With reuse on and a big pool there are no HBM activations.
        assert!(!dot.contains("color=red"));
        // Naive plan: red everywhere, nothing dashed-gray except none.
        let naive = crate::memplan::plan(&g, &s, false, 2 << 20);
        let dot2 = schedule_to_dot(&g, &s, Some(&naive));
        assert!(dot2.contains("color=red"));
    }

    #[test]
    fn edge_count_matches_consumer_relations() {
        let g = graph();
        let dot = dot(&g);
        let expected: usize = g
            .ops
            .iter()
            .flat_map(|op| op.outputs.iter())
            .map(|&v| g.consumers(v).len())
            .sum();
        assert_eq!(dot.matches(" -> ").count(), expected);
    }

    #[test]
    fn labels_are_escaped() {
        // No raw double quotes may leak out of label strings.
        let g = graph();
        let dot = dot(&g);
        for line in dot.lines() {
            let quotes = line.matches('"').count();
            assert!(quotes % 2 == 0, "unbalanced quotes in {line}");
        }
    }
}
