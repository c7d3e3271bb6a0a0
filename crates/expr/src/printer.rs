//! Pretty-printers: formula sequences in the paper's mathematical notation,
//! the direct (unfused) loop code of Fig. 2(b), and `.tce` source.

use crate::formula::{Formula, FormulaSequence};
use crate::index::{IndexId, IndexSpace};
use crate::tree::{ExprTree, NodeId, NodeKind};

/// Render a formula sequence in the style of Fig. 2(a):
///
/// ```text
/// T1(b,c,d,f) = sum_{e,l} B(b,e,f,l) * D(c,d,e,l)
/// ```
pub fn render_sequence(seq: &FormulaSequence) -> String {
    let sp = &seq.space;
    let mut out = String::new();
    for f in &seq.formulas {
        match f {
            Formula::Mul { result, lhs, rhs } => {
                out.push_str(&format!("{} = {} * {}\n", result.render(sp), lhs, rhs));
            }
            Formula::Sum { result, operand, sum } => {
                out.push_str(&format!(
                    "{} = sum_{{{}}} {}\n",
                    result.render(sp),
                    sp.name(*sum),
                    operand
                ));
            }
            Formula::Contract { result, lhs, rhs, sum } => {
                out.push_str(&format!(
                    "{} = sum_{{{}}} {} * {}\n",
                    result.render(sp),
                    sp.render(sum.as_slice()),
                    lhs,
                    rhs
                ));
            }
        }
    }
    out
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

/// Render the *unfused* loop code of an expression tree, one perfectly
/// nested loop per internal node in post order — the shape of Fig. 2(b):
///
/// ```text
/// T1=0; T2=0; S=0
/// for b, c, d, e, f, l
///   T1[b,c,d,f] += B[b,e,f,l] * D[c,d,e,l]
/// ...
/// ```
pub fn render_unfused_loops(tree: &ExprTree) -> String {
    let sp: &IndexSpace = &tree.space;
    let mut out = String::new();
    let internals: Vec<_> =
        tree.postorder().into_iter().filter(|&id| !tree.node(id).is_leaf()).collect();
    // Initialization line.
    for (n, &id) in internals.iter().enumerate() {
        if n > 0 {
            out.push_str("; ");
        }
        out.push_str(&format!("{}=0", tree.node(id).tensor.name));
    }
    out.push('\n');
    for &id in &internals {
        let node = tree.node(id);
        let loops = node.loop_indices();
        out.push_str(&format!("for {}\n", sp.render(loops.as_slice())));
        indent(&mut out, 1);
        match &node.kind {
            NodeKind::Contract { left, right, .. } => {
                let l = &tree.node(*left).tensor;
                let r = &tree.node(*right).tensor;
                out.push_str(&format!(
                    "{}[{}] += {}[{}] * {}[{}]\n",
                    node.tensor.name,
                    sp.render(&node.tensor.dims),
                    l.name,
                    sp.render(&l.dims),
                    r.name,
                    sp.render(&r.dims)
                ));
            }
            NodeKind::Reduce { child, .. } => {
                let c = &tree.node(*child).tensor;
                out.push_str(&format!(
                    "{}[{}] += {}[{}]\n",
                    node.tensor.name,
                    sp.render(&node.tensor.dims),
                    c.name,
                    sp.render(&c.dims)
                ));
            }
            NodeKind::Leaf => unreachable!("leaves were filtered out"),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse, FIG2_SOURCE};

    #[test]
    fn sequence_rendering_matches_fig2a() {
        let seq = parse(FIG2_SOURCE).unwrap().to_sequence().unwrap();
        let text = render_sequence(&seq);
        assert!(text.contains("T1(b,c,d,f) = sum_{e,l} B * D"));
        assert!(text.contains("S(a,b,i,j) = sum_{c,k} T2 * A"));
    }

    #[test]
    fn unfused_loops_match_fig2b_shape() {
        let tree = parse(FIG2_SOURCE).unwrap().to_sequence().unwrap().to_tree().unwrap();
        let code = render_unfused_loops(&tree);
        assert!(code.starts_with("T1=0; T2=0; S=0\n"));
        assert!(code.contains("for b,c,d,e,f,l\n  T1[b,c,d,f] += B[b,e,f,l] * D[c,d,e,l]"));
        assert!(code.contains("for a,b,c,i,j,k\n  S[a,b,i,j] += T2[b,c,j,k] * A[a,c,i,k]"));
        // Three loop nests, in dependency order.
        assert_eq!(code.matches("for ").count(), 3);
        let p1 = code.find("T1[b,c,d,f] +=").unwrap();
        let p3 = code.find("S[a,b,i,j] +=").unwrap();
        assert!(p1 < p3);
    }

    #[test]
    fn reduce_nodes_print() {
        let src = "range i = 2; range t = 3; input A[i,t]; S[t] = sum[i] A[i,t];";
        let tree = parse(src).unwrap().to_sequence().unwrap().to_tree().unwrap();
        let code = render_unfused_loops(&tree);
        assert!(code.contains("S[t] += A[i,t]"));
    }
}

/// How [`render_tce`] spells and orders a program.
pub struct TceLayout<'a> {
    /// One `range` line per index, in this order.
    pub ranges: &'a [IndexId],
    /// One `input` line per leaf node, in this order.
    pub inputs: &'a [NodeId],
    /// One statement per internal node, in this order (children first).
    pub statements: &'a [NodeId],
    /// The name of an index.
    pub index_name: &'a dyn Fn(IndexId) -> String,
    /// The name of a node's array.
    pub array_name: &'a dyn Fn(NodeId) -> String,
    /// Whether a contraction names its right operand first.
    pub swapped: &'a dyn Fn(NodeId) -> bool,
}

/// Render `tree` as `.tce` source: the `range` lines, then the `input`
/// lines, then the statements, each as `layout` orders and names them.
pub fn render_tce(tree: &ExprTree, layout: &TceLayout) -> String {
    use std::fmt::Write as _;
    let names = |ids: &[IndexId]| -> String {
        ids.iter().map(|&ix| (layout.index_name)(ix)).collect::<Vec<_>>().join(",")
    };
    let term =
        |n: NodeId| format!("{}[{}]", (layout.array_name)(n), names(&tree.node(n).tensor.dims));
    let mut out = String::new();
    for &ix in layout.ranges {
        let _ = writeln!(out, "range {} = {};", (layout.index_name)(ix), tree.space.extent(ix));
    }
    for &n in layout.inputs {
        let _ = writeln!(out, "input {};", term(n));
    }
    for &n in layout.statements {
        match &tree.node(n).kind {
            NodeKind::Leaf => {}
            NodeKind::Reduce { sum, child } => {
                let _ = writeln!(
                    out,
                    "{} = sum[{}] {};",
                    term(n),
                    (layout.index_name)(*sum),
                    term(*child)
                );
            }
            NodeKind::Contract { sum, left, right } => {
                let (a, b) = if (layout.swapped)(n) { (right, left) } else { (left, right) };
                let sum = if sum.is_empty() {
                    String::new()
                } else {
                    format!("sum[{}] ", names(sum.as_slice()))
                };
                let _ = writeln!(out, "{} = {sum}{} * {};", term(n), term(*a), term(*b));
            }
        }
    }
    out
}

/// Render an expression tree as a parseable `.tce` program under its own
/// names: one `range` declaration per index used by the tree (declaration
/// order), one `input` declaration per distinct leaf name and one
/// statement per internal node, both in post order. Round-trips through
/// [`crate::parser::parse`] + [`FormulaSequence::to_tree`] to an
/// equivalent tree (same tensors, same structure; node ids may differ).
/// Used to pin fuzz reproducers as plain workload files.
pub fn render_tce_source(tree: &ExprTree) -> String {
    let mut ranges: Vec<IndexId> = Vec::new();
    for id in tree.ids() {
        let node = tree.node(id);
        let sum = match &node.kind {
            NodeKind::Reduce { sum, .. } => Some(sum),
            _ => None,
        };
        for &d in node.tensor.dims.iter().chain(sum) {
            if !ranges.contains(&d) {
                ranges.push(d);
            }
        }
    }
    ranges.sort_by_key(|d| d.0);
    let post = tree.postorder();
    let mut inputs: Vec<NodeId> = Vec::new();
    for &id in &post {
        let name = &tree.node(id).tensor.name;
        if tree.node(id).is_leaf() && !inputs.iter().any(|&n| tree.node(n).tensor.name == *name) {
            inputs.push(id);
        }
    }
    let statements: Vec<NodeId> = post.into_iter().filter(|&id| !tree.node(id).is_leaf()).collect();
    render_tce(
        tree,
        &TceLayout {
            ranges: &ranges,
            inputs: &inputs,
            statements: &statements,
            index_name: &|ix| tree.space.name(ix).to_string(),
            array_name: &|n| tree.node(n).tensor.name.clone(),
            swapped: &|_| false,
        },
    )
}

#[cfg(test)]
mod source_tests {
    use super::*;
    use crate::parser::{parse, FIG2_SOURCE};

    #[test]
    fn tce_source_round_trips() {
        let tree = parse(FIG2_SOURCE).unwrap().to_sequence().unwrap().to_tree().unwrap();
        let src = render_tce_source(&tree);
        let back = parse(&src).unwrap().to_sequence().unwrap().to_tree().unwrap();
        assert_eq!(tree.len(), back.len());
        // Same tensors (by name, dim names, extents) and same root.
        let sig = |t: &ExprTree| {
            let mut v: Vec<String> = t
                .ids()
                .map(|id| {
                    let n = t.node(id);
                    let d: Vec<String> = n
                        .tensor
                        .dims
                        .iter()
                        .map(|&x| format!("{}:{}", t.space.name(x), t.space.extent(x)))
                        .collect();
                    format!("{}[{}]", n.tensor.name, d.join(","))
                })
                .collect();
            v.sort();
            v
        };
        assert_eq!(sig(&tree), sig(&back));
        assert_eq!(tree.node(tree.root()).tensor.name, back.node(back.root()).tensor.name);
    }

    #[test]
    fn tce_source_handles_mul_reduce_and_scalars() {
        let src = "\
range a = 4; range b = 8;
input A[a,b]; input B[a,b];
T[a,b] = A[a,b] * B[a,b];
U[b] = sum[a] T[a,b];
S[] = sum[b] U[b];
";
        let tree = parse(src).unwrap().to_sequence().unwrap().to_tree().unwrap();
        let rendered = render_tce_source(&tree);
        assert!(rendered.contains("T[a,b] = A[a,b] * B[a,b];"));
        assert!(rendered.contains("U[b] = sum[a] T[a,b];"));
        assert!(rendered.contains("S[] = sum[b] U[b];"));
        let back = parse(&rendered).unwrap().to_sequence().unwrap().to_tree().unwrap();
        assert_eq!(tree.len(), back.len());
    }
}
