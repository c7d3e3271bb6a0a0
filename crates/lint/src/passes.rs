//! The registry of source-level lint passes.
//!
//! Each pass re-derives one family of facts from the parsed [`Program`]
//! alone (plus the cost model for the grid/memory passes) — lints never
//! trust the optimizer. Passes collect every finding they can rather
//! than failing fast, mirroring the `tce-check` pass design.

use std::collections::{HashMap, HashSet};

use tce_check::diag::{Diagnostic, Diagnostics};
use tce_dist::GridDim;
use tce_expr::parser::{Program, Statement};
use tce_expr::{ExprError, Formula, IndexSet, Tensor};

use crate::{codes, LintContext};

/// One lint pass.
pub(crate) struct LintPass {
    /// Stable pass name (shown in `passes_run` / skip reasons).
    pub name: &'static str,
    /// Whether the pass needs a cost model to run.
    pub needs_cost_model: bool,
    /// The pass body.
    pub run: fn(&LintContext<'_>, &mut Diagnostics),
}

/// Every pass, in registry order (source-level first, cost-model last).
pub(crate) fn registry() -> Vec<LintPass> {
    vec![
        LintPass { name: "references", needs_cost_model: false, run: references },
        LintPass { name: "duplicates", needs_cost_model: false, run: duplicates },
        LintPass { name: "dangling-indices", needs_cost_model: false, run: dangling_indices },
        LintPass { name: "unused", needs_cost_model: false, run: unused },
        LintPass { name: "volume-overflow", needs_cost_model: false, run: volume_overflow },
        LintPass { name: "grid-divisibility", needs_cost_model: true, run: grid_divisibility },
        LintPass { name: "characterization", needs_cost_model: true, run: characterization },
        LintPass { name: "memory-feasibility", needs_cost_model: true, run: memory_feasibility },
    ]
}

/// `file:line:col` note for a declaration, when the parser recorded one.
fn declared_at(ctx: &LintContext<'_>, name: &str) -> Option<String> {
    ctx.program
        .span_of(name)
        .map(|(line, col)| format!("`{name}` declared at {}:{line}:{col}", ctx.file))
}

/// Names referenced by a statement, in source order. Two-factor formulas
/// carry operand *names* only (the parser resolves dims at lowering), so
/// this is the common currency of the reference lints.
fn statement_operands(st: &Statement) -> Vec<&str> {
    match st {
        Statement::Formula(Formula::Mul { lhs, rhs, .. }) => vec![lhs, rhs],
        Statement::Formula(Formula::Sum { operand, .. }) => vec![operand],
        Statement::Formula(Formula::Contract { lhs, rhs, .. }) => vec![lhs, rhs],
        Statement::BigTerm(t) => t.factors.iter().map(|f| f.name.as_str()).collect(),
    }
}

/// The array a statement produces.
fn statement_result(st: &Statement) -> &Tensor {
    match st {
        Statement::Formula(f) => f.result(),
        Statement::BigTerm(t) => &t.result,
    }
}

/// The declaration environment at each statement: name → declared shape,
/// first declaration wins (re-declarations are TCE102's business).
fn build_env(prog: &Program) -> HashMap<&str, &Tensor> {
    let mut env: HashMap<&str, &Tensor> = HashMap::new();
    for t in &prog.inputs {
        env.entry(t.name.as_str()).or_insert(t);
    }
    for st in &prog.statements {
        let r = statement_result(st);
        env.entry(r.name.as_str()).or_insert(r);
    }
    env
}

/// TCE104: references to undeclared names, and references/declarations
/// whose shape disagrees with the name's first declaration.
fn references(ctx: &LintContext<'_>, out: &mut Diagnostics) {
    let prog = ctx.program;
    let mut declared: HashMap<&str, &Tensor> = HashMap::new();
    for t in &prog.inputs {
        if let Some(first) = declared.get(t.name.as_str()) {
            check_shape_agrees(ctx, out, first, t);
        } else {
            declared.insert(t.name.as_str(), t);
        }
    }
    let mut reported_unknown: HashSet<&str> = HashSet::new();
    for st in &prog.statements {
        for name in statement_operands(st) {
            if !declared.contains_key(name) && reported_unknown.insert(name) {
                let mut d = Diagnostic::error(
                    codes::INCONSISTENT_REFERENCE,
                    format!("`{name}` is referenced but never declared before this statement"),
                )
                .at_step(statement_result(st).name.clone());
                d = d.note("declare it with `input` or compute it in an earlier statement");
                out.push(d);
            }
        }
        // Big-term factors still carry their source dims — check them
        // against the declaration.
        if let Statement::BigTerm(t) = st {
            for f in &t.factors {
                if let Some(first) = declared.get(f.name.as_str()) {
                    check_shape_agrees(ctx, out, first, f);
                }
            }
        }
        let r = statement_result(st);
        if let Some(first) = declared.get(r.name.as_str()) {
            check_shape_agrees(ctx, out, first, r);
        } else {
            declared.insert(r.name.as_str(), r);
        }
    }
}

/// Push a TCE104 when `this` reference/declaration disagrees with the
/// `first` declaration of the same name (arity, or per-position extents —
/// renamed indices with equal extents are fine).
fn check_shape_agrees(ctx: &LintContext<'_>, out: &mut Diagnostics, first: &Tensor, this: &Tensor) {
    let space = &ctx.program.space;
    let agree = first.dims.len() == this.dims.len()
        && first
            .dims
            .iter()
            .zip(this.dims.iter())
            .all(|(&a, &b)| space.extent(a) == space.extent(b));
    if !agree {
        let mut d = Diagnostic::error(
            codes::INCONSISTENT_REFERENCE,
            format!(
                "`{}` used as `{}` but declared as `{}`",
                this.name,
                this.render(space),
                first.render(space)
            ),
        );
        if let Some(n) = declared_at(ctx, &this.name) {
            d = d.note(n);
        }
        out.push(d);
    }
}

/// TCE102: duplicate declarations of one name (last-one-wins at lowering
/// time), reported with both source spans.
fn duplicates(ctx: &LintContext<'_>, out: &mut Diagnostics) {
    let mut first_site: HashMap<&str, (usize, usize)> = HashMap::new();
    for (name, at) in &ctx.program.decl_sites {
        match first_site.get(name.as_str()) {
            None => {
                first_site.insert(name, *at);
            }
            Some(&(l0, c0)) => {
                let (l1, c1) = *at;
                out.push(
                    Diagnostic::warning(
                        codes::DUPLICATE_DECLARATION,
                        format!(
                            "`{name}` declared again at {}:{l1}:{c1}, shadowing the declaration \
                             at {}:{l0}:{c0}",
                            ctx.file, ctx.file
                        ),
                    )
                    .note("lowering keeps the last declaration (last-one-wins)"),
                );
            }
        }
    }
}

/// TCE103: dangling indices. A summation index appearing in **no** factor
/// is a warning (it only scales the statement by its extent); a sum index
/// that is *also* a result dimension, or a result dimension no factor
/// provides, is an error — no loop nest can compute that statement.
fn dangling_indices(ctx: &LintContext<'_>, out: &mut Diagnostics) {
    let prog = ctx.program;
    let space = &prog.space;
    let env = build_env(prog);
    for st in &prog.statements {
        let result = statement_result(st);
        let sum: IndexSet = match st {
            Statement::Formula(Formula::Mul { .. }) => IndexSet::new(),
            Statement::Formula(Formula::Sum { sum, .. }) => {
                let mut s = IndexSet::new();
                s.insert(*sum);
                s
            }
            Statement::Formula(Formula::Contract { sum, .. }) => sum.clone(),
            Statement::BigTerm(t) => t.sum.clone(),
        };
        // Union of the factors' dims. A statement referencing an unknown
        // name is TCE104's finding; skip it entirely here rather than
        // cascade a second diagnostic off the missing shape.
        let mut factor_dims = IndexSet::new();
        match st {
            Statement::BigTerm(t) => {
                for f in &t.factors {
                    factor_dims = factor_dims.union(&f.dim_set());
                }
            }
            _ => {
                let mut unresolved = false;
                for name in statement_operands(st) {
                    match env.get(name) {
                        Some(t) => factor_dims = factor_dims.union(&t.dim_set()),
                        None => unresolved = true,
                    }
                }
                if unresolved {
                    continue;
                }
            }
        }
        let anchor = |d: Diagnostic| -> Diagnostic {
            let d = d.at_step(result.name.clone());
            match declared_at(ctx, &result.name) {
                Some(n) => d.note(n),
                None => d,
            }
        };
        for j in sum.iter() {
            if result.has_dim(j) {
                out.push(anchor(Diagnostic::error(
                    codes::DANGLING_INDEX,
                    format!(
                        "index `{}` is summed over but kept as a dimension of `{}`",
                        space.name(j),
                        result.name
                    ),
                )));
            } else if !factor_dims.contains(j) {
                out.push(anchor(
                    Diagnostic::warning(
                        codes::DANGLING_INDEX,
                        format!(
                            "summation index `{}` appears in no factor of `{}`",
                            space.name(j),
                            result.name
                        ),
                    )
                    .note(format!(
                        "the statement is just scaled by the extent {}",
                        space.extent(j)
                    )),
                ));
            }
        }
        for &j in result.dims.iter() {
            if !factor_dims.contains(j) && !factor_dims.is_empty() {
                out.push(anchor(Diagnostic::error(
                    codes::DANGLING_INDEX,
                    format!(
                        "result dimension `{}` of `{}` appears in no factor — nothing computes it",
                        space.name(j),
                        result.name
                    ),
                )));
            }
        }
    }
}

/// TCE101: arrays that are declared (or computed) but never consumed and
/// are not the program result.
fn unused(ctx: &LintContext<'_>, out: &mut Diagnostics) {
    let prog = ctx.program;
    let mut used: HashSet<&str> = HashSet::new();
    for st in &prog.statements {
        for name in statement_operands(st) {
            used.insert(name);
        }
    }
    let program_result = prog.statements.last().map(|st| statement_result(st).name.as_str());
    let mut flagged: HashSet<&str> = HashSet::new();
    let flag = |name: &str, what: &str, out: &mut Diagnostics| {
        let mut d = Diagnostic::warning(
            codes::UNUSED_DECLARATION,
            format!("{what} `{name}` is never used"),
        );
        if let Some(n) = declared_at(ctx, name) {
            d = d.note(n);
        }
        out.push(d);
    };
    for t in &prog.inputs {
        if !used.contains(t.name.as_str()) && flagged.insert(t.name.as_str()) {
            flag(&t.name, "input", out);
        }
    }
    for st in &prog.statements {
        let name = statement_result(st).name.as_str();
        if !used.contains(name) && Some(name) != program_result && flagged.insert(name) {
            flag(name, "intermediate", out);
        }
    }
}

/// TCE108: arrays whose full volume overflows `u128`, arrays whose
/// volumes together do (the footprint bound of
/// [`tce_expr::FormulaSequence::validate`]), and loop nests of the
/// lowered program that do (an intermediate's loop nest holds its
/// dimensions, so no intermediate overflows before its loop nest does).
/// Lowering rejects such a program, so the TCE107 prover (which lowers
/// first) stays silent and this is the finding the user sees.
fn volume_overflow(ctx: &LintContext<'_>, out: &mut Diagnostics) {
    let prog = ctx.program;
    let space = &prog.space;
    let mut flagged: HashSet<&str> = HashSet::new();
    let declared = prog.inputs.iter().chain(prog.statements.iter().map(statement_result));
    for t in declared {
        if space.checked_volume(&t.dims).is_none() && flagged.insert(t.name.as_str()) {
            let mut d = Diagnostic::error(
                codes::VOLUME_OVERFLOW,
                format!("`{}` has 2^128 or more elements", t.render(space)),
            )
            .note(
                "no size or memory footprint involving it can be represented; shrink its extents",
            );
            if let Some(n) = declared_at(ctx, &t.name) {
                d = d.note(n);
            }
            out.push(d);
        }
    }
    if !flagged.is_empty() {
        return; // lowering fails on the flagged array first
    }
    let diag = match ctx.lowered {
        Err(ExprError::FootprintTooLarge) => Diagnostic::error(
            codes::VOLUME_OVERFLOW,
            "the arrays are too large together: the sum of their volumes reaches 2^128",
        )
        .note(
            "a plan's memory footprint counts every array (an input once per use) plus \
             one message buffer, and could not be represented; shrink the extents",
        ),
        Err(ExprError::LoopNestTooLarge(name, loops)) => Diagnostic::error(
            codes::VOLUME_OVERFLOW,
            format!("the loop nest of `{name}` over {loops} has 2^128 or more points"),
        )
        .note("its operation count could not be represented; shrink the extents"),
        _ => return,
    };
    out.push(diag);
}

/// TCE105: extents the processor grid cannot divide. The simulator
/// requires every partitioned extent to be a multiple of the grid
/// dimension ([`SimError::Indivisible`]); any index a plan distributes
/// along an indivisible dimension fails at execution time, so the
/// conflict is visible statically.
fn grid_divisibility(ctx: &LintContext<'_>, out: &mut Diagnostics) {
    let Some(cm) = ctx.cm else { return };
    let prog = ctx.program;
    let space = &prog.space;
    // Only indices that appear in some declared array can be distributed.
    let mut in_arrays = IndexSet::new();
    for t in &prog.inputs {
        in_arrays = in_arrays.union(&t.dim_set());
    }
    for st in &prog.statements {
        in_arrays = in_arrays.union(&statement_result(st).dim_set());
    }
    let mut parts: Vec<u32> = vec![cm.grid.extent(GridDim::Dim1), cm.grid.extent(GridDim::Dim2)];
    parts.dedup();
    for j in in_arrays.iter() {
        let extent = space.extent(j);
        for &q in &parts {
            if !extent.is_multiple_of(u64::from(q)) {
                out.push(
                    Diagnostic::warning(
                        codes::INDIVISIBLE_EXTENT,
                        format!(
                            "extent {extent} of index `{}` is not divisible by the {q}-wide \
                             grid dimension",
                            space.name(j)
                        ),
                    )
                    .note(format!(
                        "any plan distributing `{}` would fail simulation with \
                         `Indivisible`; nearest valid extent is {}",
                        space.name(j),
                        extent.next_multiple_of(u64::from(q)).max(u64::from(q))
                    )),
                );
            }
        }
    }
}

/// TCE106: the grid the program would run on is not covered by the
/// `RCost` characterization. `Characterization::rcost` then silently
/// falls back to the nearest characterized grid scaled by the step-count
/// ratio — a documented extrapolation, but one the user should opt into
/// knowingly.
fn characterization(ctx: &LintContext<'_>, out: &mut Diagnostics) {
    let Some(cm) = ctx.cm else { return };
    let probe_bytes = 1024.0 * 1024.0;
    let mut seen: Vec<u32> = Vec::new();
    for travel in [GridDim::Dim1, GridDim::Dim2] {
        let steps = cm.grid.extent(travel);
        if seen.contains(&steps) {
            continue;
        }
        seen.push(steps);
        if let Err(e) = cm.chr.try_rcost(steps, travel, probe_bytes) {
            out.push(
                Diagnostic::warning(
                    codes::UNCHARACTERIZED_GRID,
                    format!("rotation costs for this grid are extrapolated: {e}"),
                )
                .note(
                    "`rcost` falls back to the nearest characterized grid scaled by the \
                     step-count ratio; re-run `characterize` for this grid size to price \
                     plans from measurements",
                ),
            );
        }
    }
}

/// TCE107: the memory-feasibility prover. Lowers the program, sums the
/// per-node storage floors ([`tce_cost::lower_bound::mem_floor_words`]),
/// and rejects limits no plan can meet — before any search runs.
fn memory_feasibility(ctx: &LintContext<'_>, out: &mut Diagnostics) {
    let Some(cm) = ctx.cm else { return };
    // Lowering can fail on programs the reference lints already flagged;
    // nothing to prove then.
    let Ok(seq) = ctx.lowered else { return };
    let Ok(tree) = seq.to_tree() else { return };
    let limit = ctx.mem_limit_words.unwrap_or_else(|| cm.mem_limit_words());
    if let Some(proof) =
        tce_cost::lower_bound::prove_memory_infeasible(&tree, cm, limit, ctx.max_prefix_len)
    {
        out.push(
            Diagnostic::error(
                codes::MEMORY_INFEASIBLE,
                format!(
                    "memory limit of {} words/processor is provably infeasible: every plan \
                     must store at least {} words",
                    proof.limit_words, proof.floor_words
                ),
            )
            .note(format!(
                "largest single contributor: `{}` at {} words even in its best \
                 layout/fusion",
                proof.largest_node, proof.largest_words
            ))
            .note("the search would only ever return NoFeasibleSolution — raise the limit"),
        );
    }
}
