//! A small text notation for tensor contraction expressions.
//!
//! The program-synthesis system of the paper accepts "an algebraic formula
//! expressed in a high-level notation"; this module provides one:
//!
//! ```text
//! # the paper's Fig. 2(a) computation
//! range a, b, c, d = 480;
//! range e, f = 64;
//! range i, j, k, l = 32;
//! input A[a,c,i,k];  input B[b,e,f,l];
//! input C[d,f,j,k];  input D[c,d,e,l];
//! T1[b,c,d,f] = sum[e,l] B[b,e,f,l] * D[c,d,e,l];
//! T2[b,c,j,k] = sum[d,f] T1[b,c,d,f] * C[d,f,j,k];
//! S[a,b,i,j]  = sum[c,k] T2[b,c,j,k] * A[a,c,i,k];
//! ```
//!
//! Statements with **more than two factors** are kept as raw
//! [`SumOfProducts`] terms, the input form for the operation-minimization
//! search (`tce-opmin`), e.g.
//!
//! ```text
//! S[a,b,i,j] = sum[c,d,e,f,k,l] A[a,c,i,k]*B[b,e,f,l]*C[d,f,j,k]*D[c,d,e,l];
//! ```

use crate::error::ExprError;
use crate::formula::{Formula, FormulaSequence};
use crate::index::{IndexId, IndexSet, IndexSpace};
use crate::tensor::Tensor;

/// A multi-factor term `result = Σ_sum f1 × f2 × … × fn` awaiting
/// operation minimization.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SumOfProducts {
    /// Produced array.
    pub result: Tensor,
    /// Summation indices.
    pub sum: IndexSet,
    /// The factor arrays (each referencing a declared input or a previously
    /// produced array by shape).
    pub factors: Vec<Tensor>,
}

impl SumOfProducts {
    /// Flops of the direct (single fused loop nest) implementation: one
    /// point per element of the full iteration space per multiply, i.e.
    /// `n_factors · ∏ N` over all distinct indices — the paper's `4N^10`
    /// for the four-factor ten-index example. Saturates at `u128::MAX`.
    pub fn direct_op_count(&self, space: &IndexSpace) -> u128 {
        let mut all = self.result.dim_set();
        for f in &self.factors {
            all = all.union(&f.dim_set());
        }
        let volume = space.checked_volume(all.as_slice()).unwrap_or(u128::MAX);
        volume.saturating_mul(self.factors.len() as u128)
    }
}

/// One parsed statement.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Statement {
    /// A binary (or unary-sum) formula.
    Formula(Formula),
    /// A term with ≥ 3 factors, to be decomposed by operation minimization.
    BigTerm(SumOfProducts),
}

/// A parsed program.
#[derive(Clone, Debug, Default)]
pub struct Program {
    /// Declared index ranges.
    pub space: IndexSpace,
    /// Declared input arrays.
    pub inputs: Vec<Tensor>,
    /// Statements in source order.
    pub statements: Vec<Statement>,
    /// Source position (1-based line, column) where each array name was
    /// declared: `input` declarations and statement results. Lets tools
    /// report diagnostics as `file:line:col` anchored at the declaration.
    /// Records the *first* declaration of each name; every declaration
    /// event (including re-declarations) is in [`Self::decl_sites`].
    pub spans: std::collections::HashMap<String, (usize, usize)>,
    /// Every array declaration event in source order — `input`
    /// declarations and statement results, one entry per occurrence, so
    /// duplicate declarations (last-one-wins at lowering time) remain
    /// visible to static analysis with both spans.
    pub decl_sites: Vec<(String, (usize, usize))>,
}

impl Program {
    /// Source position (1-based line, column) of an array declaration, if
    /// the program was produced by [`parse`].
    pub fn span_of(&self, name: &str) -> Option<(usize, usize)> {
        self.spans.get(name).copied()
    }

    /// Convert to a [`FormulaSequence`], failing if any statement still
    /// needs operation minimization.
    pub fn to_sequence(&self) -> Result<FormulaSequence, ExprError> {
        let mut seq = FormulaSequence::new(self.space.clone());
        seq.inputs = self.inputs.clone();
        for st in &self.statements {
            match st {
                Statement::Formula(f) => seq.formulas.push(f.clone()),
                Statement::BigTerm(t) => {
                    return Err(ExprError::Malformed(format!(
                        "`{}` has {} factors; run operation minimization first",
                        t.result.name,
                        t.factors.len()
                    )))
                }
            }
        }
        seq.validate()?;
        Ok(seq)
    }

    /// The big terms awaiting operation minimization, in source order.
    pub fn big_terms(&self) -> Vec<&SumOfProducts> {
        self.statements
            .iter()
            .filter_map(|s| match s {
                Statement::BigTerm(t) => Some(t),
                _ => None,
            })
            .collect()
    }
}

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Ident(String),
    Num(u64),
    Sym(char),
}

struct Lexer {
    toks: Vec<(usize, usize, Tok)>, // (line, column, token) — both 1-based
    pos: usize,
}

impl Lexer {
    fn new(src: &str) -> Result<Self, ExprError> {
        let mut toks = Vec::new();
        for (ln0, line) in src.lines().enumerate() {
            let ln = ln0 + 1;
            let line = line.split('#').next().unwrap_or("");
            // 1-based character column of the token start.
            let col_of = |byte: usize| line[..byte].chars().count() + 1;
            let mut chars = line.char_indices().peekable();
            while let Some(&(start, c)) = chars.peek() {
                if c.is_whitespace() {
                    chars.next();
                } else if c.is_ascii_alphabetic() || c == '_' {
                    let mut end = start;
                    while let Some(&(p, c2)) = chars.peek() {
                        if c2.is_ascii_alphanumeric() || c2 == '_' {
                            end = p + c2.len_utf8();
                            chars.next();
                        } else {
                            break;
                        }
                    }
                    toks.push((ln, col_of(start), Tok::Ident(line[start..end].to_owned())));
                } else if c.is_ascii_digit() {
                    let mut end = start;
                    while let Some(&(p, c2)) = chars.peek() {
                        if c2.is_ascii_digit() {
                            end = p + 1;
                            chars.next();
                        } else {
                            break;
                        }
                    }
                    let n: u64 = line[start..end].parse().map_err(|_| ExprError::Parse {
                        line: ln,
                        col: col_of(start),
                        msg: format!("bad number `{}`", &line[start..end]),
                    })?;
                    toks.push((ln, col_of(start), Tok::Num(n)));
                } else if "[],=*;".contains(c) {
                    toks.push((ln, col_of(start), Tok::Sym(c)));
                    chars.next();
                } else {
                    return Err(ExprError::Parse {
                        line: ln,
                        col: col_of(start),
                        msg: format!("unexpected character `{c}`"),
                    });
                }
            }
        }
        Ok(Self { toks, pos: 0 })
    }

    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos).map(|(_, _, t)| t)
    }

    /// Position of the current token (or the last one at end of input).
    fn span(&self) -> (usize, usize) {
        self.toks
            .get(self.pos.min(self.toks.len().saturating_sub(1)))
            .map(|(l, c, _)| (*l, *c))
            .unwrap_or((0, 0))
    }

    fn next(&mut self) -> Option<Tok> {
        let t = self.toks.get(self.pos).map(|(_, _, t)| t.clone());
        self.pos += 1;
        t
    }

    fn err(&self, msg: impl Into<String>) -> ExprError {
        let (line, col) = self.span();
        ExprError::Parse { line, col, msg: msg.into() }
    }

    fn expect_sym(&mut self, c: char) -> Result<(), ExprError> {
        match self.next() {
            Some(Tok::Sym(s)) if s == c => Ok(()),
            other => Err(self.err(format!("expected `{c}`, found {other:?}"))),
        }
    }

    fn expect_ident(&mut self) -> Result<String, ExprError> {
        match self.next() {
            Some(Tok::Ident(s)) => Ok(s),
            other => Err(self.err(format!("expected identifier, found {other:?}"))),
        }
    }
}

/// Parse source text into a [`Program`].
pub fn parse(src: &str) -> Result<Program, ExprError> {
    let mut lx = Lexer::new(src)?;
    let mut prog = Program::default();

    // Index list `[a,b,c]` where every name must already be declared.
    fn index_list(lx: &mut Lexer, space: &IndexSpace) -> Result<Vec<IndexId>, ExprError> {
        lx.expect_sym('[')?;
        let mut ids = Vec::new();
        if let Some(Tok::Sym(']')) = lx.peek() {
            lx.next();
            return Ok(ids);
        }
        loop {
            let (line, col) = lx.span();
            let name = lx.expect_ident()?;
            let id = space.lookup(&name).ok_or_else(|| ExprError::Parse {
                line,
                col,
                msg: format!("index `{name}` not declared by any `range`"),
            })?;
            ids.push(id);
            match lx.next() {
                Some(Tok::Sym(',')) => continue,
                Some(Tok::Sym(']')) => break,
                other => return Err(lx.err(format!("expected `,` or `]`, found {other:?}"))),
            }
        }
        Ok(ids)
    }

    fn tensor_ref(lx: &mut Lexer, space: &IndexSpace) -> Result<Tensor, ExprError> {
        let name = lx.expect_ident()?;
        let dims = index_list(lx, space)?;
        // Tensor::new panics on repeated dims (a programming error in
        // library use); for *user input* report a parse error instead.
        let mut seen = dims.clone();
        seen.sort_unstable();
        seen.dedup();
        if seen.len() != dims.len() {
            return Err(lx.err(format!("array `{name}` repeats a dimension index")));
        }
        Ok(Tensor::new(name, dims))
    }

    while lx.peek().is_some() {
        match lx.peek() {
            Some(Tok::Ident(kw)) if kw == "range" => {
                lx.next();
                let mut names = vec![lx.expect_ident()?];
                loop {
                    match lx.next() {
                        Some(Tok::Sym(',')) => names.push(lx.expect_ident()?),
                        Some(Tok::Sym('=')) => break,
                        other => {
                            return Err(lx.err(format!("expected `,` or `=`, found {other:?}")))
                        }
                    }
                }
                let extent = match lx.next() {
                    Some(Tok::Num(n)) => n,
                    other => return Err(lx.err(format!("expected extent, found {other:?}"))),
                };
                lx.expect_sym(';')?;
                for n in names {
                    if let Some(prev) = prog.space.lookup(&n) {
                        if prog.space.extent(prev) != extent {
                            return Err(lx.err(format!(
                                "index `{n}` re-declared with extent {extent} (was {})",
                                prog.space.extent(prev)
                            )));
                        }
                    }
                    if extent == 0 {
                        return Err(lx.err(format!("index `{n}` declared with zero extent")));
                    }
                    prog.space.declare(&n, extent);
                }
            }
            Some(Tok::Ident(kw)) if kw == "input" => {
                lx.next();
                let at = lx.span();
                let t = tensor_ref(&mut lx, &prog.space)?;
                lx.expect_sym(';')?;
                prog.spans.entry(t.name.clone()).or_insert(at);
                prog.decl_sites.push((t.name.clone(), at));
                prog.inputs.push(t);
            }
            _ => {
                // `Name[dims] = [sum[list]] factor (* factor)* ;`
                let at = lx.span();
                let result = tensor_ref(&mut lx, &prog.space)?;
                prog.spans.entry(result.name.clone()).or_insert(at);
                prog.decl_sites.push((result.name.clone(), at));
                lx.expect_sym('=')?;
                let mut sum = IndexSet::new();
                if let Some(Tok::Ident(kw)) = lx.peek() {
                    if kw == "sum" {
                        lx.next();
                        for id in index_list(&mut lx, &prog.space)? {
                            sum.insert(id);
                        }
                    }
                }
                let mut factors = vec![tensor_ref(&mut lx, &prog.space)?];
                loop {
                    match lx.next() {
                        Some(Tok::Sym('*')) => factors.push(tensor_ref(&mut lx, &prog.space)?),
                        Some(Tok::Sym(';')) => break,
                        other => {
                            return Err(lx.err(format!("expected `*` or `;`, found {other:?}")))
                        }
                    }
                }
                let stmt = match factors.len() {
                    1 => {
                        // A chain of unary summations, one per summed index,
                        // with fresh intermediate names `<result>__<index>`.
                        let factor = factors.pop().expect("one factor present");
                        let mut remaining = factor.dim_set();
                        let mut operand_name = factor.name.clone();
                        let mut formulas = Vec::new();
                        let sum_order: Vec<IndexId> = sum.iter().collect();
                        for (n, &s) in sum_order.iter().enumerate() {
                            remaining.remove(s);
                            let is_last = n + 1 == sum_order.len();
                            let name = if is_last {
                                result.name.clone()
                            } else {
                                format!("{}__{}", result.name, prog.space.name(s))
                            };
                            let dims: Vec<IndexId> = remaining.iter().collect();
                            formulas.push(Formula::Sum {
                                result: Tensor::new(name.clone(), dims),
                                operand: operand_name.clone(),
                                sum: s,
                            });
                            operand_name = name;
                        }
                        if formulas.is_empty() {
                            return Err(lx.err(format!(
                                "`{}`: single-factor statement without summation",
                                result.name
                            )));
                        }
                        for f in formulas {
                            prog.statements.push(Statement::Formula(f));
                        }
                        continue;
                    }
                    2 => {
                        let rhs = factors.pop().expect("two factors present");
                        let lhs = factors.pop().expect("two factors present");
                        if sum.is_empty() {
                            Statement::Formula(Formula::Mul {
                                result,
                                lhs: lhs.name,
                                rhs: rhs.name,
                            })
                        } else {
                            Statement::Formula(Formula::Contract {
                                result,
                                lhs: lhs.name,
                                rhs: rhs.name,
                                sum,
                            })
                        }
                    }
                    _ => Statement::BigTerm(SumOfProducts { result, sum, factors }),
                };
                prog.statements.push(stmt);
            }
        }
    }
    Ok(prog)
}

/// The paper's Fig. 2(a) program, ready to parse in tests and examples.
pub const FIG2_SOURCE: &str = "\
range a, b, c, d = 480;
range e, f = 64;
range i, j, k, l = 32;
input A[a,c,i,k];
input B[b,e,f,l];
input C[d,f,j,k];
input D[c,d,e,l];
T1[b,c,d,f] = sum[e,l] B[b,e,f,l] * D[c,d,e,l];
T2[b,c,j,k] = sum[d,f] T1[b,c,d,f] * C[d,f,j,k];
S[a,b,i,j] = sum[c,k] T2[b,c,j,k] * A[a,c,i,k];
";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_fig2() {
        let p = parse(FIG2_SOURCE).unwrap();
        assert_eq!(p.inputs.len(), 4);
        assert_eq!(p.statements.len(), 3);
        let seq = p.to_sequence().unwrap();
        let tree = seq.to_tree().unwrap();
        assert!(tree.is_contraction_tree());
        assert_eq!(tree.node(tree.root()).tensor.name, "S");
    }

    #[test]
    fn parses_big_term() {
        let src = "\
range a,b,c,d = 10; range e,f = 4; range i,j,k,l = 3;
input A[a,c,i,k]; input B[b,e,f,l]; input C[d,f,j,k]; input D[c,d,e,l];
S[a,b,i,j] = sum[c,d,e,f,k,l] A[a,c,i,k]*B[b,e,f,l]*C[d,f,j,k]*D[c,d,e,l];
";
        let p = parse(src).unwrap();
        let terms = p.big_terms();
        assert_eq!(terms.len(), 1);
        assert_eq!(terms[0].factors.len(), 4);
        // 4·N^10 with mixed extents.
        let direct = terms[0].direct_op_count(&p.space);
        assert_eq!(direct, 4 * 10u128.pow(4) * 4u128.pow(2) * 3u128.pow(4));
        // Cannot lower to a sequence before operation minimization.
        assert!(p.to_sequence().is_err());
    }

    #[test]
    fn parses_unary_sum_chain() {
        let src = "\
range i = 5; range j = 6; range t = 7;
input A[i,j,t];
T1[j,t] = sum[i] A[i,j,t];
S[t] = sum[j] T1[j,t];
";
        let p = parse(src).unwrap();
        let seq = p.to_sequence().unwrap();
        assert_eq!(seq.formulas.len(), 2);
        let tree = seq.to_tree().unwrap();
        assert_eq!(tree.node(tree.root()).tensor.name, "S");
    }

    #[test]
    fn multi_index_unary_sum_expands_to_chain() {
        let src = "\
range i = 5; range j = 6; range t = 7;
input A[i,j,t];
S[t] = sum[i,j] A[i,j,t];
";
        let p = parse(src).unwrap();
        let seq = p.to_sequence().unwrap();
        assert_eq!(seq.formulas.len(), 2); // Σi then Σj
        assert_eq!(seq.validate().unwrap(), "S");
    }

    #[test]
    fn elementwise_mul_parses() {
        let src = "\
range j = 6; range t = 7;
input X[j,t]; input Y[j,t];
T[j,t] = X[j,t] * Y[j,t];
S[t] = sum[j] T[j,t];
";
        let p = parse(src).unwrap();
        let seq = p.to_sequence().unwrap();
        assert!(matches!(seq.formulas[0], Formula::Mul { .. }));
    }

    #[test]
    fn error_cases_report_lines() {
        // Undeclared index.
        let e = parse("input A[zz];").unwrap_err();
        assert!(matches!(e, ExprError::Parse { line: 1, .. }), "{e}");
        // Missing semicolon.
        let e = parse("range a = 4").unwrap_err();
        assert!(matches!(e, ExprError::Parse { .. }));
        // Garbage character.
        let e = parse("range a = 4; input A[a]; A ? 3").unwrap_err();
        assert!(matches!(e, ExprError::Parse { .. }));
        // Statement with one factor and no sum.
        let e = parse("range a = 4; input A[a]; B[a] = A[a];").unwrap_err();
        assert!(matches!(e, ExprError::Parse { .. }));
    }

    #[test]
    fn errors_carry_columns() {
        // Garbage character: anchored at the character itself.
        let e = parse("range a = 4; input A[a]; A ? 3").unwrap_err();
        assert!(matches!(e, ExprError::Parse { line: 1, col: 28, .. }), "{e:?}");
        // Undeclared index: anchored at the index token.
        let e = parse("range i = 5;\ninput A[i,zz];").unwrap_err();
        assert!(matches!(e, ExprError::Parse { line: 2, col: 11, .. }), "{e:?}");
        assert!(e.to_string().contains("line 2, column 11"), "{e}");
    }

    #[test]
    fn program_records_declaration_spans() {
        let p = parse(FIG2_SOURCE).unwrap();
        assert_eq!(p.span_of("A"), Some((4, 7)));
        assert_eq!(p.span_of("T1"), Some((8, 1)));
        assert_eq!(p.span_of("S"), Some((10, 1)));
        assert_eq!(p.span_of("nope"), None);
    }

    #[test]
    fn user_input_errors_do_not_panic() {
        // Repeated dimension index.
        let e = parse("range a = 4; input A[a,a];").unwrap_err();
        assert!(matches!(e, ExprError::Parse { .. }), "{e}");
        // Conflicting re-declaration.
        let e = parse("range a = 4; range a = 5;").unwrap_err();
        assert!(matches!(e, ExprError::Parse { .. }), "{e}");
        // Zero extent.
        let e = parse("range a = 0;").unwrap_err();
        assert!(matches!(e, ExprError::Parse { .. }), "{e}");
        // Consistent re-declaration is fine.
        assert!(parse("range a = 4; range a = 4; input A[a]; S[] = sum[a] A[a];").is_ok());
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let src = "# header\n\nrange a = 4; # trailing\ninput A[a];\nS[] = sum[a] A[a];\n";
        let p = parse(src).unwrap();
        assert_eq!(p.inputs.len(), 1);
        let seq = p.to_sequence().unwrap();
        assert_eq!(seq.validate().unwrap(), "S");
    }
}
