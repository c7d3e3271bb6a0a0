//! Whole-program lowering: operation-minimize every big term of a parsed
//! program and splice the results into one formula sequence.

use tce_expr::{ExprError, Formula, FormulaSequence, Program, Statement};

use crate::greedy::greedy_sequence;
use crate::single_term::{minimize_operations, to_sequence};

/// Largest factor count handed to the exact subset DP; bigger terms fall
/// back to the greedy order (still correct, possibly suboptimal).
const EXACT_FACTOR_LIMIT: usize = 16;

/// Lower a program to a validated formula sequence, running the
/// operation-minimization search on every statement with three or more
/// factors. Intermediates introduced by the search are renamed
/// `<result>_tN` to stay unique across terms.
pub fn lower_program(prog: &Program) -> Result<FormulaSequence, ExprError> {
    let mut seq = FormulaSequence::new(prog.space.clone());
    seq.inputs = prog.inputs.clone();
    for st in &prog.statements {
        match st {
            Statement::Formula(f) => seq.formulas.push(f.clone()),
            Statement::BigTerm(term) => {
                let prefix = format!("{}_", term.result.name);
                let sub = if term.factors.len() <= EXACT_FACTOR_LIMIT {
                    let res = minimize_operations(&prog.space, term);
                    to_sequence(&prog.space, term, &res)
                } else {
                    greedy_sequence(&prog.space, term)
                };
                // Name an oversized loop nest's result as the program will.
                let sub = sub.map_err(|e| match e {
                    ExprError::LoopNestTooLarge(mut n, loops) => {
                        fix_name(&mut n, &prefix);
                        ExprError::LoopNestTooLarge(n, loops)
                    }
                    e => e,
                })?;
                for f in sub.formulas {
                    seq.formulas.push(rename(f, &prefix));
                }
            }
        }
    }
    seq.validate()?;
    Ok(seq)
}

/// Prefix an intermediate's `_tN` name with its statement's `<result>_`.
fn fix_name(s: &mut String, prefix: &str) {
    if s.starts_with("_t") {
        *s = format!("{prefix}{}", &s[1..]);
    }
}

fn rename(mut f: Formula, prefix: &str) -> Formula {
    let fix = |s: &mut String| fix_name(s, prefix);
    match &mut f {
        Formula::Mul { result, lhs, rhs } => {
            fix(&mut result.name);
            fix(lhs);
            fix(rhs);
        }
        Formula::Contract { result, lhs, rhs, .. } => {
            fix(&mut result.name);
            fix(lhs);
            fix(rhs);
        }
        Formula::Sum { result, operand, .. } => {
            fix(&mut result.name);
            fix(operand);
        }
    }
    f
}

#[cfg(test)]
mod tests {
    use super::*;
    use tce_expr::parse;

    #[test]
    fn lowers_the_ccsd_big_term() {
        let src = "\
range a, b, c, d = 40; range e, f = 16; range i, j, k, l = 8;
input A[a,c,i,k]; input B[b,e,f,l]; input C[d,f,j,k]; input D[c,d,e,l];
S[a,b,i,j] = sum[c,d,e,f,k,l] A[a,c,i,k]*B[b,e,f,l]*C[d,f,j,k]*D[c,d,e,l];
";
        let prog = parse(src).unwrap();
        let seq = lower_program(&prog).unwrap();
        assert_eq!(seq.formulas.len(), 3, "four factors → three contractions");
        let tree = seq.to_tree().unwrap();
        assert!(tree.is_contraction_tree());
        // Far fewer flops than direct.
        let direct = prog.big_terms()[0].direct_op_count(&prog.space);
        assert!(tree.total_op_count() * 1000 < direct);
    }

    #[test]
    fn passthrough_formulas_preserved() {
        let src = "\
range i = 4; range j = 4; range k = 4;
input A[i,j]; input B[j,k];
T[i,k] = sum[j] A[i,j] * B[j,k];
S[k] = sum[i] T[i,k];
";
        let prog = parse(src).unwrap();
        let seq = lower_program(&prog).unwrap();
        assert_eq!(seq.formulas.len(), 2);
        assert_eq!(seq.validate().unwrap(), "S");
    }

    #[test]
    fn two_big_terms_get_distinct_intermediates() {
        let src = "\
range i = 4; range j = 4; range k = 4; range l = 4;
input A[i,j]; input B[j,k]; input C[k,l];
X[i,l] = sum[j,k] A[i,j]*B[j,k]*C[k,l];
Y[j,l] = sum[i,k] A[i,j]*B[j,k]*C[k,l];
";
        let prog = parse(src).unwrap();
        let seq = lower_program(&prog).unwrap();
        // Each term contributes its contractions (plus possibly unary
        // pre-summations); intermediate names never collide.
        assert!(seq.formulas.len() >= 4);
        let names: Vec<&str> = seq.formulas.iter().map(|f| f.result().name.as_str()).collect();
        assert!(names.contains(&"X") && names.contains(&"Y"));
        let uniq: std::collections::HashSet<_> = names.iter().collect();
        assert_eq!(uniq.len(), names.len(), "no name collisions: {names:?}");
    }

    /// Operation minimization prices loop nests without wrapping: when
    /// some order keeps every loop nest below 2^128 points it wins (here by
    /// summing `c` and `e` away first), and when none does the program is
    /// rejected by the loop nest of the order it would run.
    #[test]
    fn oversized_loop_nests_never_wrap() {
        let fits = "\
range a, b, c, d, e, f = 4294967296;
input A[a,b]; input B[b,c,d]; input C[d,e,f];
S[a,f] = sum[b,c,d,e] A[a,b]*B[b,c,d]*C[d,e,f];
";
        lower_program(&parse(fits).unwrap()).unwrap();
        let overflows = "\
range a, b, c, d = 8796093022208;
input A[a,b]; input B[b,c]; input C[c,d];
S[a,d] = sum[b,c] A[a,b]*B[b,c]*C[c,d];
";
        match lower_program(&parse(overflows).unwrap()) {
            Err(ExprError::LoopNestTooLarge(name, loops)) => {
                assert_eq!((name.as_str(), loops.as_str()), ("S_t1", "(a,b,c,d)"));
            }
            other => panic!("expected LoopNestTooLarge, got {other:?}"),
        }
    }
}
