//! Error type for expression construction and parsing.

use std::fmt;

/// Errors produced while building, validating, or parsing expressions.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ExprError {
    /// A formula violates well-formedness (§2 of the paper).
    Malformed(String),
    /// A node was asked for its `(I,J,K)` groups but is not a generalized
    /// matrix multiplication.
    NotAContraction(String),
    /// A name was referenced before being defined.
    Undefined(String),
    /// A name was defined twice.
    Redefined(String),
    /// An array's full volume (product of its extents) overflows `u128`.
    TooLarge(String),
    /// The arrays' volumes sum past `u128`, so a plan's memory footprint
    /// could not be summed exactly ([`crate::FormulaSequence::validate`]).
    FootprintTooLarge,
    /// A formula's loop nest (every index of its operands) has 2^128 or
    /// more points, so its operation count overflows `u128`. Carries the
    /// result's name and the rendered loop indices.
    LoopNestTooLarge(String, String),
    /// Syntax error while parsing, with a source position.
    Parse {
        /// 1-based source line of the error.
        line: usize,
        /// 1-based column (character offset within the line) of the token
        /// where the error was detected; 0 when unknown (e.g. empty input).
        col: usize,
        /// Human-readable description.
        msg: String,
    },
}

impl fmt::Display for ExprError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExprError::Malformed(m) => write!(f, "malformed formula: {m}"),
            ExprError::NotAContraction(m) => {
                write!(f, "not a generalized matrix multiplication: {m}")
            }
            ExprError::Undefined(n) => write!(f, "undefined array `{n}`"),
            ExprError::Redefined(n) => write!(f, "array `{n}` defined more than once"),
            ExprError::TooLarge(n) => {
                write!(f, "array `{n}` is too large: its volume overflows a 128-bit word count")
            }
            ExprError::FootprintTooLarge => write!(
                f,
                "the arrays are too large together: the sum of their volumes overflows a \
                 128-bit word count, so no memory footprint can be represented"
            ),
            ExprError::LoopNestTooLarge(name, loops) => write!(
                f,
                "the loop nest of `{name}` over {loops} has 2^128 or more points, so its \
                 operation count overflows a 128-bit count"
            ),
            ExprError::Parse { line, col, msg } => {
                write!(f, "parse error on line {line}, column {col}: {msg}")
            }
        }
    }
}

impl std::error::Error for ExprError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = ExprError::Parse { line: 3, col: 7, msg: "expected `]`".into() };
        assert!(e.to_string().contains("line 3"));
        assert!(e.to_string().contains("column 7"));
        assert!(ExprError::Undefined("Q".into()).to_string().contains("`Q`"));
        assert!(ExprError::Redefined("T1".into()).to_string().contains("T1"));
        assert!(ExprError::TooLarge("A(i,j)".into()).to_string().contains("overflows"));
        assert!(ExprError::FootprintTooLarge.to_string().contains("sum of their volumes"));
        let nest = ExprError::LoopNestTooLarge("T".into(), "(a,b)".into());
        assert!(nest.to_string().contains("loop nest of `T` over (a,b)"));
        assert!(ExprError::Malformed("x".into()).to_string().contains("malformed"));
        assert!(ExprError::NotAContraction("y".into())
            .to_string()
            .contains("matrix multiplication"));
    }
}
