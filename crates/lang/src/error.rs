//! Error types for lexing, parsing and evaluating ResCCLang.

use std::fmt;

/// Any error produced while processing a ResCCLang program.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LangError {
    /// Lexical error (bad character, inconsistent indentation, …).
    Lex {
        /// 1-based line number.
        line: u32,
        /// 1-based column.
        col: u32,
        /// Human-readable description.
        msg: String,
    },
    /// Syntax error.
    Parse {
        /// 1-based line number.
        line: u32,
        /// 1-based column.
        col: u32,
        /// Human-readable description.
        msg: String,
    },
    /// Semantic / runtime error during evaluation.
    Eval {
        /// Human-readable description.
        msg: String,
    },
}

impl LangError {
    pub(crate) fn lex(line: u32, col: u32, msg: impl Into<String>) -> Self {
        Self::Lex {
            line,
            col,
            msg: msg.into(),
        }
    }

    pub(crate) fn parse(line: u32, col: u32, msg: impl Into<String>) -> Self {
        Self::Parse {
            line,
            col,
            msg: msg.into(),
        }
    }

    pub(crate) fn eval(msg: impl Into<String>) -> Self {
        Self::Eval { msg: msg.into() }
    }
}

impl fmt::Display for LangError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LangError::Lex { line, col, msg } => {
                write!(f, "lex error at {line}:{col}: {msg}")
            }
            LangError::Parse { line, col, msg } => {
                write!(f, "parse error at {line}:{col}: {msg}")
            }
            LangError::Eval { msg } => write!(f, "evaluation error: {msg}"),
        }
    }
}

impl std::error::Error for LangError {}

/// Convenience alias.
pub type Result<T> = std::result::Result<T, LangError>;
