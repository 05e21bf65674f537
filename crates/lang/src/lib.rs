//! # rescc-lang
//!
//! **ResCCLang** — the DSL of §4.2 / Appendix B, plus a typed builder API.
//!
//! A collective algorithm is a set of `Transfer(srcRank, dstRank, step,
//! chunkId, commType)` declarations; ResCCLang wraps them in a small
//! Python-flavoured language (`def ResCCLAlgo(...)`, `for … in range(…)`,
//! integer arithmetic). This crate provides:
//!
//! * [`parse`] — text → [`Program`] AST (lexer with Python-style
//!   indentation, recursive-descent parser for the Appendix B BNF),
//! * [`eval`] / [`eval_source`] — AST → validated [`AlgoSpec`],
//! * [`AlgoBuilder`] — the same [`AlgoSpec`] built from Rust,
//! * [`pretty`] — AST → canonical text (roundtrip-safe),
//! * [`verify_collective`] — static proof that a spec implements its
//!   operator, on the shared [`provenance`] kernel.
//!
//! ```
//! use rescc_lang::{eval_source, OpType};
//!
//! let spec = eval_source(r#"
//! def ResCCLAlgo(nRanks=4, AlgoName="Ring", OpType="Allgather"):
//!     N = nRanks
//!     for r in range(0, N):
//!         peer = (r+1)%N
//!         for step in range(0, N-1):
//!             transfer(r, peer, step, (r-step)%N, recv)
//! "#).unwrap();
//! assert_eq!(spec.op(), OpType::AllGather);
//! assert_eq!(spec.transfers().len(), 12);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ast;
mod builder;
mod diagnostics;
mod error;
mod eval;
mod lexer;
mod parser;
mod pretty;
pub mod provenance;
mod spec;
mod token;
mod verify;

pub use ast::{BinOp, CommType, Exp, OpType, Param, ParamValue, Program, Stat};
pub use builder::AlgoBuilder;
pub use diagnostics::render_diagnostic;
pub use error::{LangError, Result};
pub use eval::{eval, eval_source, MAX_ITERATIONS, MAX_TRANSFERS};
pub use lexer::lex;
pub use parser::parse;
pub use pretty::pretty;
pub use spec::{AlgoSpec, Derivation, TransferRec};
pub use token::{Tok, Token};
pub use verify::{verify_collective, verify_collective_with_threads};
