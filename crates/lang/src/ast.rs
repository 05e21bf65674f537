//! Abstract syntax tree of ResCCLang, mirroring the BNF of Appendix B.

use crate::error::{LangError, Result};
use std::fmt;

/// Collective operator implemented by an algorithm.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum OpType {
    /// Every rank ends with every rank's chunk.
    AllGather,
    /// Every rank ends with the element-wise reduction of all ranks' data.
    AllReduce,
    /// Rank `i` ends with the reduction of chunk `i` across all ranks.
    ReduceScatter,
}

impl OpType {
    /// Parse the quoted operator name of the DSL (`"Allgather"` …).
    pub fn parse(s: &str) -> Result<Self> {
        match s {
            "Allgather" => Ok(OpType::AllGather),
            "Allreduce" => Ok(OpType::AllReduce),
            "Reducescatter" => Ok(OpType::ReduceScatter),
            other => Err(LangError::eval(format!(
                "unknown OpType \"{other}\"; expected Allgather, Allreduce or Reducescatter"
            ))),
        }
    }
}

/// The DSL spelling.
impl fmt::Display for OpType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            OpType::AllGather => "Allgather",
            OpType::AllReduce => "Allreduce",
            OpType::ReduceScatter => "Reducescatter",
        })
    }
}

/// Communication type of one transfer: plain receive-copy or
/// receive-reduce-copy (the reducing variant used by ReduceScatter phases).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CommType {
    /// Receive and copy into the destination buffer slot.
    Recv,
    /// Receive, reduce with the local value, and copy
    /// (`recvReduceCopy` in NCCL primitive terms).
    Rrc,
}

/// The DSL spelling (`recv` / `rrc`).
impl fmt::Display for CommType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            CommType::Recv => "recv",
            CommType::Rrc => "rrc",
        })
    }
}

/// Binary arithmetic operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/` (integer division, floor semantics like Python)
    Div,
    /// `%` (modulo, non-negative result like Python)
    Mod,
}

impl BinOp {
    /// Operator symbol.
    pub fn symbol(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Mod => "%",
        }
    }
}

/// Expressions.
#[derive(Clone, Debug, PartialEq)]
pub enum Exp {
    /// Integer literal.
    Int(i64),
    /// Variable reference (loop variable, assignment or parameter).
    Var(String),
    /// Binary operation.
    Bin {
        /// Operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<Exp>,
        /// Right operand.
        rhs: Box<Exp>,
    },
}

impl Exp {
    /// Shorthand for building a binary expression.
    pub fn bin(op: BinOp, lhs: Exp, rhs: Exp) -> Exp {
        Exp::Bin {
            op,
            lhs: Box::new(lhs),
            rhs: Box::new(rhs),
        }
    }

    /// Shorthand for a variable reference.
    pub fn var(name: impl Into<String>) -> Exp {
        Exp::Var(name.into())
    }
}

/// Statements.
#[derive(Clone, Debug, PartialEq)]
pub enum Stat {
    /// `name = exp`
    Assign {
        /// Target variable.
        name: String,
        /// Assigned value.
        value: Exp,
    },
    /// `for var in range(args...):` with 1–3 range arguments
    /// (`end` / `start, end` / `start, end, step`).
    For {
        /// Loop variable.
        var: String,
        /// Range arguments.
        range: Vec<Exp>,
        /// Loop body.
        body: Vec<Stat>,
    },
    /// `transfer(srcRank, dstRank, step, chunkId, commType)`
    Transfer {
        /// `(srcRank, dstRank, step, chunkId)` expressions.
        args: [Exp; 4],
        /// Communication type.
        comm: CommType,
    },
}

/// Value of a header parameter.
#[derive(Clone, Debug, PartialEq)]
pub enum ParamValue {
    /// Integer parameter (nRanks, nChannels, nWarps, GPUPerNode, NICPerNode).
    Int(i64),
    /// String parameter (AlgoName, OpType).
    Str(String),
}

/// One `name = value` entry in the `def ResCCLAlgo(...)` header.
#[derive(Clone, Debug, PartialEq)]
pub struct Param {
    /// Parameter name.
    pub name: String,
    /// Parameter value.
    pub value: ParamValue,
}

/// A complete ResCCLang program: the `def ResCCLAlgo(params...):` header and
/// the statement body.
#[derive(Clone, Debug, PartialEq)]
pub struct Program {
    /// Function name (always `ResCCLAlgo` in well-formed programs).
    pub func_name: String,
    /// Header parameters.
    pub params: Vec<Param>,
    /// Statement body.
    pub body: Vec<Stat>,
}

impl Program {
    /// Look up an integer header parameter.
    fn int_param(&self, name: &str) -> Option<i64> {
        self.params.iter().find(|p| p.name == name).and_then(|p| {
            if let ParamValue::Int(v) = p.value {
                Some(v)
            } else {
                None
            }
        })
    }

    /// Look up a string header parameter.
    fn str_param(&self, name: &str) -> Option<&str> {
        self.params.iter().find(|p| p.name == name).and_then(|p| {
            if let ParamValue::Str(ref s) = p.value {
                Some(s.as_str())
            } else {
                None
            }
        })
    }

    /// The declared rank count.
    pub fn n_ranks(&self) -> Result<u32> {
        let v = self
            .int_param("nRanks")
            .ok_or_else(|| LangError::eval("missing required parameter `nRanks`"))?;
        if v < 2 {
            return Err(LangError::eval(format!(
                "nRanks must be at least 2, got {v}"
            )));
        }
        Ok(v as u32)
    }

    /// The declared collective operator.
    pub fn op_type(&self) -> Result<OpType> {
        let s = self
            .str_param("OpType")
            .ok_or_else(|| LangError::eval("missing required parameter `OpType`"))?;
        OpType::parse(s)
    }

    /// The algorithm name (`AlgoName` parameter, or the function name).
    pub fn algo_name(&self) -> &str {
        self.str_param("AlgoName").unwrap_or(&self.func_name)
    }
}
