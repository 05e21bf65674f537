//! Model and parallelism configurations for the end-to-end evaluation
//! (§5.5): GPT-3 variants trained with tensor parallelism and T5 variants
//! trained with data parallelism, exactly the Fig. 13 matrix.

/// Error produced when a model preset selector is not one of the Fig. 13
/// configurations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UnknownModelSize {
    /// The family whose preset table was consulted.
    pub family: Family,
    /// The selector the caller passed.
    pub size: String,
    /// The valid selectors for that family.
    pub expected: &'static str,
}

impl std::fmt::Display for UnknownModelSize {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let family = match self.family {
            Family::Gpt3 => "GPT-3",
            Family::T5 => "T5",
        };
        write!(
            f,
            "unknown {family} size {} (use {})",
            self.size, self.expected
        )
    }
}

impl std::error::Error for UnknownModelSize {}

/// Model family — determines the parallelism strategy of §5.5.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Family {
    /// GPT-3 decoder models, trained with tensor parallelism.
    Gpt3,
    /// T5 encoder–decoder models, trained with data parallelism.
    T5,
}

/// A transformer model configuration.
#[derive(Clone, Debug, PartialEq)]
pub struct ModelConfig {
    /// Display name ("GPT-3 6.7B").
    pub name: String,
    /// Family.
    pub family: Family,
    /// Total parameters.
    pub params: u64,
    /// Transformer layers (decoder layers for GPT-3; enc+dec for T5).
    pub n_layers: u32,
    /// Hidden dimension.
    pub hidden: u32,
    /// Sequence length per sample.
    pub seq_len: u32,
}

impl ModelConfig {
    /// GPT-3 variants of Fig. 13. Accepts "6.7B", "13B", "22B", "45B".
    pub fn gpt3(size: &str) -> Result<Self, UnknownModelSize> {
        let (params, n_layers, hidden) = match size {
            "6.7B" => (6_700_000_000u64, 32u32, 4096u32),
            "13B" => (13_000_000_000, 40, 5120),
            "22B" => (22_000_000_000, 44, 6144),
            "45B" => (45_000_000_000, 48, 8192),
            other => {
                return Err(UnknownModelSize {
                    family: Family::Gpt3,
                    size: other.to_string(),
                    expected: "6.7B/13B/22B/45B",
                })
            }
        };
        Ok(Self {
            name: format!("GPT-3 {size}"),
            family: Family::Gpt3,
            params,
            n_layers,
            hidden,
            seq_len: 1024,
        })
    }

    /// T5 variants of Fig. 13. Accepts "220M", "770M", "3B".
    pub fn t5(size: &str) -> Result<Self, UnknownModelSize> {
        let (params, n_layers, hidden) = match size {
            "220M" => (220_000_000u64, 24u32, 768u32),
            "770M" => (770_000_000, 48, 1024),
            "3B" => (3_000_000_000, 48, 2048),
            other => {
                return Err(UnknownModelSize {
                    family: Family::T5,
                    size: other.to_string(),
                    expected: "220M/770M/3B",
                })
            }
        };
        Ok(Self {
            name: format!("T5 {size}"),
            family: Family::T5,
            params,
            n_layers,
            hidden,
            seq_len: 512,
        })
    }

    /// Training FLOPs per token (forward + backward ≈ 6 × params).
    pub fn flops_per_token(&self) -> f64 {
        6.0 * self.params as f64
    }
}

/// Distributed parallelism configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ParallelConfig {
    /// Tensor-parallel group size (GPUs inside one node).
    pub tp: u32,
    /// Data-parallel replica count.
    pub dp: u32,
    /// Global batch size (samples per iteration).
    pub global_batch: u32,
}

impl ParallelConfig {
    /// The paper's GPT-3 setting: TP = 8, DP = nodes, batch per Table 2.
    pub fn gpt3(n_nodes: u32, global_batch: u32) -> Self {
        Self {
            tp: 8,
            dp: n_nodes,
            global_batch,
        }
    }

    /// The paper's T5 setting: pure data parallelism over all GPUs.
    pub fn t5(n_gpus: u32, global_batch: u32) -> Self {
        Self {
            tp: 1,
            dp: n_gpus,
            global_batch,
        }
    }

    /// Total GPUs in the job.
    pub fn n_gpus(&self) -> u32 {
        self.tp * self.dp
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_have_sane_shapes() {
        let m = ModelConfig::gpt3("6.7B").unwrap();
        assert_eq!(m.family, Family::Gpt3);
        assert!(m.params > 6_000_000_000);
        let t = ModelConfig::t5("3B").unwrap();
        assert_eq!(t.family, Family::T5);
        assert!(t.hidden >= 1024);
    }

    #[test]
    fn unknown_size_is_a_typed_error() {
        let err = ModelConfig::gpt3("9000B").unwrap_err();
        assert_eq!(err.family, Family::Gpt3);
        assert_eq!(err.size, "9000B");
        assert!(err.to_string().contains("unknown GPT-3 size 9000B"));
        let err = ModelConfig::t5("11B").unwrap_err();
        assert_eq!(err.family, Family::T5);
        assert!(err.to_string().contains("220M/770M/3B"));
    }

    #[test]
    fn parallel_config_gpu_count() {
        assert_eq!(ParallelConfig::gpt3(4, 32).n_gpus(), 32);
        assert_eq!(ParallelConfig::t5(16, 16).n_gpus(), 16);
    }
}
