//! # rescc-train
//!
//! End-to-end distributed-training throughput model (§5.5 / Fig. 13):
//! Megatron-style GPT-3 (tensor parallel) and T5 (data parallel) training
//! whose collective times come from the simulated CCL backends, including
//! the SM-contention coupling between communication TB footprint and
//! compute throughput. Each collective runs through a
//! [`Communicator`](rescc_backends::Communicator) over the given
//! [`Backend`](rescc_backends::Backend), verified and deny-gated like every
//! dispatch; the model keeps no state between calls.
//!
//! ```no_run
//! use rescc_backends::Backend;
//! use rescc_train::{train_throughput, ModelConfig, ParallelConfig};
//!
//! let report = train_throughput(
//!     &ModelConfig::gpt3("6.7B").unwrap(),
//!     &ParallelConfig::gpt3(2, 16),
//!     &Backend::resccl(),
//! ).unwrap();
//! println!("{:.1} samples/s", report.samples_per_s);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod model;
mod sim;

pub use model::{Family, ModelConfig, ParallelConfig, UnknownModelSize};
pub use sim::{train_throughput, TrainReport};
