//! Helpers of the q-commerce benchmark (`src/main.rs`): statistics, the
//! closed-form state oracle, and the span recorder.

pub mod host;
pub mod oracle;
pub mod stats;
pub mod trace;
