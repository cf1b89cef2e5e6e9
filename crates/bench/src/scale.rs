//! Experiment scaling — re-exported from the harness, where the sweep
//! service (`ebcp-serve`) shares it. Kept as a module so driver code
//! and tests keep importing `ebcp_bench::scale::Scale` unchanged.

pub use ebcp_harness::scale::Scale;
