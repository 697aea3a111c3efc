//! Shared helpers of the cross-crate integration tests.

pub mod ref_sched;
pub mod reference;
