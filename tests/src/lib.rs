//! Shared helpers of the cross-crate integration tests.

pub mod reference;
