//! The §IV analyses: each submodule reproduces one subsection of the
//! paper's characterization, producing typed results that the report
//! renders as the corresponding tables and figures.

pub(crate) mod attribution;
pub mod concentration;
pub mod consistency;
pub mod delegation;
pub mod diversity;
pub mod longitudinal;
pub mod providers;
pub mod remedies;
pub mod replication;
pub mod smells;

#[cfg(test)]
pub(crate) mod testutil;
