//! The rule families. Each takes the lexed workspace + policy and
//! appends findings; see the module docs of each for the rule statement.

pub mod atomics;
pub mod coverage;
pub mod docsync;
pub mod locks;
pub mod recovery;
pub mod unsafety;
