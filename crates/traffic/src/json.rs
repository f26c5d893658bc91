//! The workspace's JSON writer, re-exported from `egoist_obs::json`
//! (the whole-stack benchmark and older callers name it through this
//! crate).

pub use egoist_obs::json::*;
