//! `egoist_obs::json`, re-exported only because the whole-stack
//! benchmark calls `egoist_traffic::json::string`; everything else in
//! the workspace names `egoist_obs::json` itself.

pub use egoist_obs::json::*;
