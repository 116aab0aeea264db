//! `needle-regions` — offload-region formation.
//!
//! The heart of Needle's "what to specialize" step (§II–§IV):
//!
//! * [`region`] — the common [`region::OffloadRegion`] abstraction consumed
//!   by frame construction: single-entry single-exit, acyclic, with an
//!   explicit internal edge set;
//! * [`path`] — BL-path regions (a single flow of control);
//! * [`superblock`] — the edge-profile-driven Superblock baseline, including
//!   the paper's *infeasibility* check (Figure 3: overlapping paths make
//!   edge-profile traces that never execute);
//! * [`hyperblock`] — the if-conversion Hyperblock baseline with cold-op
//!   accounting (Figure 5);
//! * [`braid`] — the paper's new abstraction: Braids merge BL-paths that
//!   share entry and exit blocks, trading dataflow size for coverage while
//!   keeping live-in/live-out sets unchanged (§IV-B);
//! * [`path_tree`] — the DySER path-tree comparison point: same-entry
//!   merging with multi-exit live-out overhead (§IV-B);
//! * [`expansion`] — next-path target expansion across loop back edges from
//!   the profile's path pairs (§IV-A, Table III).

pub mod braid;
pub mod expansion;
pub mod hyperblock;
pub mod path;
pub mod path_tree;
pub mod region;
pub mod superblock;

pub use braid::{build_braids, Braid};
pub use expansion::{expansion_stats, ExpansionStats};
pub use hyperblock::{build_hyperblock, Hyperblock};
pub use path::PathRegion;
pub use path_tree::{build_path_trees, PathTree};
pub use region::OffloadRegion;
pub use superblock::{build_superblock, superblock_is_feasible, Superblock};
