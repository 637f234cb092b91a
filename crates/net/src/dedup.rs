//! Bounded duplicate-suppression set for gossip ids.
//!
//! [`RecentSet`] now lives in `hyparview-core` (it is shared with the
//! gossip crate's flood bookkeeping); this module re-exports it under its
//! historical path.
//!
//! ```
//! use hyparview_net::dedup::RecentSet;
//!
//! let mut seen: RecentSet<u64> = RecentSet::new(2);
//! assert!(seen.insert(1));
//! assert!(!seen.insert(1), "duplicate detected");
//! ```

pub use hyparview_core::collections::RecentSet;
