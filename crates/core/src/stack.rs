//! Call-frame paths for stack-aware profiling.
//!
//! GWP attributes every sample to the full call stack of the interrupted
//! thread, not just its leaf frame (Section 5.1). The simulated platforms
//! reproduce that by tagging each charged work item with a [`FramePath`] —
//! the enclosing scope names, outermost first, *excluding* the leaf
//! function (which travels separately, exactly as the meter labels it).
//!
//! Paths are shared, immutable `Arc` slices: pushing a scope snapshots the
//! stack once, and every item charged inside clones the `Arc` (a refcount
//! bump), so deep instrumentation stays O(1) per charge. Frame *interning*
//! (name → dense id) happens at aggregation time in the profiler, where
//! canonical record order makes the id assignment deterministic.

use std::sync::Arc;

/// An immutable call-frame path: scope names outermost-first.
///
/// The leaf function name is *not* part of the path; a full sampled stack
/// is `path + leaf`.
pub type FramePath = Arc<[&'static str]>;

/// The empty path — work charged outside any scope.
#[must_use]
pub fn empty_path() -> FramePath {
    Arc::from([] as [&'static str; 0])
}

/// Builds a path from a slice of frame names.
#[must_use]
pub fn path_of(frames: &[&'static str]) -> FramePath {
    Arc::from(frames)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_path_is_empty() {
        assert!(empty_path().is_empty());
    }

    #[test]
    fn paths_share_storage() {
        let a = path_of(&["x", "y"]);
        let b = a.clone();
        assert!(Arc::ptr_eq(&a, &b));
    }
}
