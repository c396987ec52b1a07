//! Call-frame paths and charge sites for stack-aware profiling.
//!
//! GWP attributes every sample to the full call stack of the interrupted
//! thread, not just its leaf frame (Section 5.1). The simulated platforms
//! reproduce that by tagging each charged work item with a [`FramePath`] —
//! the enclosing scope names, outermost first, *excluding* the leaf
//! function (which travels separately, exactly as the meter labels it).
//!
//! A stack recurs across the whole fleet, so both the path and the
//! `(path, leaf, category)` [`Site`] a charge lands on are interned once
//! per process: a path is a `Copy` handle to a leaked frame list, and a
//! site is a `&'static Site`. Equal content ⇔ the same handle, so readers
//! compare and key records by identity. The set is bounded by the code (the
//! scope and leaf names the platforms charge under), never by the workload.
//!
//! The interner is a trie rooted at the empty path. Each path keeps its
//! children and its sites in append-only lists that readers walk without a
//! lock, matching names by address; one process-wide lock serializes the
//! appends, which match by text. Once every site a caller charges has been
//! seen, resolving a child or a site allocates nothing, takes no lock and
//! compares no strings. Addresses and interning order are lookup keys only:
//! nothing ordered or printed depends on them.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

use crate::category::CpuCategory;
use crate::hash::IdMap;

/// An append-only list that readers walk without a lock. Only the holder
/// of [`WRITER`] appends, so appends never race one another.
#[derive(Debug)]
struct Chain<T: 'static> {
    head: OnceLock<&'static Link<T>>,
}

#[derive(Debug)]
struct Link<T: 'static> {
    item: T,
    next: OnceLock<&'static Link<T>>,
}

impl<T: Copy> Chain<T> {
    const fn new() -> Self {
        Chain {
            head: OnceLock::new(),
        }
    }

    /// The first item `matches` accepts, in append order.
    fn find(&self, matches: impl Fn(&T) -> bool) -> Option<T> {
        let mut next = self.head.get();
        while let Some(link) = next {
            if matches(&link.item) {
                return Some(link.item);
            }
            next = link.next.get();
        }
        None
    }

    /// Appends `item`; the caller holds [`WRITER`].
    fn push(&self, item: T) {
        let link = Box::leak(Box::new(Link {
            item,
            next: OnceLock::new(),
        }));
        let mut slot = &self.head;
        while let Some(last) = slot.get() {
            slot = &last.next;
        }
        // Under the writer lock the tail slot is still empty.
        let _ = slot.set(link);
    }
}

impl<K: Copy, V: Copy> Chain<(K, V)> {
    /// The value recorded under `key`. A key passed before is found by
    /// address (`same`) without a lock. Otherwise, under [`WRITER`], the
    /// value is found by content (`equal`) or made by `make`, and recorded
    /// under this key's address too.
    fn resolve(
        &self,
        key: K,
        same: impl Fn(&K, &K) -> bool,
        equal: impl Fn(&K, &K) -> bool,
        make: impl FnOnce() -> V,
    ) -> V {
        let by_address = |(k, _): &(K, V)| same(k, &key);
        if let Some((_, value)) = self.find(by_address) {
            return value;
        }
        let _writer = lock_writer();
        if let Some((_, value)) = self.find(by_address) {
            return value;
        }
        let value = match self.find(|(k, _)| equal(k, &key)) {
            Some((_, value)) => value,
            None => make(),
        };
        self.push((key, value));
        value
    }
}

/// Serializes every append to the interner.
static WRITER: Mutex<()> = Mutex::new(());

/// Takes [`WRITER`]. An append is one leak and one `OnceLock::set`, so a
/// panic under the lock leaves every list valid and a poisoned lock is safe
/// to take again.
fn lock_writer() -> MutexGuard<'static, ()> {
    WRITER.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One interned path and what has been resolved under it.
#[derive(Debug)]
struct PathNode {
    frames: &'static [&'static str],
    /// `(frame name as passed, child path)`; a name text passed from a
    /// second address gets its own entry for the same child.
    children: Chain<(&'static str, FramePath)>,
    /// `((leaf as passed, category), site)`, aliased the same way.
    sites: Chain<((&'static str, CpuCategory), &'static Site)>,
}

/// The root of the interner: the empty path.
static EMPTY: PathNode = PathNode {
    frames: &[],
    children: Chain::new(),
    sites: Chain::new(),
};

/// An immutable call-frame path: scope names outermost-first, as a `Copy`
/// handle to a process-interned frame list.
///
/// The leaf function name is *not* part of the path; a full sampled stack
/// is `path + leaf`. Two handles are equal exactly when their frames are.
#[derive(Clone, Copy)]
pub struct FramePath(&'static PathNode);

/// The empty path — work charged outside any scope.
#[must_use]
pub fn empty_path() -> FramePath {
    FramePath(&EMPTY)
}

/// The interned path of `frames`.
#[must_use]
pub fn path_of(frames: &[&'static str]) -> FramePath {
    frames
        .iter()
        .fold(empty_path(), |path, &name| path.child(name))
}

impl FramePath {
    /// The path one frame deeper: `self` then `name`.
    #[must_use]
    pub fn child(self, name: &'static str) -> FramePath {
        let node = self.0;
        node.children.resolve(
            name,
            |a, b| std::ptr::eq(*a, *b),
            |a, b| a == b,
            || {
                let mut frames = node.frames.to_vec();
                frames.push(name);
                FramePath(Box::leak(Box::new(PathNode {
                    frames: Box::leak(frames.into_boxed_slice()),
                    children: Chain::new(),
                    sites: Chain::new(),
                })))
            },
        )
    }
}

/// The empty path.
impl Default for FramePath {
    fn default() -> Self {
        empty_path()
    }
}

impl std::ops::Deref for FramePath {
    type Target = [&'static str];

    fn deref(&self) -> &[&'static str] {
        self.0.frames
    }
}

impl PartialEq for FramePath {
    fn eq(&self, other: &Self) -> bool {
        std::ptr::eq(self.0, other.0)
    }
}

impl Eq for FramePath {}

impl fmt::Debug for FramePath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.0.frames).finish()
    }
}

/// Where a charge lands: the enclosing path, the leaf function and the
/// cycle category — a GWP sample's `(stack, leaf)` plus its category.
///
/// Only [`Site::intern`] makes one, so each content exists once per process
/// and a `&'static Site` compares, and keys maps, by address.
#[derive(Debug)]
pub struct Site {
    stack: FramePath,
    leaf: &'static str,
    category: CpuCategory,
}

impl Site {
    /// The interned site of `leaf` charged as `category` under `stack`.
    #[must_use]
    pub fn intern(stack: FramePath, leaf: &'static str, category: CpuCategory) -> &'static Site {
        stack.0.sites.resolve(
            (leaf, category),
            |a, b| std::ptr::eq(a.0, b.0) && a.1 == b.1,
            |a, b| a == b,
            || {
                Box::leak(Box::new(Site {
                    stack,
                    leaf,
                    category,
                }))
            },
        )
    }

    /// The enclosing call-frame path.
    #[must_use]
    pub fn stack(&self) -> FramePath {
        self.stack
    }

    /// The leaf function name.
    #[must_use]
    pub fn leaf(&self) -> &'static str {
        self.leaf
    }

    /// The cycle category.
    #[must_use]
    pub fn category(&self) -> CpuCategory {
        self.category
    }
}

/// By identity, which for interned sites is by content.
impl PartialEq for Site {
    fn eq(&self, other: &Self) -> bool {
        std::ptr::eq(self, other)
    }
}

impl Eq for Site {}

/// By address, agreeing with `Eq`: a site map's key is the site's identity.
impl Hash for Site {
    fn hash<H: Hasher>(&self, state: &mut H) {
        std::ptr::hash(self, state);
    }
}

/// A map keyed by site identity, for readers that fold records per site.
pub type SiteMap<V> = IdMap<&'static Site, V>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::category::{CoreComputeOp, SystemTax};

    #[test]
    fn empty_path_is_empty() {
        assert!(empty_path().is_empty());
        assert_eq!(path_of(&[]), empty_path());
    }

    #[test]
    fn equal_frames_are_one_handle() {
        let a = path_of(&["stack.x", "stack.y"]);
        let b = empty_path().child("stack.x").child("stack.y");
        assert_eq!(a, b);
        assert!(std::ptr::eq(&*a, &*b));
        assert_eq!(&*a, &["stack.x", "stack.y"]);
        assert_ne!(a, path_of(&["stack.y", "stack.x"]));
        assert_ne!(a, path_of(&["stack.x"]));
    }

    #[test]
    fn sites_intern_by_path_leaf_and_category() {
        let path = path_of(&["stack.site"]);
        let read = CpuCategory::from(CoreComputeOp::Read);
        let stl = CpuCategory::from(SystemTax::Stl);
        let site = Site::intern(path, "leaf", read);
        assert!(std::ptr::eq(site, Site::intern(path, "leaf", read)));
        assert!(!std::ptr::eq(site, Site::intern(path, "leaf", stl)));
        assert!(!std::ptr::eq(
            site,
            Site::intern(empty_path(), "leaf", read)
        ));
        assert!(!std::ptr::eq(site, Site::intern(path, "other", read)));
        assert_eq!(
            (site.stack(), site.leaf(), site.category()),
            (path, "leaf", read)
        );
    }

    #[test]
    #[allow(clippy::mutable_key_type)] // `Site` hashes and compares by address, never its interner lists
    fn site_map_keys_by_identity() {
        let read = CpuCategory::from(CoreComputeOp::Read);
        let a = Site::intern(path_of(&["stack.map"]), "a", read);
        let b = Site::intern(path_of(&["stack.map"]), "b", read);
        let mut map = SiteMap::default();
        *map.entry(a).or_insert(0) += 1;
        *map.entry(b).or_insert(0) += 2;
        *map.entry(a).or_insert(0) += 3;
        assert_eq!(map.len(), 2);
        assert_eq!(map[a], 4);
    }
}
