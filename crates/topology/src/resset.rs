//! A tiny fixed-capacity set of [`ResourceId`]s.
//!
//! Connections traverse at most four resources (pair channel, GPU ports,
//! NIC directions), so a fixed inline array keeps [`Connection`](crate::Connection)
//! and downstream task types `Copy` and allocation-free.

use crate::ids::ResourceId;

/// Maximum resources a path can traverse.
pub const MAX_PATH_RESOURCES: usize = 4;

/// An inline, ordered set of up to [`MAX_PATH_RESOURCES`] resources.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub struct ResourceSet {
    items: [ResourceId; MAX_PATH_RESOURCES],
    len: u8,
}

impl ResourceSet {
    /// The empty set.
    pub const fn empty() -> Self {
        Self {
            items: [ResourceId(0); MAX_PATH_RESOURCES],
            len: 0,
        }
    }

    /// Build from a slice.
    ///
    /// # Panics
    /// Panics if the slice holds more than [`MAX_PATH_RESOURCES`] entries.
    pub fn from_slice(resources: &[ResourceId]) -> Self {
        assert!(
            resources.len() <= MAX_PATH_RESOURCES,
            "a path traverses at most {MAX_PATH_RESOURCES} resources"
        );
        let mut s = Self::empty();
        for &r in resources {
            s.push(r);
        }
        s
    }

    /// Append a resource (ignores duplicates).
    pub fn push(&mut self, r: ResourceId) {
        if self.contains(r) {
            return;
        }
        assert!(
            (self.len as usize) < MAX_PATH_RESOURCES,
            "resource set overflow"
        );
        self.items[self.len as usize] = r;
        self.len += 1;
    }

    /// Number of resources.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Membership test.
    pub fn contains(&self, r: ResourceId) -> bool {
        self.as_slice().contains(&r)
    }

    /// View as a slice.
    pub fn as_slice(&self) -> &[ResourceId] {
        &self.items[..self.len as usize]
    }

    /// Iterate over the resources.
    pub fn iter(&self) -> impl Iterator<Item = ResourceId> + '_ {
        self.as_slice().iter().copied()
    }
}

impl<'a> IntoIterator for &'a ResourceSet {
    type Item = ResourceId;
    type IntoIter = std::iter::Copied<std::slice::Iter<'a, ResourceId>>;

    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_set_ops() {
        let mut s = ResourceSet::empty();
        assert!(s.is_empty());
        s.push(ResourceId(3));
        s.push(ResourceId(7));
        s.push(ResourceId(3)); // duplicate ignored
        assert_eq!(s.len(), 2);
        assert!(s.contains(ResourceId(7)));
        assert!(!s.contains(ResourceId(5)));
    }

    #[test]
    #[should_panic(expected = "at most")]
    fn overflow_panics() {
        ResourceSet::from_slice(&[
            ResourceId(1),
            ResourceId(2),
            ResourceId(3),
            ResourceId(4),
            ResourceId(5),
        ]);
    }
}
