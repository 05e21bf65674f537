//! Strongly-typed identifiers used across the ResCCL stack.
//!
//! Every entity in the system — GPUs (ranks), nodes (servers), NICs,
//! contention resources, connections, chunks and algorithm steps — gets its
//! own newtype so that indices cannot be accidentally mixed up. All ids are
//! plain `u32` wrappers: cheap to copy, hash and order.

use std::fmt;

macro_rules! id_type {
    ($(#[$doc:meta])* $name:ident, $prefix:literal) => {
        $(#[$doc])*
        #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
        pub struct $name(pub u32);

        impl $name {
            /// Construct from a raw index.
            pub const fn new(raw: u32) -> Self {
                Self(raw)
            }

            /// The raw index, usable for arena lookups.
            pub const fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl From<u32> for $name {
            fn from(raw: u32) -> Self {
                Self(raw)
            }
        }

        impl From<usize> for $name {
            fn from(raw: usize) -> Self {
                Self(raw as u32)
            }
        }
    };
}

id_type!(
    /// A GPU rank — the global index of a GPU inside the collective group.
    Rank,
    "r"
);
id_type!(
    /// A node (server) hosting several GPUs.
    NodeId,
    "n"
);
id_type!(
    /// A network interface card. Several GPUs of one node may share a NIC.
    NicId,
    "nic"
);
id_type!(
    /// A contention resource: the unit over which concurrent transfers
    /// interfere (an NVLink port pair, a NIC direction, a fabric path).
    ResourceId,
    "res"
);
id_type!(
    /// A data chunk index inside a rank's [`DataBuffer`](crate)..
    ChunkId,
    "c"
);
id_type!(
    /// A discrete algorithm step. Transfers at smaller steps logically
    /// precede transfers at larger steps for the same chunk.
    Step,
    "s"
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_roundtrip_raw() {
        let r = Rank::new(7);
        assert_eq!(r.index(), 7);
        assert_eq!(Rank::from(7usize), r);
        assert_eq!(Rank::from(7u32), r);
    }

    #[test]
    fn ids_format_with_prefix() {
        assert_eq!(format!("{}", Rank::new(3)), "r3");
        assert_eq!(format!("{:?}", NicId::new(1)), "nic1");
        assert_eq!(format!("{}", ChunkId::new(12)), "c12");
    }

    #[test]
    fn ids_are_ordered_by_raw_value() {
        assert!(Rank::new(1) < Rank::new(2));
        assert!(Step::new(0) < Step::new(10));
    }

    #[test]
    fn distinct_id_types_do_not_compare() {
        // Compile-time property: this test simply demonstrates that ids of
        // the same type compare fine (cross-type comparison does not compile).
        assert_eq!(NodeId::new(0), NodeId::new(0));
    }
}
