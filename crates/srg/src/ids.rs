//! Strongly-typed identifiers used throughout the SRG.
//!
//! Every entity in a [`crate::Srg`] is referred to by a small copyable id
//! rather than a reference, which keeps the graph representation flat and
//! serializable — a requirement for the SRG's role as a *portable*
//! interchange format between frontends, schedulers, and backends.

use std::fmt;

macro_rules! define_id {
    ($(#[$doc:meta])* $name:ident, $prefix:expr) => {
        $(#[$doc])*
        #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
        pub struct $name(pub u32);

        impl $name {
            /// Construct an id from a raw index.
            pub const fn new(raw: u32) -> Self {
                Self(raw)
            }

            /// The raw index backing this id.
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
    };
}

define_id!(
    /// Identifies a node (operation) within a single SRG.
    NodeId,
    "n"
);

define_id!(
    /// Identifies an edge (data dependency) within a single SRG.
    EdgeId,
    "e"
);

define_id!(
    /// Identifies a device (accelerator) in a cluster, as referenced by an
    /// annotated SRG's placement bindings. The scheduler assigns these; the
    /// SRG crate treats them as opaque.
    DeviceId,
    "d"
);

/// Identifies a logical tensor value flowing through the graph. Unlike
/// [`EdgeId`], a single tensor may feed several consumers (several edges
/// share one `TensorId`).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct TensorId(pub u64);

impl TensorId {
    /// Construct a tensor id from a raw value.
    pub const fn new(raw: u64) -> Self {
        Self(raw)
    }
}

impl fmt::Debug for TensorId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

impl fmt::Display for TensorId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_roundtrip() {
        let id = NodeId::new(42);
        assert_eq!(id.index(), 42);
        assert_eq!(format!("{id}"), "n42");
        assert_eq!(format!("{id:?}"), "n42");
    }

    #[test]
    fn ids_are_ordered_by_index() {
        assert!(NodeId::new(1) < NodeId::new(2));
        assert!(EdgeId::new(0) < EdgeId::new(10));
    }

    #[test]
    fn tensor_id_display() {
        assert_eq!(format!("{}", TensorId::new(7)), "t7");
    }
}
