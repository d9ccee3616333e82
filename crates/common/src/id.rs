//! Strongly typed identifiers used across the platform.
//!
//! Each identifier wraps a `u64` and provides a process-wide monotonic
//! generator. Using distinct types prevents mixing up, say, a node id and an
//! invocation id in dispatcher bookkeeping.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

macro_rules! define_id {
    ($(#[$meta:meta])* $name:ident, $prefix:literal) => {
        $(#[$meta])*
        #[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
        pub struct $name(pub u64);

        impl $name {
            /// Creates an identifier from a raw value.
            pub const fn from_raw(raw: u64) -> Self {
                Self(raw)
            }

            /// Returns the raw numeric value.
            pub const fn as_u64(self) -> u64 {
                self.0
            }

            /// Allocates the next identifier from a process-wide counter.
            pub fn next() -> Self {
                static COUNTER: AtomicU64 = AtomicU64::new(1);
                Self(COUNTER.fetch_add(1, Ordering::Relaxed))
            }

            /// Parses the `Display` wire format (`prefix-N`) or a bare
            /// numeric value; the inverse of `to_string`.
            pub fn parse(text: &str) -> Option<Self> {
                let raw = text.strip_prefix($prefix).unwrap_or(text);
                raw.parse::<u64>().ok().map(Self)
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

        impl From<u64> for $name {
            fn from(raw: u64) -> Self {
                Self(raw)
            }
        }
    };
}

define_id!(
    /// Identifies a single client invocation of a composition or function.
    InvocationId,
    "inv-"
);
define_id!(
    /// Identifies a worker node in a cluster.
    NodeId,
    "node-"
);
define_id!(
    /// Identifies a memory context managed by the dispatcher.
    ContextId,
    "ctx-"
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_unique_and_monotonic() {
        let a = InvocationId::next();
        let b = InvocationId::next();
        assert!(b.as_u64() > a.as_u64());
    }

    #[test]
    fn display_includes_prefix() {
        assert_eq!(InvocationId::from_raw(7).to_string(), "inv-7");
        assert_eq!(format!("{:?}", NodeId::from_raw(3)), "node-3");
    }

    #[test]
    fn parse_is_the_inverse_of_display() {
        let id = InvocationId::from_raw(42);
        assert_eq!(InvocationId::parse(&id.to_string()), Some(id));
        assert_eq!(InvocationId::parse("42"), Some(id));
        assert_eq!(NodeId::parse("node-7"), Some(NodeId::from_raw(7)));
        assert_eq!(InvocationId::parse("inv-"), None);
        assert_eq!(InvocationId::parse("zzz"), None);
        assert_eq!(InvocationId::parse("node-3"), None);
    }

    #[test]
    fn ids_are_ordered_by_raw_value() {
        assert!(ContextId::from_raw(1) < ContextId::from_raw(2));
        assert_eq!(NodeId::from_raw(9), NodeId::from(9u64));
    }
}
