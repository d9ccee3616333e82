//! In-memory virtual filesystem used as the Dandelion compute-function ABI.
//!
//! Compute functions in Dandelion are *pure*: they may not issue system
//! calls. Instead of a POSIX filesystem, the platform materializes the
//! function's declared input sets as directories of an in-memory filesystem
//! before the function starts, and harvests the files the function wrote into
//! its output-set directories after it returns (paper §4.1, dlibc/dlibc++).
//!
//! The [`VirtualFs`] here plays the role of that dlibc-provided filesystem:
//!
//! * [`VirtualFs::from_input_sets`] lays out `/<set-name>/<item-name>` files
//!   for every input item.
//! * The function reads and writes through [`VirtualFs`] without any
//!   ambient authority.
//! * [`VirtualFs::harvest_output_sets`] turns the files under each declared
//!   output directory back into [`DataSet`](dandelion_common::DataSet)s for
//!   the dispatcher.
//!
//! The filesystem is intentionally small and strict: paths are normalized,
//! directories and files are distinct node types, and all failures are
//! reported as [`VfsError`] values rather than panics.

#![warn(unnameable_types)]

mod fs;
mod path;

pub use fs::{Metadata, NodeKind, VfsError, VirtualFs};
pub use path::VfsPath;
