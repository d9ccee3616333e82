//! A small columnar query engine and the Star Schema Benchmark.
//!
//! The elastic query processing experiment (paper §7.7, Figure 9) runs Star
//! Schema Benchmark (SSB) queries by porting Apache Arrow Acero operators to
//! Dandelion compute functions and ingesting the data from S3. This crate is
//! the from-scratch substrate for that experiment:
//!
//! * [`Table`] — columnar tables (Int64 and Utf8 columns), schemas, CSV
//!   encoding/decoding for object-store storage.
//! * Scalar expressions and predicates over tables, and the relational
//!   operators the queries need: filter, project, hash join, group-by sums
//!   and sort (private to the crate).
//! * [`SsbQuery`] — the SSB schema, a deterministic data generator, the four
//!   query flights' first queries (Q1.1, Q2.1, Q3.1, Q4.1) and a
//!   partition-parallel execution strategy matching how Dandelion spreads a
//!   query across sandboxes.
//! * [`AthenaModel`], [`Ec2Model`] — latency and cost models for AWS Athena (per-byte pricing)
//!   and for Dandelion on an EC2 instance (per-second pricing), used to
//!   regenerate Figure 9's cost comparison.

#![warn(unnameable_types)]

mod athena;
mod expr;
mod ops;
mod ssb;
mod table;

pub use athena::{AthenaModel, Ec2Model, QueryCost};
pub use ssb::{
    generate_database, lineorder_schema, merge_partials, run_partitioned, SsbDatabase, SsbQuery,
};
pub use table::{Column, DataType, Schema, Table, Value};
