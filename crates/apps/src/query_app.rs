//! Elastic SSB query processing as a Dandelion composition (paper §7.7).
//!
//! The data lives in the S3-like object store as CSV partitions of the
//! lineorder fact table plus the dimension tables. The composition is:
//!
//! 1. `PlanQuery` (compute) — emits one GET request per lineorder partition
//!    and for each dimension table.
//! 2. `HTTP` (communication, `each`) — fetches all objects in parallel.
//! 3. `RunPartition` (compute, `key`) — parses one lineorder partition plus
//!    the dimensions and runs the query over that partition.
//! 4. `MergePartials` (compute) — merges the per-partition results into the
//!    final answer.

use dandelion_common::{utf8_lossy, SharedBytesMut};
use dandelion_dsl::{CompositionBuilder, CompositionGraph, Distribution};
use dandelion_http::HttpRequest;
use dandelion_isolation::{FunctionArtifact, FunctionCtx};
use dandelion_query::{
    lineorder_schema, merge_partials, DataType, Schema, SsbDatabase, SsbQuery, Table,
};
use dandelion_services::ObjectStore;

/// The object-store host used by the query application.
pub(crate) const STORE_HOST: &str = "s3.internal";
/// The bucket holding the SSB data.
pub(crate) const BUCKET: &str = "ssb";

fn dimension_schema(table: &str) -> Schema {
    match table {
        "date" => Schema::new(&[
            ("d_datekey", DataType::Int64),
            ("d_year", DataType::Int64),
            ("d_yearmonthnum", DataType::Int64),
        ]),
        "customer" => Schema::new(&[
            ("c_custkey", DataType::Int64),
            ("c_nation", DataType::Utf8),
            ("c_region", DataType::Utf8),
        ]),
        "supplier" => Schema::new(&[
            ("s_suppkey", DataType::Int64),
            ("s_nation", DataType::Utf8),
            ("s_region", DataType::Utf8),
        ]),
        "part" => Schema::new(&[
            ("p_partkey", DataType::Int64),
            ("p_mfgr", DataType::Utf8),
            ("p_category", DataType::Utf8),
            ("p_brand1", DataType::Utf8),
        ]),
        other => panic!("unknown dimension table {other}"),
    }
}

/// Uploads an SSB database into the object store as CSV objects, splitting
/// the fact table into `partitions` objects. Returns the total bytes stored.
pub(crate) fn upload_database(store: &ObjectStore, db: &SsbDatabase, partitions: usize) -> usize {
    for (name, table) in [
        ("date", &db.date),
        ("customer", &db.customer),
        ("supplier", &db.supplier),
        ("part", &db.part),
    ] {
        store.put_object(BUCKET, &format!("{name}.csv"), table.to_csv().into_bytes());
    }
    for (index, part) in db.lineorder.partition(partitions).iter().enumerate() {
        store.put_object(
            BUCKET,
            &format!("lineorder-{index:03}.csv"),
            part.to_csv().into_bytes(),
        );
    }
    store.total_bytes()
}

fn parse_query(name: &str) -> Result<SsbQuery, String> {
    match name.trim() {
        "1.1" | "Q1.1" => Ok(SsbQuery::Q1_1),
        "2.1" | "Q2.1" => Ok(SsbQuery::Q2_1),
        "3.1" | "Q3.1" => Ok(SsbQuery::Q3_1),
        "4.1" | "Q4.1" => Ok(SsbQuery::Q4_1),
        other => Err(format!("unknown SSB query `{other}`")),
    }
}

/// `PlanQuery`: emits fetch requests for every partition and dimension.
///
/// Input `QuerySpec` is `"<query>;<partitions>"` (e.g. `"1.1;8"`). Fetch
/// requests carry a key (`partition-N` or `dimensions`) so the `key`
/// distribution routes each partition plus a copy of the dimensions to its
/// own `RunPartition` instance.
pub(crate) fn plan_query_artifact() -> FunctionArtifact {
    FunctionArtifact::new(
        "PlanQuery",
        &["Fetches", "Query"],
        |ctx: &mut FunctionCtx| {
            let spec = ctx.single_input("QuerySpec")?.clone();
            let text = spec.as_str().ok_or("query spec is not UTF-8")?;
            let (query, partitions) = text
                .split_once(';')
                .ok_or("expected `<query>;<partitions>`")?;
            parse_query(query)?;
            let partitions: usize = partitions
                .trim()
                .parse()
                .map_err(|_| "partition count is not a number".to_string())?;
            if partitions == 0 || partitions > 256 {
                return Err("partition count must be within 1..=256".into());
            }
            for partition in 0..partitions {
                for (kind, object) in [
                    ("lineorder", format!("lineorder-{partition:03}.csv")),
                    ("date", "date.csv".to_string()),
                    ("customer", "customer.csv".to_string()),
                    ("supplier", "supplier.csv".to_string()),
                    ("part", "part.csv".to_string()),
                ] {
                    let request =
                        HttpRequest::get(format!("http://{STORE_HOST}/{BUCKET}/{object}"))
                            .to_shared();
                    let item = dandelion_common::DataItem::with_key(
                        format!("fetch-{partition:03}-{kind}"),
                        format!("partition-{partition:03}"),
                        request,
                    );
                    ctx.push_output("Fetches", item)?;
                }
            }
            let mut name = ctx.output_buffer(query.len());
            name.put_str(query.trim());
            ctx.push_output_bytes("Query", "query", name)
        },
    )
    .with_memory_requirement(16 * 1024 * 1024)
}

/// `table` as CSV, written cell by cell into the platform's output memory.
fn csv_output(ctx: &FunctionCtx, table: &Table) -> SharedBytesMut {
    let mut csv = ctx.output_buffer(0);
    table
        .write_csv(&mut csv)
        .expect("a builder accepts every write");
    csv
}

/// `RunPartition`: parses one partition's objects and runs the query.
pub(crate) fn run_partition_artifact() -> FunctionArtifact {
    FunctionArtifact::new("RunPartition", &["Partial"], |ctx: &mut FunctionCtx| {
        let query_name = ctx.single_input("Query")?.clone();
        let query = parse_query(query_name.as_str().ok_or("query name is not UTF-8")?)?;
        let responses = ctx
            .input_set("Responses")
            .ok_or("missing input set `Responses`")?
            .clone();
        let mut lineorder = None;
        let mut date = None;
        let mut customer = None;
        let mut supplier = None;
        let mut part = None;
        for item in &responses.items {
            let response = dandelion_http::parse_response_shared(&item.data)
                .map_err(|err| format!("bad fetch response: {err}"))?;
            if !response.status.is_success() {
                return Err(format!("object fetch failed: {}", response.status).into());
            }
            let csv = response.body_str();
            // The item name encodes which table this is:
            // `response-fetch-<partition>-<table>`.
            let table_kind = item.name.rsplit('-').next().unwrap_or_default().to_string();
            match table_kind.as_str() {
                "lineorder" => lineorder = Some(Table::from_csv(lineorder_schema(), &csv)?),
                "date" => date = Some(Table::from_csv(dimension_schema("date"), &csv)?),
                "customer" => customer = Some(Table::from_csv(dimension_schema("customer"), &csv)?),
                "supplier" => supplier = Some(Table::from_csv(dimension_schema("supplier"), &csv)?),
                "part" => part = Some(Table::from_csv(dimension_schema("part"), &csv)?),
                other => return Err(format!("unexpected object `{other}`").into()),
            }
        }
        let db = SsbDatabase {
            lineorder: lineorder.ok_or("partition is missing its lineorder object")?,
            date: date.ok_or("missing date dimension")?,
            customer: customer.ok_or("missing customer dimension")?,
            supplier: supplier.ok_or("missing supplier dimension")?,
            part: part.ok_or("missing part dimension")?,
        };
        let partial = query.run_over(&db, &db.lineorder)?;
        ctx.push_output_bytes("Partial", "partial.csv", csv_output(ctx, &partial))
    })
    .with_memory_requirement(256 * 1024 * 1024)
}

/// `MergePartials`: merges per-partition results into the final table.
pub(crate) fn merge_partials_artifact() -> FunctionArtifact {
    FunctionArtifact::new("MergePartials", &["Result"], |ctx: &mut FunctionCtx| {
        let query_name = ctx.single_input("Query")?.clone();
        let query = parse_query(query_name.as_str().ok_or("query name is not UTF-8")?)?;
        let partials_set = ctx
            .input_set("Partials")
            .ok_or("missing input set `Partials`")?
            .clone();
        if partials_set.is_empty() {
            return Err("no partial results to merge".into());
        }
        // All partials share the schema of the first one.
        let first_csv = utf8_lossy(&partials_set.items[0].data);
        let header = first_csv.lines().next().unwrap_or_default().to_string();
        let schema = partial_schema(query, &header);
        let partials: Vec<Table> = partials_set
            .items
            .iter()
            .map(|item| Table::from_csv(schema.clone(), &utf8_lossy(&item.data)))
            .collect::<Result<_, _>>()?;
        let merged = merge_partials(query, &partials)?;
        ctx.push_output_bytes("Result", "result.csv", csv_output(ctx, &merged))
    })
    .with_memory_requirement(64 * 1024 * 1024)
}

fn partial_schema(query: SsbQuery, header: &str) -> Schema {
    let fields: Vec<(String, DataType)> = header
        .split(',')
        .map(|name| {
            let data_type = if query.group_columns().contains(&name) {
                // String group columns are the nation/brand columns.
                if name.ends_with("nation") || name.ends_with("brand1") {
                    DataType::Utf8
                } else {
                    DataType::Int64
                }
            } else {
                DataType::Int64
            };
            (name.to_string(), data_type)
        })
        .collect();
    Schema { fields }
}

/// The query-processing composition.
pub(crate) fn composition() -> CompositionGraph {
    CompositionBuilder::new("SsbQuery")
        .input("QuerySpec")
        .output("Result")
        .node("PlanQuery", |node| {
            node.bind("QuerySpec", Distribution::All, "QuerySpec")
                .publish("Fetches", "Fetches")
                .publish("QueryName", "Query")
        })
        .node("HTTP", |node| {
            node.bind("Request", Distribution::Each, "Fetches")
                .publish("Objects", "Response")
        })
        .node("RunPartition", |node| {
            node.bind("Responses", Distribution::Key, "Objects")
                .bind("Query", Distribution::All, "QueryName")
                .publish("Partials", "Partial")
        })
        .node("MergePartials", |node| {
            node.bind("Partials", Distribution::All, "Partials")
                .bind("Query", Distribution::All, "QueryName")
                .publish("Result", "Result")
        })
        .build()
        .expect("static SSB query composition")
}

#[cfg(test)]
mod tests {
    use super::*;
    use dandelion_query::generate_database;

    #[test]
    fn upload_splits_the_fact_table() {
        let store = ObjectStore::new();
        let db = generate_database(0.02, 3);
        let bytes = upload_database(&store, &db, 4);
        assert!(bytes > 10_000);
        let keys = store.list_bucket(BUCKET);
        assert!(keys.contains(&"lineorder-000.csv".to_string()));
        assert!(keys.contains(&"lineorder-003.csv".to_string()));
        assert!(keys.contains(&"part.csv".to_string()));
        assert_eq!(keys.len(), 4 + 4);
    }

    #[test]
    fn plan_query_emits_keyed_fetches() {
        use dandelion_common::DataSet;
        use dandelion_isolation::SyscallPolicy;
        let artifact = plan_query_artifact();
        let mut ctx = FunctionCtx::new(
            vec![DataSet::single("QuerySpec", b"1.1;3".to_vec())],
            artifact.output_sets.clone(),
            16 * 1024 * 1024,
            SyscallPolicy::strict(),
        )
        .unwrap();
        artifact.logic.run(&mut ctx).unwrap();
        let outputs = ctx.take_outputs();
        // 3 partitions × 5 objects.
        assert_eq!(outputs[0].len(), 15);
        assert_eq!(outputs[0].items[0].key.as_deref(), Some("partition-000"));
        assert_eq!(outputs[1].items[0].as_str(), Some("1.1"));
        // Bad specs are rejected.
        let mut bad = FunctionCtx::new(
            vec![DataSet::single("QuerySpec", b"9.9;3".to_vec())],
            artifact.output_sets.clone(),
            16 * 1024 * 1024,
            SyscallPolicy::strict(),
        )
        .unwrap();
        assert!(artifact.logic.run(&mut bad).is_err());
    }

    #[test]
    fn composition_shape() {
        let graph = composition();
        assert_eq!(graph.nodes.len(), 4);
        assert_eq!(graph.nodes[2].inputs[0].distribution, Distribution::Key);
    }
}
