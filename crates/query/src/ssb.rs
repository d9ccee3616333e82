//! The Star Schema Benchmark: schema, data generator and queries.
//!
//! The paper evaluates elastic query processing with SSB queries 1.1, 2.1,
//! 3.1 and 4.1 over ~700 MB of data in S3 (Figure 9). The generator here
//! produces a deterministic, proportionally scaled-down database with the
//! same schema and value distributions the queries select on, and
//! [`SsbQuery::run`] executes each query through the operator pipeline of
//! [`crate::ops`]. [`run_partitioned`] runs the same query as independent
//! partial aggregations over horizontal partitions of the fact table — the
//! execution strategy Dandelion uses to spread a query across sandboxes —
//! and merges the partials, which must give the same result.

use dandelion_common::rng::SplitMix64;

use crate::expr::Expr;
use crate::ops::{aggregate, filter, hash_join, sort, SortOrder};
use crate::table::{Column, DataType, Schema, Table};

/// The five SSB tables.
#[derive(Debug, Clone)]
pub struct SsbDatabase {
    /// The fact table.
    pub lineorder: Table,
    /// The date dimension.
    pub date: Table,
    /// The customer dimension.
    pub customer: Table,
    /// The supplier dimension.
    pub supplier: Table,
    /// The part dimension.
    pub part: Table,
}

impl SsbDatabase {
    /// Total approximate size in bytes across all tables.
    pub fn total_bytes(&self) -> usize {
        self.lineorder.byte_size()
            + self.date.byte_size()
            + self.customer.byte_size()
            + self.supplier.byte_size()
            + self.part.byte_size()
    }
}

const REGIONS: [&str; 5] = ["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"];
const NATIONS_PER_REGION: usize = 5;

fn nation_name(region: usize, nation: usize) -> String {
    format!("{}-N{nation}", REGIONS[region])
}

/// Schema of the lineorder fact table (subset of columns the queries touch).
pub fn lineorder_schema() -> Schema {
    Schema::new(&[
        ("lo_orderkey", DataType::Int64),
        ("lo_custkey", DataType::Int64),
        ("lo_partkey", DataType::Int64),
        ("lo_suppkey", DataType::Int64),
        ("lo_orderdate", DataType::Int64),
        ("lo_quantity", DataType::Int64),
        ("lo_extendedprice", DataType::Int64),
        ("lo_discount", DataType::Int64),
        ("lo_revenue", DataType::Int64),
        ("lo_supplycost", DataType::Int64),
    ])
}

/// Generates a deterministic SSB database.
///
/// `scale` controls the fact-table size: `scale = 1.0` produces 60 000
/// lineorder rows (1/100th of SF1), which keeps tests fast while preserving
/// the join selectivities the queries rely on.
pub fn generate_database(scale: f64, seed: u64) -> SsbDatabase {
    let mut rng = SplitMix64::new(seed);
    let lineorder_rows = ((60_000.0 * scale) as usize).max(100);
    let customers = ((3_000.0 * scale) as usize).max(20);
    let suppliers = ((200.0 * scale) as usize).max(10);
    let parts = ((2_000.0 * scale) as usize).max(20);

    // Date dimension: 7 years of days, datekey = yyyymmdd.
    let mut d_datekey = Vec::new();
    let mut d_year = Vec::new();
    let mut d_yearmonthnum = Vec::new();
    for year in 1992..=1998i64 {
        for month in 1..=12i64 {
            for day in 1..=28i64 {
                d_datekey.push(year * 10_000 + month * 100 + day);
                d_year.push(year);
                d_yearmonthnum.push(year * 100 + month);
            }
        }
    }
    let date = Table::new(
        Schema::new(&[
            ("d_datekey", DataType::Int64),
            ("d_year", DataType::Int64),
            ("d_yearmonthnum", DataType::Int64),
        ]),
        vec![
            Column::Int64(d_datekey.clone()),
            Column::Int64(d_year),
            Column::Int64(d_yearmonthnum),
        ],
    )
    .expect("static date schema");

    // Customer dimension.
    let mut c_custkey = Vec::new();
    let mut c_nation = Vec::new();
    let mut c_region = Vec::new();
    for key in 0..customers as i64 {
        let region = rng.next_bounded(REGIONS.len() as u64) as usize;
        let nation = rng.next_bounded(NATIONS_PER_REGION as u64) as usize;
        c_custkey.push(key);
        c_region.push(REGIONS[region].to_string());
        c_nation.push(nation_name(region, nation));
    }
    let customer = Table::new(
        Schema::new(&[
            ("c_custkey", DataType::Int64),
            ("c_nation", DataType::Utf8),
            ("c_region", DataType::Utf8),
        ]),
        vec![
            Column::Int64(c_custkey),
            Column::Utf8(c_nation),
            Column::Utf8(c_region),
        ],
    )
    .expect("static customer schema");

    // Supplier dimension.
    let mut s_suppkey = Vec::new();
    let mut s_nation = Vec::new();
    let mut s_region = Vec::new();
    for key in 0..suppliers as i64 {
        let region = rng.next_bounded(REGIONS.len() as u64) as usize;
        let nation = rng.next_bounded(NATIONS_PER_REGION as u64) as usize;
        s_suppkey.push(key);
        s_region.push(REGIONS[region].to_string());
        s_nation.push(nation_name(region, nation));
    }
    let supplier = Table::new(
        Schema::new(&[
            ("s_suppkey", DataType::Int64),
            ("s_nation", DataType::Utf8),
            ("s_region", DataType::Utf8),
        ]),
        vec![
            Column::Int64(s_suppkey),
            Column::Utf8(s_nation),
            Column::Utf8(s_region),
        ],
    )
    .expect("static supplier schema");

    // Part dimension: categories MFGR#11..45, brands within category.
    let mut p_partkey = Vec::new();
    let mut p_mfgr = Vec::new();
    let mut p_category = Vec::new();
    let mut p_brand1 = Vec::new();
    for key in 0..parts as i64 {
        let mfgr = rng.next_bounded(5) + 1;
        let category_index = rng.next_bounded(5) + 1;
        let category = format!("MFGR#{mfgr}{category_index}");
        let brand = format!("{category}{:02}", rng.next_bounded(40) + 1);
        p_partkey.push(key);
        p_mfgr.push(format!("MFGR#{mfgr}"));
        p_category.push(category);
        p_brand1.push(brand);
    }
    let part = Table::new(
        Schema::new(&[
            ("p_partkey", DataType::Int64),
            ("p_mfgr", DataType::Utf8),
            ("p_category", DataType::Utf8),
            ("p_brand1", DataType::Utf8),
        ]),
        vec![
            Column::Int64(p_partkey),
            Column::Utf8(p_mfgr),
            Column::Utf8(p_category),
            Column::Utf8(p_brand1),
        ],
    )
    .expect("static part schema");

    // Fact table.
    let mut lo_orderkey = Vec::with_capacity(lineorder_rows);
    let mut lo_custkey = Vec::with_capacity(lineorder_rows);
    let mut lo_partkey = Vec::with_capacity(lineorder_rows);
    let mut lo_suppkey = Vec::with_capacity(lineorder_rows);
    let mut lo_orderdate = Vec::with_capacity(lineorder_rows);
    let mut lo_quantity = Vec::with_capacity(lineorder_rows);
    let mut lo_extendedprice = Vec::with_capacity(lineorder_rows);
    let mut lo_discount = Vec::with_capacity(lineorder_rows);
    let mut lo_revenue = Vec::with_capacity(lineorder_rows);
    let mut lo_supplycost = Vec::with_capacity(lineorder_rows);
    for key in 0..lineorder_rows as i64 {
        let quantity = (rng.next_bounded(50) + 1) as i64;
        let price = (rng.next_bounded(100_000) + 1_000) as i64;
        let discount = rng.next_bounded(11) as i64;
        lo_orderkey.push(key);
        lo_custkey.push(rng.next_bounded(customers as u64) as i64);
        lo_partkey.push(rng.next_bounded(parts as u64) as i64);
        lo_suppkey.push(rng.next_bounded(suppliers as u64) as i64);
        lo_orderdate.push(d_datekey[rng.next_bounded(d_datekey.len() as u64) as usize]);
        lo_quantity.push(quantity);
        lo_extendedprice.push(price);
        lo_discount.push(discount);
        lo_revenue.push(price * quantity * (100 - discount) / 100);
        lo_supplycost.push(price * 6 / 10);
    }
    let lineorder = Table::new(
        lineorder_schema(),
        vec![
            Column::Int64(lo_orderkey),
            Column::Int64(lo_custkey),
            Column::Int64(lo_partkey),
            Column::Int64(lo_suppkey),
            Column::Int64(lo_orderdate),
            Column::Int64(lo_quantity),
            Column::Int64(lo_extendedprice),
            Column::Int64(lo_discount),
            Column::Int64(lo_revenue),
            Column::Int64(lo_supplycost),
        ],
    )
    .expect("static lineorder schema");

    SsbDatabase {
        lineorder,
        date,
        customer,
        supplier,
        part,
    }
}

/// The four evaluated SSB queries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SsbQuery {
    /// Q1.1 — revenue from discounted orders in 1993.
    Q1_1,
    /// Q2.1 — revenue by year and brand for one category in AMERICA.
    Q2_1,
    /// Q3.1 — revenue by customer/supplier nation within ASIA, 1992–1997.
    Q3_1,
    /// Q4.1 — profit by year and customer nation in AMERICA.
    Q4_1,
}

impl SsbQuery {
    /// All evaluated queries in paper order.
    pub const ALL: [SsbQuery; 4] = [
        SsbQuery::Q1_1,
        SsbQuery::Q2_1,
        SsbQuery::Q3_1,
        SsbQuery::Q4_1,
    ];

    /// The label used in Figure 9.
    pub fn label(&self) -> &'static str {
        match self {
            SsbQuery::Q1_1 => "Query 1.1",
            SsbQuery::Q2_1 => "Query 2.1",
            SsbQuery::Q3_1 => "Query 3.1",
            SsbQuery::Q4_1 => "Query 4.1",
        }
    }

    /// Runs the query over the whole database.
    pub fn run(&self, db: &SsbDatabase) -> Result<Table, String> {
        self.run_over(db, &db.lineorder)
    }

    /// Runs the query with the given fact table (used for partitioned
    /// execution; dimensions always come from `db`).
    pub fn run_over(&self, db: &SsbDatabase, lineorder: &Table) -> Result<Table, String> {
        match self {
            SsbQuery::Q1_1 => {
                // Filter the fact table first, then join with dates of 1993.
                let filtered = filter(
                    lineorder,
                    &Expr::col("lo_discount")
                        .between(1, 3)
                        .and(Expr::col("lo_quantity").lt(Expr::int(25))),
                )?;
                let dates_1993 = filter(&db.date, &Expr::col("d_year").eq(Expr::int(1993)))?;
                let joined = hash_join(&filtered, "lo_orderdate", &dates_1993, "d_datekey")?;
                let with_revenue = crate::ops::project(
                    &joined,
                    &[(
                        "discounted_revenue",
                        Expr::col("lo_extendedprice").mul(Expr::col("lo_discount")),
                    )],
                )?;
                aggregate(&with_revenue, &[], &[("revenue", "discounted_revenue")])
            }
            SsbQuery::Q2_1 => {
                let parts = filter(&db.part, &Expr::col("p_category").eq(Expr::str("MFGR#12")))?;
                let suppliers = filter(
                    &db.supplier,
                    &Expr::col("s_region").eq(Expr::str("AMERICA")),
                )?;
                let joined = hash_join(lineorder, "lo_partkey", &parts, "p_partkey")?;
                let joined = hash_join(&joined, "lo_suppkey", &suppliers, "s_suppkey")?;
                let joined = hash_join(&joined, "lo_orderdate", &db.date, "d_datekey")?;
                let grouped = aggregate(
                    &joined,
                    &["d_year", "p_brand1"],
                    &[("revenue", "lo_revenue")],
                )?;
                sort(
                    &grouped,
                    &[
                        ("d_year", SortOrder::Ascending),
                        ("p_brand1", SortOrder::Ascending),
                    ],
                )
            }
            SsbQuery::Q3_1 => {
                let customers = filter(&db.customer, &Expr::col("c_region").eq(Expr::str("ASIA")))?;
                let suppliers = filter(&db.supplier, &Expr::col("s_region").eq(Expr::str("ASIA")))?;
                let dates = filter(
                    &db.date,
                    &Expr::col("d_year")
                        .gt_eq(Expr::int(1992))
                        .and(Expr::col("d_year").lt_eq(Expr::int(1997))),
                )?;
                let joined = hash_join(lineorder, "lo_custkey", &customers, "c_custkey")?;
                let joined = hash_join(&joined, "lo_suppkey", &suppliers, "s_suppkey")?;
                let joined = hash_join(&joined, "lo_orderdate", &dates, "d_datekey")?;
                let grouped = aggregate(
                    &joined,
                    &["c_nation", "s_nation", "d_year"],
                    &[("revenue", "lo_revenue")],
                )?;
                sort(
                    &grouped,
                    &[
                        ("d_year", SortOrder::Ascending),
                        ("revenue", SortOrder::Descending),
                    ],
                )
            }
            SsbQuery::Q4_1 => {
                let customers = filter(
                    &db.customer,
                    &Expr::col("c_region").eq(Expr::str("AMERICA")),
                )?;
                let suppliers = filter(
                    &db.supplier,
                    &Expr::col("s_region").eq(Expr::str("AMERICA")),
                )?;
                let parts = filter(
                    &db.part,
                    &Expr::col("p_mfgr")
                        .eq(Expr::str("MFGR#1"))
                        .or(Expr::col("p_mfgr").eq(Expr::str("MFGR#2"))),
                )?;
                let joined = hash_join(lineorder, "lo_custkey", &customers, "c_custkey")?;
                let joined = hash_join(&joined, "lo_suppkey", &suppliers, "s_suppkey")?;
                let joined = hash_join(&joined, "lo_partkey", &parts, "p_partkey")?;
                let joined = hash_join(&joined, "lo_orderdate", &db.date, "d_datekey")?;
                let with_profit = crate::ops::project(
                    &joined,
                    &[
                        ("d_year", Expr::col("d_year")),
                        ("c_nation", Expr::col("c_nation")),
                        (
                            "row_profit",
                            Expr::col("lo_revenue").sub(Expr::col("lo_supplycost")),
                        ),
                    ],
                )?;
                let grouped = aggregate(
                    &with_profit,
                    &["d_year", "c_nation"],
                    &[("profit", "row_profit")],
                )?;
                sort(
                    &grouped,
                    &[
                        ("d_year", SortOrder::Ascending),
                        ("c_nation", SortOrder::Ascending),
                    ],
                )
            }
        }
    }

    /// The name of the aggregate output column of this query.
    pub fn measure_column(&self) -> &'static str {
        match self {
            SsbQuery::Q1_1 | SsbQuery::Q2_1 | SsbQuery::Q3_1 => "revenue",
            SsbQuery::Q4_1 => "profit",
        }
    }

    /// The group-by key columns of this query (empty for Q1.1).
    pub fn group_columns(&self) -> &'static [&'static str] {
        match self {
            SsbQuery::Q1_1 => &[],
            SsbQuery::Q2_1 => &["d_year", "p_brand1"],
            SsbQuery::Q3_1 => &["c_nation", "s_nation", "d_year"],
            SsbQuery::Q4_1 => &["d_year", "c_nation"],
        }
    }
}

/// Runs a query by partitioning the fact table, executing the query over
/// each partition independently, and merging the partial aggregates.
///
/// This mirrors Dandelion's execution: each partition is one compute
/// function instance, the merge is the final function.
pub fn run_partitioned(
    db: &SsbDatabase,
    query: SsbQuery,
    partitions: usize,
) -> Result<Table, String> {
    let parts = db.lineorder.partition(partitions);
    let partials: Vec<Table> = parts
        .iter()
        .map(|part| query.run_over(db, part))
        .collect::<Result<_, _>>()?;
    merge_partials(query, &partials)
}

/// Merges per-partition query results into the final result.
pub fn merge_partials(query: SsbQuery, partials: &[Table]) -> Result<Table, String> {
    let combined = Table::concat(partials)?;
    let measure = query.measure_column();
    let merged = aggregate(&combined, query.group_columns(), &[(measure, measure)])?;
    match query {
        SsbQuery::Q1_1 => Ok(merged),
        SsbQuery::Q2_1 => sort(
            &merged,
            &[
                ("d_year", SortOrder::Ascending),
                ("p_brand1", SortOrder::Ascending),
            ],
        ),
        SsbQuery::Q3_1 => sort(
            &merged,
            &[
                ("d_year", SortOrder::Ascending),
                ("revenue", SortOrder::Descending),
            ],
        ),
        SsbQuery::Q4_1 => sort(
            &merged,
            &[
                ("d_year", SortOrder::Ascending),
                ("c_nation", SortOrder::Ascending),
            ],
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn db() -> SsbDatabase {
        generate_database(0.05, 17)
    }

    #[test]
    fn generator_is_deterministic_and_scaled() {
        let a = generate_database(0.05, 17);
        let b = generate_database(0.05, 17);
        assert_eq!(a.lineorder, b.lineorder);
        assert_eq!(a.part, b.part);
        let small = generate_database(0.02, 17);
        assert!(small.lineorder.rows() < a.lineorder.rows());
        assert!(a.total_bytes() > 100_000);
    }

    #[test]
    fn q1_1_produces_a_single_aggregate() {
        let db = db();
        let result = SsbQuery::Q1_1.run(&db).unwrap();
        assert_eq!(result.rows(), 1);
        let revenue = result.int_column("revenue").unwrap()[0];
        assert!(revenue > 0, "revenue should be positive, got {revenue}");
    }

    #[test]
    fn q2_1_groups_by_year_and_brand() {
        let db = db();
        let result = SsbQuery::Q2_1.run(&db).unwrap();
        assert!(result.rows() > 1);
        assert!(result.column("d_year").is_some());
        assert!(result.column("p_brand1").is_some());
        // Sorted by year ascending.
        let years = result.int_column("d_year").unwrap();
        assert!(years.windows(2).all(|window| window[0] <= window[1]));
    }

    #[test]
    fn q3_1_restricts_to_asia() {
        let db = db();
        let result = SsbQuery::Q3_1.run(&db).unwrap();
        assert!(result.rows() > 0);
        for nation in result.str_column("c_nation").unwrap() {
            assert!(nation.starts_with("ASIA"), "unexpected nation {nation}");
        }
        // Within a year revenues are sorted descending.
        let years = result.int_column("d_year").unwrap();
        let revenues = result.int_column("revenue").unwrap();
        for window in years.iter().zip(revenues).collect::<Vec<_>>().windows(2) {
            if window[0].0 == window[1].0 {
                assert!(window[0].1 >= window[1].1);
            }
        }
    }

    #[test]
    fn q4_1_computes_profit_by_year_and_nation() {
        let db = db();
        let result = SsbQuery::Q4_1.run(&db).unwrap();
        assert!(result.rows() > 0);
        assert!(result.column("profit").is_some());
        for nation in result.str_column("c_nation").unwrap() {
            assert!(nation.starts_with("AMERICA"));
        }
    }

    #[test]
    fn partitioned_execution_matches_single_node() {
        let db = db();
        for query in SsbQuery::ALL {
            let whole = query.run(&db).unwrap();
            for partitions in [2, 7] {
                let split = run_partitioned(&db, query, partitions).unwrap();
                assert_eq!(
                    whole,
                    split,
                    "{} with {partitions} partitions diverged",
                    query.label()
                );
            }
        }
    }

    #[test]
    fn query_labels_and_measures() {
        assert_eq!(SsbQuery::Q1_1.label(), "Query 1.1");
        assert_eq!(SsbQuery::Q4_1.measure_column(), "profit");
        assert_eq!(SsbQuery::Q1_1.group_columns().len(), 0);
        assert_eq!(SsbQuery::ALL.len(), 4);
    }
}
