//! Relational operators.
//!
//! These mirror the Acero operators the paper ports to Dandelion: filter,
//! projection, hash join, group-by aggregation, sort and limit. Each operator
//! consumes and produces [`Table`]s, so a query is an explicit operator
//! pipeline — exactly the shape that maps onto a composition of compute
//! functions.

use std::collections::HashMap;

use crate::expr::Expr;
use crate::table::{Column, DataType, Schema, Table, Value};

/// Keeps the rows of `input` for which `predicate` evaluates to true.
pub(crate) fn filter(input: &Table, predicate: &Expr) -> Result<Table, String> {
    let mask = predicate.evaluate_mask(input)?;
    Ok(input.filter(&mask))
}

/// Projects `input` onto named expressions.
pub(crate) fn project(input: &Table, columns: &[(&str, Expr)]) -> Result<Table, String> {
    let mut fields = Vec::with_capacity(columns.len());
    let mut data = Vec::with_capacity(columns.len());
    for (name, expr) in columns {
        let column = expr.evaluate(input)?;
        fields.push((*name, column.data_type()));
        data.push(column);
    }
    Table::new(Schema::new(&fields), data)
}

/// Inner hash join on `left.left_key == right.right_key`.
///
/// Columns of the right table are appended to the left table's columns; a
/// right column whose name collides with a left column gets a `right_`
/// prefix.
pub(crate) fn hash_join(
    left: &Table,
    left_key: &str,
    right: &Table,
    right_key: &str,
) -> Result<Table, String> {
    let left_keys = left.int_column(left_key)?;
    let right_keys = right.int_column(right_key)?;

    // Build side: the right table.
    let mut build: HashMap<i64, Vec<usize>> = HashMap::new();
    for (row, key) in right_keys.iter().enumerate() {
        build.entry(*key).or_default().push(row);
    }

    let mut left_indices = Vec::new();
    let mut right_indices = Vec::new();
    for (row, key) in left_keys.iter().enumerate() {
        if let Some(matches) = build.get(key) {
            for matched in matches {
                left_indices.push(row);
                right_indices.push(*matched);
            }
        }
    }

    let left_result = left.take(&left_indices);
    let right_result = right.take(&right_indices);

    let mut fields: Vec<(String, DataType)> = left_result.schema.fields.clone();
    let mut columns = left_result.columns;
    for ((name, data_type), column) in right_result.schema.fields.iter().zip(right_result.columns) {
        let final_name = if fields.iter().any(|(existing, _)| existing == name) {
            format!("right_{name}")
        } else {
            name.clone()
        };
        fields.push((final_name, *data_type));
        columns.push(column);
    }
    let schema = Schema { fields };
    Table::new(schema, columns)
}

/// Groups `input` by `group_by` columns and sums integer columns per group.
///
/// Each sum is `(output name, input column)`.
pub(crate) fn aggregate(
    input: &Table,
    group_by: &[&str],
    sums: &[(&str, &str)],
) -> Result<Table, String> {
    // Resolve group columns up front.
    let group_columns: Vec<&Column> = group_by
        .iter()
        .map(|name| {
            input
                .column(name)
                .ok_or_else(|| format!("no column named `{name}`"))
        })
        .collect::<Result<_, _>>()?;
    let sum_inputs: Vec<&Vec<i64>> = sums
        .iter()
        .map(|(_, column)| input.int_column(column))
        .collect::<Result<_, String>>()?;

    // Group rows by their key tuple, preserving first-seen order.
    let mut order: Vec<Vec<Value>> = Vec::new();
    let mut groups: HashMap<Vec<Value>, Vec<usize>> = HashMap::new();
    for row in 0..input.rows() {
        let key: Vec<Value> = group_columns
            .iter()
            .map(|column| column.value(row))
            .collect();
        if !groups.contains_key(&key) {
            order.push(key.clone());
        }
        groups.entry(key).or_default().push(row);
    }
    if group_by.is_empty() && groups.is_empty() {
        // Global aggregation over an empty input still yields one row of
        // zero sums.
        let key: Vec<Value> = Vec::new();
        order.push(key.clone());
        groups.insert(key, Vec::new());
    }

    // Assemble the output schema: group columns followed by sums.
    let mut fields: Vec<(String, DataType)> = group_by
        .iter()
        .map(|name| {
            let index = input.schema.index_of(name).expect("validated above");
            (name.to_string(), input.schema.fields[index].1)
        })
        .collect();
    for (output, _) in sums {
        fields.push((output.to_string(), DataType::Int64));
    }

    let mut group_data: Vec<Vec<Value>> = vec![Vec::new(); group_by.len()];
    let mut sum_data: Vec<Vec<i64>> = vec![Vec::new(); sums.len()];
    for key in &order {
        let rows = &groups[key];
        for (column_index, value) in key.iter().enumerate() {
            group_data[column_index].push(value.clone());
        }
        for (sum, input_column) in sum_data.iter_mut().zip(&sum_inputs) {
            sum.push(rows.iter().map(|row| input_column[*row]).sum());
        }
    }

    let mut columns: Vec<Column> = Vec::with_capacity(fields.len());
    for (column_index, _) in group_by.iter().enumerate() {
        let values = &group_data[column_index];
        // The output column type follows the input schema (not the first
        // value) so that empty groupings still type-check.
        let column = match fields[column_index].1 {
            DataType::Utf8 => Column::Utf8(
                values
                    .iter()
                    .map(|value| value.as_str().unwrap_or_default().to_string())
                    .collect(),
            ),
            DataType::Int64 => Column::Int64(
                values
                    .iter()
                    .map(|value| value.as_int().unwrap_or(0))
                    .collect(),
            ),
        };
        columns.push(column);
    }
    for data in sum_data {
        columns.push(Column::Int64(data));
    }
    let schema = Schema { fields };
    Table::new(schema, columns)
}

/// Sort direction for [`sort`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SortOrder {
    /// Ascending order.
    Ascending,
    /// Descending order.
    Descending,
}

/// Sorts `input` by the given `(column, order)` keys.
pub(crate) fn sort(input: &Table, keys: &[(&str, SortOrder)]) -> Result<Table, String> {
    let key_columns: Vec<(&Column, SortOrder)> = keys
        .iter()
        .map(|(name, order)| {
            input
                .column(name)
                .map(|column| (column, *order))
                .ok_or_else(|| format!("no column named `{name}`"))
        })
        .collect::<Result<_, _>>()?;
    let mut indices: Vec<usize> = (0..input.rows()).collect();
    indices.sort_by(|a, b| {
        for (column, order) in &key_columns {
            let ordering = column.value(*a).cmp(&column.value(*b));
            let ordering = match order {
                SortOrder::Ascending => ordering,
                SortOrder::Descending => ordering.reverse(),
            };
            if ordering != std::cmp::Ordering::Equal {
                return ordering;
            }
        }
        std::cmp::Ordering::Equal
    });
    Ok(input.take(&indices))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn orders() -> Table {
        Table::new(
            Schema::new(&[
                ("order_id", DataType::Int64),
                ("cust_id", DataType::Int64),
                ("qty", DataType::Int64),
                ("price", DataType::Int64),
            ]),
            vec![
                Column::Int64(vec![1, 2, 3, 4, 5]),
                Column::Int64(vec![10, 20, 10, 30, 20]),
                Column::Int64(vec![5, 3, 8, 1, 9]),
                Column::Int64(vec![100, 250, 40, 900, 60]),
            ],
        )
        .unwrap()
    }

    fn customers() -> Table {
        Table::new(
            Schema::new(&[("cust_id", DataType::Int64), ("region", DataType::Utf8)]),
            vec![
                Column::Int64(vec![10, 20, 30]),
                Column::Utf8(vec!["ASIA".into(), "AMERICA".into(), "ASIA".into()]),
            ],
        )
        .unwrap()
    }

    #[test]
    fn filter_and_project() {
        let table = orders();
        let cheap = filter(&table, &Expr::col("price").lt(Expr::int(100))).unwrap();
        assert_eq!(cheap.rows(), 2);
        let revenue = project(
            &cheap,
            &[
                ("order_id", Expr::col("order_id")),
                ("revenue", Expr::col("qty").mul(Expr::col("price"))),
            ],
        )
        .unwrap();
        assert_eq!(revenue.int_column("revenue").unwrap(), &vec![320, 540]);
    }

    #[test]
    fn hash_join_matches_rows_and_renames_collisions() {
        let joined = hash_join(&orders(), "cust_id", &customers(), "cust_id").unwrap();
        assert_eq!(joined.rows(), 5);
        assert!(joined.column("right_cust_id").is_some());
        assert_eq!(
            joined.str_column("region").unwrap(),
            &vec!["ASIA", "AMERICA", "ASIA", "ASIA", "AMERICA"]
                .into_iter()
                .map(String::from)
                .collect::<Vec<_>>()
        );
        // Non-matching keys are dropped (inner join).
        let few_customers = customers().filter(&[true, false, false]);
        let joined = hash_join(&orders(), "cust_id", &few_customers, "cust_id").unwrap();
        assert_eq!(joined.rows(), 2);
    }

    #[test]
    fn aggregate_grouped_and_global() {
        let table = orders();
        let by_customer = aggregate(
            &table,
            &["cust_id"],
            &[("total_qty", "qty"), ("total_price", "price")],
        )
        .unwrap();
        assert_eq!(by_customer.rows(), 3);
        assert_eq!(
            by_customer.int_column("total_qty").unwrap(),
            &vec![13, 12, 1]
        );
        assert_eq!(
            by_customer.int_column("total_price").unwrap(),
            &vec![140, 310, 900]
        );

        let global = aggregate(&table, &[], &[("total_price", "price")]).unwrap();
        assert_eq!(global.rows(), 1);
        assert_eq!(global.int_column("total_price").unwrap(), &vec![1350]);
    }

    #[test]
    fn sort_and_limit() {
        let table = orders();
        let sorted = sort(&table, &[("price", SortOrder::Descending)]).unwrap();
        assert_eq!(
            sorted.int_column("price").unwrap(),
            &vec![900, 250, 100, 60, 40]
        );
        let top2 = sorted.take(&[0, 1]);
        assert_eq!(top2.rows(), 2);
        assert_eq!(top2.int_column("order_id").unwrap(), &vec![4, 2]);
        // Multi-key sort with string keys.
        let joined = hash_join(&orders(), "cust_id", &customers(), "cust_id").unwrap();
        let sorted = sort(
            &joined,
            &[
                ("region", SortOrder::Ascending),
                ("price", SortOrder::Ascending),
            ],
        )
        .unwrap();
        assert_eq!(sorted.str_column("region").unwrap()[0], "AMERICA");
    }

    #[test]
    fn operator_errors() {
        let table = orders();
        assert!(filter(&table, &Expr::col("missing").lt(Expr::int(1))).is_err());
        assert!(hash_join(&table, "missing", &customers(), "cust_id").is_err());
        assert!(aggregate(&table, &["nope"], &[("x", "qty")]).is_err());
        assert!(sort(&table, &[("nope", SortOrder::Ascending)]).is_err());
    }
}
