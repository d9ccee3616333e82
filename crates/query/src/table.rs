//! Columnar tables.

use std::fmt;

/// The type of a column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DataType {
    /// 64-bit signed integers (also used for keys, dates and prices).
    Int64,
    /// UTF-8 strings.
    Utf8,
}

/// A single scalar value.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Value {
    /// An integer value.
    Int(i64),
    /// A string value.
    Str(String),
}

impl Value {
    /// Returns the integer value, if this is an integer.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(value) => Some(*value),
            Value::Str(_) => None,
        }
    }

    /// Returns the string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(value) => Some(value),
            Value::Int(_) => None,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(value) => write!(f, "{value}"),
            Value::Str(value) => f.write_str(value),
        }
    }
}

/// A column of values.
#[derive(Debug, Clone, PartialEq)]
pub enum Column {
    /// Integer column.
    Int64(Vec<i64>),
    /// String column.
    Utf8(Vec<String>),
}

impl Column {
    /// The number of rows.
    pub fn len(&self) -> usize {
        match self {
            Column::Int64(values) => values.len(),
            Column::Utf8(values) => values.len(),
        }
    }

    /// Returns `true` when the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The column's data type.
    pub fn data_type(&self) -> DataType {
        match self {
            Column::Int64(_) => DataType::Int64,
            Column::Utf8(_) => DataType::Utf8,
        }
    }

    /// The value at `row`.
    pub fn value(&self, row: usize) -> Value {
        match self {
            Column::Int64(values) => Value::Int(values[row]),
            Column::Utf8(values) => Value::Str(values[row].clone()),
        }
    }

    /// Keeps only the rows selected by `mask`.
    pub fn filter(&self, mask: &[bool]) -> Column {
        match self {
            Column::Int64(values) => Column::Int64(
                values
                    .iter()
                    .zip(mask)
                    .filter(|(_, keep)| **keep)
                    .map(|(value, _)| *value)
                    .collect(),
            ),
            Column::Utf8(values) => Column::Utf8(
                values
                    .iter()
                    .zip(mask)
                    .filter(|(_, keep)| **keep)
                    .map(|(value, _)| value.clone())
                    .collect(),
            ),
        }
    }

    /// Gathers the rows at `indices`.
    pub fn take(&self, indices: &[usize]) -> Column {
        match self {
            Column::Int64(values) => {
                Column::Int64(indices.iter().map(|index| values[*index]).collect())
            }
            Column::Utf8(values) => {
                Column::Utf8(indices.iter().map(|index| values[*index].clone()).collect())
            }
        }
    }

    /// Approximate in-memory size in bytes.
    pub fn byte_size(&self) -> usize {
        match self {
            Column::Int64(values) => values.len() * 8,
            Column::Utf8(values) => values.iter().map(|value| value.len() + 16).sum(),
        }
    }
}

/// Column names and types.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Schema {
    /// `(name, type)` pairs in column order.
    pub fields: Vec<(String, DataType)>,
}

impl Schema {
    /// Creates a schema from `(name, type)` pairs.
    pub fn new(fields: &[(&str, DataType)]) -> Self {
        Self {
            fields: fields
                .iter()
                .map(|(name, ty)| (name.to_string(), *ty))
                .collect(),
        }
    }

    /// The index of the column named `name`.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.fields.iter().position(|(field, _)| field == name)
    }

    /// The number of columns.
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// Returns `true` for a schema without columns.
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }
}

/// A columnar table: a schema plus equally long columns.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Table {
    /// The schema.
    pub schema: Schema,
    /// The columns, in schema order.
    pub columns: Vec<Column>,
}

impl Table {
    /// Creates a table, validating that all columns have equal length and
    /// match the schema's types.
    pub fn new(schema: Schema, columns: Vec<Column>) -> Result<Self, String> {
        if schema.len() != columns.len() {
            return Err(format!(
                "schema has {} fields but {} columns were provided",
                schema.len(),
                columns.len()
            ));
        }
        let row_count = columns.first().map(Column::len).unwrap_or(0);
        for ((name, data_type), column) in schema.fields.iter().zip(&columns) {
            if column.len() != row_count {
                return Err(format!("column `{name}` has inconsistent length"));
            }
            if column.data_type() != *data_type {
                return Err(format!("column `{name}` has the wrong type"));
            }
        }
        Ok(Self { schema, columns })
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.columns.first().map(Column::len).unwrap_or(0)
    }

    /// The column named `name`.
    pub fn column(&self, name: &str) -> Option<&Column> {
        self.schema.index_of(name).map(|index| &self.columns[index])
    }

    /// Integer column accessor (errors if missing or not Int64).
    pub fn int_column(&self, name: &str) -> Result<&Vec<i64>, String> {
        match self.column(name) {
            Some(Column::Int64(values)) => Ok(values),
            Some(_) => Err(format!("column `{name}` is not Int64")),
            None => Err(format!("no column named `{name}`")),
        }
    }

    /// String column accessor (errors if missing or not Utf8).
    pub fn str_column(&self, name: &str) -> Result<&Vec<String>, String> {
        match self.column(name) {
            Some(Column::Utf8(values)) => Ok(values),
            Some(_) => Err(format!("column `{name}` is not Utf8")),
            None => Err(format!("no column named `{name}`")),
        }
    }

    /// Keeps only the rows selected by `mask`.
    pub fn filter(&self, mask: &[bool]) -> Table {
        Table {
            schema: self.schema.clone(),
            columns: self
                .columns
                .iter()
                .map(|column| column.filter(mask))
                .collect(),
        }
    }

    /// Gathers the rows at `indices`.
    pub fn take(&self, indices: &[usize]) -> Table {
        Table {
            schema: self.schema.clone(),
            columns: self
                .columns
                .iter()
                .map(|column| column.take(indices))
                .collect(),
        }
    }

    /// Splits the table into `parts` horizontal partitions of near-equal
    /// size (the last partition absorbs the remainder).
    pub fn partition(&self, parts: usize) -> Vec<Table> {
        let parts = parts.max(1);
        let rows = self.rows();
        let chunk = rows.div_ceil(parts);
        (0..parts)
            .map(|part| {
                let start = (part * chunk).min(rows);
                let end = ((part + 1) * chunk).min(rows);
                let indices: Vec<usize> = (start..end).collect();
                self.take(&indices)
            })
            .collect()
    }

    /// Concatenates tables with identical schemas.
    pub fn concat(tables: &[Table]) -> Result<Table, String> {
        let Some(first) = tables.first() else {
            return Ok(Table::default());
        };
        let mut columns = first.columns.clone();
        for table in &tables[1..] {
            if table.schema != first.schema {
                return Err("cannot concatenate tables with different schemas".to_string());
            }
            for (target, source) in columns.iter_mut().zip(&table.columns) {
                match (target, source) {
                    (Column::Int64(target), Column::Int64(source)) => {
                        target.extend_from_slice(source)
                    }
                    (Column::Utf8(target), Column::Utf8(source)) => {
                        target.extend(source.iter().cloned())
                    }
                    _ => return Err("column type mismatch".to_string()),
                }
            }
        }
        Ok(Table {
            schema: first.schema.clone(),
            columns,
        })
    }

    /// Approximate in-memory size in bytes.
    pub fn byte_size(&self) -> usize {
        self.columns.iter().map(Column::byte_size).sum()
    }

    /// Serializes the table as CSV (header + rows).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        self.write_csv(&mut out)
            .expect("a string accepts every write");
        out
    }

    /// Writes what [`Table::to_csv`] returns into `out`, cell by cell.
    pub fn write_csv(&self, out: &mut impl std::fmt::Write) -> std::fmt::Result {
        for (index, (name, _)) in self.schema.fields.iter().enumerate() {
            if index > 0 {
                out.write_char(',')?;
            }
            out.write_str(name)?;
        }
        for row in 0..self.rows() {
            out.write_char('\n')?;
            for (index, column) in self.columns.iter().enumerate() {
                if index > 0 {
                    out.write_char(',')?;
                }
                write!(out, "{}", column.value(row))?;
            }
        }
        Ok(())
    }

    /// Parses a CSV produced by [`Table::to_csv`], using `schema` for types.
    pub fn from_csv(schema: Schema, csv: &str) -> Result<Table, String> {
        let mut lines = csv.lines();
        let header = lines.next().ok_or("empty CSV")?;
        let names: Vec<&str> = header.split(',').collect();
        if names.len() != schema.len() {
            return Err(format!(
                "CSV has {} columns but the schema expects {}",
                names.len(),
                schema.len()
            ));
        }
        let mut columns: Vec<Column> = schema
            .fields
            .iter()
            .map(|(_, data_type)| match data_type {
                DataType::Int64 => Column::Int64(Vec::new()),
                DataType::Utf8 => Column::Utf8(Vec::new()),
            })
            .collect();
        for line in lines {
            if line.is_empty() {
                continue;
            }
            let cells: Vec<&str> = line.split(',').collect();
            if cells.len() != schema.len() {
                return Err(format!(
                    "row has {} cells, expected {}",
                    cells.len(),
                    schema.len()
                ));
            }
            for (column, cell) in columns.iter_mut().zip(cells) {
                match column {
                    Column::Int64(values) => values.push(
                        cell.trim()
                            .parse()
                            .map_err(|_| format!("`{cell}` is not an integer"))?,
                    ),
                    Column::Utf8(values) => values.push(cell.to_string()),
                }
            }
        }
        Table::new(schema, columns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        Table::new(
            Schema::new(&[("id", DataType::Int64), ("name", DataType::Utf8)]),
            vec![
                Column::Int64(vec![1, 2, 3, 4]),
                Column::Utf8(vec!["a".into(), "b".into(), "c".into(), "d".into()]),
            ],
        )
        .unwrap()
    }

    #[test]
    fn construction_validates_shape() {
        assert!(Table::new(
            Schema::new(&[("id", DataType::Int64)]),
            vec![Column::Utf8(vec!["x".into()])]
        )
        .is_err());
        assert!(Table::new(
            Schema::new(&[("id", DataType::Int64), ("name", DataType::Utf8)]),
            vec![Column::Int64(vec![1]), Column::Utf8(vec![])]
        )
        .is_err());
        let table = sample();
        assert_eq!(table.rows(), 4);
        assert_eq!(table.byte_size(), 4 * 8 + 4 * 17);
    }

    #[test]
    fn filter_take_and_partition() {
        let table = sample();
        let filtered = table.filter(&[true, false, true, false]);
        assert_eq!(filtered.rows(), 2);
        assert_eq!(filtered.int_column("id").unwrap(), &vec![1, 3]);
        let taken = table.take(&[3, 0]);
        assert_eq!(
            taken.str_column("name").unwrap(),
            &vec!["d".to_string(), "a".to_string()]
        );
        let parts = table.partition(3);
        assert_eq!(parts.len(), 3);
        assert_eq!(parts.iter().map(Table::rows).sum::<usize>(), 4);
        let rejoined = Table::concat(&parts).unwrap();
        assert_eq!(rejoined, table);
    }

    #[test]
    fn csv_roundtrip() {
        let table = sample();
        let csv = table.to_csv();
        assert!(csv.starts_with("id,name\n1,a"));
        let parsed = Table::from_csv(table.schema.clone(), &csv).unwrap();
        assert_eq!(parsed, table);
        assert!(Table::from_csv(table.schema.clone(), "id\n1").is_err());
        assert!(Table::from_csv(table.schema.clone(), "id,name\nx,a").is_err());
    }

    #[test]
    fn accessors_report_missing_columns() {
        let table = sample();
        assert!(table.int_column("name").is_err());
        assert!(table.str_column("missing").is_err());
        assert_eq!(table.column("id").unwrap().value(2), Value::Int(3));
        assert_eq!(Value::Str("a".into()).as_str(), Some("a"));
        assert_eq!(Value::Int(7).as_int(), Some(7));
    }
}
