//! Scalar expressions and predicates over tables.

use crate::table::{Column, Table, Value};

/// A scalar expression evaluated row-wise over a table.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Expr {
    /// Reference to a column by name.
    Column(String),
    /// A literal value broadcast to every row.
    Literal(Value),
    /// Arithmetic or comparison between two expressions.
    Binary {
        /// Left operand.
        left: Box<Expr>,
        /// Operator.
        op: BinaryOp,
        /// Right operand.
        right: Box<Expr>,
    },
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BinaryOp {
    /// Subtraction (integers).
    Sub,
    /// Multiplication (integers).
    Mul,
    /// Equality (integers or strings).
    Eq,
    /// Less-than (integers).
    Lt,
    /// Less-or-equal (integers).
    LtEq,
    /// Greater-or-equal (integers).
    GtEq,
    /// Logical and (boolean-as-integer columns).
    And,
    /// Logical or (boolean-as-integer columns).
    Or,
}

impl Expr {
    /// Column reference.
    pub(crate) fn col(name: &str) -> Expr {
        Expr::Column(name.to_string())
    }

    /// Integer literal.
    pub(crate) fn int(value: i64) -> Expr {
        Expr::Literal(Value::Int(value))
    }

    /// String literal.
    pub(crate) fn str(value: &str) -> Expr {
        Expr::Literal(Value::Str(value.to_string()))
    }

    fn binary(self, op: BinaryOp, other: Expr) -> Expr {
        Expr::Binary {
            left: Box::new(self),
            op,
            right: Box::new(other),
        }
    }

    /// `self - other`
    #[allow(clippy::should_implement_trait)]
    pub(crate) fn sub(self, other: Expr) -> Expr {
        self.binary(BinaryOp::Sub, other)
    }

    /// `self * other`
    #[allow(clippy::should_implement_trait)]
    pub(crate) fn mul(self, other: Expr) -> Expr {
        self.binary(BinaryOp::Mul, other)
    }

    /// `self = other`
    pub(crate) fn eq(self, other: Expr) -> Expr {
        self.binary(BinaryOp::Eq, other)
    }

    /// `self < other`
    pub(crate) fn lt(self, other: Expr) -> Expr {
        self.binary(BinaryOp::Lt, other)
    }

    /// `self <= other`
    pub(crate) fn lt_eq(self, other: Expr) -> Expr {
        self.binary(BinaryOp::LtEq, other)
    }

    /// `self >= other`
    pub(crate) fn gt_eq(self, other: Expr) -> Expr {
        self.binary(BinaryOp::GtEq, other)
    }

    /// `self AND other`
    pub(crate) fn and(self, other: Expr) -> Expr {
        self.binary(BinaryOp::And, other)
    }

    /// `self OR other`
    pub(crate) fn or(self, other: Expr) -> Expr {
        self.binary(BinaryOp::Or, other)
    }

    /// `low <= self <= high`
    pub(crate) fn between(self, low: i64, high: i64) -> Expr {
        self.clone()
            .gt_eq(Expr::int(low))
            .and(self.lt_eq(Expr::int(high)))
    }

    /// Evaluates the expression over every row of `table`.
    pub(crate) fn evaluate(&self, table: &Table) -> Result<Column, String> {
        match self {
            Expr::Column(name) => table
                .column(name)
                .cloned()
                .ok_or_else(|| format!("no column named `{name}`")),
            Expr::Literal(value) => {
                let rows = table.rows();
                Ok(match value {
                    Value::Int(v) => Column::Int64(vec![*v; rows]),
                    Value::Str(v) => Column::Utf8(vec![v.clone(); rows]),
                })
            }
            Expr::Binary { left, op, right } => {
                let left = left.evaluate(table)?;
                let right = right.evaluate(table)?;
                evaluate_binary(&left, *op, &right)
            }
        }
    }

    /// Evaluates the expression as a row-selection mask.
    ///
    /// The expression must produce an integer column where non-zero means
    /// "keep the row".
    pub(crate) fn evaluate_mask(&self, table: &Table) -> Result<Vec<bool>, String> {
        match self.evaluate(table)? {
            Column::Int64(values) => Ok(values.into_iter().map(|value| value != 0).collect()),
            Column::Utf8(_) => Err("predicate did not evaluate to a boolean column".to_string()),
        }
    }
}

fn evaluate_binary(left: &Column, op: BinaryOp, right: &Column) -> Result<Column, String> {
    match (left, right) {
        (Column::Int64(left), Column::Int64(right)) => {
            let values: Vec<i64> = left
                .iter()
                .zip(right)
                .map(|(l, r)| apply_int(*l, op, *r))
                .collect::<Result<_, String>>()?;
            Ok(Column::Int64(values))
        }
        (Column::Utf8(left), Column::Utf8(right)) => {
            let values: Vec<i64> = left
                .iter()
                .zip(right)
                .map(|(l, r)| match op {
                    BinaryOp::Eq => Ok((l == r) as i64),
                    BinaryOp::Lt => Ok((l < r) as i64),
                    other => Err(format!("operator {other:?} is not defined on strings")),
                })
                .collect::<Result<_, String>>()?;
            Ok(Column::Int64(values))
        }
        _ => Err("binary expression over mismatched column types".to_string()),
    }
}

fn apply_int(left: i64, op: BinaryOp, right: i64) -> Result<i64, String> {
    Ok(match op {
        BinaryOp::Sub => left.wrapping_sub(right),
        BinaryOp::Mul => left.wrapping_mul(right),
        BinaryOp::Eq => (left == right) as i64,
        BinaryOp::Lt => (left < right) as i64,
        BinaryOp::LtEq => (left <= right) as i64,
        BinaryOp::GtEq => (left >= right) as i64,
        BinaryOp::And => ((left != 0) && (right != 0)) as i64,
        BinaryOp::Or => ((left != 0) || (right != 0)) as i64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::{DataType, Schema};

    fn table() -> Table {
        Table::new(
            Schema::new(&[
                ("qty", DataType::Int64),
                ("price", DataType::Int64),
                ("region", DataType::Utf8),
            ]),
            vec![
                Column::Int64(vec![10, 20, 30]),
                Column::Int64(vec![5, 7, 9]),
                Column::Utf8(vec!["ASIA".into(), "AMERICA".into(), "ASIA".into()]),
            ],
        )
        .unwrap()
    }

    #[test]
    fn arithmetic_and_comparison() {
        let table = table();
        let revenue = Expr::col("qty")
            .mul(Expr::col("price"))
            .evaluate(&table)
            .unwrap();
        assert_eq!(revenue, Column::Int64(vec![50, 140, 270]));
        let mask = Expr::col("qty")
            .lt(Expr::int(25))
            .evaluate_mask(&table)
            .unwrap();
        assert_eq!(mask, vec![true, true, false]);
        let between = Expr::col("qty")
            .between(15, 30)
            .evaluate_mask(&table)
            .unwrap();
        assert_eq!(between, vec![false, true, true]);
    }

    #[test]
    fn string_predicates_and_conjunction() {
        let table = table();
        let mask = Expr::col("region")
            .eq(Expr::str("ASIA"))
            .and(Expr::col("price").gt_eq(Expr::int(6)))
            .evaluate_mask(&table)
            .unwrap();
        assert_eq!(mask, vec![false, false, true]);
        let either = Expr::col("region")
            .eq(Expr::str("AMERICA"))
            .or(Expr::col("qty").eq(Expr::int(10)))
            .evaluate_mask(&table)
            .unwrap();
        assert_eq!(either, vec![true, true, false]);
    }

    #[test]
    fn errors_are_reported() {
        let table = table();
        assert!(Expr::col("missing").evaluate(&table).is_err());
        assert!(Expr::col("region")
            .sub(Expr::str("x"))
            .evaluate(&table)
            .is_err());
        assert!(Expr::col("region")
            .eq(Expr::int(1))
            .evaluate(&table)
            .is_err());
        assert!(Expr::col("region").evaluate_mask(&table).is_err());
    }
}
