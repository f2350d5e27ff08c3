//! The [`Table`]: an ordered collection of equal-length named columns.

use std::fmt;

use crate::bitmap::Bitmap;
use crate::column::Column;
use crate::error::{Result, TableError};
use crate::schema::{Field, Schema};
use crate::value::Value;

/// An immutable-by-convention relational table.
///
/// Columns are stored columnar-first; all row-level access goes through
/// per-column typed accessors. Mutating operations (`add_column`,
/// `drop_column`) take `&mut self`; relational operations (`filter`,
/// `select`, joins, group-by) return new tables.
#[derive(Debug, Clone)]
pub struct Table {
    schema: Schema,
    columns: Vec<Column>,
    n_rows: usize,
}

impl Table {
    /// Builds a table from `(name, column)` pairs.
    ///
    /// All columns must have equal length and names must be unique.
    pub fn new(columns: Vec<(impl Into<String>, Column)>) -> Result<Self> {
        let mut schema = Schema::empty();
        let mut cols = Vec::with_capacity(columns.len());
        let mut n_rows: Option<usize> = None;
        for (name, col) in columns {
            let name = name.into();
            match n_rows {
                None => n_rows = Some(col.len()),
                Some(n) if n != col.len() => {
                    return Err(TableError::LengthMismatch {
                        expected: n,
                        actual: col.len(),
                    })
                }
                _ => {}
            }
            schema.push(Field::new(name, col.dtype()))?;
            cols.push(col);
        }
        Ok(Table {
            schema,
            columns: cols,
            n_rows: n_rows.unwrap_or(0),
        })
    }

    /// An empty, zero-column, zero-row table.
    pub fn empty() -> Self {
        Table {
            schema: Schema::empty(),
            columns: Vec::new(),
            n_rows: 0,
        }
    }

    /// Number of rows.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of columns.
    pub fn n_cols(&self) -> usize {
        self.columns.len()
    }

    /// Approximate heap footprint in bytes: every column plus the schema
    /// names (see [`Column::approx_bytes`]).
    pub fn approx_bytes(&self) -> u64 {
        let names: usize = self.schema.names().iter().map(|n| n.len() + 48).sum();
        self.columns.iter().map(Column::approx_bytes).sum::<u64>() + names as u64
    }

    /// The table schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Column names in order.
    pub fn column_names(&self) -> Vec<&str> {
        self.schema.names()
    }

    /// The column named `name`.
    pub fn column(&self, name: &str) -> Result<&Column> {
        let i = self.schema.index_of(name)?;
        Ok(&self.columns[i])
    }

    /// The column at position `i`.
    pub fn column_at(&self, i: usize) -> &Column {
        &self.columns[i]
    }

    /// Whether a column named `name` exists.
    pub fn has_column(&self, name: &str) -> bool {
        self.schema.contains(name)
    }

    /// The value at `(row, column)`.
    pub fn value(&self, row: usize, name: &str) -> Result<Value> {
        if row >= self.n_rows {
            return Err(TableError::RowOutOfBounds {
                row,
                len: self.n_rows,
            });
        }
        Ok(self.column(name)?.value(row))
    }

    /// Appends a column.
    ///
    /// The column must match the table's row count (any length is accepted
    /// on a zero-column table).
    pub fn add_column(&mut self, name: impl Into<String>, col: Column) -> Result<()> {
        if !self.columns.is_empty() && col.len() != self.n_rows {
            return Err(TableError::LengthMismatch {
                expected: self.n_rows,
                actual: col.len(),
            });
        }
        if self.columns.is_empty() {
            self.n_rows = col.len();
        }
        self.schema.push(Field::new(name, col.dtype()))?;
        self.columns.push(col);
        Ok(())
    }

    /// Removes and returns the column named `name`.
    pub fn drop_column(&mut self, name: &str) -> Result<Column> {
        let i = self.schema.index_of(name)?;
        self.schema.remove(i);
        Ok(self.columns.remove(i))
    }

    /// Replaces the column named `name`, keeping its position.
    pub fn replace_column(&mut self, name: &str, col: Column) -> Result<()> {
        let i = self.schema.index_of(name)?;
        if col.len() != self.n_rows {
            return Err(TableError::LengthMismatch {
                expected: self.n_rows,
                actual: col.len(),
            });
        }
        // Recreate the field to pick up a possible dtype change.
        let field = Field::new(name, col.dtype());
        self.schema.remove(i);
        // Re-insert at the same position by rebuilding the schema.
        let mut fields: Vec<Field> = self.schema.fields().to_vec();
        fields.insert(i, field);
        self.schema = Schema::new(fields)?;
        self.columns[i] = col;
        Ok(())
    }

    /// A new table with only the named columns, in the given order.
    pub fn select(&self, names: &[&str]) -> Result<Table> {
        let mut cols = Vec::with_capacity(names.len());
        for &n in names {
            cols.push((n.to_string(), self.column(n)?.clone()));
        }
        Table::new(cols)
    }

    /// A new table with the rows whose mask bit is set.
    pub fn filter(&self, mask: &Bitmap) -> Result<Table> {
        if mask.len() != self.n_rows {
            return Err(TableError::LengthMismatch {
                expected: self.n_rows,
                actual: mask.len(),
            });
        }
        let indices: Vec<usize> = mask.iter_ones().collect();
        Ok(self.gather(&indices))
    }

    /// A new table with the rows at `indices` (duplicates allowed).
    pub fn gather(&self, indices: &[usize]) -> Table {
        let columns = self
            .columns
            .iter()
            .map(|c| c.gather(indices))
            .collect::<Vec<_>>();
        Table {
            schema: self.schema.clone(),
            columns,
            n_rows: indices.len(),
        }
    }

    /// A new table sorted by the named column (nulls last). Strings sort
    /// lexicographically, numerics numerically, booleans false-first.
    pub fn sort_by_column(&self, name: &str, descending: bool) -> Result<Table> {
        let col = self.column(name)?;
        let mut indices: Vec<usize> = (0..self.n_rows).collect();
        let key = |i: usize| -> (u8, f64, String) {
            if col.is_null(i) {
                return (2, 0.0, String::new());
            }
            match col.value(i) {
                Value::Int(v) => (0, v as f64, String::new()),
                Value::Float(v) => (0, v, String::new()),
                Value::Bool(b) => (0, b as u8 as f64, String::new()),
                Value::Str(s) => (1, 0.0, s),
                Value::Null => (2, 0.0, String::new()),
            }
        };
        indices.sort_by(|&a, &b| {
            let (ta, na, sa) = key(a);
            let (tb, nb, sb) = key(b);
            let ord = ta
                .cmp(&tb)
                .then(na.partial_cmp(&nb).unwrap_or(std::cmp::Ordering::Equal))
                .then(sa.cmp(&sb));
            if descending && ta < 2 && tb < 2 {
                ord.reverse()
            } else {
                ord
            }
        });
        Ok(self.gather(&indices))
    }

    /// The first `n` rows (fewer if the table is shorter).
    pub fn head(&self, n: usize) -> Table {
        let n = n.min(self.n_rows);
        let indices: Vec<usize> = (0..n).collect();
        self.gather(&indices)
    }

    /// Renders up to `max_rows` rows as an aligned text table.
    pub fn to_display(&self, max_rows: usize) -> String {
        let names = self.column_names();
        let shown = self.n_rows.min(max_rows);
        let mut cells: Vec<Vec<String>> = Vec::with_capacity(shown + 1);
        cells.push(names.iter().map(|s| s.to_string()).collect());
        for r in 0..shown {
            cells.push(
                self.columns
                    .iter()
                    .map(|c| c.value(r).to_string())
                    .collect(),
            );
        }
        let n_cols = names.len();
        let mut widths = vec![0usize; n_cols];
        for row in &cells {
            for (j, cell) in row.iter().enumerate() {
                widths[j] = widths[j].max(cell.len());
            }
        }
        let mut out = String::new();
        for (i, row) in cells.iter().enumerate() {
            let line: Vec<String> = row
                .iter()
                .enumerate()
                .map(|(j, cell)| format!("{:width$}", cell, width = widths[j]))
                .collect();
            out.push_str(line.join("  ").trim_end());
            out.push('\n');
            if i == 0 {
                let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
                out.push_str(&sep.join("  "));
                out.push('\n');
            }
        }
        if self.n_rows > shown {
            out.push_str(&format!("… ({} more rows)\n", self.n_rows - shown));
        }
        out
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_display(20))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::DataType;

    fn sample() -> Table {
        Table::new(vec![
            ("country", Column::from_strs(&["us", "fr", "us", "de"])),
            ("salary", Column::from_f64(vec![90.0, 60.0, 85.0, 70.0])),
            ("age", Column::from_i64(vec![30, 40, 35, 50])),
        ])
        .unwrap()
    }

    #[test]
    fn construction_and_access() {
        let t = sample();
        assert_eq!(t.n_rows(), 4);
        assert_eq!(t.n_cols(), 3);
        assert_eq!(t.value(1, "country").unwrap(), Value::Str("fr".into()));
        assert_eq!(t.value(2, "salary").unwrap(), Value::Float(85.0));
        assert!(t.value(9, "salary").is_err());
        assert!(t.column("nope").is_err());
        assert_eq!(t.schema().field(0).dtype, DataType::Utf8);
    }

    #[test]
    fn length_mismatch_rejected() {
        let r = Table::new(vec![
            ("a", Column::from_i64(vec![1, 2])),
            ("b", Column::from_i64(vec![1])),
        ]);
        assert!(matches!(r, Err(TableError::LengthMismatch { .. })));
    }

    #[test]
    fn add_drop_replace() {
        let mut t = sample();
        t.add_column("bonus", Column::from_f64(vec![1.0, 2.0, 3.0, 4.0]))
            .unwrap();
        assert_eq!(t.n_cols(), 4);
        assert!(t.add_column("short", Column::from_i64(vec![1])).is_err());
        let dropped = t.drop_column("age").unwrap();
        assert_eq!(dropped.len(), 4);
        assert!(!t.has_column("age"));
        // Replace keeps position and can change dtype.
        t.replace_column("salary", Column::from_i64(vec![1, 2, 3, 4]))
            .unwrap();
        assert_eq!(t.schema().index_of("salary").unwrap(), 1);
        assert_eq!(t.column("salary").unwrap().dtype(), DataType::Int64);
    }

    #[test]
    fn select_and_filter() {
        let t = sample();
        let s = t.select(&["salary", "country"]).unwrap();
        assert_eq!(s.column_names(), vec!["salary", "country"]);
        let mask: Bitmap = vec![true, false, true, false].into_iter().collect();
        let f = t.filter(&mask).unwrap();
        assert_eq!(f.n_rows(), 2);
        assert_eq!(f.value(1, "country").unwrap(), Value::Str("us".into()));
        let bad: Bitmap = vec![true].into_iter().collect();
        assert!(t.filter(&bad).is_err());
    }

    #[test]
    fn gather_and_head() {
        let t = sample();
        let g = t.gather(&[3, 3, 0]);
        assert_eq!(g.n_rows(), 3);
        assert_eq!(g.value(0, "country").unwrap(), Value::Str("de".into()));
        let h = t.head(2);
        assert_eq!(h.n_rows(), 2);
        let h = t.head(100);
        assert_eq!(h.n_rows(), 4);
    }

    #[test]
    fn sort_by_column_orders_rows() {
        let t = sample();
        let asc = t.sort_by_column("salary", false).unwrap();
        let vals: Vec<f64> = (0..4)
            .map(|i| asc.value(i, "salary").unwrap().as_f64().unwrap())
            .collect();
        assert_eq!(vals, vec![60.0, 70.0, 85.0, 90.0]);
        let desc = t.sort_by_column("salary", true).unwrap();
        assert_eq!(desc.value(0, "salary").unwrap(), Value::Float(90.0));
        let by_name = t.sort_by_column("country", false).unwrap();
        assert_eq!(
            by_name.value(0, "country").unwrap(),
            Value::Str("de".into())
        );
        assert!(t.sort_by_column("nope", false).is_err());
    }

    #[test]
    fn sort_places_nulls_last() {
        let t = Table::new(vec![(
            "v",
            Column::from_opt_i64(vec![Some(3), None, Some(1)]),
        )])
        .unwrap();
        let sorted = t.sort_by_column("v", true).unwrap();
        assert_eq!(sorted.value(0, "v").unwrap(), Value::Int(3));
        assert_eq!(sorted.value(2, "v").unwrap(), Value::Null);
    }

    #[test]
    fn display_renders_all_columns() {
        let t = sample();
        let s = t.to_display(10);
        assert!(s.contains("country") && s.contains("salary") && s.contains("age"));
        assert!(s.contains("de"));
        let s2 = t.to_display(2);
        assert!(s2.contains("more rows"));
    }

    #[test]
    fn empty_table() {
        let t = Table::empty();
        assert_eq!(t.n_rows(), 0);
        assert_eq!(t.n_cols(), 0);
        let mut t = Table::empty();
        t.add_column("x", Column::from_i64(vec![1, 2])).unwrap();
        assert_eq!(t.n_rows(), 2);
    }
}
