//! Table schemas and index definitions.
//!
//! Mirrors the user interface of paper §3.3 / Figure 3: a table has a
//! primary key index, optional secondary indexes, and an optional
//! *column index* covering a chosen subset of columns.

use crate::codec::{put_str, put_u32, put_u64, ByteReader};
use crate::error::{Error, Result};
use crate::ids::{PageId, TableId};
use crate::value::{DataType, Value};
use serde::{Deserialize, Serialize};

/// Definition of one column.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ColumnDef {
    /// Column name (lower-cased at parse time).
    pub name: String,
    /// Declared data type.
    pub ty: DataType,
    /// Whether NULL is allowed.
    pub nullable: bool,
}

impl ColumnDef {
    /// Convenience constructor for a nullable column.
    pub fn new(name: impl Into<String>, ty: DataType) -> ColumnDef {
        ColumnDef {
            name: name.into(),
            ty,
            nullable: true,
        }
    }

    /// Convenience constructor for a NOT NULL column.
    pub fn not_null(name: impl Into<String>, ty: DataType) -> ColumnDef {
        ColumnDef {
            name: name.into(),
            ty,
            nullable: false,
        }
    }
}

/// Kind of an index declared on a table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum IndexKind {
    /// Primary key (row store is organized by it).
    Primary,
    /// Secondary B+tree index in the row store.
    Secondary,
    /// In-memory column index on the RO nodes (the paper's IMCI).
    Column,
}

/// A declared index: kind + covered column positions.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct IndexDef {
    /// Index kind.
    pub kind: IndexKind,
    /// Index name (e.g. `SEC_INDEX`); primary key is `PRIMARY`.
    pub name: String,
    /// Ordinal positions of covered columns in the table schema.
    pub columns: Vec<usize>,
}

/// A table schema: columns plus index definitions.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Schema {
    /// Table id assigned by the catalog.
    pub table_id: TableId,
    /// Table name (lower-cased).
    pub name: String,
    /// Ordered column definitions.
    pub columns: Vec<ColumnDef>,
    /// Indexes; exactly one must be `IndexKind::Primary` over one column.
    pub indexes: Vec<IndexDef>,
}

impl Schema {
    /// Build a schema, validating the primary key declaration.
    pub fn new(
        table_id: TableId,
        name: impl Into<String>,
        columns: Vec<ColumnDef>,
        indexes: Vec<IndexDef>,
    ) -> Result<Schema> {
        let name = name.into().to_ascii_lowercase();
        let pk: Vec<&IndexDef> = indexes
            .iter()
            .filter(|i| i.kind == IndexKind::Primary)
            .collect();
        if pk.len() != 1 {
            return Err(Error::Catalog(format!(
                "table {name} must declare exactly one primary key (got {})",
                pk.len()
            )));
        }
        if pk[0].columns.len() != 1 {
            return Err(Error::Unsupported(format!(
                "table {name}: composite primary keys are not supported in this reproduction"
            )));
        }
        let pk_col = pk[0].columns[0];
        if pk_col >= columns.len() {
            return Err(Error::Catalog(format!(
                "table {name}: primary key column index {pk_col} out of range"
            )));
        }
        if columns[pk_col].ty != DataType::Int {
            return Err(Error::Unsupported(format!(
                "table {name}: primary key must be INT in this reproduction"
            )));
        }
        for idx in &indexes {
            for &c in &idx.columns {
                if c >= columns.len() {
                    return Err(Error::Catalog(format!(
                        "table {name}: index {} references column {c} out of range",
                        idx.name
                    )));
                }
            }
        }
        Ok(Schema {
            table_id,
            name,
            columns,
            indexes,
        })
    }

    /// Ordinal of the primary key column.
    pub fn pk_col(&self) -> usize {
        self.indexes
            .iter()
            .find(|i| i.kind == IndexKind::Primary)
            .expect("validated at construction")
            .columns[0]
    }

    /// Columns covered by the column index (empty slice = none declared).
    pub fn column_index_cols(&self) -> &[usize] {
        self.indexes
            .iter()
            .find(|i| i.kind == IndexKind::Column)
            .map(|i| i.columns.as_slice())
            .unwrap_or(&[])
    }

    /// Whether a column index exists on this table.
    pub fn has_column_index(&self) -> bool {
        self.indexes.iter().any(|i| i.kind == IndexKind::Column)
    }

    /// Secondary index definitions.
    pub fn secondary_indexes(&self) -> impl Iterator<Item = &IndexDef> {
        self.indexes
            .iter()
            .filter(|i| i.kind == IndexKind::Secondary)
    }

    /// Find a column ordinal by (case-insensitive) name.
    pub fn col_index(&self, name: &str) -> Option<usize> {
        let lower = name.to_ascii_lowercase();
        self.columns.iter().position(|c| c.name == lower)
    }

    /// Number of columns.
    pub fn width(&self) -> usize {
        self.columns.len()
    }

    /// Extract the primary key (INT) from a row's values.
    pub fn pk_of(&self, values: &[Value]) -> Result<i64> {
        values
            .get(self.pk_col())
            .and_then(|v| v.as_int())
            .ok_or_else(|| {
                Error::Constraint(format!(
                    "table {}: row missing integer primary key",
                    self.name
                ))
            })
    }

    /// Validate a row against the schema (arity, types, NOT NULL).
    pub fn validate_row(&self, values: &[Value]) -> Result<()> {
        if values.len() != self.columns.len() {
            return Err(Error::Constraint(format!(
                "table {}: expected {} values, got {}",
                self.name,
                self.columns.len(),
                values.len()
            )));
        }
        for (v, c) in values.iter().zip(&self.columns) {
            match v.data_type() {
                None => {
                    if !c.nullable {
                        return Err(Error::Constraint(format!(
                            "table {}: column {} is NOT NULL",
                            self.name, c.name
                        )));
                    }
                }
                Some(t) if t == c.ty => {}
                Some(t) => {
                    return Err(Error::Constraint(format!(
                        "table {}: column {} expects {}, got {}",
                        self.name, c.name, c.ty, t
                    )));
                }
            }
        }
        Ok(())
    }
}

// ---- binary codec (DDL log records, catalog snapshots) ----

fn datatype_tag(ty: DataType) -> u8 {
    match ty {
        DataType::Int => 0,
        DataType::Double => 1,
        DataType::Str => 2,
        DataType::Date => 3,
    }
}

fn datatype_from_tag(tag: u8) -> Result<DataType> {
    match tag {
        0 => Ok(DataType::Int),
        1 => Ok(DataType::Double),
        2 => Ok(DataType::Str),
        3 => Ok(DataType::Date),
        t => Err(Error::Storage(format!("unknown data type tag {t}"))),
    }
}

fn indexkind_tag(kind: IndexKind) -> u8 {
    match kind {
        IndexKind::Primary => 0,
        IndexKind::Secondary => 1,
        IndexKind::Column => 2,
    }
}

fn indexkind_from_tag(tag: u8) -> Result<IndexKind> {
    match tag {
        0 => Ok(IndexKind::Primary),
        1 => Ok(IndexKind::Secondary),
        2 => Ok(IndexKind::Column),
        t => Err(Error::Storage(format!("unknown index kind tag {t}"))),
    }
}

impl Schema {
    /// Serialize to the compact binary form used by DDL log records and
    /// checkpoint catalog snapshots.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64);
        self.encode_into(&mut out);
        out
    }

    fn encode_into(&self, out: &mut Vec<u8>) {
        put_u64(out, self.table_id.get());
        put_str(out, &self.name);
        put_u32(out, self.columns.len() as u32);
        for c in &self.columns {
            put_str(out, &c.name);
            out.push(datatype_tag(c.ty));
            out.push(c.nullable as u8);
        }
        put_u32(out, self.indexes.len() as u32);
        for i in &self.indexes {
            out.push(indexkind_tag(i.kind));
            put_str(out, &i.name);
            put_u32(out, i.columns.len() as u32);
            for &c in &i.columns {
                put_u32(out, c as u32);
            }
        }
    }

    /// Decode a schema from the front of `buf`; returns the schema and
    /// the number of bytes consumed. Validates the same invariants as
    /// [`Schema::new`].
    pub fn decode(buf: &[u8]) -> Result<(Schema, usize)> {
        let mut r = ByteReader::new(buf, "schema");
        let schema = Schema::decode_reader(&mut r)?;
        Ok((schema, r.position()))
    }

    fn decode_reader(r: &mut ByteReader<'_>) -> Result<Schema> {
        let table_id = TableId(r.u64()?);
        let name = r.str()?;
        // Name length + type tag + nullable flag.
        let columns = r.list_u32(6, |r| {
            Ok(ColumnDef {
                name: r.str()?,
                ty: datatype_from_tag(r.u8()?)?,
                nullable: r.u8()? != 0,
            })
        })?;
        // Kind tag + name length + column count.
        let indexes = r.list_u32(9, |r| {
            Ok(IndexDef {
                kind: indexkind_from_tag(r.u8()?)?,
                name: r.str()?,
                columns: r.list_u32(4, |r| Ok(r.u32()? as usize))?,
            })
        })?;
        Schema::new(table_id, name, columns, indexes)
    }
}

/// A catalog change, shipped through the REDO stream as a first-class
/// log record (the versioned-catalog design: schema changes are ordered
/// with data changes in LSN order, and the log is the only way one
/// reaches a replica).
#[derive(Debug, Clone, PartialEq)]
pub enum DdlOp {
    /// A table was created; carries the full schema plus the meta page
    /// of its (already SMO-logged) B+tree so replicas can open it.
    CreateTable {
        /// Full schema of the new table.
        schema: Schema,
        /// Meta page of the table's primary B+tree.
        meta_page: PageId,
    },
    /// A table was dropped.
    DropTable {
        /// Id of the dropped table.
        table_id: TableId,
        /// Name of the dropped table (lower-cased).
        name: String,
    },
    /// A table's schema was replaced in place (online DDL such as
    /// `ALTER TABLE ... ADD COLUMN INDEX`, §3.3); runtime state is
    /// preserved, replicas rebuild derived structures.
    ReplaceSchema {
        /// The replacement schema (same table id and name).
        schema: Schema,
    },
}

impl DdlOp {
    /// The table this DDL affects.
    pub fn table_id(&self) -> TableId {
        match self {
            DdlOp::CreateTable { schema, .. } | DdlOp::ReplaceSchema { schema } => schema.table_id,
            DdlOp::DropTable { table_id, .. } => *table_id,
        }
    }

    /// Serialize to the binary form embedded in log records.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64);
        match self {
            DdlOp::CreateTable { schema, meta_page } => {
                out.push(1);
                put_u64(&mut out, meta_page.get());
                schema.encode_into(&mut out);
            }
            DdlOp::DropTable { table_id, name } => {
                out.push(2);
                put_u64(&mut out, table_id.get());
                put_str(&mut out, name);
            }
            DdlOp::ReplaceSchema { schema } => {
                out.push(3);
                schema.encode_into(&mut out);
            }
        }
        out
    }

    /// Decode from the front of `buf`; returns the op and the bytes
    /// consumed.
    pub fn decode(buf: &[u8]) -> Result<(DdlOp, usize)> {
        let mut r = ByteReader::new(buf, "ddl op");
        let op = match r.u8()? {
            1 => {
                let meta_page = PageId(r.u64()?);
                let schema = Schema::decode_reader(&mut r)?;
                DdlOp::CreateTable { schema, meta_page }
            }
            2 => DdlOp::DropTable {
                table_id: TableId(r.u64()?),
                name: r.str()?,
            },
            3 => DdlOp::ReplaceSchema {
                schema: Schema::decode_reader(&mut r)?,
            },
            t => return Err(r.error(format_args!("unknown op tag {t}"))),
        };
        Ok((op, r.position()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_schema() -> Schema {
        // The DDL of Figure 3: PK on c1, secondary on c2, column index on
        // c3, c4, c5.
        Schema::new(
            TableId(1),
            "demo_table",
            vec![
                ColumnDef::not_null("c1", DataType::Int),
                ColumnDef::new("c2", DataType::Int),
                ColumnDef::new("c3", DataType::Int),
                ColumnDef::new("c4", DataType::Int),
                ColumnDef::new("c5", DataType::Str),
            ],
            vec![
                IndexDef {
                    kind: IndexKind::Primary,
                    name: "PRIMARY".into(),
                    columns: vec![0],
                },
                IndexDef {
                    kind: IndexKind::Secondary,
                    name: "sec_index".into(),
                    columns: vec![1],
                },
                IndexDef {
                    kind: IndexKind::Column,
                    name: "column_index".into(),
                    columns: vec![2, 3, 4],
                },
            ],
        )
        .unwrap()
    }

    #[test]
    fn figure3_ddl_shape() {
        let s = demo_schema();
        assert_eq!(s.pk_col(), 0);
        assert_eq!(s.column_index_cols(), &[2, 3, 4]);
        assert!(s.has_column_index());
        assert_eq!(s.secondary_indexes().count(), 1);
        assert_eq!(s.col_index("C3"), Some(2));
    }

    #[test]
    fn rejects_missing_pk() {
        let r = Schema::new(
            TableId(2),
            "t",
            vec![ColumnDef::new("a", DataType::Int)],
            vec![],
        );
        assert!(r.is_err());
    }

    #[test]
    fn rejects_non_int_pk() {
        let r = Schema::new(
            TableId(3),
            "t",
            vec![ColumnDef::not_null("a", DataType::Str)],
            vec![IndexDef {
                kind: IndexKind::Primary,
                name: "PRIMARY".into(),
                columns: vec![0],
            }],
        );
        assert!(r.is_err());
    }

    #[test]
    fn validate_row_checks_arity_null_type() {
        let s = demo_schema();
        assert!(s.validate_row(&[Value::Int(1)]).is_err());
        assert!(s
            .validate_row(&[
                Value::Null,
                Value::Null,
                Value::Null,
                Value::Null,
                Value::Null
            ])
            .is_err()); // c1 NOT NULL
        assert!(s
            .validate_row(&[
                Value::Int(1),
                Value::Str("oops".into()),
                Value::Null,
                Value::Null,
                Value::Null
            ])
            .is_err()); // c2 type mismatch
        assert!(s
            .validate_row(&[
                Value::Int(1),
                Value::Int(2),
                Value::Int(3),
                Value::Int(4),
                Value::Str("ok".into())
            ])
            .is_ok());
    }

    #[test]
    fn schema_binary_roundtrip() {
        let s = demo_schema();
        let enc = s.encode();
        let (dec, used) = Schema::decode(&enc).unwrap();
        assert_eq!(used, enc.len());
        assert_eq!(dec, s);
    }

    #[test]
    fn ddl_op_roundtrips() {
        let ops = [
            DdlOp::CreateTable {
                schema: demo_schema(),
                meta_page: PageId(42),
            },
            DdlOp::DropTable {
                table_id: TableId(7),
                name: "gone".into(),
            },
            DdlOp::ReplaceSchema {
                schema: demo_schema(),
            },
        ];
        for op in ops {
            let enc = op.encode();
            let (dec, used) = DdlOp::decode(&enc).unwrap();
            assert_eq!(used, enc.len());
            assert_eq!(dec, op);
        }
        assert!(DdlOp::decode(&[9]).is_err());
    }

    #[test]
    fn pk_extraction() {
        let s = demo_schema();
        let row = vec![
            Value::Int(77),
            Value::Null,
            Value::Null,
            Value::Null,
            Value::Null,
        ];
        assert_eq!(s.pk_of(&row).unwrap(), 77);
    }
}
