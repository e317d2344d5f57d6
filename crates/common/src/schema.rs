//! Schemas: named, typed field lists.
//!
//! A [`Schema`] describes both struct values (operator state objects) and SQL
//! tables. The storage layer derives a table schema for each operator's state
//! map by prepending the reserved key column (`partitionKey`, the column name
//! the paper's queries join on) and — for snapshot tables — the `ssid` column.

use crate::codec::varint_len;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, OnceLock};

/// The column name under which a map's key is exposed to SQL.
///
/// Matches the paper's Queries 1–4, which `JOIN ... USING(partitionKey)`.
pub const KEY_COLUMN: &str = "partitionKey";

/// The column name under which a snapshot entry's snapshot id is exposed.
///
/// Matches the paper's Figure 4 query: `WHERE ssid=9 AND key=2`.
pub const SSID_COLUMN: &str = "ssid";

/// Data types for schema fields.
///
/// The explicit discriminants are the codes the write-ahead log persists
/// ([`DataType::code`]): a new variant takes a new number, and no existing
/// one is ever renumbered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// Boolean.
    Bool = 0,
    /// 64-bit integer.
    Int = 1,
    /// 64-bit float.
    Float = 2,
    /// UTF-8 string.
    Str = 3,
    /// Microsecond timestamp.
    Timestamp = 4,
    /// List of values.
    List = 5,
    /// Nested struct.
    Struct = 6,
    /// Opaque bytes.
    Bytes = 7,
    /// Unconstrained (used where the value type is data-dependent).
    Any = 8,
}

impl DataType {
    /// The one-byte code this type is persisted as (write-ahead-log schema
    /// tables): its discriminant.
    pub fn code(self) -> u8 {
        self as u8
    }

    /// The type persisted as `code`, if any.
    pub fn from_code(code: u8) -> Option<DataType> {
        Some(match code {
            0 => DataType::Bool,
            1 => DataType::Int,
            2 => DataType::Float,
            3 => DataType::Str,
            4 => DataType::Timestamp,
            5 => DataType::List,
            6 => DataType::Struct,
            7 => DataType::Bytes,
            8 => DataType::Any,
            _ => return None,
        })
    }
}

/// A named, typed field.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Field {
    /// Field / column name.
    pub name: String,
    /// Declared type.
    pub dtype: DataType,
}

/// An ordered list of fields with O(1) name lookup.
#[derive(Debug, Clone)]
pub struct Schema {
    fields: Vec<Field>,
    by_name: HashMap<String, usize>,
    /// Bytes the field names take in the self-describing codec (each
    /// name's varint length plus the name), summed once here so byte
    /// accounting never walks the names.
    names_len: usize,
}

impl Schema {
    /// Build a schema from `(name, type)` pairs.
    ///
    /// Panics on duplicate field names: a schema with ambiguous columns can
    /// never be queried correctly, so this is a programming error.
    pub fn new<N: Into<String>>(fields: Vec<(N, DataType)>) -> Schema {
        let fields: Vec<Field> = fields
            .into_iter()
            .map(|(name, dtype)| Field {
                name: name.into(),
                dtype,
            })
            .collect();
        Self::from_fields(fields)
    }

    /// Build a schema from prebuilt fields. Panics on duplicate names.
    pub fn from_fields(fields: Vec<Field>) -> Schema {
        let mut by_name = HashMap::with_capacity(fields.len());
        let mut names_len = 0;
        for (i, f) in fields.iter().enumerate() {
            let prev = by_name.insert(f.name.clone(), i);
            assert!(prev.is_none(), "duplicate field name: {}", f.name);
            names_len += varint_len(f.name.len() as u64) + f.name.len();
        }
        Schema {
            fields,
            by_name,
            names_len,
        }
    }

    /// The process-wide shared schema with exactly these fields: every
    /// call with equal fields returns the same `Arc`, so rows decoded from
    /// the write-ahead log share the schema their operator registers.
    /// Panics on duplicate names, like [`Schema::new`].
    pub fn interned<N: Into<String>>(fields: Vec<(N, DataType)>) -> Arc<Schema> {
        static INTERNED: OnceLock<Mutex<HashMap<Vec<Field>, Arc<Schema>>>> = OnceLock::new();
        let fields: Vec<Field> = fields
            .into_iter()
            .map(|(name, dtype)| Field {
                name: name.into(),
                dtype,
            })
            .collect();
        let mut interned = INTERNED.get_or_init(Mutex::default).lock();
        if let Some(schema) = interned.get(&fields) {
            return Arc::clone(schema);
        }
        let schema = Arc::new(Schema::from_fields(fields.clone()));
        interned.insert(fields, Arc::clone(&schema));
        schema
    }

    /// The empty schema.
    pub fn empty() -> Schema {
        Schema::from_fields(Vec::new())
    }

    /// Bytes the field names take in the self-describing codec.
    pub(crate) fn encoded_names_len(&self) -> usize {
        self.names_len
    }

    /// All fields, in order.
    pub fn fields(&self) -> &[Field] {
        &self.fields
    }

    /// Number of fields.
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// Whether the schema has zero fields.
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// Index of a field by name.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.by_name.get(name).copied()
    }

    /// Field by name.
    pub fn field(&self, name: &str) -> Option<&Field> {
        self.index_of(name).map(|i| &self.fields[i])
    }

    /// Field by position.
    pub fn field_at(&self, index: usize) -> &Field {
        &self.fields[index]
    }

    /// Whether the schema contains a field of this name.
    pub fn contains(&self, name: &str) -> bool {
        self.by_name.contains_key(name)
    }

    /// A new schema with `extra` fields prepended (used to add the key /
    /// ssid columns in front of state-object fields).
    pub fn prepend(&self, extra: Vec<Field>) -> Schema {
        let mut fields = extra;
        fields.extend(self.fields.iter().cloned());
        Schema::from_fields(fields)
    }

    /// A new schema that concatenates `self` and `other`, skipping fields of
    /// `other` whose names `self` already has (SQL `JOIN ... USING` output).
    pub fn join_using(&self, other: &Schema) -> Schema {
        let mut fields = self.fields.clone();
        for f in other.fields() {
            if !self.contains(&f.name) {
                fields.push(f.clone());
            }
        }
        Schema::from_fields(fields)
    }
}

impl PartialEq for Schema {
    fn eq(&self, other: &Self) -> bool {
        self.fields == other.fields
    }
}
impl Eq for Schema {}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, field) in self.fields.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{} {:?}", field.name, field.dtype)?;
        }
        write!(f, ")")
    }
}

/// Convenience: an `Arc<Schema>` from `(name, type)` pairs.
pub fn schema(fields: Vec<(&str, DataType)>) -> Arc<Schema> {
    Arc::new(Schema::new(fields))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_by_name_and_index() {
        let s = Schema::new(vec![("a", DataType::Int), ("b", DataType::Str)]);
        assert_eq!(s.index_of("a"), Some(0));
        assert_eq!(s.index_of("b"), Some(1));
        assert_eq!(s.index_of("c"), None);
        assert_eq!(s.field_at(1).name, "b");
        assert!(s.contains("a"));
        assert_eq!(s.len(), 2);
    }

    #[test]
    #[should_panic(expected = "duplicate field name")]
    fn duplicate_names_rejected() {
        Schema::new(vec![("a", DataType::Int), ("a", DataType::Str)]);
    }

    #[test]
    fn prepend_adds_columns_in_front() {
        let s = Schema::new(vec![("total", DataType::Int)]);
        let with_key = s.prepend(vec![Field {
            name: KEY_COLUMN.into(),
            dtype: DataType::Any,
        }]);
        assert_eq!(with_key.index_of(KEY_COLUMN), Some(0));
        assert_eq!(with_key.index_of("total"), Some(1));
    }

    #[test]
    fn join_using_deduplicates_shared_columns() {
        let a = Schema::new(vec![("partitionKey", DataType::Any), ("x", DataType::Int)]);
        let b = Schema::new(vec![("partitionKey", DataType::Any), ("y", DataType::Int)]);
        let joined = a.join_using(&b);
        assert_eq!(joined.len(), 3);
        assert_eq!(joined.index_of("partitionKey"), Some(0));
        assert_eq!(joined.index_of("y"), Some(2));
    }

    #[test]
    fn display_lists_fields() {
        let s = Schema::new(vec![("count", DataType::Int)]);
        assert_eq!(s.to_string(), "(count Int)");
    }

    #[test]
    fn interned_schemas_are_shared_by_fields() {
        let a = Schema::interned(vec![("interned_a", DataType::Int), ("b", DataType::Str)]);
        let b = Schema::interned(vec![("interned_a", DataType::Int), ("b", DataType::Str)]);
        let other = Schema::interned(vec![("interned_a", DataType::Float), ("b", DataType::Str)]);
        assert!(Arc::ptr_eq(&a, &b));
        assert!(
            !Arc::ptr_eq(&a, &other),
            "a different type is a different schema"
        );
        assert_eq!(a.encoded_names_len(), 1 + 10 + 1 + 1);
    }

    #[test]
    fn data_type_codes_are_pinned() {
        // The codes are on disk in every write-ahead-log schema table, so
        // each one is pinned here: a renumbering fails this test rather
        // than misreading old logs.
        let pinned = [
            (DataType::Bool, 0),
            (DataType::Int, 1),
            (DataType::Float, 2),
            (DataType::Str, 3),
            (DataType::Timestamp, 4),
            (DataType::List, 5),
            (DataType::Struct, 6),
            (DataType::Bytes, 7),
            (DataType::Any, 8),
        ];
        for (dt, code) in pinned {
            assert_eq!(dt.code(), code, "{dt:?}");
            assert_eq!(DataType::from_code(code), Some(dt));
        }
        assert_eq!(DataType::from_code(9), None);
    }

    #[test]
    fn empty_schema() {
        let s = Schema::empty();
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
    }
}
