//! Self-describing binary encoding for [`Value`]s.
//!
//! Used for: sizing snapshots (the paper reports snapshot state sizes, e.g.
//! "the query on 100K keys works on a dataset of size 22.4MB"), shipping
//! replication traffic through the simulated network model, and the baseline
//! engine's *blob* snapshots ("Formerly, snapshot state in the KV store was a
//! mere blob structure", §VI-A) — the Jet-baseline writes `encode(state)` as
//! one opaque byte blob, whereas S-QUERY writes queryable per-key entries.
//!
//! Format: one tag byte per value, LEB128 varints for integers and lengths,
//! IEEE-754 bits for floats, UTF-8 for strings. Structs are self-describing
//! (field names travel with the value).
//!
//! The *positional* form beside it is the write-ahead log's: a batch of
//! values shares one [`SchemaTable`], and a struct is its tag, its index in
//! that table and then its values in schema order — no field names. Every
//! other value is written exactly as in the self-describing form.

use crate::error::{SqError, SqResult};
use crate::schema::{DataType, Schema};
use crate::value::{StructValue, Value};
use bytes::{Buf, BufMut, BytesMut};
use std::sync::Arc;

const TAG_NULL: u8 = 0;
const TAG_BOOL_FALSE: u8 = 1;
const TAG_BOOL_TRUE: u8 = 2;
const TAG_INT: u8 = 3;
const TAG_FLOAT: u8 = 4;
const TAG_STR: u8 = 5;
const TAG_TIMESTAMP: u8 = 6;
const TAG_LIST: u8 = 7;
const TAG_STRUCT: u8 = 8;
const TAG_BYTES: u8 = 9;

/// Encode a value, appending to `buf`.
pub fn encode_into(value: &Value, buf: &mut BytesMut) {
    match value {
        Value::List(items) => {
            buf.put_u8(TAG_LIST);
            put_varint(buf, items.len() as u64);
            for v in items.iter() {
                encode_into(v, buf);
            }
        }
        Value::Struct(sv) => {
            buf.put_u8(TAG_STRUCT);
            put_varint(buf, sv.len() as u64);
            for (field, v) in sv.schema().fields().iter().zip(sv.values()) {
                put_varint(buf, field.name.len() as u64);
                buf.put_slice(field.name.as_bytes());
                encode_into(v, buf);
            }
        }
        scalar => put_scalar(scalar, buf),
    }
}

/// Encode a value that is neither a list nor a struct; those two are the
/// callers' (the two codecs write structs differently).
fn put_scalar<B: BufMut>(value: &Value, buf: &mut B) {
    match value {
        Value::List(_) | Value::Struct(_) => {
            unreachable!("lists and structs are encoded by the caller")
        }
        Value::Null => buf.put_u8(TAG_NULL),
        Value::Bool(false) => buf.put_u8(TAG_BOOL_FALSE),
        Value::Bool(true) => buf.put_u8(TAG_BOOL_TRUE),
        Value::Int(i) => {
            buf.put_u8(TAG_INT);
            put_varint(buf, zigzag(*i));
        }
        Value::Float(f) => {
            buf.put_u8(TAG_FLOAT);
            buf.put_u64(f.to_bits());
        }
        Value::Str(s) => {
            buf.put_u8(TAG_STR);
            put_varint(buf, s.len() as u64);
            buf.put_slice(s.as_bytes());
        }
        Value::Timestamp(t) => {
            buf.put_u8(TAG_TIMESTAMP);
            put_varint(buf, zigzag(*t));
        }
        Value::Bytes(b) => {
            buf.put_u8(TAG_BYTES);
            put_varint(buf, b.len() as u64);
            buf.put_slice(b);
        }
    }
}

/// Encode a value into a fresh buffer.
pub fn encode(value: &Value) -> BytesMut {
    let mut buf = BytesMut::with_capacity(32);
    encode_into(value, &mut buf);
    buf
}

/// The encoded size of a value, in bytes, without materializing the encoding.
pub fn encoded_len(value: &Value) -> usize {
    match value {
        Value::Null | Value::Bool(_) => 1,
        Value::Int(i) => 1 + varint_len(zigzag(*i)),
        Value::Float(_) => 9,
        Value::Str(s) => 1 + varint_len(s.len() as u64) + s.len(),
        Value::Timestamp(t) => 1 + varint_len(zigzag(*t)),
        Value::List(items) => {
            1 + varint_len(items.len() as u64) + items.iter().map(encoded_len).sum::<usize>()
        }
        Value::Struct(sv) => {
            1 + varint_len(sv.len() as u64)
                + sv.schema().encoded_names_len()
                + sv.values().iter().map(encoded_len).sum::<usize>()
        }
        Value::Bytes(b) => 1 + varint_len(b.len() as u64) + b.len(),
    }
}

/// Decode one value from the front of `buf`, advancing it.
pub fn decode_from(buf: &mut &[u8]) -> SqResult<Value> {
    match take_u8(buf)? {
        TAG_LIST => {
            let len = take_varint(buf)? as usize;
            let mut items = Vec::with_capacity(len.min(1024));
            for _ in 0..len {
                items.push(decode_from(buf)?);
            }
            Ok(Value::list(items))
        }
        TAG_STRUCT => {
            let len = take_varint(buf)? as usize;
            let mut names = Vec::with_capacity(len.min(1024));
            let mut values = Vec::with_capacity(len.min(1024));
            for _ in 0..len {
                let name_len = take_varint(buf)? as usize;
                let name_bytes = take_slice(buf, name_len)?;
                let name = std::str::from_utf8(name_bytes)
                    .map_err(|_| SqError::Codec("invalid utf-8 in field name".into()))?
                    .to_string();
                if names.contains(&name) {
                    return Err(SqError::Codec(format!("duplicate field name {name}")));
                }
                let value = decode_from(buf)?;
                names.push(name);
                values.push(value);
            }
            let fields = names
                .into_iter()
                .zip(values.iter())
                .map(|(name, v)| (name, infer_dtype(v)))
                .collect::<Vec<_>>();
            let schema = Arc::new(Schema::new(fields));
            Ok(Value::Struct(StructValue::new(schema, values)))
        }
        tag => decode_scalar(tag, buf),
    }
}

/// Decode the rest of a value whose tag is neither list nor struct.
fn decode_scalar(tag: u8, buf: &mut &[u8]) -> SqResult<Value> {
    match tag {
        TAG_NULL => Ok(Value::Null),
        TAG_BOOL_FALSE => Ok(Value::Bool(false)),
        TAG_BOOL_TRUE => Ok(Value::Bool(true)),
        TAG_INT => Ok(Value::Int(unzigzag(take_varint(buf)?))),
        TAG_FLOAT => {
            if buf.remaining() < 8 {
                return Err(truncated());
            }
            Ok(Value::Float(f64::from_bits(buf.get_u64())))
        }
        TAG_STR => {
            let len = take_varint(buf)? as usize;
            let bytes = take_slice(buf, len)?;
            let s = std::str::from_utf8(bytes)
                .map_err(|_| SqError::Codec("invalid utf-8 in string".into()))?;
            Ok(Value::str(s))
        }
        TAG_TIMESTAMP => Ok(Value::Timestamp(unzigzag(take_varint(buf)?))),
        TAG_BYTES => {
            let len = take_varint(buf)? as usize;
            let bytes = take_slice(buf, len)?;
            Ok(Value::Bytes(Arc::from(bytes)))
        }
        other => Err(SqError::Codec(format!("unknown value tag {other}"))),
    }
}

/// Decode a value that must consume the whole buffer.
pub fn decode(mut buf: &[u8]) -> SqResult<Value> {
    let v = decode_from(&mut buf)?;
    if !buf.is_empty() {
        return Err(SqError::Codec(format!(
            "{} trailing bytes after value",
            buf.len()
        )));
    }
    Ok(v)
}

/// The struct schemas of one positional batch, in first-use order. A
/// struct's positional encoding names its schema by index in this table.
#[derive(Debug, Default)]
pub struct SchemaTable {
    schemas: Vec<Arc<Schema>>,
}

impl SchemaTable {
    /// `schema`'s index, adding it on first use. A batch holds one or two
    /// schemas, so a pointer scan beats hashing; the equality pass lets
    /// equal schemas behind distinct `Arc`s share one entry.
    fn index_of(&mut self, schema: &Arc<Schema>) -> usize {
        let found = self
            .schemas
            .iter()
            .position(|s| Arc::ptr_eq(s, schema))
            .or_else(|| self.schemas.iter().position(|s| **s == **schema));
        found.unwrap_or_else(|| {
            self.schemas.push(Arc::clone(schema));
            self.schemas.len() - 1
        })
    }

    /// Write the table: the schema count, then per schema its field count
    /// and each field's name and [`DataType::code`].
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        put_varint(buf, self.schemas.len() as u64);
        for schema in &self.schemas {
            put_varint(buf, schema.len() as u64);
            for field in schema.fields() {
                put_varint(buf, field.name.len() as u64);
                buf.put_slice(field.name.as_bytes());
                buf.put_u8(field.dtype.code());
            }
        }
    }

    /// Read a table written by [`encode_into`](Self::encode_into), each
    /// schema resolved through [`Schema::interned`].
    pub fn decode_from(buf: &mut &[u8]) -> SqResult<SchemaTable> {
        let count = take_varint(buf)? as usize;
        let mut schemas = Vec::with_capacity(count.min(64));
        for _ in 0..count {
            let len = take_varint(buf)? as usize;
            let mut fields: Vec<(&str, DataType)> = Vec::with_capacity(len.min(1024));
            for _ in 0..len {
                let name_len = take_varint(buf)? as usize;
                let name = std::str::from_utf8(take_slice(buf, name_len)?)
                    .map_err(|_| SqError::Codec("invalid utf-8 in field name".into()))?;
                let code = take_u8(buf)?;
                let dtype = DataType::from_code(code)
                    .ok_or_else(|| SqError::Codec(format!("unknown type code {code}")))?;
                if fields.iter().any(|(n, _)| *n == name) {
                    return Err(SqError::Codec(format!("duplicate field name {name}")));
                }
                fields.push((name, dtype));
            }
            schemas.push(Schema::interned(fields));
        }
        Ok(SchemaTable { schemas })
    }

    /// Encode `value` positionally, appending to `buf` and adding the
    /// schemas it uses to the table. The table is complete — ready for
    /// [`encode_into`](Self::encode_into) — once the batch's last value is
    /// encoded.
    pub fn encode_value(&mut self, value: &Value, buf: &mut Vec<u8>) {
        match value {
            Value::List(items) => {
                buf.put_u8(TAG_LIST);
                put_varint(buf, items.len() as u64);
                for v in items.iter() {
                    self.encode_value(v, buf);
                }
            }
            Value::Struct(sv) => {
                let index = self.index_of(sv.schema());
                buf.put_u8(TAG_STRUCT);
                put_varint(buf, index as u64);
                for v in sv.values() {
                    self.encode_value(v, buf);
                }
            }
            scalar => put_scalar(scalar, buf),
        }
    }

    /// Decode one positional value from the front of `buf`, advancing it.
    pub fn decode_value(&self, buf: &mut &[u8]) -> SqResult<Value> {
        match take_u8(buf)? {
            TAG_LIST => {
                let len = take_varint(buf)? as usize;
                let mut items = Vec::with_capacity(len.min(1024));
                for _ in 0..len {
                    items.push(self.decode_value(buf)?);
                }
                Ok(Value::list(items))
            }
            TAG_STRUCT => {
                let index = take_varint(buf)? as usize;
                let schema = self.schemas.get(index).ok_or_else(|| {
                    SqError::Codec(format!(
                        "schema index {index} outside a table of {}",
                        self.schemas.len()
                    ))
                })?;
                // Exactly one value per field is read, so `StructValue::new`'s
                // arity check holds; a record whose structs carry more or
                // fewer values fails on truncation or on trailing bytes.
                let mut values = Vec::with_capacity(schema.len());
                for _ in 0..schema.len() {
                    values.push(self.decode_value(buf)?);
                }
                Ok(Value::Struct(StructValue::new(Arc::clone(schema), values)))
            }
            tag => decode_scalar(tag, buf),
        }
    }
}

/// The declared type that best describes a runtime value.
pub fn infer_dtype(v: &Value) -> DataType {
    match v {
        Value::Null => DataType::Any,
        Value::Bool(_) => DataType::Bool,
        Value::Int(_) => DataType::Int,
        Value::Float(_) => DataType::Float,
        Value::Str(_) => DataType::Str,
        Value::Timestamp(_) => DataType::Timestamp,
        Value::List(_) => DataType::List,
        Value::Struct(_) => DataType::Struct,
        Value::Bytes(_) => DataType::Bytes,
    }
}

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

fn put_varint<B: BufMut>(buf: &mut B, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.put_u8(byte);
            return;
        }
        buf.put_u8(byte | 0x80);
    }
}

pub(crate) fn varint_len(mut v: u64) -> usize {
    let mut n = 1;
    while v >= 0x80 {
        v >>= 7;
        n += 1;
    }
    n
}

fn take_u8(buf: &mut &[u8]) -> SqResult<u8> {
    if buf.is_empty() {
        return Err(truncated());
    }
    let b = buf[0];
    *buf = &buf[1..];
    Ok(b)
}

fn take_varint(buf: &mut &[u8]) -> SqResult<u64> {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    loop {
        let byte = take_u8(buf)?;
        if shift >= 64 {
            return Err(SqError::Codec("varint overflow".into()));
        }
        v |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

fn take_slice<'a>(buf: &mut &'a [u8], len: usize) -> SqResult<&'a [u8]> {
    if buf.len() < len {
        return Err(truncated());
    }
    let (head, tail) = buf.split_at(len);
    *buf = tail;
    Ok(head)
}

fn truncated() -> SqError {
    SqError::Codec("truncated buffer".into())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::schema;

    fn roundtrip(v: &Value) -> Value {
        let bytes = encode(v);
        assert_eq!(bytes.len(), encoded_len(v), "encoded_len must match");
        decode(&bytes).unwrap()
    }

    #[test]
    fn scalar_roundtrips() {
        for v in [
            Value::Null,
            Value::Bool(true),
            Value::Bool(false),
            Value::Int(0),
            Value::Int(-1),
            Value::Int(i64::MAX),
            Value::Int(i64::MIN),
            Value::Float(3.25),
            Value::Float(-0.0),
            Value::str(""),
            Value::str("hello world"),
            Value::Timestamp(1_650_000_000_000_000),
            Value::Bytes(std::sync::Arc::from(&b"\x00\x01\xff"[..])),
        ] {
            assert_eq!(roundtrip(&v), v, "roundtrip failed for {v:?}");
        }
    }

    #[test]
    fn list_and_struct_roundtrip() {
        let s = schema(vec![
            ("lat", DataType::Float),
            ("lon", DataType::Float),
            ("updated", DataType::Timestamp),
        ]);
        let rider = Value::record(
            &s,
            vec![
                Value::Float(52.01),
                Value::Float(4.36),
                Value::Timestamp(1_000),
            ],
        );
        let v = Value::list(vec![rider.clone(), Value::Null, Value::Int(9)]);
        let back = roundtrip(&v);
        assert_eq!(back, v);
        // Struct decoding is self-describing: field names survive.
        let items = back.as_list().unwrap();
        let s2 = items[0].as_struct().unwrap();
        assert_eq!(s2.field("lat"), Some(&Value::Float(52.01)));
    }

    #[test]
    fn positional_batch_roundtrips_into_interned_schemas() {
        let point = Schema::interned(vec![("px", DataType::Float), ("py", DataType::Float)]);
        let stop = Schema::interned(vec![
            ("stopName", DataType::Str),
            ("at", DataType::Struct),
            ("legs", DataType::List),
            ("note", DataType::Any),
        ]);
        let at = Value::record(&point, vec![Value::Float(52.0), Value::Float(4.3)]);
        let legs = Value::list(vec![at.clone(), Value::Int(3), Value::Null]);
        let batch = vec![
            Value::record(&stop, vec![Value::str("a"), at.clone(), legs, Value::Null]),
            // An equal schema behind a fresh `Arc` shares the table entry.
            Value::record(
                &Arc::new(Schema::new(vec![
                    ("px", DataType::Float),
                    ("py", DataType::Float),
                ])),
                vec![Value::Null, Value::Float(1.5)],
            ),
            Value::Int(-7),
            Value::str("key"),
        ];
        let mut table = SchemaTable::default();
        let mut values = Vec::new();
        for v in &batch {
            table.encode_value(v, &mut values);
        }
        assert_eq!(table.schemas.len(), 2, "two distinct schemas");
        let mut buf = Vec::new();
        table.encode_into(&mut buf);
        buf.extend_from_slice(&values);
        let mut rest = &buf[..];
        let back_table = SchemaTable::decode_from(&mut rest).unwrap();
        let back: Vec<Value> = batch
            .iter()
            .map(|_| back_table.decode_value(&mut rest).unwrap())
            .collect();
        assert!(rest.is_empty());
        assert_eq!(back, batch);
        let outer = back[0].as_struct().unwrap();
        assert!(Arc::ptr_eq(outer.schema(), &stop));
        assert!(Arc::ptr_eq(
            outer.field_at(1).as_struct().unwrap().schema(),
            &point
        ));
        assert!(Arc::ptr_eq(back[1].as_struct().unwrap().schema(), &point));
        // No field names per struct: the second row costs its values only.
        let mut one = Vec::new();
        table.encode_value(&batch[1], &mut one);
        assert_eq!(one.len(), 1 + 1 + 1 + 9);
        assert!(one.len() < encoded_len(&batch[1]));
    }

    #[test]
    fn positional_decode_rejects_bad_schema_references() {
        let table = SchemaTable::default();
        // A struct naming schema 0 of an empty table.
        let err = table.decode_value(&mut &[TAG_STRUCT, 0][..]).unwrap_err();
        assert!(err.to_string().contains("schema index 0"), "{err}");
        // A table whose schema repeats a field name, and an unknown type code.
        let mut dup = BytesMut::new();
        put_varint(&mut dup, 1);
        put_varint(&mut dup, 2);
        for _ in 0..2 {
            put_varint(&mut dup, 1);
            dup.put_slice(b"x");
            dup.put_u8(DataType::Int.code());
        }
        assert!(SchemaTable::decode_from(&mut &dup[..]).is_err());
        assert!(SchemaTable::decode_from(&mut &[1, 1, 1, b'x', 200][..]).is_err());
    }

    #[test]
    fn nan_roundtrips_via_bits() {
        let v = Value::Float(f64::NAN);
        let back = roundtrip(&v);
        match back {
            Value::Float(f) => assert!(f.is_nan()),
            other => panic!("expected float, got {other:?}"),
        }
    }

    #[test]
    fn truncated_buffers_error() {
        let bytes = encode(&Value::str("abcdef"));
        for cut in 0..bytes.len() {
            let err = decode(&bytes[..cut]);
            assert!(err.is_err(), "cut at {cut} should fail");
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = encode(&Value::Int(5));
        bytes.put_u8(0);
        assert!(matches!(decode(&bytes), Err(SqError::Codec(_))));
    }

    #[test]
    fn repeated_field_name_is_an_error_not_a_panic() {
        let mut bytes = BytesMut::new();
        bytes.put_u8(TAG_STRUCT);
        put_varint(&mut bytes, 2);
        for _ in 0..2 {
            put_varint(&mut bytes, 1);
            bytes.put_slice(b"a");
            bytes.put_u8(TAG_NULL);
        }
        assert!(matches!(decode(&bytes), Err(SqError::Codec(_))));
    }

    #[test]
    fn unknown_tag_rejected() {
        assert!(matches!(decode(&[0x7f]), Err(SqError::Codec(_))));
    }

    #[test]
    fn zigzag_roundtrip() {
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    #[test]
    fn varint_encoding_is_minimal() {
        let mut buf = BytesMut::new();
        put_varint(&mut buf, 127);
        assert_eq!(buf.len(), 1);
        buf.clear();
        put_varint(&mut buf, 128);
        assert_eq!(buf.len(), 2);
        assert_eq!(varint_len(127), 1);
        assert_eq!(varint_len(128), 2);
        assert_eq!(varint_len(u64::MAX), 10);
    }
}
