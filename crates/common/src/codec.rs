//! The one binary codec of every record HyLite writes — the wire frames
//! and, in `hylite-storage`, the WAL redo ops, the checkpoint manifest,
//! the bootstrap bundle, the backup metadata, the replication state and
//! the segment header.
//!
//! A record is declared once, with [`records!`](crate::records): a
//! `struct` is its fields in order, an `enum` a one-byte tag and then the
//! tagged row's fields. Every field type has one [`Codec`] (`put`, `get`),
//! and `get` accepts exactly the bytes `put` can write, so a decoded
//! record encodes back to the bytes it came from.
//!
//! Integers are little-endian; strings are `u32` length + UTF-8 bytes;
//! a flag byte is 0 or 1; columns keep HyLite's native columnar layout
//! (typed data array plus an optional validity bitmap).

use std::fmt;
use std::marker::PhantomData;

use crate::{Bitmap, Chunk, ColumnVector, DataType, Field, HyError, Result, Schema};

// ---------------------------------------------------------------------------
// Declarations
// ---------------------------------------------------------------------------

/// Declares a record and generates its [`Codec`]. A `struct` is written as
/// its fields in declaration order. An `enum` is written as the row's
/// one-byte tag, then its fields; each row is `tag Name [from sender]
/// [with Magic] [{ field: Type, ... }]`, and `else other => error;` gives
/// the error of an unknown tag. A field `name: Type` is written by
/// `Type`'s codec; `name: Type as Encoding` by a chosen one, e.g. a list
/// whose count is a `u64` (`Vec<u64> as List<u64>`). In test builds each
/// declaration also lists itself — `FIELDS` of a struct, `TABLE` of an
/// enum — for the checks against the docs.
#[macro_export]
macro_rules! records {
    ($(#[$meta:meta])* $vis:vis struct $name:ident {
        $($(#[$fdoc:meta])* $fvis:vis $field:ident: $ty:ty $(as $via:ty)?),* $(,)?
    }) => {
        $(#[$meta])*
        $vis struct $name {
            $($(#[$fdoc])* $fvis $field: $ty,)*
        }

        impl $crate::codec::Codec for $name {
            fn put(v: &$name, buf: &mut Vec<u8>) {
                $(<$crate::__encoding!($ty $(, $via)?) as $crate::codec::Codec<$ty>>::put(&v.$field, buf);)*
            }
            fn get(
                r: &mut $crate::codec::ByteReader<'_>,
                _: $crate::codec::At,
            ) -> $crate::Result<$name> {
                Ok($name {
                    $($field: <$crate::__encoding!($ty $(, $via)?) as $crate::codec::Codec<$ty>>::get(
                        r,
                        $crate::codec::At(stringify!($name), "", stringify!($field)),
                    )?,)*
                })
            }
        }

        #[cfg(test)]
        impl $name {
            /// Each field as declared, `name: Type [as Encoding]`.
            #[allow(dead_code)]
            pub(crate) const FIELDS: &'static [&'static str] = &[$(
                concat!(stringify!($field), ": ", stringify!($ty) $(, " as ", stringify!($via))?),
            )*];
        }
    };
    ($(#[$meta:meta])* $vis:vis enum $name:ident {
        $($(#[$doc:meta])* $tag:literal $variant:ident $(from $sender:ident)? $(with $magic:ident)?
            $({ $($(#[$fdoc:meta])* $field:ident: $ty:ty $(as $via:ty)?),* $(,)? })?,)*
    } else $unknown:ident => $err:expr;) => {
        $(#[$meta])*
        $vis enum $name {
            $($(#[$doc])* $variant $({ $($(#[$fdoc])* $field: $ty),* })?,)*
        }

        impl $crate::codec::Codec for $name {
            fn put(v: &$name, buf: &mut Vec<u8>) {
                match v {
                    $($name::$variant $({ $($field),* })? => {
                        buf.push($tag);
                        $(<$magic as $crate::codec::Codec>::put(&$magic, buf);)?
                        $($(<$crate::__encoding!($ty $(, $via)?) as $crate::codec::Codec<$ty>>::put($field, buf);)*)?
                    })*
                }
            }
            fn get(
                r: &mut $crate::codec::ByteReader<'_>,
                _: $crate::codec::At,
            ) -> $crate::Result<$name> {
                let tag = r.u8()?;
                $name::get_tagged(tag, r)
            }
        }

        impl $name {
            /// Read the fields of the row `tag` names (the tag itself
            /// already consumed).
            pub fn get_tagged(tag: u8, r: &mut $crate::codec::ByteReader<'_>) -> $crate::Result<$name> {
                Ok(match tag {
                    $($tag => {
                        #[allow(unused_variables)]
                        let at = |field| $crate::codec::At(stringify!($variant), stringify!($($sender)?), field);
                        $(<$magic as $crate::codec::Codec>::get(r, at("magic"))?;)?
                        $name::$variant $({ $($field: <$crate::__encoding!($ty $(, $via)?) as $crate::codec::Codec<$ty>>::get(
                            r,
                            at(stringify!($field)),
                        )?),* })?
                    })*
                    $unknown => return Err($err),
                })
            }
        }

        #[cfg(test)]
        impl $name {
            /// Tag, name, sender and payload (the magic, then each field
            /// as declared) of each row.
            #[allow(dead_code)]
            pub(crate) const TABLE: &'static [(u8, &'static str, &'static str, &'static [&'static str])] = &[$((
                $tag,
                stringify!($variant),
                stringify!($($sender)?),
                &[$(stringify!($magic),)? $($(
                    concat!(stringify!($field), ": ", stringify!($ty) $(, " as ", stringify!($via))?),
                )*)?],
            ),)*];
        }
    };
}

/// The codec of a declared field: `Encoding` for `name: Type as
/// Encoding`, else `Type` itself.
#[doc(hidden)]
#[macro_export]
macro_rules! __encoding {
    ($ty:ty) => {
        $ty
    };
    ($ty:ty, $via:ty) => {
        $via
    };
}

// ---------------------------------------------------------------------------
// Field codecs
// ---------------------------------------------------------------------------

/// Where a field sits — record, sender (of a wire frame), field — for the
/// decoder's error texts.
#[derive(Debug, Clone, Copy)]
pub struct At(pub &'static str, pub &'static str, pub &'static str);

impl fmt::Display for At {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.0.to_lowercase(), self.2)
    }
}

/// One way to encode a `T`: a type's own codec (`T = Self`), or a chosen
/// encoding such as [`List`] or [`Bytes`]. `get` accepts exactly the
/// bytes `put` can write and fails with [`HyError::Protocol`] on anything
/// else a field codec can see.
pub trait Codec<T = Self> {
    /// Append `v`.
    fn put(v: &T, buf: &mut Vec<u8>);
    /// Read one value; `at` names the field in errors.
    fn get(r: &mut ByteReader<'_>, at: At) -> Result<T>;
}

macro_rules! int_codecs {
    ($($t:ident),*) => {$(
        impl Codec for $t {
            fn put(v: &$t, buf: &mut Vec<u8>) {
                buf.extend_from_slice(&v.to_le_bytes());
            }
            fn get(r: &mut ByteReader<'_>, _: At) -> Result<$t> {
                r.$t()
            }
        }
    )*};
}

int_codecs!(u8, u16, u32, u64);

/// Field types whose codec is a public `put_*` function and the
/// [`ByteReader`] method that reads it back.
macro_rules! delegated_codecs {
    ($($t:ty => $put:ident, $get:ident;)*) => {$(
        impl Codec for $t {
            fn put(v: &$t, buf: &mut Vec<u8>) {
                $put(buf, v);
            }
            fn get(r: &mut ByteReader<'_>, _: At) -> Result<$t> {
                r.$get()
            }
        }
    )*};
}

delegated_codecs! {
    String => put_str, str;
    Schema => put_schema, schema;
    Chunk => put_chunk, chunk;
}

impl Codec for bool {
    fn put(v: &bool, buf: &mut Vec<u8>) {
        buf.push(u8::from(*v));
    }
    fn get(r: &mut ByteReader<'_>, at: At) -> Result<bool> {
        r.flag(at)
    }
}

/// A presence flag, then the value if present.
impl<T: Codec> Codec for Option<T> {
    fn put(v: &Option<T>, buf: &mut Vec<u8>) {
        bool::put(&v.is_some(), buf);
        if let Some(v) = v {
            T::put(v, buf);
        }
    }
    fn get(r: &mut ByteReader<'_>, at: At) -> Result<Option<T>> {
        Ok(if r.flag(at)? {
            Some(T::get(r, at)?)
        } else {
            None
        })
    }
}

impl<A: Codec, B: Codec> Codec for (A, B) {
    fn put((a, b): &(A, B), buf: &mut Vec<u8>) {
        A::put(a, buf);
        B::put(b, buf);
    }
    fn get(r: &mut ByteReader<'_>, at: At) -> Result<(A, B)> {
        Ok((A::get(r, at)?, B::get(r, at)?))
    }
}

/// The one-byte tag of [`dtype_tag`].
impl Codec for DataType {
    fn put(v: &DataType, buf: &mut Vec<u8>) {
        buf.push(dtype_tag(*v));
    }
    fn get(r: &mut ByteReader<'_>, _: At) -> Result<DataType> {
        dtype_from_tag(r.u8()?)
    }
}

/// A byte string as [`Bytes<u32>`].
impl Codec for Vec<u8> {
    fn put(v: &Vec<u8>, buf: &mut Vec<u8>) {
        Bytes::<u32>::put(v, buf);
    }
    fn get(r: &mut ByteReader<'_>, at: At) -> Result<Vec<u8>> {
        Bytes::<u32>::get(r, at)
    }
}

/// The width of a list's count: `u32` or `u64`.
pub trait Count: Codec + TryFrom<usize> + TryInto<usize> {
    /// `n` at this width; a count that does not fit is a bug of the
    /// record that declared the width.
    fn of(n: usize) -> Self {
        Self::try_from(n)
            .ok()
            .expect("a list's count fits its declared width")
    }

    /// Read a count.
    fn get_count(r: &mut ByteReader<'_>, at: At) -> Result<usize> {
        let n = Self::get(r, at)?;
        n.try_into()
            .map_err(|_| HyError::Protocol(format!("{at} count does not fit in memory")))
    }
}

impl Count for u32 {}
impl Count for u64 {}

/// A list: its item count as `N`, then each item in its own codec.
pub struct List<N>(PhantomData<N>);

impl<N: Count> List<N> {
    /// Append `items` as a list.
    pub fn put_items<T: Codec>(items: &[T], buf: &mut Vec<u8>) {
        N::put(&N::of(items.len()), buf);
        for item in items {
            T::put(item, buf);
        }
    }
}

impl<N: Count, T: Codec> Codec<Vec<T>> for List<N> {
    fn put(v: &Vec<T>, buf: &mut Vec<u8>) {
        Self::put_items(v, buf);
    }
    fn get(r: &mut ByteReader<'_>, at: At) -> Result<Vec<T>> {
        let n = N::get_count(r, at)?;
        r.items(n, at)
    }
}

/// A byte string: its length as `N`, then the bytes, copied as one slice.
pub struct Bytes<N>(PhantomData<N>);

impl<N: Count> Codec<Vec<u8>> for Bytes<N> {
    fn put(v: &Vec<u8>, buf: &mut Vec<u8>) {
        N::put(&N::of(v.len()), buf);
        buf.extend_from_slice(v);
    }
    fn get(r: &mut ByteReader<'_>, at: At) -> Result<Vec<u8>> {
        let n = N::get_count(r, at)?;
        Ok(r.take(n)?.to_vec())
    }
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

/// Append a little-endian `u16`.
pub fn put_u16(buf: &mut Vec<u8>, v: u16) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Append a little-endian `u32`.
pub fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Append a little-endian `u64`.
pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Append a `u32`-length-prefixed UTF-8 string.
pub fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

/// Column types by their one-byte tag — shared by the wire codec and the
/// segment file format.
const DTYPE_TAGS: [DataType; 5] = [
    DataType::Int64,
    DataType::Float64,
    DataType::Bool,
    DataType::Varchar,
    DataType::Null,
];

/// The one-byte tag of a column type.
pub fn dtype_tag(dt: DataType) -> u8 {
    DTYPE_TAGS
        .iter()
        .position(|&d| d == dt)
        .expect("every type has a tag") as u8
}

/// The column type a [`dtype_tag`] names.
pub fn dtype_from_tag(tag: u8) -> Result<DataType> {
    let dt = DTYPE_TAGS.get(usize::from(tag)).copied();
    dt.ok_or_else(|| HyError::Protocol(format!("unknown data type tag {tag}")))
}

/// Pack `len` bits (`get(i)`) LSB-first into `len.div_ceil(8)` bytes —
/// validity bitmaps and booleans, on the wire and in segment blocks. The
/// padding bits of the last byte are zero.
pub fn put_bits(buf: &mut Vec<u8>, len: usize, get: impl Fn(usize) -> bool) {
    let mut byte = 0u8;
    for i in 0..len {
        if get(i) {
            byte |= 1 << (i % 8);
        }
        if i % 8 == 7 {
            buf.push(byte);
            byte = 0;
        }
    }
    if !len.is_multiple_of(8) {
        buf.push(byte);
    }
}

fn put_column(buf: &mut Vec<u8>, col: &ColumnVector) {
    let rows = col.len();
    buf.push(dtype_tag(col.data_type()));
    put_u32(buf, rows as u32);
    buf.push(u8::from(col.validity().is_some()));
    if let Some(bm) = col.validity() {
        put_bits(buf, rows, |i| bm.get(i));
    }
    match col {
        ColumnVector::Int64 { data, .. } => {
            for v in data {
                buf.extend_from_slice(&v.to_le_bytes());
            }
        }
        ColumnVector::Float64 { data, .. } => {
            for v in data {
                buf.extend_from_slice(&v.to_le_bytes());
            }
        }
        ColumnVector::Bool { data, .. } => put_bits(buf, rows, |i| data[i]),
        ColumnVector::Varchar { data, .. } => {
            for s in data {
                put_str(buf, s);
            }
        }
    }
}

/// Append a [`Chunk`] in HyLite's columnar layout (row count, column
/// count, then each column with its validity bitmap).
pub fn put_chunk(buf: &mut Vec<u8>, chunk: &Chunk) {
    put_u32(buf, chunk.len() as u32);
    put_u16(buf, chunk.num_columns() as u16);
    for col in chunk.columns() {
        put_column(buf, col);
    }
}

/// Append a [`Schema`] (field count, then qualifier/name/type/nullability
/// per field).
pub fn put_schema(buf: &mut Vec<u8>, schema: &Schema) {
    put_u16(buf, schema.len() as u16);
    for f in schema.fields() {
        Option::<String>::put(&f.qualifier, buf);
        put_str(buf, &f.name);
        DataType::put(&f.data_type, buf);
        bool::put(&f.nullable, buf);
    }
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

/// Sequential reader over length-delimited binary data. Every accessor
/// bounds-checks against the slice (with overflow-safe arithmetic) and
/// returns [`HyError::Protocol`] on truncation, so arbitrary bytes can be
/// fed to it without panicking.
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Start reading at the beginning of `buf`.
    pub fn new(buf: &'a [u8]) -> ByteReader<'a> {
        ByteReader { buf, pos: 0 }
    }

    /// Consume exactly `n` bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.buf.len());
        let Some(end) = end else {
            return Err(HyError::Protocol(format!(
                "frame truncated: wanted {n} bytes at offset {}, frame is {} bytes",
                self.pos,
                self.buf.len()
            )));
        };
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    /// Bytes left to read.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether the input is fully consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Consume one byte.
    pub fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// Consume a little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    /// Consume a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Consume a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Consume a `u32`-length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String> {
        let n = self.u32()? as usize;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| HyError::Protocol("invalid UTF-8 in string".into()))
    }

    /// Consume `n` items of `T`'s codec. A forged `n` costs no memory up
    /// front: the preallocation never exceeds the bytes left to read.
    pub fn items<T: Codec>(&mut self, n: usize, at: At) -> Result<Vec<T>> {
        let cap = self.remaining() / std::mem::size_of::<T>().max(1);
        let mut items = Vec::with_capacity(n.min(cap));
        for _ in 0..n {
            items.push(T::get(self, at)?);
        }
        Ok(items)
    }

    /// A flag byte: 0 or 1, nothing else; `what` names it in the error.
    fn flag(&mut self, what: impl fmt::Display) -> Result<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(HyError::Protocol(format!("bad {what} flag {other}"))),
        }
    }

    /// Read `len` LSB-first packed bits whose padding bits are zero.
    fn bits(&mut self, len: usize) -> Result<Vec<bool>> {
        let bytes = self.take(len.div_ceil(8))?;
        if !len.is_multiple_of(8) && bytes[len / 8] >> (len % 8) != 0 {
            return Err(HyError::Protocol(format!(
                "bitset of {len} bits has nonzero padding"
            )));
        }
        Ok((0..len)
            .map(|i| (bytes[i / 8] >> (i % 8)) & 1 == 1)
            .collect())
    }

    /// Read `rows` eight-byte little-endian values.
    fn words<T>(&mut self, rows: usize, from: impl Fn([u8; 8]) -> T) -> Result<Vec<T>> {
        // `rows * 8` can't overflow here: rows came from a u32, but use
        // checked math anyway so 32-bit targets stay safe.
        let n = rows
            .checked_mul(8)
            .ok_or_else(|| HyError::Protocol(format!("column of {rows} rows overflows")))?;
        let raw = self.take(n)?.chunks_exact(8);
        Ok(raw.map(|b| from(b.try_into().unwrap())).collect())
    }

    fn column(&mut self) -> Result<ColumnVector> {
        let dt = dtype_from_tag(self.u8()?)?;
        let rows = self.u32()? as usize;
        let validity = if self.flag("validity")? {
            Some(self.bits(rows)?.into_iter().collect::<Bitmap>())
        } else {
            None
        };
        Ok(match dt {
            DataType::Int64 => ColumnVector::Int64 {
                data: self.words(rows, i64::from_le_bytes)?,
                validity,
            },
            DataType::Float64 => ColumnVector::Float64 {
                data: self.words(rows, f64::from_le_bytes)?,
                validity,
            },
            DataType::Bool => ColumnVector::Bool {
                data: self.bits(rows)?,
                validity,
            },
            DataType::Varchar => {
                // Each string costs at least its 4-byte length prefix, so
                // cap the preallocation by what the frame could possibly
                // hold — a forged row count must not drive a huge
                // allocation before the truncation is noticed.
                let mut data = Vec::with_capacity(rows.min(self.remaining() / 4));
                for _ in 0..rows {
                    data.push(self.str()?);
                }
                ColumnVector::Varchar { data, validity }
            }
            // No column vector has the type of an untyped NULL literal.
            DataType::Null => {
                return Err(HyError::Protocol("no column has type tag 4 (Null)".into()));
            }
        })
    }

    /// Consume a [`Chunk`] as written by [`put_chunk`].
    pub fn chunk(&mut self) -> Result<Chunk> {
        let rows = self.u32()? as usize;
        let cols = self.u16()? as usize;
        if cols == 0 {
            return Ok(Chunk::zero_column(rows));
        }
        let mut columns = Vec::with_capacity(cols);
        for _ in 0..cols {
            let col = self.column()?;
            if col.len() != rows {
                return Err(HyError::Protocol(format!(
                    "chunk column length {} does not match row count {rows}",
                    col.len()
                )));
            }
            columns.push(std::sync::Arc::new(col));
        }
        Ok(Chunk::from_arc_columns(columns))
    }

    /// Consume a [`Schema`] as written by [`put_schema`].
    pub fn schema(&mut self) -> Result<Schema> {
        let n = self.u16()? as usize;
        let mut fields = Vec::with_capacity(n);
        for _ in 0..n {
            let qualifier = if self.flag("qualifier")? {
                Some(self.str()?)
            } else {
                None
            };
            let name = self.str()?;
            let data_type = dtype_from_tag(self.u8()?)?;
            let nullable = self.flag("nullable")?;
            let mut f = Field::new(name, data_type);
            f.qualifier = qualifier;
            f.nullable = nullable;
            fields.push(f);
        }
        Ok(Schema::new(fields))
    }
}
