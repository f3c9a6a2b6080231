//! Row-format key normalization for grouped aggregation and hash joins.
//!
//! The engine's two dominant hash paths (GROUP BY and join build/probe)
//! used to materialize a heap-allocated `Vec<Value>` per input row — the
//! tuple-at-a-time overhead §2 of the paper rules out. This module
//! replaces that with a *normalized byte encoding*: every key row is
//! serialized into a compact byte string inside a reusable arena, with
//!
//! * **grouping equality by `memcmp`** — two keys are equal iff their
//!   encoded bytes are equal (NULLs form one group via a sentinel byte,
//!   `-0.0` folds into `+0.0`, NaNs fold into one canonical NaN);
//! * **order preservation** — `memcmp` over encodings reproduces the
//!   engine's [`Value::total_cmp`] ordering (NULLs last), so the parallel
//!   aggregate merge can emit key-sorted deterministic output without
//!   ever decoding keys;
//! * **zero per-row allocation** — encoding writes into a [`KeyScratch`]
//!   reused across chunks; inserting a new group copies bytes into the
//!   table arena (amortized growth, no per-row boxes).
//!
//! ### Encoding
//!
//! Per key column: one sentinel byte (`0x01` valid, `0xFF` NULL — NULLs
//! sort last), then the payload:
//!
//! | type | payload |
//! |---|---|
//! | `BOOLEAN` | 1 byte, `0`/`1` |
//! | integers / `DATE` / `TIMESTAMP` | big-endian with the sign bit flipped |
//! | `DOUBLE` | IEEE total-order bits (negative values bit-inverted), big-endian |
//! | `VARCHAR` | bytes with `0x00` escaped as `0x00 0xFF`, terminated by `0x00 0x00` |
//!
//! NULL columns carry a zeroed payload in all-fixed-width layouts (so the
//! row width stays constant) and no payload in layouts containing
//! `VARCHAR`. The escape-terminated varchar form keeps `memcmp` ordering
//! correct for embedded NULs, empty strings and prefixes, which is why it
//! is used instead of a length-prefixed side heap: the parallel merge
//! sorts groups by raw encoded bytes.
//!
//! Hashing is *not* derived from the encoded bytes: [`crate::fxhash::hash_vector`]
//! hashes the typed column data directly (one tight loop per physical
//! type), which is cheaper and agrees with the encoding because both
//! normalize doubles the same way.
//!
//! ### Ordered variant
//!
//! [`KeyLayout::ordered`] gives each column an ORDER BY direction and NULL
//! placement, so `memcmp` reproduces a whole `ORDER BY` clause (the sort
//! core in [`crate::ops::sort`] compares nothing else). A `DESC` column
//! inverts its payload bytes (every column encoding is prefix-free, so
//! inversion reverses the order exactly); `NULLS FIRST` writes the NULL
//! sentinel as `0x00`, below the valid `0x01`. NaN (all NaNs fold into one)
//! sorts after `+inf` ascending, `-0.0` ties with `+0.0`. Ordered keys are
//! compared, never decoded.

use crate::fxhash::{hash_vector, normalize_f64};
use eider_vector::{EiderError, LogicalType, Result, Value, Vector, VectorData};
use std::borrow::Borrow;

/// Sentinel byte of a valid (non-NULL) key column.
pub const KEY_VALID: u8 = 0x01;
/// Sentinel byte of a NULL key column; sorts after every valid value,
/// matching `ORDER BY ... NULLS LAST` ([`Value::total_cmp`]).
pub const KEY_NULL: u8 = 0xFF;
/// NULL sentinel of a `NULLS FIRST` column in an ordered layout.
pub const KEY_NULL_FIRST: u8 = 0x00;

const EMPTY_SLOT: u32 = u32::MAX;

/// Payload width of a fixed-width type's encoding (sentinel excluded).
fn payload_width(ty: LogicalType) -> Option<usize> {
    Some(match ty {
        LogicalType::Boolean | LogicalType::TinyInt => 1,
        LogicalType::SmallInt => 2,
        LogicalType::Integer | LogicalType::Date => 4,
        LogicalType::BigInt | LogicalType::Timestamp | LogicalType::Double => 8,
        LogicalType::Varchar => return None,
    })
}

/// ORDER BY direction and NULL placement of one ordered-layout column.
#[derive(Debug, Clone, Copy, Default)]
pub struct KeyOrder {
    pub descending: bool,
    pub nulls_first: bool,
}

/// The compile-once shape of a key row: column types plus the derived
/// fixed row width (`None` when a `VARCHAR` column makes rows variable).
#[derive(Debug, Clone)]
pub struct KeyLayout {
    types: Vec<LogicalType>,
    /// Encoded row width when every column is fixed-width.
    fixed_width: Option<usize>,
    /// Per-column payload offset within a fixed-width row (sentinel at
    /// `offset`, payload at `offset + 1`). Empty for variable layouts.
    offsets: Vec<usize>,
    /// Per-column order of an ordered layout; empty for grouping layouts.
    order: Vec<KeyOrder>,
}

impl KeyLayout {
    pub fn new(types: Vec<LogicalType>) -> KeyLayout {
        let mut offsets = Vec::with_capacity(types.len());
        let mut width = Some(0usize);
        for &ty in &types {
            if let Some(w) = width {
                offsets.push(w);
                width = payload_width(ty).map(|pw| w + 1 + pw);
            }
        }
        if width.is_none() {
            offsets.clear();
        }
        KeyLayout { types, fixed_width: width, offsets, order: Vec::new() }
    }

    /// An ORDER BY layout (see "Ordered variant" in the module docs).
    pub fn ordered(types: Vec<LogicalType>, order: Vec<KeyOrder>) -> KeyLayout {
        KeyLayout { order, ..KeyLayout::new(types) }
    }

    pub fn types(&self) -> &[LogicalType] {
        &self.types
    }

    /// `Some(total row width)` on the all-fixed-width fast path.
    pub fn fixed_width(&self) -> Option<usize> {
        self.fixed_width
    }

    pub fn column_count(&self) -> usize {
        self.types.len()
    }
}

/// Reusable per-chunk encoding buffers: encoded key bytes, per-row
/// offsets, per-row NULL flags and the vectorized hash column. Owned by
/// each table/operator so steady-state chunks allocate nothing.
#[derive(Default)]
pub struct KeyScratch {
    bytes: Vec<u8>,
    /// Start offset of row `i`'s encoding; `bytes.len()` closes the last.
    starts: Vec<u32>,
    has_null: Vec<bool>,
    /// Hash column filled by [`hash_vector`].
    pub hashes: Vec<u64>,
}

impl KeyScratch {
    /// Encoded key bytes of row `row` (valid after [`encode_keys`]).
    #[inline]
    pub fn key(&self, row: usize) -> &[u8] {
        let start = self.starts[row] as usize;
        let end = self.starts.get(row + 1).map_or(self.bytes.len(), |&s| s as usize);
        &self.bytes[start..end]
    }

    /// Whether any key column of row `row` is NULL (NULL keys never join).
    #[inline]
    pub fn has_null(&self, row: usize) -> bool {
        self.has_null[row]
    }

    /// `(offset, length)` of row `row`'s encoding within the byte buffer.
    #[inline]
    pub fn key_range(&self, row: usize) -> (u32, u32) {
        let start = self.starts[row];
        let end = self.starts.get(row + 1).map_or(self.bytes.len() as u32, |&s| s);
        (start, end - start)
    }

    /// Consume the scratch, keeping only the encoded bytes (join-build
    /// partials hand them to the shared build side).
    pub fn take_bytes(&mut self) -> Vec<u8> {
        std::mem::take(&mut self.bytes)
    }

    pub fn heap_bytes(&self) -> usize {
        self.bytes.capacity()
            + self.starts.capacity() * 4
            + self.has_null.capacity()
            + self.hashes.capacity() * 8
    }
}

/// Cast any column whose vector type diverges from the layout's types
/// (rare planner edge) so that *hashing and encoding see the same data*
/// — [`crate::fxhash::hash_vector`] must run over exactly the values the
/// encoder writes, or byte-equal keys could carry different hashes.
/// Returns `None` when every column already matches (the common case;
/// no copies made).
pub fn conform_columns<V: Borrow<Vector>>(
    layout: &KeyLayout,
    columns: &[V],
) -> Result<Option<Vec<Vector>>> {
    if columns.iter().zip(layout.types()).all(|(v, &t)| v.borrow().logical_type() == t) {
        return Ok(None);
    }
    columns
        .iter()
        .zip(layout.types())
        .map(|(v, &t)| {
            let v = v.borrow();
            if v.logical_type() == t {
                Ok(v.clone())
            } else {
                v.cast(t)
            }
        })
        .collect::<Result<Vec<_>>>()
        .map(Some)
}

#[inline(always)]
fn encode_u64_ord(x: i64) -> u64 {
    (x as u64) ^ (1 << 63)
}

#[inline(always)]
fn encode_f64_ord(f: f64) -> u64 {
    let bits = normalize_f64(f).to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits ^ (1 << 63)
    }
}

macro_rules! fixed_column_loop {
    ($d:expr, $validity:expr, $bytes:expr, $has_null:expr, $stride:expr, $co:expr, $pw:expr,
     $enc:expr) => {{
        if $validity.all_valid() {
            for (i, x) in $d.iter().enumerate() {
                let p = i * $stride + $co;
                $bytes[p] = KEY_VALID;
                $bytes[p + 1..p + 1 + $pw].copy_from_slice(&$enc(x));
            }
        } else {
            for (i, x) in $d.iter().enumerate() {
                let p = i * $stride + $co;
                if $validity.is_valid(i) {
                    $bytes[p] = KEY_VALID;
                    $bytes[p + 1..p + 1 + $pw].copy_from_slice(&$enc(x));
                } else {
                    $bytes[p] = KEY_NULL;
                    $has_null[i] = true;
                }
            }
        }
    }};
}

/// Append one value's escape-terminated varchar encoding. Strings
/// without embedded NULs — virtually all of them — copy in one memcpy;
/// only strings containing `0x00` take the per-byte escaping loop.
fn encode_str(bytes: &mut Vec<u8>, s: &str) {
    let raw = s.as_bytes();
    if !raw.contains(&0) {
        bytes.extend_from_slice(raw);
    } else {
        for &b in raw {
            if b == 0 {
                bytes.extend_from_slice(&[0x00, 0xFF]);
            } else {
                bytes.push(b);
            }
        }
    }
    bytes.extend_from_slice(&[0x00, 0x00]);
}

/// Serialize the key columns of a chunk into `scratch` (hashes are *not*
/// touched — callers fill them with [`hash_vector`] first or afterwards).
///
/// Columns must match `layout.types()`; a column whose vector type
/// diverges (rare planner edge) is cast once per chunk, never per row.
pub fn encode_keys<V: Borrow<Vector>>(
    layout: &KeyLayout,
    columns: &[V],
    count: usize,
    scratch: &mut KeyScratch,
) -> Result<()> {
    if columns.len() != layout.types.len() {
        return Err(EiderError::Internal(format!(
            "key layout has {} columns, chunk evaluated {}",
            layout.types.len(),
            columns.len()
        )));
    }
    scratch.bytes.clear();
    scratch.starts.clear();
    scratch.has_null.clear();
    scratch.has_null.resize(count, false);
    // Cast stragglers up front so the hot loops see the layout's types.
    let mut casts: Vec<Option<Vector>> = Vec::new();
    for (c, v) in columns.iter().enumerate() {
        let v = v.borrow();
        if v.logical_type() != layout.types[c] {
            if casts.is_empty() {
                casts.resize(columns.len(), None);
            }
            casts[c] = Some(v.cast(layout.types[c])?);
        }
    }
    let col = |c: usize| -> &Vector {
        casts.get(c).and_then(|o| o.as_ref()).unwrap_or_else(|| columns[c].borrow())
    };
    if let Some(stride) = layout.fixed_width {
        scratch.bytes.resize(count * stride, 0);
        scratch.starts.extend((0..count as u32).map(|i| i * stride as u32));
        for c in 0..columns.len() {
            let v = col(c);
            let (validity, co) = (v.validity(), layout.offsets[c]);
            let bytes = &mut scratch.bytes;
            let has_null = &mut scratch.has_null;
            match v.data() {
                VectorData::Bool(d) => {
                    fixed_column_loop!(d, validity, bytes, has_null, stride, co, 1, |x: &bool| [
                        u8::from(*x)
                    ])
                }
                VectorData::I8(d) => {
                    fixed_column_loop!(d, validity, bytes, has_null, stride, co, 1, |x: &i8| [(*x
                        as u8)
                        ^ 0x80])
                }
                VectorData::I16(d) => {
                    fixed_column_loop!(d, validity, bytes, has_null, stride, co, 2, |x: &i16| ((*x
                        as u16)
                        ^ 0x8000)
                        .to_be_bytes())
                }
                VectorData::I32(d) => {
                    fixed_column_loop!(d, validity, bytes, has_null, stride, co, 4, |x: &i32| ((*x
                        as u32)
                        ^ 0x8000_0000)
                        .to_be_bytes())
                }
                VectorData::I64(d) => {
                    fixed_column_loop!(d, validity, bytes, has_null, stride, co, 8, |x: &i64| {
                        encode_u64_ord(*x).to_be_bytes()
                    })
                }
                VectorData::F64(d) => {
                    fixed_column_loop!(d, validity, bytes, has_null, stride, co, 8, |x: &f64| {
                        encode_f64_ord(*x).to_be_bytes()
                    })
                }
                VectorData::Str(_) => unreachable!("varchar in fixed-width layout"),
            }
            // An ordered column other than ASC NULLS LAST: flip in place.
            if let Some(o) = layout.order.get(c).filter(|o| o.descending || o.nulls_first) {
                let pw = payload_width(layout.types[c]).expect("fixed layout");
                for col in bytes.chunks_exact_mut(stride).map(|row| &mut row[co..=co + pw]) {
                    match col[0] {
                        KEY_NULL if o.nulls_first => col[0] = KEY_NULL_FIRST,
                        KEY_VALID if o.descending => col[1..].iter_mut().for_each(|b| *b = !*b),
                        _ => {}
                    }
                }
            }
        }
    } else if layout.order.is_empty() {
        encode_variable::<false>(layout, col, count, scratch);
    } else {
        encode_variable::<true>(layout, col, count, scratch);
    }
    Ok(())
}

/// Variable layout (VARCHAR present): row-major; a NULL column is its
/// sentinel alone. A dict-coded varchar copies each value's escaped
/// fragment, built once per dictionary. `ORDERED` compiles the ORDER BY
/// handling in, so grouping keys pay nothing for it.
fn encode_variable<'a, const ORDERED: bool>(
    layout: &KeyLayout,
    col: impl Fn(usize) -> &'a Vector,
    count: usize,
    scratch: &mut KeyScratch,
) {
    let dict_cols: Vec<_> = (0..layout.types.len())
        .map(|c| {
            col(c).dict_parts().map(|(dict, codes)| {
                let frags = dict.key_fragments(|vals| {
                    vals.iter()
                        .map(|s| {
                            let mut b = Vec::with_capacity(s.len() + 2);
                            encode_str(&mut b, s);
                            b
                        })
                        .collect()
                });
                (frags, codes)
            })
        })
        .collect();
    for i in 0..count {
        scratch.starts.push(scratch.bytes.len() as u32);
        for (c, dict_col) in dict_cols.iter().enumerate() {
            let v = col(c);
            let order = if ORDERED { layout.order[c] } else { KeyOrder::default() };
            if v.is_null(i) {
                scratch.bytes.push(if order.nulls_first { KEY_NULL_FIRST } else { KEY_NULL });
                scratch.has_null[i] = true;
                continue;
            }
            let bytes = &mut scratch.bytes;
            bytes.push(KEY_VALID);
            let start = bytes.len();
            match (dict_col, v.data()) {
                (Some((frags, codes)), _) => bytes.extend_from_slice(&frags[codes[i] as usize]),
                (None, VectorData::Bool(d)) => bytes.push(u8::from(d[i])),
                (None, VectorData::I8(d)) => bytes.push((d[i] as u8) ^ 0x80),
                (None, VectorData::I16(d)) => {
                    bytes.extend_from_slice(&((d[i] as u16) ^ 0x8000).to_be_bytes())
                }
                (None, VectorData::I32(d)) => {
                    bytes.extend_from_slice(&((d[i] as u32) ^ 0x8000_0000).to_be_bytes())
                }
                (None, VectorData::I64(d)) => {
                    bytes.extend_from_slice(&encode_u64_ord(d[i]).to_be_bytes())
                }
                (None, VectorData::F64(d)) => {
                    bytes.extend_from_slice(&encode_f64_ord(d[i]).to_be_bytes())
                }
                (None, VectorData::Str(d)) => encode_str(bytes, &d[i]),
            }
            if order.descending {
                bytes[start..].iter_mut().for_each(|b| *b = !*b);
            }
        }
    }
}

/// Decode one encoded key row, appending one value to each output vector
/// (which must match the layout's types in order). Grouping layouts only.
pub fn decode_key_into(layout: &KeyLayout, key: &[u8], out: &mut [Vector]) -> Result<()> {
    let mut p = 0usize;
    for (c, &ty) in layout.types.iter().enumerate() {
        let sentinel = key[p];
        p += 1;
        if sentinel == KEY_NULL {
            out[c].push_null();
            if layout.fixed_width.is_some() {
                p += payload_width(ty).expect("fixed layout");
            }
            continue;
        }
        let v = &mut out[c];
        match ty {
            LogicalType::Boolean => {
                v.as_bool_mut().push(key[p] != 0);
                p += 1;
            }
            LogicalType::TinyInt => {
                v.as_i8_mut().push((key[p] ^ 0x80) as i8);
                p += 1;
            }
            LogicalType::SmallInt => {
                let raw = u16::from_be_bytes(key[p..p + 2].try_into().expect("2"));
                v.as_i16_mut().push((raw ^ 0x8000) as i16);
                p += 2;
            }
            LogicalType::Integer | LogicalType::Date => {
                let raw = u32::from_be_bytes(key[p..p + 4].try_into().expect("4"));
                v.as_i32_mut().push((raw ^ 0x8000_0000) as i32);
                p += 4;
            }
            LogicalType::BigInt | LogicalType::Timestamp => {
                let raw = u64::from_be_bytes(key[p..p + 8].try_into().expect("8"));
                v.as_i64_mut().push((raw ^ (1 << 63)) as i64);
                p += 8;
            }
            LogicalType::Double => {
                let raw = u64::from_be_bytes(key[p..p + 8].try_into().expect("8"));
                let bits = if raw >> 63 == 0 { !raw } else { raw ^ (1 << 63) };
                v.as_f64_mut().push(f64::from_bits(bits));
                p += 8;
            }
            LogicalType::Varchar => {
                let mut s = Vec::new();
                loop {
                    // Copy whole NUL-free stretches at once; a 0x00 is
                    // either the terminator (followed by 0x00) or an
                    // escaped NUL (followed by 0xFF).
                    let rest = &key[p..];
                    let z = rest.iter().position(|&b| b == 0x00).expect("terminated key");
                    s.extend_from_slice(&rest[..z]);
                    p += z + 2;
                    if rest[z + 1] == 0x00 {
                        break;
                    }
                    s.push(0x00);
                }
                v.as_str_mut().push(String::from_utf8(s).map_err(|_| {
                    EiderError::Internal("key decoding produced invalid UTF-8".into())
                })?);
            }
        }
        v.validity_mut().push(true);
    }
    Ok(())
}

/// Decode a key row into `Value`s (tests and slow paths).
pub fn decode_key_values(layout: &KeyLayout, key: &[u8]) -> Result<Vec<Value>> {
    let mut vectors: Vec<Vector> =
        layout.types.iter().map(|&t| Vector::with_capacity(t, 1)).collect();
    decode_key_into(layout, key, &mut vectors)?;
    Ok(vectors.iter().map(|v| v.get_value(0)).collect())
}

/// The hash partition, of `partitions`, that a key with stored hash
/// `hash` belongs to. It reads the hash's top 32 bits (a multiply-shift
/// range reduction, so any partition count splits evenly), while
/// [`KeyedTable`]'s slot index is dominated by the low bits: a partition's
/// keys still spread over its table's slots.
#[inline]
pub fn hash_partition(hash: u64, partitions: usize) -> usize {
    (((hash >> 32) * partitions as u64) >> 32) as usize
}

/// An arena-backed hash table keyed by encoded key rows.
///
/// Keys live contiguously in one byte arena; the open-addressing slot
/// array holds indexes into the entry vectors, so the steady state of
/// [`KeyedTable::upsert_rows`] performs no per-row heap allocation:
/// lookups compare hash then bytes, and inserting a new key copies its
/// encoding into the arena (amortized growth only). This is the table
/// behind both the serial [`HashAggregateOp`](crate::ops::HashAggregateOp)
/// and the parallel aggregate sink's partials and hash partitions.
pub struct KeyedTable<T> {
    layout: KeyLayout,
    arena: Vec<u8>,
    /// `(offset, len)` of each entry's key in `arena`.
    keys: Vec<(u32, u32)>,
    hashes: Vec<u64>,
    payloads: Vec<T>,
    /// Power-of-two open-addressing slot array of entry indexes.
    slots: Vec<u32>,
    scratch: KeyScratch,
}

impl<T> KeyedTable<T> {
    pub fn new(layout: KeyLayout) -> Self {
        KeyedTable::with_capacity(layout, 0)
    }

    /// Pre-size for about `cap` distinct keys (e.g. the group cardinality
    /// observed on a previous morsel).
    pub fn with_capacity(layout: KeyLayout, cap: usize) -> Self {
        let slots = (cap * 2).next_power_of_two().max(16);
        KeyedTable {
            layout,
            arena: Vec::new(),
            keys: Vec::with_capacity(cap),
            hashes: Vec::with_capacity(cap),
            payloads: Vec::with_capacity(cap),
            slots: vec![EMPTY_SLOT; slots],
            scratch: KeyScratch::default(),
        }
    }

    pub fn layout(&self) -> &KeyLayout {
        &self.layout
    }

    pub fn len(&self) -> usize {
        self.payloads.len()
    }

    pub fn is_empty(&self) -> bool {
        self.payloads.is_empty()
    }

    /// Encoded key bytes of entry `idx` (insertion order).
    #[inline]
    pub fn key_at(&self, idx: usize) -> &[u8] {
        let (off, len) = self.keys[idx];
        &self.arena[off as usize..(off + len) as usize]
    }

    pub fn payloads(&self) -> &[T] {
        &self.payloads
    }

    /// Free the per-chunk encode/hash staging buffers. Call when the table
    /// becomes a parked partial awaiting a merge: merging never touches
    /// scratch, and the buffers otherwise dominate the footprint
    /// of small tables (they are sized per input chunk, not per group).
    pub fn release_scratch(&mut self) {
        self.scratch = KeyScratch::default();
    }

    /// Approximate heap footprint of keys, slots and scratch buffers
    /// (payload internals are the caller's to account).
    pub fn table_bytes(&self) -> usize {
        self.arena.capacity()
            + self.keys.capacity() * 8
            + self.hashes.capacity() * 8
            + self.payloads.capacity() * std::mem::size_of::<T>()
            + self.slots.capacity() * 4
            + self.scratch.heap_bytes()
    }

    /// Home slot of a hash: fold the high half in before masking, so keys
    /// whose hashes differ only in upper bits don't share probe chains.
    #[inline(always)]
    fn slot_of(hash: u64, mask: u64) -> usize {
        ((hash ^ (hash >> 32)) & mask) as usize
    }

    fn grow(&mut self) {
        let new_len = (self.slots.len() * 2).max(16);
        self.slots.clear();
        self.slots.resize(new_len, EMPTY_SLOT);
        let mask = (new_len - 1) as u64;
        for (idx, &h) in self.hashes.iter().enumerate() {
            let mut i = Self::slot_of(h, mask);
            while self.slots[i] != EMPTY_SLOT {
                i = (i + 1) & mask as usize;
            }
            self.slots[i] = idx as u32;
        }
    }

    /// Find the entry for `(hash, key)` or insert a fresh payload.
    /// Returns `(entry index, inserted)`.
    pub fn upsert(
        &mut self,
        hash: u64,
        key: &[u8],
        new_payload: impl FnOnce() -> T,
    ) -> (usize, bool) {
        // Cap the load factor at 3/4: linear probing degrades sharply past
        // ~75% occupancy, and slots are only 4 bytes each — far cheaper to
        // keep sparse than the probe chains they would otherwise grow.
        if (self.payloads.len() + 1) * 4 > self.slots.len() * 3 {
            self.grow();
        }
        let mask = (self.slots.len() - 1) as u64;
        let mut i = Self::slot_of(hash, mask);
        loop {
            let s = self.slots[i];
            if s == EMPTY_SLOT {
                let idx = self.payloads.len();
                self.slots[i] = idx as u32;
                let off = self.arena.len() as u32;
                self.arena.extend_from_slice(key);
                self.keys.push((off, key.len() as u32));
                self.hashes.push(hash);
                self.payloads.push(new_payload());
                return (idx, true);
            }
            let s = s as usize;
            if self.hashes[s] == hash && self.key_at(s) == key {
                return (s, false);
            }
            i = (i + 1) & mask as usize;
        }
    }

    /// Look up without inserting.
    pub fn find(&self, hash: u64, key: &[u8]) -> Option<usize> {
        if self.payloads.is_empty() {
            return None;
        }
        let mask = (self.slots.len() - 1) as u64;
        let mut i = Self::slot_of(hash, mask);
        loop {
            let s = self.slots[i];
            if s == EMPTY_SLOT {
                return None;
            }
            let s = s as usize;
            if self.hashes[s] == hash && self.key_at(s) == key {
                return Some(s);
            }
            i = (i + 1) & mask as usize;
        }
    }

    /// Vectorized find-or-insert of a whole chunk's keys: hash every key
    /// column with [`hash_vector`], encode rows into the reused scratch,
    /// then probe each row. `group_ids[row]` receives the entry index.
    pub fn upsert_rows<V: Borrow<Vector>>(
        &mut self,
        columns: &[V],
        count: usize,
        mut new_payload: impl FnMut() -> T,
        group_ids: &mut Vec<u32>,
    ) -> Result<()> {
        let mut scratch = std::mem::take(&mut self.scratch);
        let conformed = match conform_columns(&self.layout, columns) {
            Ok(c) => c,
            Err(e) => {
                self.scratch = scratch;
                return Err(e);
            }
        };
        let columns: Vec<&Vector> = match &conformed {
            Some(cast) => cast.iter().collect(),
            None => columns.iter().map(Borrow::borrow).collect(),
        };
        if columns.is_empty() {
            scratch.hashes.clear();
            scratch.hashes.resize(count, 0);
        } else {
            for (c, &v) in columns.iter().enumerate() {
                hash_vector(v, &mut scratch.hashes, c == 0);
            }
        }
        let result = encode_keys(&self.layout, &columns, count, &mut scratch);
        if result.is_ok() {
            group_ids.clear();
            group_ids.reserve(count);
            for row in 0..count {
                let (idx, _) = self.upsert(scratch.hashes[row], scratch.key(row), &mut new_payload);
                group_ids.push(idx as u32);
            }
        }
        self.scratch = scratch;
        result
    }

    /// Upsert the entries of `other` (same layout) that fall in hash
    /// partition `partition` of `partitions` (see [`hash_partition`]),
    /// in `other`'s insertion order, keeping merges deterministic.
    /// `other` is only borrowed: a new key copies its bytes and clones its
    /// payload. For callers that keep per-entry state *outside* the
    /// payload (e.g. a flat aggregate-state array indexed by entry),
    /// `on_entry(idx, other_idx, inserted)` reports each merged key's
    /// entry index here, its index in `other`, and whether it is new.
    pub fn merge_partition_from(
        &mut self,
        other: &KeyedTable<T>,
        partition: usize,
        partitions: usize,
        mut on_entry: impl FnMut(usize, usize, bool) -> Result<()>,
    ) -> Result<()>
    where
        T: Clone,
    {
        for (other_idx, &h) in other.hashes.iter().enumerate() {
            if hash_partition(h, partitions) != partition {
                continue;
            }
            let (idx, inserted) =
                self.upsert(h, other.key_at(other_idx), || other.payloads[other_idx].clone());
            on_entry(idx, other_idx, inserted)?;
        }
        Ok(())
    }

    /// Entry indexes sorted by encoded key bytes — which, by the ordering
    /// property of the encoding, is [`Value::total_cmp`] order.
    pub fn sorted_order(&self) -> Vec<u32> {
        let mut order: Vec<u32> = (0..self.len() as u32).collect();
        order.sort_by(|&a, &b| self.key_at(a as usize).cmp(self.key_at(b as usize)));
        order
    }

    /// Decode entry `idx`'s key, appending one value per output vector.
    pub fn decode_key_into(&self, idx: usize, out: &mut [Vector]) -> Result<()> {
        decode_key_into(&self.layout, self.key_at(idx), out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn encode_row(types: &[LogicalType], row: &[Value]) -> Vec<u8> {
        let layout = KeyLayout::new(types.to_vec());
        let columns: Vec<Vector> = types
            .iter()
            .zip(row)
            .map(|(&t, v)| Vector::from_values(t, std::slice::from_ref(v)).unwrap())
            .collect();
        let mut scratch = KeyScratch::default();
        encode_keys(&layout, &columns, 1, &mut scratch).unwrap();
        scratch.key(0).to_vec()
    }

    #[test]
    fn round_trip_all_types() {
        let types = [
            LogicalType::Boolean,
            LogicalType::TinyInt,
            LogicalType::SmallInt,
            LogicalType::Integer,
            LogicalType::BigInt,
            LogicalType::Double,
            LogicalType::Varchar,
            LogicalType::Date,
            LogicalType::Timestamp,
        ];
        let row = vec![
            Value::Boolean(true),
            Value::TinyInt(-3),
            Value::SmallInt(-300),
            Value::Integer(70_000),
            Value::BigInt(-(1 << 40)),
            Value::Double(-2.5),
            Value::Varchar("du\0ck".into()),
            Value::Date(18273),
            Value::Timestamp(1_600_000_000_000_000),
        ];
        let layout = KeyLayout::new(types.to_vec());
        let key = encode_row(&types, &row);
        assert_eq!(decode_key_values(&layout, &key).unwrap(), row);
        // All-NULL row round-trips too.
        let nulls: Vec<Value> = types.iter().map(|_| Value::Null).collect();
        let key = encode_row(&types, &nulls);
        assert_eq!(decode_key_values(&layout, &key).unwrap(), nulls);
    }

    #[test]
    fn memcmp_order_matches_total_cmp() {
        let cases: Vec<(LogicalType, Vec<Value>)> = vec![
            (
                LogicalType::Integer,
                vec![
                    Value::Integer(i32::MIN),
                    Value::Integer(-1),
                    Value::Integer(0),
                    Value::Integer(1),
                    Value::Integer(i32::MAX),
                    Value::Null,
                ],
            ),
            (
                LogicalType::Double,
                vec![
                    Value::Double(f64::NEG_INFINITY),
                    Value::Double(-1.5),
                    Value::Double(0.0),
                    Value::Double(2.0),
                    Value::Double(f64::INFINITY),
                    Value::Null,
                ],
            ),
            (
                LogicalType::Varchar,
                vec![
                    Value::Varchar("".into()),
                    Value::Varchar("a".into()),
                    Value::Varchar("a\0".into()),
                    Value::Varchar("ab".into()),
                    Value::Varchar("b".into()),
                    Value::Null,
                ],
            ),
        ];
        for (ty, vals) in cases {
            for a in &vals {
                for b in &vals {
                    let ka = encode_row(&[ty], std::slice::from_ref(a));
                    let kb = encode_row(&[ty], std::slice::from_ref(b));
                    assert_eq!(ka.cmp(&kb), a.total_cmp(b), "{ty}: {a:?} vs {b:?}");
                }
            }
        }
    }

    #[test]
    fn fixed_width_layout_has_constant_rows() {
        let layout = KeyLayout::new(vec![LogicalType::Integer, LogicalType::BigInt]);
        assert_eq!(layout.fixed_width(), Some(5 + 9));
        let varchar = KeyLayout::new(vec![LogicalType::Integer, LogicalType::Varchar]);
        assert_eq!(varchar.fixed_width(), None);
    }

    /// A table of `n` rows keyed `i % modulo`, with each key's row count
    /// kept beside it in entry order.
    fn counted_table(n: i32, modulo: i32) -> (KeyedTable<()>, Vec<i64>) {
        let mut table = KeyedTable::new(KeyLayout::new(vec![LogicalType::Integer]));
        let col = Vector::from_values(
            LogicalType::Integer,
            &(0..n).map(|i| Value::Integer(i % modulo)).collect::<Vec<_>>(),
        )
        .unwrap();
        let mut ids = Vec::new();
        table.upsert_rows(std::slice::from_ref(&col), n as usize, || (), &mut ids).unwrap();
        let mut counts = vec![0i64; table.len()];
        for &g in &ids {
            counts[g as usize] += 1;
        }
        (table, counts)
    }

    #[test]
    fn keyed_table_groups_and_merges() {
        let (a, a_counts) = counted_table(2048, 100);
        assert_eq!(a.len(), 100);
        let (b, b_counts) = counted_table(300, 150);
        for partitions in [1, 2, 3] {
            // Every partition reads both inputs in order and keeps only
            // its own keys; counts live beside the table, by entry index.
            let mut merged: Vec<(KeyedTable<()>, Vec<i64>)> = Vec::new();
            for p in 0..partitions {
                let mut table = KeyedTable::new(a.layout().clone());
                let mut counts: Vec<i64> = Vec::new();
                for (input, input_counts) in [(&a, &a_counts), (&b, &b_counts)] {
                    table
                        .merge_partition_from(input, p, partitions, |idx, other, inserted| {
                            if inserted {
                                counts.push(input_counts[other]);
                            } else {
                                counts[idx] += input_counts[other];
                            }
                            Ok(())
                        })
                        .unwrap();
                }
                merged.push((table, counts));
            }
            // Partitions are disjoint and cover all 150 keys; shared keys
            // combined.
            assert_eq!(merged.iter().map(|(t, _)| t.len()).sum::<usize>(), 150);
            let total: i64 = merged.iter().flat_map(|(_, c)| c).sum();
            assert_eq!(total, 2048 + 300);
            // Each partition's sorted order decodes ascending, and together
            // they hold exactly the keys 0..150.
            let mut all: Vec<Value> = Vec::new();
            for (table, _) in &merged {
                let decoded: Vec<Value> = table
                    .sorted_order()
                    .iter()
                    .map(|&i| decode_key_values(table.layout(), table.key_at(i as usize)).unwrap())
                    .map(|mut row| row.remove(0))
                    .collect();
                assert!(
                    decoded.windows(2).all(|w| w[0].total_cmp(&w[1]).is_lt()),
                    "partitions={partitions}"
                );
                all.extend(decoded);
            }
            all.sort_by(Value::total_cmp);
            let expected: Vec<Value> = (0..150).map(Value::Integer).collect();
            assert_eq!(all, expected, "partitions={partitions}");
        }
    }

    #[test]
    fn hash_partition_splits_evenly_at_any_count() {
        for partitions in [1usize, 2, 3, 7, 8] {
            let mut sizes = vec![0usize; partitions];
            for i in 0..10_000u64 {
                sizes[hash_partition(i.wrapping_mul(0x9E37_79B9_7F4A_7C15), partitions)] += 1;
            }
            let even = 10_000 / partitions;
            assert!(sizes.iter().all(|&n| n.abs_diff(even) < even / 10), "{sizes:?}");
        }
    }

    #[test]
    fn null_and_negative_zero_normalize() {
        let ty = [LogicalType::Double];
        assert_eq!(encode_row(&ty, &[Value::Double(0.0)]), encode_row(&ty, &[Value::Double(-0.0)]));
        assert_eq!(
            encode_row(&ty, &[Value::Double(f64::NAN)]),
            encode_row(&ty, &[Value::Double(-f64::NAN)])
        );
        assert_eq!(encode_row(&ty, &[Value::Null]), encode_row(&ty, &[Value::Null]));
        assert_ne!(encode_row(&ty, &[Value::Null]), encode_row(&ty, &[Value::Double(0.0)]));
    }
}
