//! A `Vector` is one column slice: up to [`crate::VECTOR_SIZE`] values of a
//! single logical type plus a validity mask.
//!
//! Internally a vector may hold its data in a compressed representation
//! (dictionary, run-length or frame-of-reference; see [`crate::encoding`]).
//! Plain-path callers are unaffected: [`Vector::data`] lazily decodes (and
//! caches) a flat copy, while compression-aware kernels query
//! [`Vector::encoding`] and use the typed part accessors to stay in the
//! compressed domain.

use crate::date::{parse_date, parse_timestamp};
use crate::encoding::{
    choose, DictIndex, DictRepr, Encoding, ForRepr, Repr, RleRepr, StrDict, DICT_SELECTIVITY,
};
use crate::error::{EiderError, Result};
use crate::selection::SelectionVector;
use crate::types::LogicalType;
use crate::validity::ValidityMask;
use crate::value::{parse_bool, parse_double, parse_int, Value};
use std::ops::Range;
use std::sync::{Arc, OnceLock};

/// Typed storage behind a [`Vector`].
///
/// Temporal types share integer physical storage (`Date` -> `I32`,
/// `Timestamp` -> `I64`); the logical type lives on the `Vector`.
#[derive(Debug, Clone, PartialEq)]
pub enum VectorData {
    Bool(Vec<bool>),
    I8(Vec<i8>),
    I16(Vec<i16>),
    I32(Vec<i32>),
    I64(Vec<i64>),
    F64(Vec<f64>),
    Str(Vec<String>),
}

/// Apply `$body` to the inner `Vec` of any variant, binding it as `$v`.
macro_rules! for_each_variant {
    ($data:expr, $v:ident => $body:expr) => {
        match $data {
            VectorData::Bool($v) => $body,
            VectorData::I8($v) => $body,
            VectorData::I16($v) => $body,
            VectorData::I32($v) => $body,
            VectorData::I64($v) => $body,
            VectorData::F64($v) => $body,
            VectorData::Str($v) => $body,
        }
    };
}

/// Apply `$body` to same-variant pairs, binding them as `$d`/`$s`; runs
/// `$err` on a physical type mismatch.
macro_rules! for_each_pair {
    ($dst:expr, $src:expr, $d:ident, $s:ident => $body:expr, $err:expr) => {
        match ($dst, $src) {
            (VectorData::Bool($d), VectorData::Bool($s)) => $body,
            (VectorData::I8($d), VectorData::I8($s)) => $body,
            (VectorData::I16($d), VectorData::I16($s)) => $body,
            (VectorData::I32($d), VectorData::I32($s)) => $body,
            (VectorData::I64($d), VectorData::I64($s)) => $body,
            (VectorData::F64($d), VectorData::F64($s)) => $body,
            (VectorData::Str($d), VectorData::Str($s)) => $body,
            _ => $err,
        }
    };
}

impl VectorData {
    pub(crate) fn new_for(ty: LogicalType, cap: usize) -> VectorData {
        match ty {
            LogicalType::Boolean => VectorData::Bool(Vec::with_capacity(cap)),
            LogicalType::TinyInt => VectorData::I8(Vec::with_capacity(cap)),
            LogicalType::SmallInt => VectorData::I16(Vec::with_capacity(cap)),
            LogicalType::Integer | LogicalType::Date => VectorData::I32(Vec::with_capacity(cap)),
            LogicalType::BigInt | LogicalType::Timestamp => {
                VectorData::I64(Vec::with_capacity(cap))
            }
            LogicalType::Double => VectorData::F64(Vec::with_capacity(cap)),
            LogicalType::Varchar => VectorData::Str(Vec::with_capacity(cap)),
        }
    }

    pub fn len(&self) -> usize {
        for_each_variant!(self, v => v.len())
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Append the default value (what a NULL slot stores).
    pub(crate) fn push_default(&mut self) {
        match self {
            VectorData::Bool(v) => v.push(false),
            VectorData::I8(v) => v.push(0),
            VectorData::I16(v) => v.push(0),
            VectorData::I32(v) => v.push(0),
            VectorData::I64(v) => v.push(0),
            VectorData::F64(v) => v.push(0.0),
            VectorData::Str(v) => v.push(String::new()),
        }
    }

    pub(crate) fn truncate(&mut self, new_len: usize) {
        for_each_variant!(self, v => v.truncate(new_len))
    }

    /// Copy of the rows `[offset, end)`.
    pub(crate) fn slice_range(&self, offset: usize, end: usize) -> VectorData {
        for_each_variant!(self, v => {
            let mut out = Vec::with_capacity(end - offset);
            out.extend_from_slice(&v[offset..end]);
            rewrap(self, out)
        })
    }

    /// Gather-copy of the rows named by `idx`.
    #[allow(clippy::clone_on_copy)] // macro is generic over String variants
    pub(crate) fn gather(&self, idx: &[u32]) -> VectorData {
        for_each_variant!(self, v => {
            rewrap(self, idx.iter().map(|&i| v[i as usize].clone()).collect())
        })
    }

    /// Append `other`'s rows `[offset, end)`; errors on physical mismatch.
    pub(crate) fn extend_range(
        &mut self,
        other: &VectorData,
        offset: usize,
        end: usize,
    ) -> Result<()> {
        for_each_pair!(self, other, d, s => {
            d.extend_from_slice(&s[offset..end]);
            Ok(())
        }, Err(EiderError::Internal("physical type mismatch in append_from".into())))
    }

    /// Append row `row` of `other`; errors on physical mismatch.
    #[allow(clippy::clone_on_copy)] // macro is generic over String variants
    pub(crate) fn push_row(&mut self, other: &VectorData, row: usize) -> Result<()> {
        for_each_pair!(self, other, d, s => {
            d.push(s[row].clone());
            Ok(())
        }, Err(EiderError::Internal("physical type mismatch in push_from".into())))
    }

    /// Gather-append `other`'s rows named by `idx`; errors on mismatch.
    #[allow(clippy::clone_on_copy)] // macro is generic over String variants
    pub(crate) fn gather_from(&mut self, other: &VectorData, idx: &[u32]) -> Result<()> {
        for_each_pair!(self, other, d, s => {
            d.extend(idx.iter().map(|&i| s[i as usize].clone()));
            Ok(())
        }, Err(EiderError::Internal("physical type mismatch in append_selected".into())))
    }

    /// Heap footprint in bytes (capacity-based, matching `Vec` accounting).
    pub(crate) fn heap_bytes(&self) -> usize {
        match self {
            VectorData::Bool(v) => v.capacity(),
            VectorData::I8(v) => v.capacity(),
            VectorData::I16(v) => v.capacity() * 2,
            VectorData::I32(v) => v.capacity() * 4,
            VectorData::I64(v) => v.capacity() * 8,
            VectorData::F64(v) => v.capacity() * 8,
            VectorData::Str(v) => {
                v.capacity() * std::mem::size_of::<String>()
                    + v.iter().map(|s| s.capacity()).sum::<usize>()
            }
        }
    }
}

/// Re-wrap a collected `Vec` in the same variant as `like`.
fn rewrap<T>(like: &VectorData, out: Vec<T>) -> VectorData
where
    Vec<T>: IntoVectorData,
{
    out.into_vector_data(like)
}

/// Helper trait so [`rewrap`] can stay generic over element types.
pub(crate) trait IntoVectorData {
    fn into_vector_data(self, like: &VectorData) -> VectorData;
}

macro_rules! impl_into_vector_data {
    ($t:ty, $variant:ident) => {
        impl IntoVectorData for Vec<$t> {
            fn into_vector_data(self, like: &VectorData) -> VectorData {
                debug_assert!(matches!(like, VectorData::$variant(_)));
                VectorData::$variant(self)
            }
        }
    };
}

impl_into_vector_data!(bool, Bool);
impl_into_vector_data!(i8, I8);
impl_into_vector_data!(i16, I16);
impl_into_vector_data!(i32, I32);
impl_into_vector_data!(i64, I64);
impl_into_vector_data!(f64, F64);
impl_into_vector_data!(String, Str);

/// One column slice with NULL tracking.
#[derive(Debug)]
pub struct Vector {
    ty: LogicalType,
    repr: Repr,
    validity: ValidityMask,
    /// Lazily decoded flat copy of an encoded `repr` (never set for
    /// [`Repr::Flat`]). Cleared on mutation; skipped by `Clone`.
    decoded: OnceLock<Box<VectorData>>,
}

impl Clone for Vector {
    fn clone(&self) -> Self {
        // The decode cache is deliberately not cloned: clones are cheap
        // handles to the encoded data and re-decode only if they need to.
        Vector {
            ty: self.ty,
            repr: self.repr.clone(),
            validity: self.validity.clone(),
            decoded: OnceLock::new(),
        }
    }
}

impl PartialEq for Vector {
    /// Equality is representation-independent: an encoded vector equals a
    /// plain vector holding the same rows (including NULL-slot storage,
    /// which encodings preserve bit-identically).
    fn eq(&self, other: &Self) -> bool {
        self.ty == other.ty && self.validity == other.validity && self.data() == other.data()
    }
}

macro_rules! typed_accessors {
    ($as_ref:ident, $as_mut:ident, $variant:ident, $t:ty) => {
        /// Borrow the typed data slice (decoding first if the vector is
        /// encoded). Panics if the physical type differs (an internal
        /// invariant violation, not a user error).
        pub fn $as_ref(&self) -> &[$t] {
            match self.data() {
                VectorData::$variant(v) => v,
                other => panic!(
                    concat!("vector is not ", stringify!($variant), ": {:?}"),
                    std::mem::discriminant(other)
                ),
            }
        }

        /// Mutable access to the typed data (flattens any encoding). The
        /// caller must keep `validity` in sync with any length change.
        pub fn $as_mut(&mut self) -> &mut Vec<$t> {
            match self.flat_mut() {
                VectorData::$variant(v) => v,
                _ => panic!(concat!("vector is not ", stringify!($variant))),
            }
        }
    };
}

impl Vector {
    pub fn new(ty: LogicalType) -> Self {
        Vector::with_capacity(ty, 0)
    }

    pub fn with_capacity(ty: LogicalType, cap: usize) -> Self {
        Vector {
            ty,
            repr: Repr::Flat(VectorData::new_for(ty, cap)),
            validity: ValidityMask::default(),
            decoded: OnceLock::new(),
        }
    }

    /// Build from raw parts; `validity.len()` must match the data length.
    pub fn from_parts(ty: LogicalType, data: VectorData, validity: ValidityMask) -> Result<Self> {
        if data.len() != validity.len() {
            return Err(EiderError::Internal(format!(
                "vector data length {} != validity length {}",
                data.len(),
                validity.len()
            )));
        }
        Ok(Vector { ty, repr: Repr::Flat(data), validity, decoded: OnceLock::new() })
    }

    /// Build a dictionary-coded varchar vector from a shared dictionary
    /// and per-row codes.
    pub fn from_dict(
        ty: LogicalType,
        dict: Arc<StrDict>,
        codes: Vec<u32>,
        validity: ValidityMask,
    ) -> Result<Self> {
        if ty != LogicalType::Varchar {
            return Err(EiderError::Internal(format!("dictionary vector of type {ty}")));
        }
        if codes.len() != validity.len() {
            return Err(EiderError::Internal("dict codes length != validity length".into()));
        }
        if codes.iter().any(|&c| c as usize >= dict.len()) {
            return Err(EiderError::Corruption("dictionary code out of range".into()));
        }
        Ok(Vector {
            ty,
            repr: Repr::Dict(DictRepr { dict, codes }),
            validity,
            decoded: OnceLock::new(),
        })
    }

    /// Build a run-length-encoded vector: `values[i]` repeats over rows
    /// `starts[i] .. starts[i+1]` (last run ends at `len`).
    pub fn from_rle(
        ty: LogicalType,
        values: VectorData,
        starts: Vec<u32>,
        len: usize,
        validity: ValidityMask,
    ) -> Result<Self> {
        if validity.len() != len {
            return Err(EiderError::Internal("rle length != validity length".into()));
        }
        if values.len() != starts.len() {
            return Err(EiderError::Corruption("rle run values / starts mismatch".into()));
        }
        if len > 0 {
            let ascending = starts.windows(2).all(|w| w[0] < w[1]);
            if starts.first() != Some(&0)
                || !ascending
                || starts.last().is_some_and(|&s| s as usize >= len)
            {
                return Err(EiderError::Corruption("rle run starts malformed".into()));
            }
        } else if !starts.is_empty() {
            return Err(EiderError::Corruption("rle runs in empty vector".into()));
        }
        Ok(Vector {
            ty,
            repr: Repr::Rle(RleRepr { values: Box::new(values), starts, len }),
            validity,
            decoded: OnceLock::new(),
        })
    }

    /// Build a frame-of-reference vector: `row[i] = frame + deltas[i]`
    /// (physical I64).
    pub fn from_for(
        ty: LogicalType,
        frame: i64,
        deltas: Vec<u32>,
        validity: ValidityMask,
    ) -> Result<Self> {
        if !matches!(ty, LogicalType::BigInt | LogicalType::Timestamp) {
            return Err(EiderError::Internal(format!("frame-of-reference vector of type {ty}")));
        }
        if deltas.len() != validity.len() {
            return Err(EiderError::Internal("for deltas length != validity length".into()));
        }
        Ok(Vector {
            ty,
            repr: Repr::For(ForRepr { frame, deltas }),
            validity,
            decoded: OnceLock::new(),
        })
    }

    /// Build a vector from `Value`s, casting each to `ty`.
    pub fn from_values(ty: LogicalType, values: &[Value]) -> Result<Self> {
        let mut v = Vector::with_capacity(ty, values.len());
        for val in values {
            v.push_value(val)?;
        }
        Ok(v)
    }

    /// A vector holding `count` copies of `value`.
    pub fn constant(ty: LogicalType, value: &Value, count: usize) -> Result<Self> {
        let mut v = Vector::with_capacity(ty, count);
        for _ in 0..count {
            v.push_value(value)?;
        }
        Ok(v)
    }

    pub fn logical_type(&self) -> LogicalType {
        self.ty
    }

    pub fn len(&self) -> usize {
        self.repr.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn validity(&self) -> &ValidityMask {
        &self.validity
    }

    pub fn validity_mut(&mut self) -> &mut ValidityMask {
        &mut self.validity
    }

    /// The flat typed data. For an encoded vector this decodes once and
    /// caches the flat copy, so plain-path callers keep working unchanged.
    pub fn data(&self) -> &VectorData {
        match &self.repr {
            Repr::Flat(d) => d,
            repr => self.decoded.get_or_init(|| Box::new(repr.decode())),
        }
    }

    /// Which representation this vector currently uses.
    pub fn encoding(&self) -> Encoding {
        match &self.repr {
            Repr::Flat(_) => Encoding::Plain,
            Repr::Dict(_) => Encoding::Dict,
            Repr::Rle(_) => Encoding::Rle,
            Repr::For(_) => Encoding::For,
        }
    }

    pub fn is_encoded(&self) -> bool {
        !matches!(self.repr, Repr::Flat(_))
    }

    /// Dictionary parts `(dict, codes)` when dictionary-coded.
    pub fn dict_parts(&self) -> Option<(&Arc<StrDict>, &[u32])> {
        match &self.repr {
            Repr::Dict(d) => Some((&d.dict, &d.codes)),
            _ => None,
        }
    }

    /// RLE parts `(run_values, run_starts)` when run-length-encoded. Run
    /// `i` covers rows `starts[i] .. starts[i+1]` (last run ends at
    /// `self.len()`).
    pub fn rle_parts(&self) -> Option<(&VectorData, &[u32])> {
        match &self.repr {
            Repr::Rle(r) => Some((&r.values, &r.starts)),
            _ => None,
        }
    }

    /// FOR parts `(frame, deltas)` when frame-of-reference-encoded.
    pub fn for_parts(&self) -> Option<(i64, &[u32])> {
        match &self.repr {
            Repr::For(f) => Some((f.frame, &f.deltas)),
            _ => None,
        }
    }

    /// Distinct-count estimate from encoding metadata, free to read: the
    /// dictionary size for dict vectors (exact) and the run count for RLE
    /// (an upper bound). Plain and FOR vectors carry no such evidence.
    pub fn distinct_estimate(&self) -> Option<u64> {
        match &self.repr {
            Repr::Dict(d) => Some(d.dict.len() as u64),
            Repr::Rle(r) => Some(r.starts.len() as u64),
            _ => None,
        }
    }

    /// Run the stats-driven encoding chooser over this vector's data and
    /// return an encoded copy when an encoding pays, `None` when plain
    /// wins (see [`crate::encoding`] for the decision rules).
    pub fn encode_auto(&self) -> Option<Vector> {
        if self.is_encoded() {
            return None;
        }
        let repr = choose(self.data())?;
        Some(Vector {
            ty: self.ty,
            repr,
            validity: self.validity.clone(),
            decoded: OnceLock::new(),
        })
    }

    /// Flatten in place: decode any encoding so the vector is plain.
    pub fn flatten(&mut self) {
        if let Repr::Flat(_) = self.repr {
            return;
        }
        let data = match self.decoded.take() {
            Some(cached) => *cached,
            None => self.repr.decode(),
        };
        self.repr = Repr::Flat(data);
    }

    /// Mutable flat data, flattening and invalidating the decode cache.
    fn flat_mut(&mut self) -> &mut VectorData {
        self.flatten();
        match &mut self.repr {
            Repr::Flat(d) => d,
            _ => unreachable!("flatten left vector encoded"),
        }
    }

    pub fn is_null(&self, row: usize) -> bool {
        !self.validity.is_valid(row)
    }

    typed_accessors!(as_bool, as_bool_mut, Bool, bool);
    typed_accessors!(as_i8, as_i8_mut, I8, i8);
    typed_accessors!(as_i16, as_i16_mut, I16, i16);
    typed_accessors!(as_i32, as_i32_mut, I32, i32);
    typed_accessors!(as_i64, as_i64_mut, I64, i64);
    typed_accessors!(as_f64, as_f64_mut, F64, f64);
    typed_accessors!(as_str, as_str_mut, Str, String);

    /// Append one `Value`, casting it to this vector's type.
    pub fn push_value(&mut self, value: &Value) -> Result<()> {
        if value.is_null() {
            self.push_null();
            return Ok(());
        }
        let ty = self.ty;
        let value =
            if value.logical_type() == Some(ty) { value.clone() } else { value.cast_to(ty)? };
        match (self.flat_mut(), value) {
            (VectorData::Bool(v), Value::Boolean(x)) => v.push(x),
            (VectorData::I8(v), Value::TinyInt(x)) => v.push(x),
            (VectorData::I16(v), Value::SmallInt(x)) => v.push(x),
            (VectorData::I32(v), Value::Integer(x)) => v.push(x),
            (VectorData::I32(v), Value::Date(x)) => v.push(x),
            (VectorData::I64(v), Value::BigInt(x)) => v.push(x),
            (VectorData::I64(v), Value::Timestamp(x)) => v.push(x),
            (VectorData::F64(v), Value::Double(x)) => v.push(x),
            (VectorData::Str(v), Value::Varchar(x)) => v.push(x),
            (_, v) => {
                return Err(EiderError::Internal(format!(
                    "cast produced {v:?} for vector of type {ty}"
                )))
            }
        }
        self.validity.push(true);
        Ok(())
    }

    /// Append one value parsed from text as this vector's type — the typed
    /// ingest path (CSV), with no `Value` in between. Accepts and rejects
    /// exactly what [`Value::parse_as`] does, with the same messages.
    pub fn push_parsed(&mut self, s: &str) -> Result<()> {
        let ty = self.ty;
        match self.flat_mut() {
            VectorData::Bool(v) => v.push(parse_bool(s)?),
            VectorData::I8(v) => v.push(parse_int(s, ty)?),
            VectorData::I16(v) => v.push(parse_int(s, ty)?),
            VectorData::I32(v) if ty == LogicalType::Date => v.push(parse_date(s)?),
            VectorData::I32(v) => v.push(parse_int(s, ty)?),
            VectorData::I64(v) if ty == LogicalType::Timestamp => v.push(parse_timestamp(s)?),
            VectorData::I64(v) => v.push(parse_int(s, ty)?),
            VectorData::F64(v) => v.push(parse_double(s)?),
            VectorData::Str(v) => v.push(s.to_owned()),
        }
        self.validity.push(true);
        Ok(())
    }

    /// Append a NULL (a default value occupies the data slot).
    pub fn push_null(&mut self) {
        self.flat_mut().push_default();
        self.validity.push(false);
    }

    /// Read one row out as a `Value` (slow path; kernels use typed slices).
    /// Encoded vectors answer without materializing.
    pub fn get_value(&self, row: usize) -> Value {
        if self.is_null(row) {
            return Value::Null;
        }
        match &self.repr {
            Repr::Flat(d) => value_at(d, self.ty, row),
            Repr::Dict(d) => Value::Varchar(d.dict.get(d.codes[row]).to_string()),
            Repr::Rle(r) => value_at(&r.values, self.ty, r.run_of(row)),
            Repr::For(f) => {
                let v = f.frame + f.deltas[row] as i64;
                if self.ty == LogicalType::Timestamp {
                    Value::Timestamp(v)
                } else {
                    Value::BigInt(v)
                }
            }
        }
    }

    /// Overwrite one row (used by in-place MVCC updates, §6). Flattens any
    /// encoding: point mutation invalidates shared compressed state.
    pub fn set_value(&mut self, row: usize, value: &Value) -> Result<()> {
        if value.is_null() {
            self.flatten();
            self.validity.set_invalid(row);
            return Ok(());
        }
        let ty = self.ty;
        let value = value.cast_to(ty)?;
        match (self.flat_mut(), value) {
            (VectorData::Bool(v), Value::Boolean(x)) => v[row] = x,
            (VectorData::I8(v), Value::TinyInt(x)) => v[row] = x,
            (VectorData::I16(v), Value::SmallInt(x)) => v[row] = x,
            (VectorData::I32(v), Value::Integer(x)) => v[row] = x,
            (VectorData::I32(v), Value::Date(x)) => v[row] = x,
            (VectorData::I64(v), Value::BigInt(x)) => v[row] = x,
            (VectorData::I64(v), Value::Timestamp(x)) => v[row] = x,
            (VectorData::F64(v), Value::Double(x)) => v[row] = x,
            (VectorData::Str(v), Value::Varchar(x)) => v[row] = x,
            (_, v) => {
                return Err(EiderError::Internal(format!(
                    "cast produced {v:?} for vector of type {ty}"
                )))
            }
        }
        self.validity.set_valid(row);
        Ok(())
    }

    /// Append `count` rows of `other` starting at `offset`. Types must
    /// match. Dictionary sources append in the compressed domain when the
    /// destination shares (or can adopt) the same dictionary.
    pub fn append_from(&mut self, other: &Vector, offset: usize, count: usize) -> Result<()> {
        if other.ty != self.ty {
            return Err(EiderError::TypeMismatch(format!(
                "cannot append {} vector to {} vector",
                other.ty, self.ty
            )));
        }
        let end = offset + count;
        if end > other.len() {
            return Err(EiderError::Internal("append_from range out of bounds".into()));
        }
        // An empty destination adopts the source's encoding wholesale.
        if self.is_empty() && other.is_encoded() {
            let sliced = other.slice(offset, count);
            *self = sliced;
            return Ok(());
        }
        if let (Repr::Dict(dst), Repr::Dict(src)) = (&mut self.repr, &other.repr) {
            if Arc::ptr_eq(&dst.dict, &src.dict) {
                dst.codes.extend_from_slice(&src.codes[offset..end]);
                self.decoded = OnceLock::new();
                self.validity.extend_from(&other.validity, offset, count);
                return Ok(());
            }
        }
        self.flat_mut().extend_range(other.data(), offset, end)?;
        self.validity.extend_from(&other.validity, offset, count);
        Ok(())
    }

    /// Append rows `rows` of `src`, keeping a VARCHAR vector
    /// dictionary-coded as it grows: the write path of a table's row
    /// groups, whose dictionary `index` the caller keeps beside the vector.
    ///
    /// An empty VARCHAR vector starts a dictionary of its own; a coded one
    /// looks each incoming string up in `index`, so a value is cloned only
    /// the first time the vector sees it and each row stores a code. A
    /// coded source is translated once per source entry it uses, not per
    /// row (codes are copied as they are when it shares this vector's
    /// dictionary). New entries extend the dictionary in place while this
    /// vector holds the only reference to it; otherwise it is copied
    /// first, so a reader's slice never sees it change. The vector goes
    /// plain for good (and `index` is cleared) as soon as its distinct
    /// count would exceed `max(VECTOR_SIZE, len / DICT_SELECTIVITY)`.
    /// Other types, and VARCHAR vectors that went plain, append as
    /// [`Vector::append_from`] does.
    pub fn append_coded(
        &mut self,
        src: &Vector,
        rows: Range<usize>,
        index: &mut DictIndex,
    ) -> Result<()> {
        if rows.end > src.len() || rows.start > rows.end {
            return Err(EiderError::Internal("append_coded range out of bounds".into()));
        }
        let coded = match &self.repr {
            Repr::Dict(_) => true,
            Repr::Flat(d) => self.ty == LogicalType::Varchar && src.ty == self.ty && d.is_empty(),
            _ => false,
        };
        if !coded {
            if !index.is_empty() {
                index.clear();
            }
            return self.append_from(src, rows.start, rows.len());
        }
        if src.ty != self.ty {
            return Err(EiderError::TypeMismatch(format!(
                "cannot append {} vector to {} vector",
                src.ty, self.ty
            )));
        }
        if let Repr::Flat(_) = self.repr {
            let dict = Arc::new(StrDict::new(Vec::new()));
            self.repr = Repr::Dict(DictRepr { dict, codes: Vec::with_capacity(rows.len()) });
        }
        let Repr::Dict(dst) = &mut self.repr else { unreachable!("coded above") };
        self.decoded = OnceLock::new();
        index.sync(dst.dict.values());
        // Rows `rows.start..done` are coded; a column that goes plain
        // stops there and takes the rest plain.
        let mut done = rows.start;
        match &src.repr {
            Repr::Dict(s) if Arc::ptr_eq(&s.dict, &dst.dict) => {
                dst.codes.extend_from_slice(&s.codes[rows.clone()]);
                done = rows.end;
            }
            Repr::Dict(s) => {
                // Source code → code here, filled on first use. A source
                // dictionary larger than the range (a slice of a row
                // group's) is not mapped whole: its rows are looked up.
                let mapped_len = if s.dict.len() <= rows.len() { s.dict.len() } else { 0 };
                let mut map = vec![EMPTY_CODE; mapped_len];
                for &code in &s.codes[rows.clone()] {
                    let known = map.get(code as usize).copied().filter(|&c| c != EMPTY_CODE);
                    let Some(mapped) = known.or_else(|| intern(dst, index, s.dict.get(code)))
                    else {
                        break;
                    };
                    if let Some(slot) = map.get_mut(code as usize) {
                        *slot = mapped;
                    }
                    dst.codes.push(mapped);
                    done += 1;
                }
            }
            _ => {
                let VectorData::Str(values) = src.data() else {
                    return Err(EiderError::Internal("VARCHAR vector without strings".into()));
                };
                for value in &values[rows.clone()] {
                    match intern(dst, index, value) {
                        Some(code) => dst.codes.push(code),
                        None => break,
                    }
                    done += 1;
                }
            }
        }
        self.validity.extend_from(&src.validity, rows.start, done - rows.start);
        if done < rows.end {
            self.flatten();
            index.clear();
            self.append_from(src, done, rows.end - done)?;
        }
        Ok(())
    }

    /// Overwrite one row like [`Vector::set_value`], but keep a
    /// dictionary-coded vector coded: the new value's code comes from
    /// `index` (see [`Vector::append_coded`], whose dictionary rules and
    /// fallback to plain apply). A NULL keeps the row's code.
    pub fn set_coded(&mut self, row: usize, value: &Value, index: &mut DictIndex) -> Result<()> {
        if let Repr::Dict(dst) = &mut self.repr {
            if value.is_null() {
                self.validity.set_invalid(row);
                self.decoded = OnceLock::new();
                return Ok(());
            }
            let Value::Varchar(s) = value.cast_to(self.ty)? else {
                return Err(EiderError::Internal("VARCHAR cast produced no string".into()));
            };
            index.sync(dst.dict.values());
            if let Some(code) = intern(dst, index, &s) {
                dst.codes[row] = code;
                self.validity.set_valid(row);
                self.decoded = OnceLock::new();
                return Ok(());
            }
        }
        if !index.is_empty() {
            index.clear();
        }
        self.set_value(row, value)
    }

    /// Append row `row` of `other` (same physical type) without routing
    /// through `Value` — the join's build-row gather path. Strings clone
    /// their bytes; everything else is a plain copy.
    pub fn push_from(&mut self, other: &Vector, row: usize) -> Result<()> {
        if let (Repr::Dict(dst), Repr::Dict(src)) = (&mut self.repr, &other.repr) {
            if Arc::ptr_eq(&dst.dict, &src.dict) {
                dst.codes.push(src.codes[row]);
                self.decoded = OnceLock::new();
                self.validity.push(other.validity.is_valid(row));
                return Ok(());
            }
        }
        self.flat_mut().push_row(other.data(), row)?;
        self.validity.push(other.validity.is_valid(row));
        Ok(())
    }

    /// Gather-append: push the rows of `other` named by `indexes` (types
    /// must match). Unlike [`Vector::select`] this appends to an existing
    /// vector, letting operators batch-materialize outputs.
    pub fn append_selected(&mut self, other: &Vector, indexes: &[u32]) -> Result<()> {
        if other.ty != self.ty {
            return Err(EiderError::TypeMismatch(format!(
                "cannot gather {} rows into {} vector",
                other.ty, self.ty
            )));
        }
        if self.is_empty() && other.is_encoded() {
            *self = other.select(&SelectionVector::from_indexes(indexes.to_vec()));
            return Ok(());
        }
        if let (Repr::Dict(dst), Repr::Dict(src)) = (&mut self.repr, &other.repr) {
            if Arc::ptr_eq(&dst.dict, &src.dict) {
                dst.codes.extend(indexes.iter().map(|&i| src.codes[i as usize]));
                self.decoded = OnceLock::new();
                self.push_selected_validity(other, indexes);
                return Ok(());
            }
        }
        self.flat_mut().gather_from(other.data(), indexes)?;
        self.push_selected_validity(other, indexes);
        Ok(())
    }

    fn push_selected_validity(&mut self, other: &Vector, indexes: &[u32]) {
        if other.validity.all_valid() {
            for _ in indexes {
                self.validity.push(true);
            }
        } else {
            for &i in indexes {
                self.validity.push(other.validity.is_valid(i as usize));
            }
        }
    }

    /// Materialize the rows chosen by `sel` into a new vector. Dictionary
    /// and FOR vectors gather codes/deltas and keep their encoding.
    pub fn select(&self, sel: &SelectionVector) -> Vector {
        let idx = sel.as_slice();
        let (repr, validity) = match &self.repr {
            Repr::Flat(d) => (Repr::Flat(d.gather(idx)), self.validity.select(idx)),
            Repr::Dict(d) => (
                Repr::Dict(DictRepr {
                    dict: Arc::clone(&d.dict),
                    codes: idx.iter().map(|&i| d.codes[i as usize]).collect(),
                }),
                self.validity.select(idx),
            ),
            Repr::For(f) => (
                Repr::For(ForRepr {
                    frame: f.frame,
                    deltas: idx.iter().map(|&i| f.deltas[i as usize]).collect(),
                }),
                self.validity.select(idx),
            ),
            // Arbitrary selections break runs; materialize.
            Repr::Rle(_) => (Repr::Flat(self.data().gather(idx)), self.validity.select(idx)),
        };
        Vector { ty: self.ty, repr, validity, decoded: OnceLock::new() }
    }

    /// A contiguous sub-slice `[offset, offset+count)` as a new vector.
    /// Encoded vectors slice in the compressed domain (RLE re-windows its
    /// runs), which is what keeps table scans compressed end to end.
    pub fn slice(&self, offset: usize, count: usize) -> Vector {
        let end = offset + count;
        assert!(end <= self.len(), "slice out of bounds");
        let mut validity = ValidityMask::default();
        validity.extend_from(&self.validity, offset, count);
        let repr = match &self.repr {
            Repr::Flat(d) => Repr::Flat(d.slice_range(offset, end)),
            Repr::Dict(d) => Repr::Dict(DictRepr {
                dict: Arc::clone(&d.dict),
                codes: d.codes[offset..end].to_vec(),
            }),
            Repr::For(f) => {
                Repr::For(ForRepr { frame: f.frame, deltas: f.deltas[offset..end].to_vec() })
            }
            Repr::Rle(r) => {
                if count == 0 {
                    Repr::Flat(VectorData::new_for(self.ty, 0))
                } else {
                    let first = r.run_of(offset);
                    let last = r.run_of(end - 1);
                    let starts = (first..=last)
                        .map(|i| (r.starts[i] as usize).max(offset) as u32 - offset as u32)
                        .collect();
                    Repr::Rle(RleRepr {
                        values: Box::new(r.values.slice_range(first, last + 1)),
                        starts,
                        len: count,
                    })
                }
            }
        };
        Vector { ty: self.ty, repr, validity, decoded: OnceLock::new() }
    }

    /// Cast every row to `ty`, erroring on the first failure.
    ///
    /// Infallible numeric widenings (e.g. `INTEGER → BIGINT`,
    /// `INTEGER → DOUBLE`) run as typed loops; everything that can fail
    /// or has value-level semantics (narrowing, strings, `DATE`/
    /// `TIMESTAMP` conversions, which rescale) takes the per-row path.
    /// A same-type cast is a clone and preserves any encoding.
    pub fn cast(&self, ty: LogicalType) -> Result<Vector> {
        if ty == self.ty {
            return Ok(self.clone());
        }
        if !matches!(self.ty, LogicalType::Date | LogicalType::Timestamp)
            && !matches!(ty, LogicalType::Date | LogicalType::Timestamp)
        {
            macro_rules! widen {
                ($v:expr, $variant:ident, $t:ty) => {
                    Some(VectorData::$variant($v.iter().map(|&x| x as $t).collect()))
                };
            }
            let data = match (self.data(), ty) {
                (VectorData::I8(v), LogicalType::SmallInt) => widen!(v, I16, i16),
                (VectorData::I8(v), LogicalType::Integer) => widen!(v, I32, i32),
                (VectorData::I8(v), LogicalType::BigInt) => widen!(v, I64, i64),
                (VectorData::I8(v), LogicalType::Double) => widen!(v, F64, f64),
                (VectorData::I16(v), LogicalType::Integer) => widen!(v, I32, i32),
                (VectorData::I16(v), LogicalType::BigInt) => widen!(v, I64, i64),
                (VectorData::I16(v), LogicalType::Double) => widen!(v, F64, f64),
                (VectorData::I32(v), LogicalType::BigInt) => widen!(v, I64, i64),
                (VectorData::I32(v), LogicalType::Double) => widen!(v, F64, f64),
                (VectorData::I64(v), LogicalType::Double) => widen!(v, F64, f64),
                _ => None,
            };
            if let Some(data) = data {
                return Vector::from_parts(ty, data, self.validity.clone());
            }
        }
        let mut out = Vector::with_capacity(ty, self.len());
        for row in 0..self.len() {
            out.push_value(&self.get_value(row))?;
        }
        Ok(out)
    }

    pub fn truncate(&mut self, new_len: usize) {
        if new_len >= self.len() {
            return;
        }
        match &mut self.repr {
            Repr::Flat(d) => d.truncate(new_len),
            Repr::Dict(d) => d.codes.truncate(new_len),
            Repr::For(f) => f.deltas.truncate(new_len),
            Repr::Rle(_) => {
                self.flatten();
                if let Repr::Flat(d) = &mut self.repr {
                    d.truncate(new_len);
                }
            }
        }
        self.decoded = OnceLock::new();
        self.validity.truncate(new_len);
    }

    pub fn clear(&mut self) {
        self.repr = Repr::Flat(VectorData::new_for(self.ty, 0));
        self.decoded = OnceLock::new();
        self.validity.clear();
    }

    /// Approximate heap footprint in bytes, for memory accounting (§4).
    /// Encoded vectors report their compressed footprint (dictionary bytes
    /// included, even when the dictionary is shared).
    pub fn size_bytes(&self) -> usize {
        let data = match &self.repr {
            Repr::Flat(d) => d.heap_bytes(),
            Repr::Dict(d) => d.codes.capacity() * 4 + d.dict.size_bytes(),
            Repr::Rle(r) => r.values.heap_bytes() + r.starts.capacity() * 4,
            Repr::For(f) => f.deltas.capacity() * 4 + 8,
        };
        data + self.len().div_ceil(8)
    }

    /// Min and max over the valid rows in `rows`, or `None` when the range
    /// holds no valid row. This powers the per-row-group zone maps used
    /// for scan skipping (§6: "skip irrelevant blocks of rows during a
    /// scan"), the write summaries of conflict detection and the Arrow
    /// footer's per-batch statistics.
    ///
    /// One typed pass per call: integers compare as integers, VARCHAR as
    /// borrowed `&str`, dictionary vectors by code (equal codes skip the
    /// string comparison), RLE vectors one value per run and FOR vectors
    /// their deltas — the encoded form, never [`Vector::data`]. Exactly
    /// two `Value`s are built. NaN is skipped: it compares equal to every
    /// number under [`Value::total_cmp`], so a NaN bound would never widen
    /// again and would prune `x > c` / `x < c` scans that hold matches.
    /// Ties keep the first row, like a per-row fold under
    /// [`Value::total_cmp`].
    pub fn min_max(&self, rows: Range<usize>) -> Option<(Value, Value)> {
        assert!(rows.end <= self.len(), "min_max range out of bounds");
        let validity = &self.validity;
        let all_valid = validity.all_valid();
        let valid_rows = rows.clone().filter(move |&r| all_valid || validity.is_valid(r));
        match &self.repr {
            Repr::Flat(d) => {
                let (lo, hi) = data_extremes(d, valid_rows)?;
                Some((value_at(d, self.ty, lo), value_at(d, self.ty, hi)))
            }
            Repr::Dict(d) => {
                // Codes compare through their strings, skipped when equal.
                let (codes, dict) = (&d.codes, &d.dict);
                let less = |a: usize, b: usize| {
                    codes[a] != codes[b] && dict.get(codes[a]) < dict.get(codes[b])
                };
                let (lo, hi) = extremes(valid_rows, less)?;
                Some((
                    Value::Varchar(dict.get(codes[lo]).to_owned()),
                    Value::Varchar(dict.get(codes[hi]).to_owned()),
                ))
            }
            Repr::Rle(r) => {
                if rows.is_empty() {
                    return None;
                }
                // A run counts when one of its rows inside `rows` is valid.
                let runs = (r.run_of(rows.start)..=r.run_of(rows.end - 1)).filter(|&i| {
                    let (start, end) =
                        ((r.starts[i] as usize).max(rows.start), r.run_end(i).min(rows.end));
                    all_valid || (start..end).any(|row| validity.is_valid(row))
                });
                let (lo, hi) = data_extremes(&r.values, runs)?;
                Some((value_at(&r.values, self.ty, lo), value_at(&r.values, self.ty, hi)))
            }
            Repr::For(f) => {
                let deltas = &f.deltas;
                let (lo, hi) = extremes(valid_rows, |a, b| deltas[a] < deltas[b])?;
                let value = |row: usize| {
                    let v = f.frame + deltas[row] as i64;
                    if self.ty == LogicalType::Timestamp {
                        Value::Timestamp(v)
                    } else {
                        Value::BigInt(v)
                    }
                };
                Some((value(lo), value(hi)))
            }
        }
    }

    /// Collect all rows as values (testing / display convenience).
    pub fn to_values(&self) -> Vec<Value> {
        (0..self.len()).map(|i| self.get_value(i)).collect()
    }
}

/// Marks a source dictionary entry not yet translated.
const EMPTY_CODE: u32 = u32::MAX;

/// The code of `value` in `dst`'s dictionary, adding it when new (copying
/// the dictionary first when a reader shares it), or `None` when adding it
/// would take the distinct count past `max(VECTOR_SIZE, rows /
/// DICT_SELECTIVITY)`, counting the row about to be written.
fn intern(dst: &mut DictRepr, index: &mut DictIndex, value: &str) -> Option<u32> {
    let hash = match index.find(value, dst.dict.values()) {
        Ok(code) => return Some(code),
        Err(hash) => hash,
    };
    let cap = crate::VECTOR_SIZE.max((dst.codes.len() + 1) / DICT_SELECTIVITY);
    if dst.dict.len() >= cap {
        return None;
    }
    Arc::make_mut(&mut dst.dict).push(value.to_owned());
    Some(index.insert(hash))
}

/// Read row `row` of flat data as a `Value` under logical type `ty`.
/// Public so compressed-domain kernels (e.g. per-run predicate
/// evaluation over [`Vector::rle_parts`]) can lift run values without
/// materializing the whole vector.
pub fn value_at(data: &VectorData, ty: LogicalType, row: usize) -> Value {
    match (data, ty) {
        (VectorData::Bool(v), _) => Value::Boolean(v[row]),
        (VectorData::I8(v), _) => Value::TinyInt(v[row]),
        (VectorData::I16(v), _) => Value::SmallInt(v[row]),
        (VectorData::I32(v), LogicalType::Date) => Value::Date(v[row]),
        (VectorData::I32(v), _) => Value::Integer(v[row]),
        (VectorData::I64(v), LogicalType::Timestamp) => Value::Timestamp(v[row]),
        (VectorData::I64(v), _) => Value::BigInt(v[row]),
        (VectorData::F64(v), _) => Value::Double(v[row]),
        (VectorData::Str(v), _) => Value::Varchar(v[row].clone()),
    }
}

/// Positions of the first minimum and the first maximum among `items`
/// under the strict order `less`, or `None` when `items` is empty.
fn extremes(
    mut items: impl Iterator<Item = usize>,
    less: impl Fn(usize, usize) -> bool,
) -> Option<(usize, usize)> {
    let first = items.next()?;
    let (mut lo, mut hi) = (first, first);
    for i in items {
        if less(i, lo) {
            lo = i;
        }
        if less(hi, i) {
            hi = i;
        }
    }
    Some((lo, hi))
}

/// [`extremes`] over the rows `rows` of flat data, in each physical type's
/// native order (strings compare as `&str`); NaN rows are skipped.
fn data_extremes(data: &VectorData, rows: impl Iterator<Item = usize>) -> Option<(usize, usize)> {
    match data {
        VectorData::Bool(v) => extremes(rows, |a, b| !v[a] & v[b]),
        VectorData::I8(v) => extremes(rows, |a, b| v[a] < v[b]),
        VectorData::I16(v) => extremes(rows, |a, b| v[a] < v[b]),
        VectorData::I32(v) => extremes(rows, |a, b| v[a] < v[b]),
        VectorData::I64(v) => extremes(rows, |a, b| v[a] < v[b]),
        VectorData::F64(v) => extremes(rows.filter(|&r| !v[r].is_nan()), |a, b| v[a] < v[b]),
        VectorData::Str(v) => extremes(rows, |a, b| v[a] < v[b]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_get_round_trip_all_types() {
        let cases: Vec<(LogicalType, Value)> = vec![
            (LogicalType::Boolean, Value::Boolean(true)),
            (LogicalType::TinyInt, Value::TinyInt(-3)),
            (LogicalType::SmallInt, Value::SmallInt(300)),
            (LogicalType::Integer, Value::Integer(-70000)),
            (LogicalType::BigInt, Value::BigInt(1 << 40)),
            (LogicalType::Double, Value::Double(2.5)),
            (LogicalType::Varchar, Value::Varchar("duck".into())),
            (LogicalType::Date, Value::Date(18273)),
            (LogicalType::Timestamp, Value::Timestamp(1_600_000_000_000_000)),
        ];
        for (ty, val) in cases {
            let mut v = Vector::new(ty);
            v.push_value(&val).unwrap();
            v.push_null();
            assert_eq!(v.get_value(0), val, "{ty}");
            assert!(v.get_value(1).is_null());
            assert_eq!(v.len(), 2);
        }
    }

    #[test]
    fn push_value_casts() {
        let mut v = Vector::new(LogicalType::BigInt);
        v.push_value(&Value::Integer(7)).unwrap();
        assert_eq!(v.get_value(0), Value::BigInt(7));
        let mut v = Vector::new(LogicalType::TinyInt);
        assert!(v.push_value(&Value::Integer(1000)).is_err());
    }

    #[test]
    fn select_materializes_subset() {
        let v = Vector::from_values(
            LogicalType::Integer,
            &[Value::Integer(10), Value::Null, Value::Integer(30), Value::Integer(40)],
        )
        .unwrap();
        let sel = SelectionVector::from_indexes(vec![3, 1, 0]);
        let out = v.select(&sel);
        assert_eq!(out.to_values(), vec![Value::Integer(40), Value::Null, Value::Integer(10)]);
    }

    #[test]
    fn append_from_preserves_validity() {
        let src = Vector::from_values(
            LogicalType::Varchar,
            &[Value::Varchar("a".into()), Value::Null, Value::Varchar("c".into())],
        )
        .unwrap();
        let mut dst = Vector::new(LogicalType::Varchar);
        dst.append_from(&src, 1, 2).unwrap();
        assert_eq!(dst.len(), 2);
        assert!(dst.get_value(0).is_null());
        assert_eq!(dst.get_value(1), Value::Varchar("c".into()));
    }

    #[test]
    fn append_type_mismatch_errors() {
        let src = Vector::new(LogicalType::Integer);
        let mut dst = Vector::new(LogicalType::BigInt);
        assert!(dst.append_from(&src, 0, 0).is_err());
    }

    #[test]
    fn set_value_in_place() {
        let mut v =
            Vector::from_values(LogicalType::Integer, &[Value::Integer(1), Value::Integer(2)])
                .unwrap();
        v.set_value(0, &Value::Integer(-999)).unwrap();
        v.set_value(1, &Value::Null).unwrap();
        assert_eq!(v.get_value(0), Value::Integer(-999));
        assert!(v.get_value(1).is_null());
        // Un-NULL a row again.
        v.set_value(1, &Value::Integer(5)).unwrap();
        assert_eq!(v.get_value(1), Value::Integer(5));
    }

    #[test]
    fn min_max_ignores_nulls() {
        let v = Vector::from_values(
            LogicalType::Integer,
            &[Value::Null, Value::Integer(5), Value::Integer(-2), Value::Null],
        )
        .unwrap();
        let (min, max) = v.min_max(0..4).unwrap();
        assert_eq!(min, Value::Integer(-2));
        assert_eq!(max, Value::Integer(5));
        assert_eq!(v.min_max(2..4), Some((Value::Integer(-2), Value::Integer(-2))));
        assert!(v.min_max(0..1).is_none());
        assert!(v.min_max(1..1).is_none());
        let all_null = Vector::from_values(LogicalType::Integer, &[Value::Null]).unwrap();
        assert!(all_null.min_max(0..1).is_none());
    }

    #[test]
    fn widening_casts_match_value_casts() {
        // The typed widening kernels must agree with the per-row
        // Value::cast_to path, including NULL slots.
        let cases: Vec<(LogicalType, Vec<Value>, Vec<LogicalType>)> = vec![
            (
                LogicalType::TinyInt,
                vec![Value::TinyInt(-3), Value::Null, Value::TinyInt(7)],
                vec![
                    LogicalType::SmallInt,
                    LogicalType::Integer,
                    LogicalType::BigInt,
                    LogicalType::Double,
                ],
            ),
            (
                LogicalType::Integer,
                vec![Value::Integer(i32::MIN), Value::Null, Value::Integer(i32::MAX)],
                vec![LogicalType::BigInt, LogicalType::Double],
            ),
            (
                LogicalType::BigInt,
                vec![Value::BigInt(1 << 40), Value::Null],
                vec![LogicalType::Double],
            ),
        ];
        for (from, vals, targets) in cases {
            let v = Vector::from_values(from, &vals).unwrap();
            for to in targets {
                let fast = v.cast(to).unwrap();
                let slow: Vec<Value> = vals.iter().map(|x| x.cast_to(to).unwrap()).collect();
                assert_eq!(fast.to_values(), slow, "{from} -> {to}");
            }
        }
        // Date/Timestamp conversions rescale and must NOT take the
        // widening kernel.
        let d = Vector::from_values(LogicalType::Date, &[Value::Date(2)]).unwrap();
        let ts = d.cast(LogicalType::Timestamp).unwrap();
        assert_eq!(ts.get_value(0), Value::Date(2).cast_to(LogicalType::Timestamp).unwrap());
    }

    #[test]
    fn cast_vector() {
        let v = Vector::from_values(
            LogicalType::Integer,
            &[Value::Integer(1), Value::Null, Value::Integer(3)],
        )
        .unwrap();
        let c = v.cast(LogicalType::Varchar).unwrap();
        assert_eq!(c.get_value(0), Value::Varchar("1".into()));
        assert!(c.get_value(1).is_null());
    }

    #[test]
    fn slice_is_contiguous_copy() {
        let v = Vector::from_values(
            LogicalType::Integer,
            (0..10).map(Value::Integer).collect::<Vec<_>>().as_slice(),
        )
        .unwrap();
        let s = v.slice(4, 3);
        assert_eq!(s.to_values(), vec![Value::Integer(4), Value::Integer(5), Value::Integer(6)]);
    }

    #[test]
    fn constant_vector() {
        let v = Vector::constant(LogicalType::Integer, &Value::Integer(7), 5).unwrap();
        assert_eq!(v.len(), 5);
        assert!(v.to_values().iter().all(|x| *x == Value::Integer(7)));
        let n = Vector::constant(LogicalType::Integer, &Value::Null, 3).unwrap();
        assert_eq!(n.validity().count_invalid(), 3);
    }

    // ---------------- encoded representations ----------------

    fn varchar(vals: &[&str]) -> Vector {
        Vector::from_values(
            LogicalType::Varchar,
            &vals.iter().map(|s| Value::Varchar(s.to_string())).collect::<Vec<_>>(),
        )
        .unwrap()
    }

    /// A low-cardinality varchar column long enough to dictionary-encode.
    fn dict_fixture() -> (Vector, Vector) {
        let vals: Vec<String> = (0..256).map(|i| format!("name_{}", i % 7)).collect();
        let plain = Vector::from_values(
            LogicalType::Varchar,
            &vals.iter().map(|s| Value::Varchar(s.clone())).collect::<Vec<_>>(),
        )
        .unwrap();
        let encoded = plain.encode_auto().expect("low cardinality must dictionary-encode");
        (plain, encoded)
    }

    #[test]
    fn chooser_adapts_to_cardinality() {
        // Low-cardinality: 7 distinct over 256 rows -> dictionary.
        let (_, encoded) = dict_fixture();
        assert_eq!(encoded.encoding(), Encoding::Dict);
        assert_eq!(encoded.dict_parts().unwrap().0.len(), 7);
        // High-cardinality: all distinct -> stays plain.
        let vals: Vec<Value> = (0..256).map(|i| Value::Varchar(format!("unique_{i}"))).collect();
        let high = Vector::from_values(LogicalType::Varchar, &vals).unwrap();
        assert!(high.encode_auto().is_none(), "high-cardinality varchar must stay plain");
        // Short vectors never encode.
        let short = varchar(&["a"; 8]);
        assert!(short.encode_auto().is_none());
    }

    #[test]
    fn chooser_picks_rle_for_runny_ints() {
        let vals: Vec<Value> = (0..512).map(|i| Value::Integer(i / 128)).collect();
        let v = Vector::from_values(LogicalType::Integer, &vals).unwrap();
        let e = v.encode_auto().unwrap();
        assert_eq!(e.encoding(), Encoding::Rle);
        let (runs, starts) = e.rle_parts().unwrap();
        assert_eq!(runs.len(), 4);
        assert_eq!(starts, &[0, 128, 256, 384]);
        assert_eq!(e.data(), v.data());
        // High-churn ints stay plain.
        let vals: Vec<Value> = (0..512).map(Value::Integer).collect();
        let v = Vector::from_values(LogicalType::Integer, &vals).unwrap();
        assert!(v.encode_auto().is_none());
    }

    #[test]
    fn chooser_picks_for_when_range_fits() {
        let base = 1_600_000_000_000_000i64;
        let vals: Vec<Value> = (0..256).map(|i| Value::BigInt(base + (i * 37) % 1000)).collect();
        let v = Vector::from_values(LogicalType::BigInt, &vals).unwrap();
        let e = v.encode_auto().unwrap();
        assert_eq!(e.encoding(), Encoding::For);
        let (frame, deltas) = e.for_parts().unwrap();
        assert_eq!(frame, base);
        assert_eq!(deltas.len(), 256);
        assert_eq!(e.data(), v.data());
        // A range wider than u32 stays plain.
        let wide = Vector::from_values(
            LogicalType::BigInt,
            &(0..128).map(|i| Value::BigInt(i * (1i64 << 33))).collect::<Vec<_>>(),
        )
        .unwrap();
        assert!(wide.encode_auto().is_none());
    }

    #[test]
    fn encoded_vectors_equal_plain_and_round_trip() {
        let (plain, encoded) = dict_fixture();
        assert_eq!(plain, encoded, "encoded vector must equal its plain source");
        assert_eq!(encoded.to_values(), plain.to_values());
        assert_eq!(encoded.data(), plain.data());
        // Flatten restores a plain representation with identical rows.
        let mut flat = encoded.clone();
        flat.flatten();
        assert_eq!(flat.encoding(), Encoding::Plain);
        assert_eq!(flat, plain);
    }

    #[test]
    fn encoded_slice_and_select_stay_compressed() {
        let (plain, encoded) = dict_fixture();
        let s = encoded.slice(10, 100);
        assert_eq!(s.encoding(), Encoding::Dict);
        assert_eq!(s.to_values(), plain.slice(10, 100).to_values());
        let sel = SelectionVector::from_indexes((0..256).step_by(3).collect());
        let g = encoded.select(&sel);
        assert_eq!(g.encoding(), Encoding::Dict);
        assert_eq!(g.to_values(), plain.select(&sel).to_values());
    }

    #[test]
    fn rle_slice_rewindows_runs() {
        let vals: Vec<Value> = (0..512).map(|i| Value::Integer(i / 100)).collect();
        let plain = Vector::from_values(LogicalType::Integer, &vals).unwrap();
        let e = plain.encode_auto().unwrap();
        assert_eq!(e.encoding(), Encoding::Rle);
        // A window crossing run boundaries re-windows without decoding.
        let s = e.slice(150, 200);
        assert_eq!(s.encoding(), Encoding::Rle);
        assert_eq!(s.to_values(), plain.slice(150, 200).to_values());
        let (_, starts) = s.rle_parts().unwrap();
        assert_eq!(starts[0], 0);
        // A window inside one run is a single run.
        let inner = e.slice(110, 50);
        assert_eq!(inner.rle_parts().unwrap().1.len(), 1);
        assert_eq!(inner.to_values(), plain.slice(110, 50).to_values());
    }

    #[test]
    fn encoded_append_paths() {
        let (plain, encoded) = dict_fixture();
        // Empty destination adopts the dictionary.
        let mut dst = Vector::new(LogicalType::Varchar);
        dst.append_from(&encoded, 0, 128).unwrap();
        assert_eq!(dst.encoding(), Encoding::Dict);
        // Same-dictionary appends stay in the compressed domain.
        dst.append_from(&encoded, 128, 128).unwrap();
        assert_eq!(dst.encoding(), Encoding::Dict);
        assert_eq!(dst.to_values(), plain.to_values());
        // push_from with a shared dictionary pushes a code.
        dst.push_from(&encoded, 0).unwrap();
        assert_eq!(dst.encoding(), Encoding::Dict);
        assert_eq!(dst.get_value(256), plain.get_value(0));
        // Appending to a non-empty plain vector flattens the source rows.
        let mut mixed = varchar(&["x"]);
        mixed.append_from(&encoded, 0, 4).unwrap();
        assert_eq!(mixed.encoding(), Encoding::Plain);
        assert_eq!(mixed.len(), 5);
    }

    #[test]
    fn append_coded_grows_one_dictionary_then_falls_back_to_plain() {
        let (plain, encoded) = dict_fixture();
        let mut index = DictIndex::default();
        let mut v = Vector::new(LogicalType::Varchar);
        v.append_coded(&plain, 0..256, &mut index).unwrap();
        assert_eq!(v.dict_parts().unwrap().0.len(), 7);
        // A foreign dictionary translates into the same codes.
        v.append_coded(&encoded, 0..256, &mut index).unwrap();
        assert_eq!(v.dict_parts().unwrap().0.len(), 7);
        assert_eq!(v.slice(256, 256), plain);
        // A clone holding the dictionary keeps it unchanged.
        let held = v.clone();
        v.append_coded(&varchar(&["new"]), 0..1, &mut index).unwrap();
        assert_eq!(held.dict_parts().unwrap().0.len(), 7);
        assert_eq!(v.dict_parts().unwrap().0.len(), 8);
        v.set_coded(0, &Value::Varchar("newer".into()), &mut index).unwrap();
        assert_eq!(v.dict_parts().unwrap().0.len(), 9);
        assert_eq!(held.get_value(0), plain.get_value(0));
        assert_eq!(v.get_value(0), Value::Varchar("newer".into()));
        // Past VECTOR_SIZE distinct values the vector goes plain.
        let unique: Vec<Value> = (0..3000).map(|i| Value::Varchar(format!("u{i}"))).collect();
        let unique = Vector::from_values(LogicalType::Varchar, &unique).unwrap();
        v.append_coded(&unique, 0..3000, &mut index).unwrap();
        assert_eq!(v.encoding(), Encoding::Plain);
        assert!(index.is_empty());
        assert_eq!(v.len(), 513 + 3000);
        assert_eq!(v.slice(513, 3000), unique);
        assert_eq!(v.slice(1, 255), plain.slice(1, 255));
    }

    #[test]
    fn mutation_flattens_encoded_vectors() {
        let (_, encoded) = dict_fixture();
        let mut v = encoded.clone();
        v.set_value(0, &Value::Varchar("patched".into())).unwrap();
        assert_eq!(v.encoding(), Encoding::Plain);
        assert_eq!(v.get_value(0), Value::Varchar("patched".into()));
        let mut v = encoded.clone();
        v.push_value(&Value::Varchar("tail".into())).unwrap();
        assert_eq!(v.encoding(), Encoding::Plain);
        assert_eq!(v.len(), 257);
        // Truncate keeps the dictionary encoding (codes shrink).
        let mut v = encoded.clone();
        v.truncate(10);
        assert_eq!(v.encoding(), Encoding::Dict);
        assert_eq!(v.len(), 10);
    }

    #[test]
    fn encoding_preserves_null_slots() {
        let mut vals = Vec::new();
        for i in 0..256 {
            if i % 5 == 0 {
                vals.push(Value::Null);
            } else {
                vals.push(Value::Varchar(format!("v{}", i % 3)));
            }
        }
        let plain = Vector::from_values(LogicalType::Varchar, &vals).unwrap();
        let e = plain.encode_auto().unwrap();
        assert_eq!(e.encoding(), Encoding::Dict);
        assert_eq!(e, plain);
        assert_eq!(e.validity().count_invalid(), plain.validity().count_invalid());
    }

    #[test]
    fn encoded_size_is_smaller() {
        let (plain, encoded) = dict_fixture();
        assert!(
            encoded.size_bytes() < plain.size_bytes(),
            "dict {} must be under plain {}",
            encoded.size_bytes(),
            plain.size_bytes()
        );
    }
}
