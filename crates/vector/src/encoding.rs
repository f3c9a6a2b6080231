//! Encoded vector representations for compressed-domain execution.
//!
//! MonetDBLite and its successors win by keeping columns compact *through*
//! execution, not just at rest. This module provides three lightweight
//! encodings that stay queryable without materializing:
//!
//! * **Dictionary** — varchar columns store one `u32` code per row plus a
//!   shared [`StrDict`]. Kernels that need per-value work (hashing, sort-key
//!   encoding) do it once per distinct value via the dictionary's caches.
//! * **Run-length (RLE)** — integer columns with long runs store one value
//!   per run plus run start offsets; predicates evaluate per run.
//! * **Frame-of-reference (FOR)** — 64-bit integer columns whose value range
//!   fits in a `u32` store `frame + delta`, halving the bytes per row and
//!   letting aggregates work off the frame once per vector.
//!
//! The encodings are internal representations of [`crate::Vector`]: plain
//! callers observe identical behavior because `Vector::data()` lazily
//! decodes (and caches) a flat copy. The crate-private `choose` function is the
//! stats-driven per-column chooser: it inspects observed distinct counts,
//! run lengths and value ranges and only encodes when the encoding pays.

use crate::vector::VectorData;
use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::BuildHasher;
use std::sync::{Arc, OnceLock};

/// Which physical representation a [`crate::Vector`] currently uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Encoding {
    Plain,
    Dict,
    Rle,
    For,
}

impl std::fmt::Display for Encoding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Encoding::Plain => "plain",
            Encoding::Dict => "dict",
            Encoding::Rle => "rle",
            Encoding::For => "for",
        })
    }
}

/// A shared string dictionary: the distinct values of one or more
/// dictionary-coded vectors, in first-appearance order.
///
/// Besides the values themselves the dictionary owns two lazily-filled
/// caches keyed by dictionary slot: a hash per entry and an arbitrary byte
/// fragment per entry (the row-format sort/group key encoding). The caches
/// are filled by caller-supplied closures because the compute kernels live
/// upstream of this crate; whoever fills a cache first wins and later
/// callers get the cached slice. This is what turns per-row string work
/// into per-distinct-value work.
pub struct StrDict {
    values: Vec<String>,
    hash_cache: OnceLock<Vec<u64>>,
    key_cache: OnceLock<Vec<Vec<u8>>>,
}

impl std::fmt::Debug for StrDict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StrDict").field("len", &self.values.len()).finish_non_exhaustive()
    }
}

/// A copy of the values with empty caches: what a writer extends when a
/// reader still holds the original.
impl Clone for StrDict {
    fn clone(&self) -> Self {
        StrDict::new(self.values.clone())
    }
}

impl PartialEq for StrDict {
    fn eq(&self, other: &Self) -> bool {
        self.values == other.values
    }
}

impl StrDict {
    pub fn new(values: Vec<String>) -> Self {
        StrDict { values, hash_cache: OnceLock::new(), key_cache: OnceLock::new() }
    }

    pub fn values(&self) -> &[String] {
        &self.values
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    pub fn get(&self, code: u32) -> &str {
        &self.values[code as usize]
    }

    /// Add an entry (its code is the old length). The per-entry caches no
    /// longer cover every entry, so they are dropped and refilled on the
    /// next use.
    pub(crate) fn push(&mut self, value: String) {
        self.values.push(value);
        self.hash_cache.take();
        self.key_cache.take();
    }

    /// Per-entry hashes, computed at most once per dictionary. The closure
    /// receives the dictionary values and must return one hash per entry.
    pub fn hashes(&self, compute: impl FnOnce(&[String]) -> Vec<u64>) -> &[u64] {
        self.hash_cache.get_or_init(|| {
            let h = compute(&self.values);
            debug_assert_eq!(h.len(), self.values.len());
            h
        })
    }

    /// Per-entry byte fragments (e.g. pre-encoded sort keys), computed at
    /// most once per dictionary.
    pub fn key_fragments(&self, compute: impl FnOnce(&[String]) -> Vec<Vec<u8>>) -> &[Vec<u8>] {
        self.key_cache.get_or_init(|| {
            let k = compute(&self.values);
            debug_assert_eq!(k.len(), self.values.len());
            k
        })
    }

    /// Heap footprint of the dictionary values.
    pub fn size_bytes(&self) -> usize {
        self.values.capacity() * std::mem::size_of::<String>()
            + self.values.iter().map(String::capacity).sum::<usize>()
    }
}

/// The write-side lookup of a growing dictionary: the hash of an entry's
/// bytes → its code, so appending a value the dictionary already holds
/// costs a hash and a compare, not a `String`.
///
/// It indexes the first `len` entries of one dictionary, which only ever
/// grows at the end: `sync` catches up with entries added elsewhere (a
/// dictionary the encoding chooser built). Whoever replaces the
/// dictionary by a different one must [`DictIndex::clear`] the index.
/// Hashes are keyed per index ([`RandomState`]), so appended values cannot
/// be crafted to collide.
#[derive(Debug, Clone, Default)]
pub struct DictIndex {
    state: RandomState,
    /// Open addressing with linear probing, a power of two at least twice
    /// the entries long: each used slot holds an entry's code in its low
    /// 32 bits and the high half of its hash (the tag, which also picks
    /// the first slot to probe) above, so a probe rejects most other
    /// entries without touching their strings. `EMPTY` marks a free slot.
    slots: Vec<u64>,
    /// Entries indexed.
    len: usize,
}

const EMPTY: u64 = u64::MAX;

impl DictIndex {
    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Forget every entry and release the table.
    pub fn clear(&mut self) {
        self.slots = Vec::new();
        self.len = 0;
    }

    /// Index the entries of `values` not yet indexed.
    pub(crate) fn sync(&mut self, values: &[String]) {
        if self.len > values.len() {
            self.clear();
        }
        for value in &values[self.len..] {
            let hash = self.state.hash_one(value.as_str());
            self.insert(hash);
        }
    }

    /// The code of `value` in `values` (the dictionary this index covers),
    /// or `Err` with its hash, ready for `insert`.
    pub(crate) fn find(&self, value: &str, values: &[String]) -> Result<u32, u64> {
        let hash = self.state.hash_one(value);
        if self.slots.is_empty() {
            return Err(hash);
        }
        let mask = self.slots.len() - 1;
        let tag = hash >> 32;
        let mut slot = tag as usize & mask;
        loop {
            match self.slots[slot] {
                EMPTY => return Err(hash),
                s if s >> 32 == tag && values[s as u32 as usize] == value => return Ok(s as u32),
                _ => slot = (slot + 1) & mask,
            }
        }
    }

    /// Index the next entry (code: the entries indexed so far), whose hash
    /// `find` returned.
    pub(crate) fn insert(&mut self, hash: u64) -> u32 {
        let code = self.len as u32;
        self.len += 1;
        if self.len * 2 > self.slots.len() {
            let old = std::mem::replace(
                &mut self.slots,
                vec![EMPTY; (self.len * 2).next_power_of_two().max(16)],
            );
            for s in old.into_iter().filter(|&s| s != EMPTY) {
                self.place(s);
            }
        }
        self.place(hash & !0xFFFF_FFFF | u64::from(code));
        code
    }

    /// Put an entry (tag and code) in the first free slot of its probe
    /// sequence, which starts where the tag points.
    fn place(&mut self, entry: u64) {
        let mask = self.slots.len() - 1;
        let mut slot = (entry >> 32) as usize & mask;
        while self.slots[slot] != EMPTY {
            slot = (slot + 1) & mask;
        }
        self.slots[slot] = entry;
    }
}

/// Dictionary-coded varchar: one code per row into a shared dictionary.
#[derive(Debug, Clone)]
pub(crate) struct DictRepr {
    pub dict: Arc<StrDict>,
    pub codes: Vec<u32>,
}

/// Run-length encoding: `values[i]` repeats over rows
/// `starts[i] .. starts[i + 1]` (the final run ends at `len`).
#[derive(Debug, Clone)]
pub(crate) struct RleRepr {
    pub values: Box<VectorData>,
    pub starts: Vec<u32>,
    pub len: usize,
}

impl RleRepr {
    /// Index of the run containing `row`.
    pub fn run_of(&self, row: usize) -> usize {
        debug_assert!(row < self.len);
        self.starts.partition_point(|&s| s as usize <= row) - 1
    }

    /// End row (exclusive) of run `i`.
    pub fn run_end(&self, i: usize) -> usize {
        self.starts.get(i + 1).map_or(self.len, |&s| s as usize)
    }
}

/// Frame-of-reference: `value[i] = frame + deltas[i]`, physical I64.
#[derive(Debug, Clone)]
pub(crate) struct ForRepr {
    pub frame: i64,
    pub deltas: Vec<u32>,
}

/// Internal representation of a [`crate::Vector`]'s data.
#[derive(Debug, Clone)]
pub(crate) enum Repr {
    Flat(VectorData),
    Dict(DictRepr),
    Rle(RleRepr),
    For(ForRepr),
}

impl Repr {
    pub fn len(&self) -> usize {
        match self {
            Repr::Flat(d) => d.len(),
            Repr::Dict(d) => d.codes.len(),
            Repr::Rle(r) => r.len,
            Repr::For(f) => f.deltas.len(),
        }
    }

    /// Materialize a flat copy of the encoded data (NULL slots decode to
    /// the value stored at encode time, preserving bit-identical layout).
    pub fn decode(&self) -> VectorData {
        match self {
            Repr::Flat(d) => d.clone(),
            Repr::Dict(d) => VectorData::Str(
                d.codes.iter().map(|&c| d.dict.values[c as usize].clone()).collect(),
            ),
            Repr::Rle(r) => decode_rle(r),
            Repr::For(f) => VectorData::I64(f.deltas.iter().map(|&d| f.frame + d as i64).collect()),
        }
    }
}

macro_rules! rle_decode_arm {
    ($r:expr, $vals:expr, $variant:ident) => {{
        let mut out = Vec::with_capacity($r.len);
        for (i, v) in $vals.iter().enumerate() {
            let n = $r.run_end(i) - $r.starts[i] as usize;
            out.extend(std::iter::repeat_n(v.clone(), n));
        }
        VectorData::$variant(out)
    }};
}

fn decode_rle(r: &RleRepr) -> VectorData {
    match r.values.as_ref() {
        VectorData::Bool(v) => rle_decode_arm!(r, v, Bool),
        VectorData::I8(v) => rle_decode_arm!(r, v, I8),
        VectorData::I16(v) => rle_decode_arm!(r, v, I16),
        VectorData::I32(v) => rle_decode_arm!(r, v, I32),
        VectorData::I64(v) => rle_decode_arm!(r, v, I64),
        VectorData::F64(v) => rle_decode_arm!(r, v, F64),
        VectorData::Str(v) => rle_decode_arm!(r, v, Str),
    }
}

/// Vectors shorter than this are never worth encoding: the per-vector
/// bookkeeping would dominate.
pub const MIN_ENCODE_LEN: usize = 64;
/// Dictionary-encode when `distinct * DICT_SELECTIVITY <= len`.
pub const DICT_SELECTIVITY: usize = 4;
/// Run-length-encode when `runs * RLE_SELECTIVITY <= len`.
pub const RLE_SELECTIVITY: usize = 8;

/// The per-column encoding chooser: inspect observed stats (distinct
/// count, run count, value range) in a single pass and pick an encoding
/// only when it demonstrably pays. Returns `None` when plain wins.
pub(crate) fn choose(data: &VectorData) -> Option<Repr> {
    let len = data.len();
    if len < MIN_ENCODE_LEN {
        return None;
    }
    match data {
        VectorData::Str(v) => try_dict(v),
        VectorData::I64(_) => try_rle(data).or_else(|| try_for(data)),
        VectorData::I8(_) | VectorData::I16(_) | VectorData::I32(_) => try_rle(data),
        VectorData::Bool(_) | VectorData::F64(_) => None,
    }
}

/// Optimistic single-pass dictionary build: abort as soon as the distinct
/// count proves the column too high-cardinality to pay.
fn try_dict(v: &[String]) -> Option<Repr> {
    let cap = v.len() / DICT_SELECTIVITY;
    let mut slots: HashMap<&str, u32> = HashMap::with_capacity(cap.min(1024));
    let mut codes = Vec::with_capacity(v.len());
    let mut values: Vec<String> = Vec::new();
    for s in v {
        let next = values.len() as u32;
        let code = match slots.entry(s.as_str()) {
            std::collections::hash_map::Entry::Occupied(e) => *e.get(),
            std::collections::hash_map::Entry::Vacant(e) => {
                if values.len() >= cap {
                    return None; // too many distinct values: stay plain
                }
                e.insert(next);
                next
            }
        };
        if code == next {
            values.push(s.clone());
        }
        codes.push(code);
    }
    Some(Repr::Dict(DictRepr { dict: Arc::new(StrDict::new(values)), codes }))
}

macro_rules! rle_build_arm {
    ($v:expr, $variant:ident) => {{
        let len = $v.len();
        let max_runs = len / RLE_SELECTIVITY;
        let mut run_values = Vec::new();
        let mut starts: Vec<u32> = Vec::new();
        for (i, x) in $v.iter().enumerate() {
            if i == 0 || run_values.last() != Some(x) {
                if run_values.len() >= max_runs {
                    return None; // too many runs: stay plain
                }
                run_values.push(x.clone());
                starts.push(i as u32);
            }
        }
        Some(Repr::Rle(RleRepr { values: Box::new(VectorData::$variant(run_values)), starts, len }))
    }};
}

fn try_rle(data: &VectorData) -> Option<Repr> {
    match data {
        VectorData::I8(v) => rle_build_arm!(v, I8),
        VectorData::I16(v) => rle_build_arm!(v, I16),
        VectorData::I32(v) => rle_build_arm!(v, I32),
        VectorData::I64(v) => rle_build_arm!(v, I64),
        _ => None,
    }
}

/// FOR-pack an I64 column when the observed value range fits in a `u32`
/// (halving 8 bytes/row to 4).
fn try_for(data: &VectorData) -> Option<Repr> {
    let VectorData::I64(v) = data else { return None };
    let (mut min, mut max) = (i64::MAX, i64::MIN);
    for &x in v {
        min = min.min(x);
        max = max.max(x);
    }
    if (max as i128 - min as i128) > u32::MAX as i128 {
        return None;
    }
    let deltas = v.iter().map(|&x| (x - min) as u32).collect();
    Some(Repr::For(ForRepr { frame: min, deltas }))
}
