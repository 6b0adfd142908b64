//! Two-tier sharded cache over finished explanations.
//!
//! Keys carry the model *version*, so a re-registered model can never serve
//! a stale entry — the old version's keys simply stop being asked for and
//! age out of the LRU (or are swept eagerly via [`ShardedCache::invalidate_model`]).
//!
//! Inputs are quantized onto a configurable grid before keying: two feature
//! vectors within the same grid cell share an explanation. The grid is part
//! of the engine config, so all keys in one engine agree.
//!
//! # Tiers
//!
//! The capacity frontier for this cache is **bytes, not latency** (the
//! exact hit path is already sub-µs), so each shard holds two LRUs:
//!
//! * a **hot tier** of exact `Arc<Attribution>` entries (f64, bit-identical
//!   to a direct explainer run), and
//! * a **cold tier** of the same attributions **quantized to i16 with a
//!   per-entry f32 scale** — roughly 4× more entries per byte. The measured
//!   max-abs dequantization error (≤ scale/2 by construction) is stored per
//!   entry and surfaced on every cold hit as
//!   [`Fidelity::Quantized`], never silently.
//!
//! Hot entries **demote** to the cold tier on LRU eviction instead of
//! dying; cold hits dequantize into a fresh attribution (they do *not*
//! repopulate the hot tier — only a full recompute restores exactness).
//! Attributions with non-finite values refuse quantization and die on
//! eviction instead of demoting. Cold entries are keyed by the key's
//! 128-bit fingerprint alone, not the key itself, so a cold slot costs
//! tens of bytes even when the key's quantized feature vector is large;
//! feature names and the method string are interned per (model, method)
//! and shared across entries.
//!
//! # One identity per request
//!
//! A key is hashed **once**: [`CacheKey::build`] folds a 128-bit lookup
//! fingerprint in the pass that quantizes the input, and the key carries
//! it. The fingerprint's high half picks the shard; its low half indexes
//! the hot map, the cold map and the single-flight table through a
//! pass-through hasher. The hot tier and the flight table keep the full
//! key beside the entry and compare it on a fingerprint match, so an exact
//! answer never rests on the hash. A lookup needs only borrowed parts
//! (`KeyRef`): the serving hit path quantizes onto its stack and
//! allocates nothing. The fingerprint is process-local;
//! [`CacheKey::stable_hash`] (FNV-1a, frozen) remains the cross-process
//! identity behind seeds and routing and is not computed on a hit.
//!
//! Entries carry a fidelity **grade** (coarse anytime answers vs
//! full-budget answers). Inserts are monotone in the grade: a full-budget
//! result upgrades a coarse entry in place, a coarse result never
//! overwrites a full one.
//!
//! The cache also hosts **single-flight fill**: concurrent identical misses
//! elect one leader to compute while the others park on its flight and are
//! answered with its result, so N simultaneous copies of a question cost
//! one model evaluation instead of N.

use crate::queue::Job;
use crate::request::{fnv1a_bytes, fnv1a_words, ExplainMethod, Fidelity, Fnv1a, LookupFold};
use nfv_xai::prelude::Attribution;
use parking_lot::Mutex;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

/// Cache identity of one explanation: model, version, method (with
/// budget), and the quantized input — plus the 128-bit *lookup
/// fingerprint* folded from exactly those parts while the key was built.
/// Shard selection, both tiers' maps and the single-flight table read the
/// carried fingerprint; nothing hashes a key a second time.
///
/// The public fields are the identity: build keys with
/// [`CacheKey::build`] and treat them as read-only (a field edited
/// afterwards no longer matches the carried fingerprint).
#[derive(Debug, Clone)]
pub struct CacheKey {
    /// Registry id of the model.
    pub model_id: String,
    /// Registry version the explanation was computed against.
    pub model_version: u64,
    /// Method + budget.
    pub method: ExplainMethod,
    /// Grid-quantized feature vector.
    pub qfeatures: Vec<i64>,
    fp: u128,
}

/// Two keys are the same request when their parts are: the method
/// compares by (interned id, budget word), like every other identity in
/// the serving layer, and the fingerprint — a function of the parts — is
/// not consulted.
impl PartialEq for CacheKey {
    fn eq(&self, other: &CacheKey) -> bool {
        self.key_ref().same_request(&other.key_ref())
    }
}

impl Eq for CacheKey {}

/// The grid a key is quantized on (a non-positive grid means "finest").
fn effective_grid(grid: f64) -> f64 {
    if grid > 0.0 {
        grid
    } else {
        1e-9
    }
}

/// The grid cell of one feature, `(x / grid).round() as i64`; `None` when
/// `x` is non-finite or the cell overflows the grid. The one quantizer:
/// cache keys and [`CacheKey::stable_hash_of`] both call it, so they cannot
/// disagree on a cell.
///
/// Rounds half away from zero through an integer truncation, not
/// `f64::round` (a libm call per cell on baseline x86-64): `y - t` is the
/// exact fractional part, and a `y` at or beyond 2^52 is already whole.
fn quantize_cell(x: f64, grid: f64) -> Option<i64> {
    let y = x / grid;
    // False for a NaN `y` too, so non-finite inputs end here.
    if y.abs() < i64::MAX as f64 {
        let t = y as i64;
        let frac = y - t as f64;
        Some(t + i64::from(frac >= 0.5) - i64::from(frac <= -0.5))
    } else {
        None
    }
}

/// Quantizes `features`, handing each cell to `push`, and in the same pass
/// folds the lookup fingerprint over (id, version, method id, budget,
/// cells).
fn quantize_and_fold(
    model_id: &str,
    model_version: u64,
    method: ExplainMethod,
    features: &[f64],
    grid: f64,
    mut push: impl FnMut(i64),
) -> Option<u128> {
    let grid = effective_grid(grid);
    let (method_id, budget) = method.hash_parts();
    let mut fold = LookupFold::new();
    fold.bytes(model_id.as_bytes());
    fold.word(model_version);
    fold.word(method_id);
    fold.word(budget);
    for &x in features {
        let cell = quantize_cell(x, grid)?;
        fold.word(cell as u64);
        push(cell);
    }
    Some(fold.finish())
}

/// The stable hash's state after (id hash, version, method id, budget).
fn stable_hash_prefix(model_id: &str, model_version: u64, method: ExplainMethod) -> Fnv1a {
    let (method_id, budget) = method.hash_parts();
    let mut h = Fnv1a::new();
    for w in [
        fnv1a_bytes(model_id.as_bytes()),
        model_version,
        method_id,
        budget,
    ] {
        h.word(w);
    }
    h
}

impl CacheKey {
    /// Builds a key, quantizing `features` onto `grid`. Returns `None`
    /// when any feature is non-finite or overflows the grid (such inputs
    /// must be rejected upstream, not cached).
    pub fn build(
        model_id: &str,
        model_version: u64,
        method: ExplainMethod,
        features: &[f64],
        grid: f64,
    ) -> Option<CacheKey> {
        let mut qfeatures = Vec::with_capacity(features.len());
        let fp = quantize_and_fold(model_id, model_version, method, features, grid, |cell| {
            qfeatures.push(cell)
        })?;
        Some(CacheKey {
            model_id: model_id.to_string(),
            model_version,
            method,
            qfeatures,
            fp,
        })
    }

    /// A run-to-run stable content hash (FNV-1a, frozen — it must never
    /// change): per-request RNG seeds and ring routing derive from this,
    /// so it cannot depend on process-local state. Computed on demand
    /// (the miss path and the router need it; a cache hit does not).
    pub fn stable_hash(&self) -> u64 {
        let mut h = stable_hash_prefix(&self.model_id, self.model_version, self.method);
        for &v in &self.qfeatures {
            h.word(v as u64);
        }
        h.finish()
    }

    /// [`CacheKey::stable_hash`] of the key these parts would build,
    /// without building it (nothing is allocated): the router hashes
    /// every request and keeps no key. `None` as [`CacheKey::build`].
    pub(crate) fn stable_hash_of(
        model_id: &str,
        model_version: u64,
        method: ExplainMethod,
        features: &[f64],
        grid: f64,
    ) -> Option<u64> {
        let grid = effective_grid(grid);
        let mut h = stable_hash_prefix(model_id, model_version, method);
        for &x in features {
            h.word(quantize_cell(x, grid)? as u64);
        }
        Some(h.finish())
    }

    /// The 128-bit lookup fingerprint the key was built with: the cache's
    /// only hash. The high half picks the shard, the low half indexes the
    /// shard's maps. Process-local — see `LookupFold` in `request.rs`.
    pub fn fingerprint(&self) -> u128 {
        self.fp
    }

    fn key_ref(&self) -> KeyRef<'_> {
        KeyRef {
            model_id: &self.model_id,
            model_version: self.model_version,
            method: self.method,
            qfeatures: &self.qfeatures,
            fp: self.fp,
        }
    }

    /// A copy of `self` claiming `fp` as its fingerprint: how tests put
    /// two different keys on one fingerprint.
    #[cfg(test)]
    fn with_fingerprint(mut self, fp: u128) -> CacheKey {
        self.fp = fp;
        self
    }
}

/// Widest input quantized on the stack; wider ones spill to the heap.
const INLINE_CELLS: usize = 32;

/// Where a [`KeyRef`] keeps its quantized cells: the serving hit path
/// quantizes into this on the stack and allocates nothing.
pub(crate) struct CellBuf {
    inline: [i64; INLINE_CELLS],
    spill: Vec<i64>,
}

impl CellBuf {
    pub(crate) fn new() -> CellBuf {
        CellBuf {
            inline: [0; INLINE_CELLS],
            spill: Vec::new(),
        }
    }
}

/// A [`CacheKey`] by borrowed parts: what a lookup needs. Owning the id
/// string and the cell vector is only worth it on a miss, where an insert
/// will keep them ([`KeyRef::to_key`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct KeyRef<'a> {
    model_id: &'a str,
    model_version: u64,
    method: ExplainMethod,
    qfeatures: &'a [i64],
    fp: u128,
}

impl<'a> KeyRef<'a> {
    /// [`CacheKey::build`] into `buf` instead of the heap.
    pub(crate) fn quantize(
        model_id: &'a str,
        model_version: u64,
        method: ExplainMethod,
        features: &[f64],
        grid: f64,
        buf: &'a mut CellBuf,
    ) -> Option<KeyRef<'a>> {
        let d = features.len();
        let cells = if d <= INLINE_CELLS {
            &mut buf.inline[..d]
        } else {
            buf.spill.resize(d, 0);
            &mut buf.spill[..]
        };
        let mut filled = 0;
        let fp = quantize_and_fold(model_id, model_version, method, features, grid, |cell| {
            cells[filled] = cell;
            filled += 1;
        })?;
        Some(KeyRef {
            model_id,
            model_version,
            method,
            qfeatures: cells,
            fp,
        })
    }

    pub(crate) fn to_key(self) -> CacheKey {
        CacheKey {
            model_id: self.model_id.to_string(),
            model_version: self.model_version,
            method: self.method,
            qfeatures: self.qfeatures.to_vec(),
            fp: self.fp,
        }
    }

    /// Part-by-part identity; never the fingerprint.
    fn same_request(&self, other: &KeyRef<'_>) -> bool {
        self.model_version == other.model_version
            && self.method.hash_parts() == other.method.hash_parts()
            && self.qfeatures == other.qfeatures
            && self.model_id == other.model_id
    }
}

/// Hasher of the fingerprint-keyed maps: a fingerprint is already
/// avalanched, so its low half *is* the hash.
#[derive(Debug, Default)]
struct FpHasher(u64);

impl Hasher for FpHasher {
    fn write(&mut self, _: &[u8]) {
        unreachable!("fingerprint maps are keyed by u128 only");
    }

    fn write_u128(&mut self, fp: u128) {
        self.0 = fp as u64;
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

type FpMap<V> = HashMap<u128, V, BuildHasherDefault<FpHasher>>;

/// Slab index sentinel.
const NIL: usize = usize::MAX;

#[derive(Debug)]
struct Slot<V> {
    fp: u128,
    /// `None` only while the slot sits on the free list.
    value: Option<V>,
    prev: usize,
    next: usize,
}

/// One LRU: a fingerprint map into a slab whose slots form an intrusive
/// doubly-linked recency list. All operations are O(1). Both tiers share
/// it; whether a fingerprint match is the entry asked for is the caller's
/// question (the hot tier stores the full key in its value and compares).
#[derive(Debug)]
struct LruShard<V> {
    map: FpMap<usize>,
    slots: Vec<Slot<V>>,
    free: Vec<usize>,
    head: usize,
    tail: usize,
    capacity: usize,
}

impl<V> LruShard<V> {
    fn new(capacity: usize) -> Self {
        LruShard {
            map: FpMap::with_capacity_and_hasher(capacity, Default::default()),
            slots: Vec::with_capacity(capacity),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            capacity,
        }
    }

    fn unlink(&mut self, i: usize) {
        let (prev, next) = (self.slots[i].prev, self.slots[i].next);
        if prev != NIL {
            self.slots[prev].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.slots[next].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    fn push_front(&mut self, i: usize) {
        self.slots[i].prev = NIL;
        self.slots[i].next = self.head;
        if self.head != NIL {
            self.slots[self.head].prev = i;
        }
        self.head = i;
        if self.tail == NIL {
            self.tail = i;
        }
    }

    /// Hit lookup: the entry under `fp` if `is_it` accepts it, with its
    /// recency refreshed.
    fn get(&mut self, fp: u128, is_it: impl FnOnce(&V) -> bool) -> Option<&V> {
        let i = *self.map.get(&fp)?;
        if !self.slots[i].value.as_ref().is_some_and(is_it) {
            return None;
        }
        if self.head != i {
            self.unlink(i);
            self.push_front(i);
        }
        self.slots[i].value.as_ref()
    }

    /// Recency-neutral lookup (grade checks, stats).
    fn peek(&self, fp: u128) -> Option<&V> {
        self.map
            .get(&fp)
            .and_then(|&i| self.slots[i].value.as_ref())
    }

    /// Inserts (or replaces) the entry under `fp`. Returns the evicted
    /// LRU victim when the insert pushed one out — the caller decides its
    /// afterlife (demotion to a colder tier, or death). A zero-capacity
    /// shard "evicts" the incoming pair immediately.
    fn insert(&mut self, fp: u128, value: V) -> Option<(u128, V)> {
        if self.capacity == 0 {
            return Some((fp, value));
        }
        if let Some(&i) = self.map.get(&fp) {
            self.slots[i].value = Some(value);
            self.unlink(i);
            self.push_front(i);
            return None;
        }
        let evicted = if self.map.len() >= self.capacity {
            let victim = self.tail;
            self.unlink(victim);
            let old_fp = self.slots[victim].fp;
            self.map.remove(&old_fp);
            self.free.push(victim);
            self.slots[victim].value.take().map(|v| (old_fp, v))
        } else {
            None
        };
        let slot = Slot {
            fp,
            value: Some(value),
            prev: NIL,
            next: NIL,
        };
        let i = match self.free.pop() {
            Some(i) => {
                self.slots[i] = slot;
                i
            }
            None => {
                self.slots.push(slot);
                self.slots.len() - 1
            }
        };
        self.map.insert(fp, i);
        self.push_front(i);
        evicted
    }

    /// Removes the entry under `fp`, returning its value.
    fn remove(&mut self, fp: u128) -> Option<V> {
        let i = self.map.remove(&fp)?;
        self.unlink(i);
        self.free.push(i);
        self.slots[i].value.take()
    }

    /// Drops every entry failing `keep`.
    fn retain<F: Fn(&V) -> bool>(&mut self, keep: F) {
        let victims: Vec<usize> = self
            .map
            .values()
            .copied()
            .filter(|&i| !self.slots[i].value.as_ref().is_some_and(&keep))
            .collect();
        for i in victims {
            self.unlink(i);
            self.map.remove(&self.slots[i].fp);
            self.slots[i].value = None;
            self.free.push(i);
        }
    }

    /// Visits every live entry (stats; order unspecified).
    fn for_each<F: FnMut(&V)>(&self, mut f: F) {
        for &i in self.map.values() {
            if let Some(v) = self.slots[i].value.as_ref() {
                f(v);
            }
        }
    }

    fn len(&self) -> usize {
        self.map.len()
    }
}

/// One exact-tier entry: the full key (a fingerprint match is checked
/// against it, so exactness never rests on the hash), the attribution and
/// its sampling-budget grade.
#[derive(Debug)]
struct HotEntry {
    key: CacheKey,
    attr: Arc<Attribution>,
    /// 0 = full budget; otherwise the coarse anytime budget it was
    /// computed at (surfaced as [`Fidelity::Coarse`] on hits).
    coarse_budget: u64,
}

/// Feature names + method string shared by every cold entry of one
/// (model, method) pair — interned so a cold slot doesn't pay for them.
#[derive(Debug, PartialEq, Eq)]
struct ColdMeta {
    names: Arc<[String]>,
    method: String,
}

impl ColdMeta {
    fn intern_hash(names: &[String], method: &str) -> u64 {
        let mut h = fnv1a_bytes(method.as_bytes());
        for n in names {
            h = fnv1a_words([h, fnv1a_bytes(n.as_bytes())]);
        }
        h
    }
}

/// One quantized cold-tier entry: i16 values with a per-entry f32 scale.
/// `base_value` and `prediction` stay exact f64 (they're two words; the
/// savings live in the values vector).
#[derive(Debug)]
struct ColdEntry {
    meta: Arc<ColdMeta>,
    values: Box<[i16]>,
    scale: f32,
    /// Measured max-abs dequantization error for this entry (≤ scale/2).
    max_abs_err: f64,
    base_value: f64,
    prediction: f64,
    /// 0 = full budget (see [`HotEntry::coarse_budget`]).
    coarse_budget: u64,
    /// `fnv1a_bytes(model_id)` — lets [`ShardedCache::invalidate_model`]
    /// sweep cold entries without storing the id string per entry.
    id_hash: u64,
}

impl ColdEntry {
    fn dequantize(&self) -> Attribution {
        let s = self.scale as f64;
        Attribution {
            names: Arc::clone(&self.meta.names),
            values: self.values.iter().map(|&q| q as f64 * s).collect(),
            base_value: self.base_value,
            prediction: self.prediction,
            method: self.meta.method.clone(),
        }
    }

    fn fidelity(&self) -> Fidelity {
        if self.coarse_budget == 0 {
            Fidelity::Quantized {
                max_abs_err: self.max_abs_err,
            }
        } else {
            Fidelity::CoarseQuantized {
                sample_budget: self.coarse_budget,
                max_abs_err: self.max_abs_err,
            }
        }
    }
}

/// Quantizes `values` to i16 with one shared f32 scale. Returns the cells,
/// the scale, and the **measured** max-abs reconstruction error (≤ scale/2
/// by construction). `None` when any value is non-finite or so large the
/// f32 scale would overflow — such attributions must stay in the exact
/// tier or die.
fn quantize(values: &[f64]) -> Option<(Box<[i16]>, f32, f64)> {
    let mut max_abs = 0.0f64;
    for &v in values {
        if !v.is_finite() {
            return None;
        }
        max_abs = max_abs.max(v.abs());
    }
    // Scale so the largest magnitude maps to ±i16::MAX. Computed in f32
    // (that's all we store), then nudged up a ULP at a time until
    // max_abs/scale is in range — cast rounding may otherwise land the
    // extreme cell on 32768. The nudge loop runs at most a few steps.
    let mut scale = (max_abs / i16::MAX as f64) as f32;
    if scale == 0.0 {
        // Underflow: all values are (sub)denormally tiny. The smallest
        // positive f32 still represents them to within half a cell.
        scale = f32::from_bits(1);
    }
    if !scale.is_finite() {
        // max_abs/32767 overflows f32 (|v| ≳ 1.1e43): unquantizable.
        return None;
    }
    while max_abs / scale as f64 > i16::MAX as f64 {
        scale = f32::from_bits(scale.to_bits() + 1);
    }
    let s = scale as f64;
    let mut cells = Vec::with_capacity(values.len());
    let mut err = 0.0f64;
    for &v in values {
        let cell = (v / s).round();
        debug_assert!(cell.abs() <= i16::MAX as f64);
        let q = cell as i16;
        cells.push(q);
        err = err.max((q as f64 * s - v).abs());
    }
    debug_assert!(err <= s * 0.5 * (1.0 + 1e-9), "err {err} > scale/2 {s}");
    Some((cells.into_boxed_slice(), scale, err))
}

/// Approximate heap footprint of one hot entry (key + exact attribution).
/// Names the attribution shares with another holder — the registry
/// entry's, for every feature-valued answer the engine serves — are not
/// this entry's bytes, like the cold tier's interned meta.
fn hot_entry_bytes(key: &CacheKey, attr: &Attribution) -> usize {
    let key_bytes = key.model_id.len() + key.qfeatures.len() * 8 + 64;
    let name_bytes: usize = if Arc::strong_count(&attr.names) == 1 {
        attr.names.iter().map(|n| n.len() + 24).sum()
    } else {
        0
    };
    key_bytes + name_bytes + attr.method.len() + attr.values.len() * 8 + 96
}

/// Approximate heap footprint of one cold entry (fingerprint key +
/// quantized values; the interned meta is shared and counted once per
/// model/method pair, not per entry).
fn cold_entry_bytes(e: &ColdEntry) -> usize {
    16 + e.values.len() * 2 + 64
}

/// Entry/byte usage of the cache, per tier. Byte counts are the same
/// deterministic estimates the capacity experiments use (allocator
/// overhead is not modeled).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheUsage {
    /// Live exact-tier entries.
    pub hot_entries: usize,
    /// Live quantized-tier entries.
    pub cold_entries: usize,
    /// Estimated exact-tier heap bytes.
    pub hot_bytes: usize,
    /// Estimated quantized-tier heap bytes.
    pub cold_bytes: usize,
}

impl CacheUsage {
    /// Total entries across both tiers.
    pub fn entries(&self) -> usize {
        self.hot_entries + self.cold_entries
    }

    /// Total estimated bytes across both tiers.
    pub fn bytes(&self) -> usize {
        self.hot_bytes + self.cold_bytes
    }
}

/// One shard: a hot exact LRU and a cold quantized LRU behind one mutex.
#[derive(Debug)]
struct TierShard {
    hot: LruShard<HotEntry>,
    cold: LruShard<ColdEntry>,
}

impl TierShard {
    /// Grade (0 = coarse, 1 = full) of whatever the shard currently holds
    /// for `key`, in either tier.
    fn grade_of(&self, key: &KeyRef<'_>) -> Option<u8> {
        match self.hot.peek(key.fp) {
            Some(e) if e.key.key_ref().same_request(key) => Some((e.coarse_budget == 0) as u8),
            _ => self.cold.peek(key.fp).map(|e| (e.coarse_budget == 0) as u8),
        }
    }

    /// Demotes an evicted hot entry into the cold tier (monotone: never
    /// clobbers a higher-grade cold entry; non-finite values die here).
    fn demote(&mut self, entry: HotEntry, intern: &MetaIntern) {
        let fp = entry.key.fp;
        let victim_grade = (entry.coarse_budget == 0) as u8;
        if let Some(existing) = self.cold.peek(fp) {
            if (existing.coarse_budget == 0) as u8 > victim_grade {
                return;
            }
        }
        let Some((values, scale, max_abs_err)) = quantize(&entry.attr.values) else {
            return;
        };
        let meta = intern.intern(&entry.attr);
        self.cold.insert(
            fp,
            ColdEntry {
                meta,
                values,
                scale,
                max_abs_err,
                base_value: entry.attr.base_value,
                prediction: entry.attr.prediction,
                coarse_budget: entry.coarse_budget,
                id_hash: fnv1a_bytes(entry.key.model_id.as_bytes()),
            },
        );
    }

    fn insert(
        &mut self,
        key: CacheKey,
        attr: Arc<Attribution>,
        coarse_budget: u64,
        intern: &MetaIntern,
    ) {
        let fp = key.fp;
        let new_grade = (coarse_budget == 0) as u8;
        if let Some(existing) = self.grade_of(&key.key_ref()) {
            if existing > new_grade {
                return; // never downgrade an entry in place
            }
        }
        // The hot copy (inserted below) supersedes any cold copy.
        self.cold.remove(fp);
        let entry = HotEntry {
            key,
            attr,
            coarse_budget,
        };
        if let Some((_, victim)) = self.hot.insert(fp, entry) {
            self.demote(victim, intern);
        }
    }

    fn get(&mut self, key: &KeyRef<'_>) -> Option<(Arc<Attribution>, Fidelity)> {
        if let Some(e) = self.hot.get(key.fp, |e| e.key.key_ref().same_request(key)) {
            let fid = if e.coarse_budget == 0 {
                Fidelity::Exact
            } else {
                Fidelity::Coarse {
                    sample_budget: e.coarse_budget,
                }
            };
            return Some((Arc::clone(&e.attr), fid));
        }
        let e = self.cold.get(key.fp, |_| true)?;
        Some((Arc::new(e.dequantize()), e.fidelity()))
    }

    fn usage(&self) -> CacheUsage {
        let mut u = CacheUsage {
            hot_entries: self.hot.len(),
            cold_entries: self.cold.len(),
            ..CacheUsage::default()
        };
        self.hot
            .for_each(|e| u.hot_bytes += hot_entry_bytes(&e.key, &e.attr));
        self.cold.for_each(|e| u.cold_bytes += cold_entry_bytes(e));
        u
    }
}

/// Intern table for cold-entry metadata (names + method string), shared
/// across shards. Lock order: shard mutex → intern mutex, never reversed.
#[derive(Debug, Default)]
struct MetaIntern {
    table: Mutex<HashMap<u64, Arc<ColdMeta>>>,
}

impl MetaIntern {
    fn intern(&self, attr: &Attribution) -> Arc<ColdMeta> {
        let fresh = || {
            Arc::new(ColdMeta {
                names: Arc::clone(&attr.names),
                method: attr.method.clone(),
            })
        };
        let h = ColdMeta::intern_hash(&attr.names, &attr.method);
        let mut table = self.table.lock();
        match table.get(&h) {
            Some(m) if m.names == attr.names && m.method == attr.method => Arc::clone(m),
            // Hash collision between distinct metas: serve the fresh one
            // un-interned rather than corrupt either.
            Some(_) => fresh(),
            None => {
                let m = fresh();
                table.insert(h, Arc::clone(&m));
                m
            }
        }
    }
}

/// One in-flight fill: the key being computed and the identical jobs
/// parked on it, which its completion answers.
struct FlightEntry {
    key: CacheKey,
    followers: Vec<Job>,
}

/// The concurrent cache: `n_shards` independent two-tier shards, each
/// behind its own mutex, selected by the key's fingerprint. Lock hold
/// times are a map probe plus two list splices (plus one dequantization
/// pass on cold hits). A side table tracks in-flight fills for
/// single-flight deduplication of concurrent identical misses.
pub struct ShardedCache {
    shards: Vec<Mutex<TierShard>>,
    intern: MetaIntern,
    /// Keys being computed right now → waiting followers. Small (bounded
    /// by in-flight requests), so one mutex suffices.
    in_flight: Mutex<FpMap<FlightEntry>>,
}

impl ShardedCache {
    /// Builds a cache of exactly `capacity` hot (exact) entries and
    /// `cold_capacity` cold (quantized) entries, spread over `n_shards`
    /// shards. The per-shard slices sum to the requested totals exactly:
    /// each shard gets `capacity / n` with the remainder distributed one
    /// entry apiece to the first `capacity % n` shards. `n_shards` is
    /// clamped so every shard holds at least one hot entry.
    /// `cold_capacity == 0` disables the quantized tier (evicted hot
    /// entries die, as before the tier existed).
    pub fn new(capacity: usize, cold_capacity: usize, n_shards: usize) -> Self {
        let capacity = capacity.max(1);
        let n_shards = n_shards.clamp(1, 1024).min(capacity);
        let slice = |total: usize, i: usize| total / n_shards + usize::from(i < total % n_shards);
        ShardedCache {
            shards: (0..n_shards)
                .map(|i| {
                    Mutex::new(TierShard {
                        hot: LruShard::new(slice(capacity, i)),
                        cold: LruShard::new(slice(cold_capacity, i)),
                    })
                })
                .collect(),
            intern: MetaIntern::default(),
            in_flight: Mutex::new(FpMap::default()),
        }
    }

    /// Single-flight for a cache miss: when an identical computation is
    /// in flight, `job` parks on it as a follower and `None` is returned;
    /// otherwise `job`'s key is registered as being computed and the job
    /// comes back to its caller, who leads: whoever settles it ends the
    /// flight with [`ShardedCache::complete_flight`] (an answer) or
    /// [`ShardedCache::pass_flight`] (none). Another key's flight on the
    /// same fingerprint leaves the job leading unregistered.
    pub(crate) fn join_flight(&self, job: Job) -> Option<Job> {
        match self.in_flight.lock().entry(job.key.fp) {
            Entry::Occupied(mut flight) if flight.get().key == job.key => {
                flight.get_mut().followers.push(job);
                None
            }
            Entry::Occupied(_) => Some(job),
            Entry::Vacant(slot) => {
                slot.insert(FlightEntry {
                    key: job.key.clone(),
                    followers: Vec::new(),
                });
                Some(job)
            }
        }
    }

    /// Takes `key`'s flight for a computation nobody waits on (an anytime
    /// refinement): `false`, joining nothing, when the key is already
    /// being computed. Like [`ShardedCache::join_flight`], another key's
    /// flight on this fingerprint leaves the computation unregistered.
    pub(crate) fn lead_flight(&self, key: &CacheKey) -> bool {
        match self.in_flight.lock().entry(key.fp) {
            Entry::Occupied(flight) => flight.get().key != *key,
            Entry::Vacant(slot) => {
                slot.insert(FlightEntry {
                    key: key.clone(),
                    followers: Vec::new(),
                });
                true
            }
        }
    }

    /// Ends `key`'s flight, whose leader has an answer, and hands back the
    /// followers it answers. Empty when no flight is registered, so a
    /// worker may call it after every job.
    pub(crate) fn complete_flight(&self, key: &CacheKey) -> Vec<Job> {
        match self.in_flight.lock().entry(key.fp) {
            Entry::Occupied(flight) if flight.get().key == *key => flight.remove().followers,
            _ => Vec::new(),
        }
    }

    /// Passes `key`'s flight, whose leader ends without an answer, to its
    /// first parked follower, which is returned to be computed; the others
    /// stay parked behind it. With no follower the flight ends.
    pub(crate) fn pass_flight(&self, key: &CacheKey) -> Option<Job> {
        match self.in_flight.lock().entry(key.fp) {
            Entry::Occupied(mut flight) if flight.get().key == *key => {
                if flight.get().followers.is_empty() {
                    flight.remove();
                    None
                } else {
                    Some(flight.get_mut().followers.remove(0))
                }
            }
            _ => None,
        }
    }

    /// Keys currently being computed (test/introspection hook).
    pub fn flights_in_progress(&self) -> usize {
        self.in_flight.lock().len()
    }
}

// Manual impl: the parked jobs' replies aren't `Debug`.
impl std::fmt::Debug for ShardedCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedCache")
            .field("shards", &self.shards.len())
            .field("len", &self.len())
            .field("flights_in_progress", &self.flights_in_progress())
            .finish()
    }
}

impl ShardedCache {
    /// The shard owning `fp`, from the fingerprint's high half (the maps
    /// inside a shard index by the low half, so the two choices are
    /// independent).
    fn shard(&self, fp: u128) -> &Mutex<TierShard> {
        &self.shards[self.shard_index(fp)]
    }

    fn shard_index(&self, fp: u128) -> usize {
        (((fp >> 64) * self.shards.len() as u128) >> 64) as usize
    }

    /// Looks `key` up, refreshing its recency on hit. Hot hits return the
    /// shared exact attribution; cold hits dequantize into a fresh one and
    /// carry the entry's measured error bound in the fidelity.
    pub fn get(&self, key: &CacheKey) -> Option<(Arc<Attribution>, Fidelity)> {
        self.get_ref(&key.key_ref())
    }

    /// [`ShardedCache::get`] by borrowed parts.
    pub(crate) fn get_ref(&self, key: &KeyRef<'_>) -> Option<(Arc<Attribution>, Fidelity)> {
        self.shard(key.fp).lock().get(key)
    }

    /// Inserts (or refreshes) `key` with a full-budget result.
    pub fn insert(&self, key: CacheKey, value: Arc<Attribution>) {
        self.insert_graded(key, value, 0);
    }

    /// Inserts `key` with an explicit sampling-budget grade
    /// (`coarse_budget == 0` = full budget). Monotone: a coarse result
    /// never overwrites a full-budget entry, in either tier; a full-budget
    /// result upgrades a coarse entry in place (same key).
    pub fn insert_graded(&self, key: CacheKey, value: Arc<Attribution>, coarse_budget: u64) {
        self.shard(key.fp)
            .lock()
            .insert(key, value, coarse_budget, &self.intern);
    }

    /// Eagerly drops every entry belonging to `model_id` (all versions,
    /// both tiers). Version-carrying keys already make stale hits
    /// impossible; this just reclaims their space immediately on
    /// deregistration.
    pub fn invalidate_model(&self, model_id: &str) {
        let id_hash = fnv1a_bytes(model_id.as_bytes());
        for s in &self.shards {
            let mut s = s.lock();
            s.hot.retain(|e| e.key.model_id != model_id);
            s.cold.retain(|e| e.id_hash != id_hash);
        }
    }

    /// Total entries across shards and tiers.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                let s = s.lock();
                s.hot.len() + s.cold.len()
            })
            .sum()
    }

    /// True when no entries are cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Per-tier entry and byte usage, aggregated across shards.
    pub fn usage(&self) -> CacheUsage {
        let mut total = CacheUsage::default();
        for s in &self.shards {
            let u = s.lock().usage();
            total.hot_entries += u.hot_entries;
            total.cold_entries += u.cold_entries;
            total.hot_bytes += u.hot_bytes;
            total.cold_bytes += u.cold_bytes;
        }
        total
    }

    /// Estimated heap bytes across both tiers (see [`CacheUsage`]).
    pub fn bytes_used(&self) -> usize {
        self.usage().bytes()
    }

    /// Exact-tier capacity: the per-shard slices sum to the value passed
    /// to [`ShardedCache::new`].
    pub fn hot_capacity(&self) -> usize {
        self.shards.iter().map(|s| s.lock().hot.capacity).sum()
    }

    /// Quantized-tier capacity (0 = tier disabled).
    pub fn cold_capacity(&self) -> usize {
        self.shards.iter().map(|s| s.lock().cold.capacity).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nfv_data::prelude::*;
    use proptest::prelude::*;

    fn attr(v: f64) -> Arc<Attribution> {
        Arc::new(Attribution {
            names: ["f".to_string()].into(),
            values: vec![v],
            base_value: 0.0,
            prediction: v,
            method: "test".into(),
        })
    }

    fn key(version: u64, x: f64) -> CacheKey {
        CacheKey::build("m", version, ExplainMethod::TreeShap, &[x], 1e-6).unwrap()
    }

    /// Fingerprint of the test key at `x`.
    fn fp(x: f64) -> u128 {
        key(1, x).fingerprint()
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut s: LruShard<Arc<Attribution>> = LruShard::new(2);
        s.insert(fp(1.0), attr(1.0));
        s.insert(fp(2.0), attr(2.0));
        // Touch 1.0 so 2.0 becomes the LRU victim.
        assert!(s.get(fp(1.0), |_| true).is_some());
        let evicted = s.insert(fp(3.0), attr(3.0));
        assert_eq!(evicted.unwrap().0, fp(2.0), "2.0 evicted and returned");
        assert!(s.get(fp(2.0), |_| true).is_none());
        assert!(s.get(fp(1.0), |_| true).is_some());
        assert!(s.get(fp(3.0), |_| true).is_some());
        assert_eq!(s.len(), 2);
        // A refused match is a miss and leaves the recency order alone.
        assert!(s.get(fp(1.0), |_| false).is_none());
        let evicted = s.insert(fp(4.0), attr(4.0));
        assert_eq!(evicted.unwrap().0, fp(1.0), "the refused get did not touch");
    }

    #[test]
    fn slab_reuses_freed_slots() {
        let mut s: LruShard<Arc<Attribution>> = LruShard::new(2);
        for i in 0..100 {
            s.insert(fp(i as f64), attr(i as f64));
        }
        assert_eq!(s.len(), 2);
        assert!(s.slots.len() <= 3, "slab bounded: {}", s.slots.len());
        // remove() frees the slot for reuse too.
        assert!(s.remove(fp(99.0)).is_some());
        assert!(s.remove(fp(99.0)).is_none());
        s.insert(fp(200.0), attr(200.0));
        assert_eq!(s.len(), 2);
        assert!(s.slots.len() <= 3);
    }

    #[test]
    fn zero_capacity_shard_rejects_inserts() {
        let mut s: LruShard<u64> = LruShard::new(0);
        assert_eq!(s.insert(1, 10), Some((1, 10)), "bounced straight back");
        assert_eq!(s.len(), 0);
        assert!(s.get(1, |_| true).is_none());
    }

    #[test]
    fn version_is_part_of_identity() {
        let c = ShardedCache::new(16, 0, 4);
        c.insert(key(1, 5.0), attr(10.0));
        assert!(c.get(&key(1, 5.0)).is_some());
        assert!(
            c.get(&key(2, 5.0)).is_none(),
            "newer version must miss, never see v1's entry"
        );
    }

    #[test]
    fn quantization_merges_near_inputs_and_rejects_nonfinite() {
        let a = CacheKey::build("m", 1, ExplainMethod::TreeShap, &[1.0000001], 1e-3).unwrap();
        let b = CacheKey::build("m", 1, ExplainMethod::TreeShap, &[0.9999999], 1e-3).unwrap();
        assert_eq!(a, b);
        let far = CacheKey::build("m", 1, ExplainMethod::TreeShap, &[1.1], 1e-3).unwrap();
        assert_ne!(a, far);
        assert!(CacheKey::build("m", 1, ExplainMethod::TreeShap, &[f64::NAN], 1e-3).is_none());
        assert!(
            CacheKey::build("m", 1, ExplainMethod::TreeShap, &[1e300], 1e-9).is_none(),
            "grid overflow"
        );
    }

    /// The cell the quantizer replaced: `f64::round`, then the range check.
    fn reference_cell(x: f64, grid: f64) -> Option<i64> {
        if !x.is_finite() {
            return None;
        }
        let cell = (x / grid).round();
        (cell.abs() < i64::MAX as f64).then_some(cell as i64)
    }

    #[test]
    fn quantize_cell_rounds_exactly_like_f64_round() {
        let p52 = (1u64 << 52) as f64;
        let p63 = (1u64 << 63) as f64;
        let mut probes = vec![
            0.0,
            0.25,
            0.49999999999999994, // the largest double below one half
            0.5,
            0.5000000000000001,
            1.5,
            2.5,
            1e15 + 0.5,
            p52 - 1.5,
            p52 - 0.5,
            p52,
            p52 + 1.0,
            2.0 * p52 + 2.0,
            p63 - 1024.0, // the largest double below 2^63
            p63,
            1e300,
            f64::MIN_POSITIVE,
            f64::MAX,
            f64::INFINITY,
            f64::NAN,
        ];
        probes.extend(probes.clone().iter().map(|y| -y));
        for y in probes {
            assert_eq!(quantize_cell(y, 1.0), reference_cell(y, 1.0), "y = {y:e}");
        }
        // Every binade, on its edges, its middle and a scattered mantissa.
        let mut lcg = 0x5eed_u64;
        for exponent in 0u64..2047 {
            lcg = lcg
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            for mantissa in [0, 1, 1 << 51, (1 << 51) + 1, (1 << 52) - 1, lcg >> 12] {
                for sign in [0u64, 1 << 63] {
                    let y = f64::from_bits(sign | (exponent << 52) | mantissa);
                    assert_eq!(quantize_cell(y, 1.0), reference_cell(y, 1.0), "y = {y:e}");
                    assert_eq!(quantize_cell(y, 1e-6), reference_cell(y, 1e-6), "x = {y:e}");
                }
            }
        }
        assert_eq!(quantize_cell(-0.0, 1e-3), Some(0));
        assert_eq!(quantize_cell(1e300, 1e-9), None, "the quotient overflows");
    }

    #[test]
    fn signed_zero_features_share_a_key() {
        // ±0.0 quantize to the same grid cell: the sign of zero must never
        // split an input into two cache identities.
        let pos = CacheKey::build("m", 1, ExplainMethod::TreeShap, &[0.0], 1e-3).unwrap();
        let neg = CacheKey::build("m", 1, ExplainMethod::TreeShap, &[-0.0], 1e-3).unwrap();
        assert_eq!(pos, neg);
        assert_eq!(pos.stable_hash(), neg.stable_hash());
        assert_eq!(pos.fingerprint(), neg.fingerprint());
    }

    #[test]
    fn capacity_split_sums_exactly() {
        // Satellite fix: div_ceil-per-shard used to let the total exceed
        // the requested capacity by up to n_shards-1.
        for (cap, cold, shards) in [
            (10, 40, 4),
            (7, 13, 8),
            (1, 0, 8),
            (4096, 16384, 8),
            (3, 5, 1024),
            (0, 0, 4),
        ] {
            let c = ShardedCache::new(cap, cold, shards);
            assert_eq!(
                c.hot_capacity(),
                cap.max(1),
                "hot cap={cap} shards={shards}"
            );
            assert_eq!(c.cold_capacity(), cold, "cold cap={cold} shards={shards}");
        }
    }

    #[test]
    fn fingerprint_halves_are_independent() {
        let halves = |k: CacheKey| {
            let fp = k.fingerprint();
            (fp as u64, (fp >> 64) as u64)
        };
        let (lo, hi) = halves(key(1, 5.0));
        assert_eq!((lo, hi), halves(key(1, 5.0)), "carried, deterministic");
        assert_ne!(lo, hi);
        assert_ne!(
            lo,
            key(1, 5.0).stable_hash(),
            "the lookup fingerprint is its own hash, not the frozen one"
        );
        // Each half separates neighbouring keys on its own: the high half
        // picks the shard, the low half the slot.
        for other in [key(1, 6.0), key(2, 5.0)] {
            let (olo, ohi) = halves(other);
            assert_ne!(lo, olo);
            assert_ne!(hi, ohi);
        }
    }

    #[test]
    fn fingerprint_match_on_a_different_key_is_a_miss() {
        let c = ShardedCache::new(16, 16, 4);
        let stored = key(1, 5.0);
        c.insert(stored.clone(), attr(10.0));
        // A different request that claims the stored key's fingerprint
        // lands on the stored slot and must not be answered from it.
        let impostor = key(1, 6.0).with_fingerprint(stored.fingerprint());
        assert_ne!(impostor, stored);
        assert!(c.get(&impostor).is_none(), "exactness rests on the key");
        assert!(c.get(&stored).is_some());
        // Nor does it join the stored key's single-flight.
        assert!(c.join_flight(job(&stored)).is_some());
        assert!(c.join_flight(job(&impostor)).is_some(), "it leads alone");
        assert!(c.lead_flight(&impostor), "nor does a refinement");
        assert!(!c.lead_flight(&stored), "a refinement joins no flight");
        assert!(c.complete_flight(&impostor).is_empty());
        assert_eq!(c.flights_in_progress(), 1, "the real flight is untouched");
        assert!(c.complete_flight(&stored).is_empty());
        assert_eq!(c.flights_in_progress(), 0);
        // Inserting it takes the slot over; the old key now misses.
        c.insert(impostor.clone(), attr(20.0));
        assert_eq!(c.get(&impostor).unwrap().0.prediction, 20.0);
        assert!(c.get(&stored).is_none());
    }

    #[test]
    fn dataset_row_keys_spread_evenly_over_shards() {
        const KEYS: usize = 4096;
        const SHARDS: usize = 8;
        let c = ShardedCache::new(KEYS, 0, SHARDS);
        let data =
            generate_fluid(&SweepConfig::secure_web(7), KEYS, Target::LatencyP95LogMs).unwrap();
        assert_eq!(data.n_features(), 14);
        let mut per_shard = [0usize; SHARDS];
        for r in 0..KEYS {
            let k = CacheKey::build("sla", 3, ExplainMethod::TreeShap, data.row(r), 1e-6).unwrap();
            per_shard[c.shard_index(k.fingerprint())] += 1;
        }
        let mean = (KEYS / SHARDS) as f64;
        for (i, &n) in per_shard.iter().enumerate() {
            assert!(
                (n as f64 - mean).abs() <= 0.2 * mean,
                "shard {i} holds {n} of {KEYS} keys (mean {mean}): {per_shard:?}"
            );
        }
    }

    #[test]
    fn evicted_hot_entries_demote_to_cold_with_bounded_error() {
        // One shard, one hot slot, room in cold: every eviction demotes.
        let c = ShardedCache::new(1, 8, 1);
        let make = |x: f64| {
            Arc::new(Attribution {
                names: ["a".to_string(), "b".into()].into(),
                values: vec![x, -x / 3.0],
                base_value: 1.5,
                prediction: x,
                method: "test".into(),
            })
        };
        c.insert(key(1, 1.0), make(0.25));
        c.insert(key(1, 2.0), make(0.5)); // evicts 1.0 → cold
        let (got, fid) = c.get(&key(1, 1.0)).expect("demoted, not dead");
        match fid {
            Fidelity::Quantized { max_abs_err } => {
                assert!(max_abs_err >= 0.0);
                for (g, want) in got.values.iter().zip([0.25, -0.25 / 3.0]) {
                    assert!(
                        (g - want).abs() <= max_abs_err,
                        "dequant {g} vs {want} exceeds reported bound {max_abs_err}"
                    );
                }
            }
            other => panic!("cold hit must be marked Quantized, got {other:?}"),
        }
        assert_eq!(got.base_value, 1.5, "base value stays exact");
        assert_eq!(got.prediction, 0.25, "prediction stays exact");
        assert_eq!(*got.names, ["a".to_string(), "b".to_string()]);
        // The hot entry is exact.
        let (_, fid) = c.get(&key(1, 2.0)).unwrap();
        assert!(fid.is_exact());
        let u = c.usage();
        assert_eq!((u.hot_entries, u.cold_entries), (1, 1));
        assert!(u.hot_bytes > 0 && u.cold_bytes > 0);
        assert!(
            u.cold_bytes < u.hot_bytes,
            "a cold entry must be smaller than a hot one"
        );
    }

    #[test]
    fn cold_hits_do_not_repromote() {
        let c = ShardedCache::new(1, 8, 1);
        c.insert(key(1, 1.0), attr(0.25));
        c.insert(key(1, 2.0), attr(0.5)); // demotes 1.0
        for _ in 0..3 {
            let (_, fid) = c.get(&key(1, 1.0)).unwrap();
            assert!(
                matches!(fid, Fidelity::Quantized { .. }),
                "cold hits stay cold (exactness only returns via recompute)"
            );
        }
        let u = c.usage();
        assert_eq!((u.hot_entries, u.cold_entries), (1, 1));
    }

    #[test]
    fn full_insert_restores_exactness_and_drops_cold_copy() {
        let c = ShardedCache::new(1, 8, 1);
        c.insert(key(1, 1.0), attr(0.25));
        c.insert(key(1, 2.0), attr(0.5)); // 1.0 → cold
        c.insert(key(1, 1.0), attr(0.25)); // recompute → hot again, cold copy dropped
        let (_, fid) = c.get(&key(1, 1.0)).unwrap();
        assert!(fid.is_exact());
        let u = c.usage();
        assert_eq!(u.cold_entries, 1, "2.0 demoted; 1.0's cold copy removed");
    }

    #[test]
    fn nonfinite_attributions_refuse_quantization() {
        let c = ShardedCache::new(1, 8, 1);
        c.insert(key(1, 1.0), attr(f64::NAN));
        // NaN entry lives in the hot (exact) tier…
        let (got, fid) = c.get(&key(1, 1.0)).unwrap();
        assert!(got.values[0].is_nan() && fid.is_exact());
        // …but dies on eviction instead of demoting.
        c.insert(key(1, 2.0), attr(0.5));
        assert!(
            c.get(&key(1, 1.0)).is_none(),
            "NaN must not enter cold tier"
        );
        assert_eq!(c.usage().cold_entries, 0);
        // Same for infinities.
        c.insert(key(1, 3.0), attr(f64::INFINITY));
        c.insert(key(1, 4.0), attr(1.0));
        assert!(c.get(&key(1, 3.0)).is_none());
    }

    #[test]
    fn coarse_entries_upgrade_monotonically() {
        let c = ShardedCache::new(4, 8, 1);
        let k = key(1, 1.0);
        c.insert_graded(k.clone(), attr(0.9), 64); // coarse anytime answer
        let (_, fid) = c.get(&k).unwrap();
        assert_eq!(fid, Fidelity::Coarse { sample_budget: 64 });
        // Full-budget refinement upgrades in place…
        c.insert(k.clone(), attr(1.0));
        let (got, fid) = c.get(&k).unwrap();
        assert!(fid.is_exact());
        assert_eq!(got.prediction, 1.0);
        // …and a late coarse result can never downgrade it back.
        c.insert_graded(k.clone(), attr(0.9), 64);
        let (got, fid) = c.get(&k).unwrap();
        assert!(fid.is_exact(), "coarse must not overwrite full");
        assert_eq!(got.prediction, 1.0);
    }

    #[test]
    fn coarse_grade_survives_demotion_and_blocks_stale_writes() {
        let c = ShardedCache::new(1, 8, 1);
        let k = key(1, 1.0);
        c.insert_graded(k.clone(), attr(0.9), 64);
        c.insert(key(1, 2.0), attr(0.5)); // demote the coarse entry
        let (_, fid) = c.get(&k).unwrap();
        assert_eq!(
            fid,
            Fidelity::CoarseQuantized {
                sample_budget: 64,
                max_abs_err: fid.max_abs_err()
            },
            "demoted coarse entry carries both markers"
        );
        // Full insert upgrades the (now cold) entry back to exact hot.
        c.insert(k.clone(), attr(1.0));
        let (_, fid) = c.get(&k).unwrap();
        assert!(fid.is_exact());
        // A cold full entry also blocks coarse overwrites.
        c.insert(key(1, 3.0), attr(0.7)); // demote k's full entry to cold
        c.insert_graded(k.clone(), attr(0.9), 64);
        let (_, fid) = c.get(&k).unwrap();
        assert_eq!(fid.grade(), 1, "cold full entry blocks coarse overwrite");
    }

    #[test]
    fn cold_tier_disabled_means_evictions_die() {
        let c = ShardedCache::new(1, 0, 1);
        c.insert(key(1, 1.0), attr(1.0));
        c.insert(key(1, 2.0), attr(2.0));
        assert!(c.get(&key(1, 1.0)).is_none(), "no cold tier to land in");
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn meta_interning_shares_names_across_entries() {
        let c = ShardedCache::new(1, 16, 1);
        for i in 0..8 {
            c.insert(key(1, i as f64), attr(i as f64));
        }
        assert_eq!(c.usage().cold_entries, 7);
        assert_eq!(
            c.intern.table.lock().len(),
            1,
            "one (names, method) pair interned once"
        );
    }

    /// A job asking for `key`, answered nowhere.
    fn job(key: &CacheKey) -> Job {
        let mut job = crate::queue::job_for("m", key.model_version, ExplainMethod::TreeShap).0;
        job.key = key.clone();
        job
    }

    #[test]
    fn single_flight_elects_one_leader_and_parks_followers() {
        let c = ShardedCache::new(16, 0, 2);
        let k = key(1, 4.0);
        assert!(c.join_flight(job(&k)).is_some(), "the first miss leads");
        for _ in 0..3 {
            assert!(c.join_flight(job(&k)).is_none(), "identical misses park");
        }
        assert_eq!(c.flights_in_progress(), 1);
        assert_eq!(c.complete_flight(&k).len(), 3, "an answer takes them all");
        assert_eq!(c.flights_in_progress(), 0);
        // The key is free again: a new leader can be elected.
        assert!(c.join_flight(job(&k)).is_some());
        // A flight that ends without an answer passes to its followers in
        // arrival order, each holding it in turn, until none is left.
        for secs in [1, 2] {
            let mut follower = job(&k);
            follower.request.budget = std::time::Duration::from_secs(secs);
            assert!(c.join_flight(follower).is_none());
        }
        for secs in [1, 2] {
            let next = c.pass_flight(&k).expect("a follower takes the flight");
            assert_eq!(next.request.budget.as_secs(), secs);
            assert_eq!(c.flights_in_progress(), 1);
        }
        assert!(c.pass_flight(&k).is_none());
        assert_eq!(c.flights_in_progress(), 0);
        // Ending an unregistered key is a harmless no-op.
        assert!(c.complete_flight(&key(1, 99.0)).is_empty());
        assert!(c.pass_flight(&key(1, 99.0)).is_none());
    }

    #[test]
    fn invalidate_model_sweeps_all_versions_and_both_tiers() {
        let c = ShardedCache::new(4, 64, 4);
        for v in 1..=3 {
            for i in 0..5 {
                c.insert(key(v, i as f64), attr(i as f64));
            }
        }
        assert!(
            c.usage().cold_entries > 0,
            "small hot tier forced demotions"
        );
        let other = CacheKey::build("other", 9, ExplainMethod::TreeShap, &[1.0], 1e-6).unwrap();
        c.insert(other.clone(), attr(7.0));
        c.invalidate_model("m");
        assert_eq!(c.len(), 1);
        assert!(c.get(&other).is_some());
        assert_eq!(c.usage().cold_entries, 0, "cold tier swept by id hash");
    }

    #[test]
    fn quantize_error_is_within_half_scale() {
        let (cells, scale, err) = quantize(&[1.0, -0.3333333, 1e-9, 0.0]).unwrap();
        assert_eq!(cells.len(), 4);
        assert!(err <= scale as f64 * 0.5 * (1.0 + 1e-9), "{err} vs {scale}");
        // All-zero vectors quantize losslessly.
        let (cells, _, err) = quantize(&[0.0, -0.0]).unwrap();
        assert!(cells.iter().all(|&q| q == 0) && err == 0.0);
        // Non-finite refuses.
        assert!(quantize(&[1.0, f64::NAN]).is_none());
        assert!(quantize(&[f64::INFINITY]).is_none());
        assert!(quantize(&[f64::NEG_INFINITY, 0.0]).is_none());
    }

    proptest! {
        /// Satellite: the quantize/dequantize round trip respects the
        /// reported bound for arbitrary finite inputs across magnitudes
        /// (subnormals through 1e300), and the bound itself is ≤ scale/2.
        #[test]
        fn prop_quantize_round_trip(
            raw in proptest::collection::vec(-1e300f64..1e300, 1..64),
            exponent in -300i32..300,
        ) {
            let scale_in = 10f64.powi(exponent);
            let values: Vec<f64> = raw.iter().map(|v| v * scale_in)
                .filter(|v| v.is_finite())
                .collect();
            prop_assume!(!values.is_empty());
            match quantize(&values) {
                Some((cells, scale, err)) => {
                    prop_assert!(err <= scale as f64 * 0.5 * (1.0 + 1e-9));
                    for (&q, &v) in cells.iter().zip(&values) {
                        let back = q as f64 * scale as f64;
                        prop_assert!(
                            (back - v).abs() <= err,
                            "reconstruction {} vs {} exceeds measured bound {}", back, v, err
                        );
                    }
                }
                None => {
                    // Refusal is only legal for f32-scale overflow.
                    let max_abs = values.iter().fold(0.0f64, |m, v| m.max(v.abs()));
                    prop_assert!(max_abs > 1e42, "finite {max_abs} refused quantization");
                }
            }
        }

        /// Non-finite values refuse quantization no matter where they sit.
        #[test]
        fn prop_nonfinite_always_refused(
            values in proptest::collection::vec(-1e12f64..1e12, 1..16),
            idx in 0usize..16,
            kind in 0u8..3,
        ) {
            let mut values = values;
            let poison = match kind {
                0 => f64::NAN,
                1 => f64::INFINITY,
                _ => f64::NEG_INFINITY,
            };
            let idx = idx % values.len();
            values[idx] = poison;
            prop_assert!(quantize(&values).is_none());
        }

        /// Keys that differ in exactly one part — the id, the version,
        /// the method, its budget, or one grid cell — never share a
        /// fingerprint, in either half.
        #[test]
        fn prop_one_part_apart_means_fingerprints_apart(
            id in proptest::collection::vec(b'a'..b'{', 1..24),
            version in 0u64..1_000_000,
            budget in 1usize..4096,
            cells in proptest::collection::vec(-1_000_000i64..1_000_000, 14),
            which in 0usize..14,
            delta in 1i64..1000,
        ) {
            let id = String::from_utf8(id).unwrap();
            let grid = 1e-3;
            let x: Vec<f64> = cells.iter().map(|&c| c as f64 * grid).collect();
            let method = ExplainMethod::KernelShap { n_coalitions: budget };
            let build = |id: &str, version, method, x: &[f64]| {
                CacheKey::build(id, version, method, x, grid).unwrap()
            };
            let base = build(&id, version, method, &x);
            let mut moved = x.clone();
            moved[which] = (cells[which] + delta) as f64 * grid;
            let neighbours = [
                build(&format!("{id}x"), version, method, &x),
                build(&id, version + 1, method, &x),
                build(&id, version, ExplainMethod::Lime { n_samples: budget }, &x),
                build(&id, version, ExplainMethod::KernelShap { n_coalitions: budget + 1 }, &x),
                build(&id, version, method, &moved),
            ];
            let (lo, hi) = (base.fingerprint() as u64, (base.fingerprint() >> 64) as u64);
            for n in &neighbours {
                prop_assert!(base != *n);
                prop_assert!(lo != n.fingerprint() as u64, "low halves meet: {:?}", n);
                prop_assert!(hi != (n.fingerprint() >> 64) as u64, "high halves meet: {:?}", n);
            }
            // The same parts are the same fingerprint, whoever builds it.
            let mut buf = CellBuf::new();
            let borrowed = KeyRef::quantize(&id, version, method, &x, grid, &mut buf).unwrap();
            prop_assert_eq!(borrowed.fp, base.fingerprint());
            prop_assert_eq!(borrowed.to_key(), base);
        }

        /// The integer-truncation quantizer is `f64::round` bit for bit,
        /// over every binade and on the half-way points.
        #[test]
        fn prop_quantize_cell_matches_f64_round(
            mantissa in 0u64..(1 << 52),
            exponent in 0u64..2047,
            negative in 0u8..2,
            halves in -1_000_000i64..1_000_000,
            grid_exp in -9i32..3,
        ) {
            let x = f64::from_bits(((negative as u64) << 63) | (exponent << 52) | mantissa);
            let grid = 10f64.powi(grid_exp);
            prop_assert_eq!(quantize_cell(x, grid), reference_cell(x, grid));
            prop_assert_eq!(quantize_cell(x, 1.0), reference_cell(x, 1.0));
            let tie = halves as f64 + 0.5;
            prop_assert_eq!(quantize_cell(tie, 1.0), reference_cell(tie, 1.0));
            prop_assert_eq!(quantize_cell(tie * grid, grid), reference_cell(tie * grid, grid));
        }

        /// ±0.0 features build identical keys (hit-key concern: the sign
        /// of zero must never split cache identity), and zero values
        /// round-trip losslessly through the cold tier.
        #[test]
        fn prop_signed_zero_is_one_identity(grid in 1e-9f64..1.0) {
            let a = CacheKey::build("m", 1, ExplainMethod::TreeShap, &[0.0, -0.0], grid).unwrap();
            let b = CacheKey::build("m", 1, ExplainMethod::TreeShap, &[-0.0, 0.0], grid).unwrap();
            prop_assert_eq!(a.fingerprint(), b.fingerprint());
            prop_assert_eq!(a, b);
            let (cells, _, err) = quantize(&[0.0, -0.0]).unwrap();
            prop_assert!(cells.iter().all(|&q| q == 0));
            prop_assert_eq!(err, 0.0);
        }
    }
}
