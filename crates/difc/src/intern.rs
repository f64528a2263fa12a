//! Global hash-consing of labels and label pairs.
//!
//! §5 of the paper: the JikesRVM prototype keeps its overheads low by
//! sharing immutable `Labels` objects. Interning goes one step further:
//! each distinct tag-set exists once, behind one canonical `Arc`, and is
//! named by a stable 32-bit [`LabelId`]. Label equality and hashing then
//! cost one integer compare, a subset test between equal labels returns
//! on that compare, the kernel's `set_task_label` skips the label-change
//! rule for an identity change, and audit records name labels by id.
//!
//! Two process-global tables live here:
//!
//! * the **label interner**, mapping a sorted tag slice to its canonical
//!   `Arc<[Tag]>` and [`LabelId`] (id 0 is the empty label);
//! * the **pair interner**, mapping a `(secrecy id, integrity id)` pair
//!   to a [`PairId`] (id 0 is the unlabeled pair), so whole
//!   [`crate::SecPair`]s also compare in O(1).
//!
//! Both tables are sharded behind `std::sync::Mutex`es; an interning
//! miss takes one shard lock, a hit takes the same lock briefly. Tables
//! only grow — labels are tiny, programs mint few distinct ones (the
//! paper's applications use a handful of tags), and stable ids must
//! never be reused while an audit record may name them.

use crate::tag::Tag;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// Number of shards per intern table (power of two).
const SHARDS: usize = 16;

/// The stable, process-global identity of one distinct tag-set.
///
/// Two labels are equal iff their `LabelId`s are equal; the empty label
/// is always [`LabelId::EMPTY`].
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct LabelId(u32);

impl LabelId {
    /// The id of the empty label `{}`.
    pub const EMPTY: LabelId = LabelId(0);

    /// The raw 32-bit value (as audit records carry it).
    #[must_use]
    pub fn as_u32(self) -> u32 {
        self.0
    }
}

/// The stable, process-global identity of one distinct `{S, I}` pair.
///
/// Two [`crate::SecPair`]s are equal iff their `PairId`s are equal; the
/// unlabeled pair is always [`PairId::UNLABELED`].
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct PairId(u32);

impl PairId {
    /// The id of the unlabeled `{S(), I()}` pair.
    pub const UNLABELED: PairId = PairId(0);

    /// The raw 32-bit value (as audit records carry it).
    #[must_use]
    pub fn as_u32(self) -> u32 {
        self.0
    }
}

/// A cheap, deterministic mix of a tag slice used only to pick a shard.
fn shard_of_tags(tags: &[Tag]) -> usize {
    let mut h: u64 = 0x9E37_79B9_7F4A_7C15;
    for t in tags {
        h = (h.rotate_left(5) ^ t.as_raw()).wrapping_mul(0x100_0000_01B3);
    }
    (h >> 7) as usize & (SHARDS - 1)
}

struct LabelInterner {
    shards: Vec<Mutex<HashMap<Arc<[Tag]>, u32>>>,
    next: AtomicU32,
}

impl LabelInterner {
    fn new() -> Self {
        let mut shards = Vec::with_capacity(SHARDS);
        for _ in 0..SHARDS {
            shards.push(Mutex::new(HashMap::new()));
        }
        let interner = LabelInterner { shards, next: AtomicU32::new(1) };
        // Reserve id 0 for the empty label so the fast paths can rely on it.
        let empty = empty_tags();
        interner.shards[shard_of_tags(&empty)]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(empty, 0);
        interner
    }
}

fn label_interner() -> &'static LabelInterner {
    static TABLE: OnceLock<LabelInterner> = OnceLock::new();
    TABLE.get_or_init(LabelInterner::new)
}

/// The canonical allocation of the empty tag slice.
pub(crate) fn empty_tags() -> Arc<[Tag]> {
    static EMPTY: OnceLock<Arc<[Tag]>> = OnceLock::new();
    Arc::clone(EMPTY.get_or_init(|| Arc::from([])))
}

/// Interns a **sorted, deduplicated** tag vector, returning its stable
/// id and the one canonical allocation for that tag-set.
pub(crate) fn intern_label(sorted: Vec<Tag>) -> (LabelId, Arc<[Tag]>) {
    if sorted.is_empty() {
        return (LabelId::EMPTY, empty_tags());
    }
    debug_assert!(sorted.windows(2).all(|w| w[0] < w[1]), "interning unsorted tags");
    let table = label_interner();
    let mut shard = table.shards[shard_of_tags(&sorted)]
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    if let Some((canon, &id)) = shard.get_key_value(sorted.as_slice()) {
        return (LabelId(id), Arc::clone(canon));
    }
    let id = table.next.fetch_add(1, Ordering::Relaxed);
    assert!(id != u32::MAX, "label intern table exhausted");
    let canon: Arc<[Tag]> = Arc::from(sorted);
    shard.insert(Arc::clone(&canon), id);
    (LabelId(id), canon)
}

struct PairInterner {
    shards: Vec<Mutex<HashMap<u64, u32>>>,
    next: AtomicU32,
}

impl PairInterner {
    fn new() -> Self {
        let mut shards = Vec::with_capacity(SHARDS);
        for _ in 0..SHARDS {
            shards.push(Mutex::new(HashMap::new()));
        }
        let interner = PairInterner { shards, next: AtomicU32::new(1) };
        // Reserve id 0 for the unlabeled pair.
        interner.shards[0].lock().unwrap_or_else(PoisonError::into_inner).insert(0, 0);
        interner
    }
}

fn pair_interner() -> &'static PairInterner {
    static TABLE: OnceLock<PairInterner> = OnceLock::new();
    TABLE.get_or_init(PairInterner::new)
}

/// Interns a `(secrecy, integrity)` id pair into a stable [`PairId`].
pub(crate) fn intern_pair(secrecy: LabelId, integrity: LabelId) -> PairId {
    let key = (u64::from(secrecy.as_u32()) << 32) | u64::from(integrity.as_u32());
    if key == 0 {
        return PairId::UNLABELED;
    }
    let table = pair_interner();
    let mix = key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let mut shard = table.shards[(mix >> 56) as usize & (SHARDS - 1)]
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    if let Some(&id) = shard.get(&key) {
        return PairId(id);
    }
    let id = table.next.fetch_add(1, Ordering::Relaxed);
    assert!(id != u32::MAX, "pair intern table exhausted");
    shard.insert(key, id);
    PairId(id)
}

/// A point-in-time snapshot of the intern tables' sizes.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct InternStats {
    /// Distinct labels interned so far (including the empty label).
    pub labels: usize,
    /// Distinct `{S, I}` pairs interned so far (including unlabeled).
    pub pairs: usize,
}

/// Snapshots the current intern-table sizes.
#[must_use]
pub fn intern_stats() -> InternStats {
    let labels = label_interner()
        .shards
        .iter()
        .map(|s| s.lock().unwrap_or_else(PoisonError::into_inner).len())
        .sum();
    let pairs = pair_interner()
        .shards
        .iter()
        .map(|s| s.lock().unwrap_or_else(PoisonError::into_inner).len())
        .sum();
    InternStats { labels, pairs }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(n: u64) -> Tag {
        Tag::from_raw(n)
    }

    #[test]
    fn empty_label_is_id_zero() {
        assert_eq!(intern_label(Vec::new()).0, LabelId::EMPTY);
        assert_eq!(intern_pair(LabelId::EMPTY, LabelId::EMPTY), PairId::UNLABELED);
    }

    #[test]
    fn interning_is_canonical() {
        let (id1, arc1) = intern_label(vec![t(100_001), t(100_002)]);
        let (id2, arc2) = intern_label(vec![t(100_001), t(100_002)]);
        assert_eq!(id1, id2);
        assert!(Arc::ptr_eq(&arc1, &arc2), "same tag-set must share one allocation");
        let (id3, _) = intern_label(vec![t(100_001), t(100_003)]);
        assert_ne!(id1, id3);
    }

    #[test]
    fn pair_ids_distinguish_direction() {
        let (a, _) = intern_label(vec![t(100_010)]);
        let (b, _) = intern_label(vec![t(100_011)]);
        assert_ne!(intern_pair(a, b), intern_pair(b, a));
        assert_eq!(intern_pair(a, b), intern_pair(a, b));
    }

    #[test]
    fn stats_grow_monotonically() {
        let before = intern_stats();
        let _ = intern_label(vec![t(100_020), t(100_021), t(100_022)]);
        let after = intern_stats();
        assert!(after.labels >= before.labels);
        assert!(after.labels >= 1); // at least the empty label
    }
}
