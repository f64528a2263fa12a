//! Sharded kernel tables, the total lock order and the two lock modes.
//!
//! The kernel has no big lock: state lives in per-subsystem sharded
//! tables so syscalls from distinct tasks can execute in parallel (the
//! structure Laminar's per-object LSM hooks admit, §4). The shard map:
//!
//! | domain            | shards | key space          | ranks (ordinals) |
//! |-------------------|--------|--------------------|------------------|
//! | task table        | 8      | `TaskId % 8`       | `0..=7`          |
//! | process table     | 8      | `ProcessId % 8`    | `8..=15`         |
//! | inode/VFS table   | 16     | `InodeId % 16`     | `16..=31`        |
//! | registry          | 1      | (singleton)        | `32`             |
//!
//! Pipe and socket buffers live inside their inodes, so they are covered
//! by the inode shards; the registry shard holds the per-user persistent
//! capability store, home-directory map and minted-tag accounting.
//!
//! Each shard is a reader-writer lock held in one of two
//! [`ShardMode`]s: *shared* by any number of syscalls that only read it
//! (path walks through `/`, label reads, `stat`), or *exclusive* by one
//! syscall that may mutate it. Every mutation needs exclusive mode.
//!
//! **Total lock order:** locks must be acquired in strictly ascending
//! [`ShardKey`] order (task shards before process shards before
//! inode shards before the registry), in either mode. The order is
//! enforced at runtime by [`laminar_util::sync::lock_order`], with each
//! shard's flat ordinal as its rank; a syscall
//! body that discovers it needs a shard *below* one it already holds, or
//! exclusive mode on a shard it holds shared, returns the internal
//! [`OsError::Retry`](crate::OsError) sentinel, and the dispatcher rolls
//! back, widens its lock [`Footprint`] to every shard the attempt held
//! plus the one it lacked, and restarts with all of them pre-locked in
//! ascending order and in the mode each needs (two-phase locking with
//! restart).
//!
//! [`InodeIds`] mints each new inode's id in a shard above every shard
//! its creator holds, so a path walk from `/` to a file normally meets
//! its shards in ascending order and never restarts.
//!
//! The task, process and inode maps hash their keys with [`IdHasher`],
//! a multiply-and-fold hash, not the default SipHash: the keys are ids
//! the kernel mints, which no subject chooses, so there is no flooding
//! attack for a keyed hash to stop. The registry's maps, keyed by
//! [`UserId`], keep the default hasher.

use crate::task::{ProcessId, ProcessStruct, TaskId, TaskStruct, UserId};
use crate::vfs::inode::{Inode, InodeId};
use laminar_difc::CapSet;
use laminar_util::sync::{lock_order, CachePadded, RwLock};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{RwLockReadGuard, RwLockWriteGuard};

/// Number of task-table shards.
pub const TASK_SHARDS: usize = 8;
/// Number of process-table shards.
pub const PROC_SHARDS: usize = 8;
/// Number of inode-table shards (pipes and sockets live here too).
pub const INODE_SHARDS: usize = 16;
/// Total number of kernel lock shards (all domains plus the registry).
pub const SHARD_COUNT: usize = TASK_SHARDS + PROC_SHARDS + INODE_SHARDS + 1;

// Every shard ordinal is a lock-order rank and a footprint bit.
const _: () = assert!(SHARD_COUNT <= lock_order::MAX_RANKS as usize);

const DOM_TASK: u16 = 0x000;
const DOM_PROC: u16 = 0x100;
const DOM_INODE: u16 = 0x200;
const DOM_REGISTRY: u16 = 0x300;
const DOM_MASK: u16 = 0xF00;
const IDX_MASK: u16 = 0x0FF;

/// Identifies one kernel lock shard. The numeric value *is* the total
/// lock order: a `ShardKey` with a smaller value must be locked first.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ShardKey(pub(crate) u16);

impl ShardKey {
    /// The task-table shard holding `tid`.
    #[must_use]
    pub fn task(tid: TaskId) -> Self {
        ShardKey(DOM_TASK | (tid.0 % TASK_SHARDS as u64) as u16)
    }

    /// The process-table shard holding `pid`.
    #[must_use]
    pub fn proc(pid: ProcessId) -> Self {
        ShardKey(DOM_PROC | (pid.0 % PROC_SHARDS as u64) as u16)
    }

    /// The inode-table shard holding `ino`.
    #[must_use]
    pub fn inode(ino: InodeId) -> Self {
        ShardKey(DOM_INODE | (ino.0 % INODE_SHARDS as u64) as u16)
    }

    /// The (singleton) registry shard.
    #[must_use]
    pub fn registry() -> Self {
        ShardKey(DOM_REGISTRY)
    }

    /// Maps a flat ordinal in `0..SHARD_COUNT` onto the shard map:
    /// task shards first, then process, inode, registry. Ordinals wrap.
    #[must_use]
    pub fn from_ordinal(n: usize) -> Self {
        let n = n % SHARD_COUNT;
        if n < TASK_SHARDS {
            ShardKey(DOM_TASK | n as u16)
        } else if n < TASK_SHARDS + PROC_SHARDS {
            ShardKey(DOM_PROC | (n - TASK_SHARDS) as u16)
        } else if n < TASK_SHARDS + PROC_SHARDS + INODE_SHARDS {
            ShardKey(DOM_INODE | (n - TASK_SHARDS - PROC_SHARDS) as u16)
        } else {
            ShardKey(DOM_REGISTRY)
        }
    }

    /// The shard's flat ordinal (inverse of [`ShardKey::from_ordinal`]);
    /// ordinal order is the total lock order.
    #[must_use]
    pub fn ordinal(self) -> usize {
        let idx = usize::from(self.0 & IDX_MASK);
        match self.0 & DOM_MASK {
            DOM_TASK => idx,
            DOM_PROC => TASK_SHARDS + idx,
            DOM_INODE => TASK_SHARDS + PROC_SHARDS + idx,
            _ => SHARD_COUNT - 1,
        }
    }

    /// The shard's position in the total lock order (used as the
    /// [`lock_order`] rank): its ordinal, which orders shards exactly as
    /// their keys do.
    #[must_use]
    pub fn rank(self) -> u32 {
        self.ordinal() as u32
    }
}

/// How a shard lock is held.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum ShardMode {
    /// Any number of holders, none of which may mutate the shard.
    Shared,
    /// One holder, which may mutate the shard.
    Exclusive,
}

/// A lock footprint: the shards a syscall attempt pre-locks, each with
/// its mode. Two bitmasks over shard ordinals (all 33 fit a `u64`), so
/// building one allocates nothing and iterating it follows the total
/// lock order.
#[derive(Copy, Clone, Default, PartialEq, Eq, Debug)]
pub(crate) struct Footprint {
    held: u64,
    exclusive: u64,
}

impl Footprint {
    /// Adds `key` in `mode`; a shard already present keeps the stronger
    /// of the two modes.
    pub(crate) fn add(&mut self, key: ShardKey, mode: ShardMode) {
        let bit = 1u64 << key.ordinal();
        self.held |= bit;
        if mode == ShardMode::Exclusive {
            self.exclusive |= bit;
        }
    }

    /// The shards in ascending lock order, with their modes.
    pub(crate) fn iter(self) -> impl Iterator<Item = (ShardKey, ShardMode)> {
        (0..SHARD_COUNT).filter(move |&n| self.held & (1 << n) != 0).map(move |n| {
            let mode = if self.exclusive & (1 << n) != 0 {
                ShardMode::Exclusive
            } else {
                ShardMode::Shared
            };
            (ShardKey::from_ordinal(n), mode)
        })
    }

    /// Number of shards in the footprint.
    pub(crate) fn len(self) -> usize {
        self.held.count_ones() as usize
    }
}

/// The kernel-global singleton state guarded by the registry shard.
#[derive(Default, Debug)]
pub(crate) struct Registry {
    /// Persistent per-user capability store (§4.4: "The OS stores the
    /// persistent capabilities for each user in a file. On login, the OS
    /// gives the login shell all of the user's persistent capabilities").
    pub persistent_caps: HashMap<UserId, CapSet>,
    pub homes: HashMap<UserId, InodeId>,
    /// Tags minted per user via `alloc_tag` (for the tag quota).
    pub tags_minted: HashMap<UserId, u64>,
}

/// Hashes one kernel-minted id (see the module docs): a multiply by an
/// odd 64-bit constant, then the high half folded into the low bits.
/// `HashMap` picks buckets from the low bits, and the ids of one inode
/// shard are all `n * 16 + s`: without the fold the product's low bits
/// keep that stride and the shard's ids crowd into a sixteenth of the
/// buckets.
#[derive(Default)]
pub(crate) struct IdHasher(u64);

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0 ^ n).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn finish(&self) -> u64 {
        self.0 ^ (self.0 >> 32)
    }
}

type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;
pub(crate) type TaskMap = IdMap<TaskId, TaskStruct>;
pub(crate) type ProcMap = IdMap<ProcessId, ProcessStruct>;
pub(crate) type InodeMap = IdMap<InodeId, Inode>;

/// One shard's rwlock on a 128-byte block of its own. Unpadded, a
/// 48-byte `RwLock<HashMap>` shares a cache line with its neighbour, so
/// a syscall taking or releasing its own shard would invalidate the
/// line another core reads for a different shard.
type Shard<T> = CachePadded<RwLock<T>>;

/// The sharded kernel tables. Each map fragment has its own rwlock;
/// [`Tables::lock`] enforces the total order via [`lock_order`].
pub(crate) struct Tables {
    tasks: [Shard<TaskMap>; TASK_SHARDS],
    procs: [Shard<ProcMap>; PROC_SHARDS],
    inodes: [Shard<InodeMap>; INODE_SHARDS],
    registry: Shard<Registry>,
}

impl std::fmt::Debug for Tables {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tables").finish_non_exhaustive()
    }
}

/// One shard's rwlock guard, in the mode it was taken.
pub(crate) enum Guard<'a, T> {
    Shared(RwLockReadGuard<'a, T>),
    Exclusive(RwLockWriteGuard<'a, T>),
}

impl<'a, T> Guard<'a, T> {
    fn new(lock: &'a RwLock<T>, mode: ShardMode) -> Self {
        match mode {
            ShardMode::Shared => Guard::Shared(lock.read()),
            ShardMode::Exclusive => Guard::Exclusive(lock.write()),
        }
    }

    fn mode(&self) -> ShardMode {
        match self {
            Guard::Shared(_) => ShardMode::Shared,
            Guard::Exclusive(_) => ShardMode::Exclusive,
        }
    }

    fn get(&self) -> &T {
        match self {
            Guard::Shared(g) => g,
            Guard::Exclusive(g) => g,
        }
    }

    /// Mutable access; `None` if the shard is held shared.
    fn get_mut(&mut self) -> Option<&mut T> {
        match self {
            Guard::Shared(_) => None,
            Guard::Exclusive(g) => Some(g),
        }
    }
}

/// A locked view of one shard: the guard plus which table it belongs to.
pub(crate) enum ShardGuard<'a> {
    Tasks(Guard<'a, TaskMap>),
    Procs(Guard<'a, ProcMap>),
    Inodes(Guard<'a, InodeMap>),
    Registry(Guard<'a, Registry>),
}

impl ShardGuard<'_> {
    pub(crate) fn tasks(&self) -> Option<&TaskMap> {
        match self {
            ShardGuard::Tasks(g) => Some(g.get()),
            _ => None,
        }
    }

    pub(crate) fn tasks_mut(&mut self) -> Option<&mut TaskMap> {
        match self {
            ShardGuard::Tasks(g) => g.get_mut(),
            _ => None,
        }
    }

    pub(crate) fn procs(&self) -> Option<&ProcMap> {
        match self {
            ShardGuard::Procs(g) => Some(g.get()),
            _ => None,
        }
    }

    pub(crate) fn procs_mut(&mut self) -> Option<&mut ProcMap> {
        match self {
            ShardGuard::Procs(g) => g.get_mut(),
            _ => None,
        }
    }

    pub(crate) fn inodes(&self) -> Option<&InodeMap> {
        match self {
            ShardGuard::Inodes(g) => Some(g.get()),
            _ => None,
        }
    }

    pub(crate) fn inodes_mut(&mut self) -> Option<&mut InodeMap> {
        match self {
            ShardGuard::Inodes(g) => g.get_mut(),
            _ => None,
        }
    }

    pub(crate) fn registry(&self) -> Option<&Registry> {
        match self {
            ShardGuard::Registry(g) => Some(g.get()),
            _ => None,
        }
    }

    pub(crate) fn registry_mut(&mut self) -> Option<&mut Registry> {
        match self {
            ShardGuard::Registry(g) => g.get_mut(),
            _ => None,
        }
    }
}

/// A held shard lock; dropping it releases both the rwlock and the
/// thread's [`lock_order`] bookkeeping entry.
pub(crate) struct HeldShard<'a> {
    pub key: ShardKey,
    pub guard: ShardGuard<'a>,
}

impl HeldShard<'_> {
    /// The mode the shard is held in.
    pub(crate) fn mode(&self) -> ShardMode {
        match &self.guard {
            ShardGuard::Tasks(g) => g.mode(),
            ShardGuard::Procs(g) => g.mode(),
            ShardGuard::Inodes(g) => g.mode(),
            ShardGuard::Registry(g) => g.mode(),
        }
    }
}

impl Drop for HeldShard<'_> {
    fn drop(&mut self) {
        lock_order::release(self.key.rank());
    }
}

fn idx(key: ShardKey) -> usize {
    usize::from(key.0 & IDX_MASK)
}

impl Tables {
    pub(crate) fn new() -> Self {
        Tables {
            tasks: std::array::from_fn(|_| Shard::default()),
            procs: std::array::from_fn(|_| Shard::default()),
            inodes: std::array::from_fn(|_| Shard::default()),
            registry: Shard::default(),
        }
    }

    /// Locks the shard identified by `key` in `mode`, recording the
    /// acquisition in the thread's lock-order lint state. Callers must
    /// acquire keys in ascending order (in either mode) or the lint
    /// panics. This is the only function that takes a shard lock, so
    /// every acquisition (a transaction's, or the one-shard-at-a-time
    /// admin, login and read-only probe paths) feeds the lint.
    pub(crate) fn lock(&self, key: ShardKey, mode: ShardMode) -> HeldShard<'_> {
        lock_order::acquire(key.rank());
        let i = idx(key);
        let guard = match key.0 & DOM_MASK {
            DOM_TASK => ShardGuard::Tasks(Guard::new(&self.tasks[i], mode)),
            DOM_PROC => ShardGuard::Procs(Guard::new(&self.procs[i], mode)),
            DOM_INODE => ShardGuard::Inodes(Guard::new(&self.inodes[i], mode)),
            _ => ShardGuard::Registry(Guard::new(&self.registry, mode)),
        };
        HeldShard { key, guard }
    }

    /// Poisons the underlying rwlock of one shard (fault injection).
    pub(crate) fn poison(&self, key: ShardKey) {
        let i = idx(key);
        match key.0 & DOM_MASK {
            DOM_TASK => self.tasks[i].poison_for_test(),
            DOM_PROC => self.procs[i].poison_for_test(),
            DOM_INODE => self.inodes[i].poison_for_test(),
            _ => self.registry.poison_for_test(),
        }
    }
}

/// Inode id minting and per-shard live-inode counts.
///
/// A new inode's id is minted in the inode shard with the fewest live
/// inodes among those whose key sorts above `above`, the highest shard
/// its creator holds. A directory created on a path therefore sorts
/// above every directory on that path, and a walk down the path locks
/// its shards in ascending order. Counting live inodes spreads the ids
/// evenly over the eligible shards, so siblings (two workers' directories
/// in `/tmp`) do not share a shard, and keeps the shard maps the same
/// size. When no shard sorts above `above`, the id goes to the least
/// populated shard of all, and the creator restarts with it pre-locked.
pub(crate) struct InodeIds {
    /// Per shard: how many ids have been minted there.
    minted: [AtomicU64; INODE_SHARDS],
    /// Per shard: live inodes (exact when quiescent).
    live: [AtomicU64; INODE_SHARDS],
}

impl InodeIds {
    /// Minting starts above the fixed boot ids `1..first_free`.
    pub(crate) fn new(first_free: u64) -> Self {
        let n = INODE_SHARDS as u64;
        InodeIds {
            minted: std::array::from_fn(|s| {
                AtomicU64::new(first_free.saturating_sub(s as u64).div_ceil(n))
            }),
            live: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// Mints a fresh inode id (see the type docs).
    pub(crate) fn mint(&self, above: Option<ShardKey>) -> InodeId {
        // Task and process keys constrain nothing; the top inode shard
        // and the registry leave no shard above, so every shard is a
        // candidate then.
        let first = match above {
            Some(k) if k.0 & DOM_MASK == DOM_INODE && idx(k) + 1 < INODE_SHARDS => {
                idx(k) + 1
            }
            _ => 0,
        };
        let s = (first..INODE_SHARDS)
            .min_by_key(|&s| self.live[s].load(Ordering::Relaxed))
            .unwrap_or(first);
        let n = self.minted[s].fetch_add(1, Ordering::Relaxed);
        InodeId(n * INODE_SHARDS as u64 + s as u64)
    }

    /// Counts an inode entering its shard's map.
    pub(crate) fn inserted(&self, id: InodeId) {
        self.live[idx(ShardKey::inode(id))].fetch_add(1, Ordering::Relaxed);
    }

    /// Counts an inode leaving its shard's map.
    pub(crate) fn removed(&self, id: InodeId) {
        self.live[idx(ShardKey::inode(id))].fetch_sub(1, Ordering::Relaxed);
    }

    /// Live inodes over all shards (approximate under races by at most
    /// the number of in-flight transactions; exact when quiescent).
    pub(crate) fn live(&self) -> u64 {
        self.live.iter().map(|n| n.load(Ordering::Relaxed)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::time::Duration;

    #[test]
    fn shard_keys_are_totally_ordered_by_domain() {
        let t = ShardKey::task(TaskId(7));
        let p = ShardKey::proc(ProcessId(0));
        let i = ShardKey::inode(InodeId(15));
        let r = ShardKey::registry();
        assert!(t < p && p < i && i < r);
        assert!(t.rank() < p.rank() && i.rank() < r.rank());
    }

    #[test]
    fn ranks_are_ordinals_in_key_order() {
        let keys: Vec<ShardKey> = (0..SHARD_COUNT).map(ShardKey::from_ordinal).collect();
        for (n, w) in keys.windows(2).enumerate() {
            assert!(w[0] < w[1]);
            assert_eq!((w[0].rank(), w[1].rank()), (n as u32, n as u32 + 1));
        }
    }

    #[test]
    fn id_hasher_spreads_one_shards_ids_over_the_low_bits() {
        use std::hash::BuildHasher;
        // 4,096 ids of one inode shard, as a 8,192-bucket table would
        // index them: by the low 13 bits of the hash. The product alone
        // leaves 512 distinct values; a random hash gives about 3,200.
        let build = BuildHasherDefault::<IdHasher>::default();
        for s in [0, 5, 15] {
            let buckets: std::collections::HashSet<u64> = (0..4096u64)
                .map(|n| build.hash_one(InodeId(n * INODE_SHARDS as u64 + s)) & 0x1FFF)
                .collect();
            assert!(buckets.len() >= 2048, "shard {s}: {} buckets", buckets.len());
        }
    }

    #[test]
    fn from_ordinal_covers_every_shard_exactly_once() {
        let mut seen = std::collections::BTreeSet::new();
        for n in 0..SHARD_COUNT {
            let key = ShardKey::from_ordinal(n);
            assert_eq!(key.ordinal(), n);
            seen.insert(key);
        }
        assert_eq!(seen.len(), SHARD_COUNT);
        // wraps
        assert_eq!(ShardKey::from_ordinal(SHARD_COUNT), ShardKey::from_ordinal(0));
    }

    #[test]
    fn same_id_maps_to_same_shard() {
        assert_eq!(ShardKey::inode(InodeId(3)), ShardKey::inode(InodeId(3 + 16)));
        assert_eq!(ShardKey::task(TaskId(2)), ShardKey::task(TaskId(10)));
    }

    #[test]
    fn footprint_iterates_in_lock_order_with_the_stronger_mode() {
        let mut f = Footprint::default();
        f.add(ShardKey::registry(), ShardMode::Shared);
        f.add(ShardKey::inode(InodeId(4)), ShardMode::Shared);
        f.add(ShardKey::task(TaskId(3)), ShardMode::Exclusive);
        f.add(ShardKey::inode(InodeId(4)), ShardMode::Exclusive);
        f.add(ShardKey::task(TaskId(3)), ShardMode::Shared);
        let got: Vec<_> = f.iter().collect();
        assert_eq!(
            got,
            vec![
                (ShardKey::task(TaskId(3)), ShardMode::Exclusive),
                (ShardKey::inode(InodeId(4)), ShardMode::Exclusive),
                (ShardKey::registry(), ShardMode::Shared),
            ]
        );
        assert_eq!(f.len(), 3);
    }

    #[test]
    fn every_shard_lock_has_a_128_byte_block_of_its_own() {
        use std::ptr::addr_of;
        let t = Tables::new();
        let mut starts: Vec<usize> = (0..TASK_SHARDS)
            .map(|i| addr_of!(t.tasks[i]) as usize)
            .chain((0..PROC_SHARDS).map(|i| addr_of!(t.procs[i]) as usize))
            .chain((0..INODE_SHARDS).map(|i| addr_of!(t.inodes[i]) as usize))
            .chain([addr_of!(t.registry) as usize])
            .collect();
        assert_eq!(starts.len(), SHARD_COUNT);
        assert!(starts.iter().all(|a| a % 128 == 0), "unaligned: {starts:x?}");
        starts.sort_unstable();
        for w in starts.windows(2) {
            assert!(
                w[1] - w[0] >= 128,
                "locks at {:#x} and {:#x} share a block",
                w[0],
                w[1]
            );
        }
    }

    #[test]
    fn lock_unlock_round_trip_clears_lint_state() {
        let t = Tables::new();
        {
            let a = t.lock(ShardKey::task(TaskId(1)), ShardMode::Shared);
            let b = t.lock(ShardKey::inode(InodeId(1)), ShardMode::Exclusive);
            assert_eq!(lock_order::held_count(), 2);
            assert_eq!((a.mode(), b.mode()), (ShardMode::Shared, ShardMode::Exclusive));
        }
        assert_eq!(lock_order::held_count(), 0);
    }

    /// Whether a second thread gets `key` in `mode` within `wait` while
    /// this thread holds it in `held`. The helper thread always finishes
    /// once the holder lets go, so a failing case cannot hang the test.
    fn second_holder_gets_in(held: ShardMode, mode: ShardMode, wait: Duration) -> bool {
        let tables = Tables::new();
        let key = ShardKey::inode(InodeId(1));
        let first = tables.lock(key, held);
        std::thread::scope(|s| {
            let (tx, rx) = mpsc::channel();
            let tables = &tables;
            s.spawn(move || {
                let _second = tables.lock(key, mode);
                let _ = tx.send(());
            });
            let got = rx.recv_timeout(wait).is_ok();
            drop(first);
            got
        })
    }

    #[test]
    fn two_threads_hold_one_shard_shared_at_once() {
        assert!(second_holder_gets_in(
            ShardMode::Shared,
            ShardMode::Shared,
            Duration::from_secs(10)
        ));
    }

    #[test]
    fn exclusive_excludes_shared_and_exclusive_holders() {
        let wait = Duration::from_millis(100);
        use ShardMode::{Exclusive, Shared};
        assert!(!second_holder_gets_in(Exclusive, Shared, wait));
        assert!(!second_holder_gets_in(Exclusive, Exclusive, wait));
        assert!(!second_holder_gets_in(Shared, Exclusive, wait));
    }

    #[test]
    fn lock_order_lint_panics_out_of_order_in_either_mode() {
        use ShardMode::{Exclusive, Shared};
        for (first, second) in [
            (Shared, Shared),
            (Shared, Exclusive),
            (Exclusive, Shared),
            (Exclusive, Exclusive),
        ] {
            let t = Tables::new();
            let high = t.lock(ShardKey::inode(InodeId(5)), first);
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let _low = t.lock(ShardKey::proc(ProcessId(1)), second);
            }));
            drop(high);
            let err = r.expect_err("descending acquisition must panic");
            let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
            assert!(msg.contains("lock-order violation"), "{first:?}/{second:?}: {msg}");
            assert_eq!(lock_order::held_count(), 0);
        }
    }

    #[test]
    fn minted_inodes_sort_above_the_creator_and_spread_evenly() {
        let ids = InodeIds::new(7);
        // Boot ids 1..=6 are taken; nothing minted collides with them.
        let first = ids.mint(None);
        assert!(first.0 >= 7);
        // Above shard 4, every id lands in 5..=15, evenly.
        let mut per_shard = [0u32; INODE_SHARDS];
        for _ in 0..11 * 8 {
            let id = ids.mint(Some(ShardKey::inode(InodeId(4))));
            assert!(ShardKey::inode(id) > ShardKey::inode(InodeId(4)));
            ids.inserted(id);
            per_shard[idx(ShardKey::inode(id))] += 1;
        }
        assert!(per_shard[5..].iter().all(|&n| n == 8), "{per_shard:?}");
        // A task or process shard constrains nothing; the top inode shard
        // and the registry leave no shard above, so any shard will do.
        for above in [ShardKey::proc(ProcessId(3)), ShardKey::registry()] {
            let id = ids.mint(Some(above));
            assert!(ShardKey::inode(id) < ShardKey::inode(InodeId(5)), "{id:?}");
        }
        let mut seen = std::collections::HashSet::new();
        for _ in 0..1000 {
            assert!(seen.insert(ids.mint(Some(ShardKey::inode(InodeId(9))))));
        }
    }
}
