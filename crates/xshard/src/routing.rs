//! Deterministic key → group routing for sharded deployments.
//!
//! One PBFT group totally orders one request stream; the quadratic message
//! complexity of the agreement keeps any single group's throughput bounded
//! regardless of hardware (paper Table 1 tops out near 17k null ops/s).
//! Horizontal composition — N independent groups, each owning a disjoint
//! partition of the key space — is the standard escape hatch, and the
//! queueing model of Loruenser et al. predicts near-linear scaling when the
//! request streams are partitioned.
//!
//! [`ShardMap`] is the whole contract of that partitioning: a pure,
//! deterministic function from an operation's *shard key* (any byte string
//! the application designates — a row key, an election id, a client tag) to
//! a group index. Every client and every tool that holds the same
//! `ShardMap` computes the same assignment, with no coordination and no
//! routing tables to distribute.
//!
//! Two assignment representations share the one hash:
//!
//! * **Hash (epoch 0, static).** `hash(key) % shards` — the original
//!   deployment-time partition. [`ShardMap::new`] builds it and every
//!   pre-elastic call site keeps its exact assignment.
//! * **Ranges (elastic).** An explicit, sorted key-*range* → group table
//!   over the 64-bit hash ring, stamped with an **epoch** that increments on
//!   every reconfiguration. [`ShardMap::ranged`] builds the epoch-0 table
//!   (identical spread to `new` for uniform keys, but contiguous — so a
//!   group's span can be *split*), and [`ShardMap::split`] produces the
//!   next epoch: the source group's widest range halved, the upper half
//!   handed to a brand-new group. Replicas compare epochs to order
//!   reconfigurations; a client holding a stale map is told so with a
//!   `WrongEpoch` rejection (see [`crate::xshard`]) and retries against the
//!   newer map.
//!
//! Operations naming several keys are routable only when all keys land on
//! the same group; otherwise routing fails with the typed
//! [`RouteError::CrossShard`] so callers can surface the conflict instead of
//! silently splitting an atomic operation. Cross-shard *coordination* is
//! deliberately not this module's job: atomic multi-group operations go
//! through the two-phase commit of [`crate::xshard`], which uses
//! [`XShardOp::route`](crate::xshard::XShardOp::route) to split a
//! transaction into per-shard legs over this same partition.
//!
//! ```
//! use pbft_xshard::routing::{RouteError, ShardMap};
//!
//! let map = ShardMap::new(4);
//! // Deterministic and total: every key routes, and always the same way.
//! assert_eq!(map.shard_of(b"voter-42"), map.shard_of(b"voter-42"));
//! assert!(map.shard_of(b"anything") < 4);
//!
//! // Multi-key operations route only if the keys agree.
//! let same = [b"k1".to_vec(), b"k1".to_vec()];
//! assert!(map.route(&same).is_ok());
//! let split = [b"k1".to_vec(), b"k3".to_vec()];
//! match map.route(&split) {
//!     Err(RouteError::CrossShard { .. }) => {}
//!     other => panic!("expected a cross-shard rejection, got {other:?}"),
//! }
//!
//! // Elastic deployments use the range table and grow by splitting.
//! let map = ShardMap::ranged(2);
//! let plan = map.split(0);
//! assert_eq!(plan.new_map.shards(), 3);
//! assert_eq!(plan.new_map.epoch(), 1);
//! ```

use std::fmt;

use pbft_core::wire::{Dec, Enc, WireError};

/// The stable 64-bit key hash all routing derives from (FNV-1a).
///
/// The choice is part of the deployment contract: every client of a sharded
/// deployment must hash identically or requests land on groups that never
/// ordered them. FNV-1a is tiny, has no data-dependent branches, and mixes
/// short keys (the common case: row keys, numeric ids) well enough that
/// uniform keys spread uniformly across buckets.
pub fn stable_key_hash(key: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in key {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    // Final avalanche (SplitMix64 finalizer) so that low-entropy tails —
    // e.g. keys differing only in the last byte — still flip high bits
    // before the modulo.
    let mut z = h;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Why an operation could not be routed to a single group.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RouteError {
    /// The operation designated no shard key at all.
    NoKeys,
    /// Two of the operation's keys map to different groups. Atomic
    /// cross-shard operations must go through the two-phase commit of
    /// [`crate::xshard`] instead of single-group submission.
    CrossShard {
        /// The first key and the shard it routes to.
        first: (Vec<u8>, u32),
        /// The earliest key that disagrees, and its shard.
        conflicting: (Vec<u8>, u32),
    },
}

impl fmt::Display for RouteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RouteError::NoKeys => write!(f, "operation names no shard key"),
            RouteError::CrossShard { first, conflicting } => write!(
                f,
                "cross-shard operation: key {:02x?} routes to shard {} but key {:02x?} routes to shard {}",
                first.0, first.1, conflicting.0, conflicting.1
            ),
        }
    }
}

impl std::error::Error for RouteError {}

/// Upper bound on the range-table size (and therefore on how many times a
/// deployment can split). A fixed array keeps [`ShardMap`] `Copy`, which
/// every client and router clones freely; 16 ranges cover a 2→4→8-way
/// growth with headroom.
pub const MAX_RANGES: usize = 16;

/// One contiguous span of the 64-bit hash ring: keys hashing into
/// `[start, next range's start)` belong to `group` (the last range runs to
/// `u64::MAX` inclusive).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KeyRange {
    /// Inclusive start of the span on the hash ring.
    pub start: u64,
    /// The owning group.
    pub group: u32,
}

/// The two assignment representations (see the [module docs](self)).
// The inline range table is what keeps `ShardMap: Copy` — a hard
// requirement (routers share it through a `Cell`), so the size skew vs the
// `Hash` variant is accepted rather than boxed away.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Assignment {
    /// `hash % shards` — the static epoch-0 partition.
    Hash {
        /// Number of groups.
        shards: u32,
    },
    /// Sorted range table over the hash ring.
    Ranges {
        /// The table; only `count` entries are live.
        ranges: [KeyRange; MAX_RANGES],
        /// Live entries of `ranges`.
        count: u32,
        /// Number of groups (1 + highest group index).
        shards: u32,
    },
}

/// The deterministic key-space partition: `shards` groups, key → group by
/// stable hash, versioned by an epoch for elastic deployments. See the
/// [module docs](self) for the contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardMap {
    epoch: u64,
    assign: Assignment,
}

/// The outcome of a [`ShardMap::split`]: the next-epoch map plus the exact
/// hash span whose ownership moved, which is everything a migration needs —
/// the source exports keys hashing into the span, the target installs them,
/// and routers switch maps at cutover.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitPlan {
    /// The next-epoch map (one more group, one more range).
    pub new_map: ShardMap,
    /// The group that gave up the span.
    pub source: u32,
    /// The newly created group that now owns it (always the old
    /// `shards()` — groups are only ever appended).
    pub target: u32,
    /// Inclusive lower bound of the moved hash span.
    pub moved_lo: u64,
    /// Inclusive upper bound of the moved hash span.
    pub moved_hi: u64,
}

impl SplitPlan {
    /// Does `key` move from the source to the target under this plan?
    pub fn moves(&self, key: &[u8]) -> bool {
        self.moves_hash(stable_key_hash(key))
    }

    /// [`SplitPlan::moves`] for a precomputed [`stable_key_hash`].
    pub fn moves_hash(&self, hash: u64) -> bool {
        (self.moved_lo..=self.moved_hi).contains(&hash)
    }
}

impl ShardMap {
    /// A static partition into `shards` groups (`hash % shards`, epoch 0).
    /// This is the pre-elastic constructor; its assignment is pinned
    /// forever so existing deployments keep their exact key placement.
    ///
    /// # Panics
    /// Panics if `shards` is zero — an empty deployment routes nothing.
    pub fn new(shards: u32) -> ShardMap {
        assert!(shards > 0, "a deployment needs at least one shard");
        ShardMap {
            epoch: 0,
            assign: Assignment::Hash { shards },
        }
    }

    /// An *elastic* epoch-0 partition into `shards` equal hash ranges.
    /// Uniform keys spread exactly like [`ShardMap::new`], but each group
    /// owns a contiguous span of the ring, so the partition can later be
    /// reconfigured by [`ShardMap::split`].
    ///
    /// # Panics
    /// Panics if `shards` is zero or exceeds [`MAX_RANGES`].
    pub fn ranged(shards: u32) -> ShardMap {
        assert!(shards > 0, "a deployment needs at least one shard");
        assert!(
            shards as usize <= MAX_RANGES,
            "at most {MAX_RANGES} initial ranges"
        );
        let mut ranges = [KeyRange { start: 0, group: 0 }; MAX_RANGES];
        for (g, r) in ranges.iter_mut().enumerate().take(shards as usize) {
            r.start = (((g as u128) << 64) / shards as u128) as u64;
            r.group = g as u32;
        }
        ShardMap {
            epoch: 0,
            assign: Assignment::Ranges {
                ranges,
                count: shards,
                shards,
            },
        }
    }

    /// The reconfiguration epoch: 0 at deployment, +1 per [`ShardMap::split`].
    /// Replicas and routers install a map only if its epoch is newer than
    /// what they hold.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Whether this map can be reconfigured ([`ShardMap::ranged`] family).
    /// Static hash maps route forever at epoch 0.
    pub fn is_elastic(&self) -> bool {
        matches!(self.assign, Assignment::Ranges { .. })
    }

    /// Number of groups in the partition.
    pub fn shards(&self) -> u32 {
        match self.assign {
            Assignment::Hash { shards } | Assignment::Ranges { shards, .. } => shards,
        }
    }

    /// The group owning `key`. Total (every key routes) and deterministic
    /// (a pure function of the bytes and the partition).
    pub fn shard_of(&self, key: &[u8]) -> u32 {
        self.shard_of_hash(stable_key_hash(key))
    }

    /// [`ShardMap::shard_of`] for a precomputed [`stable_key_hash`] — the
    /// hook for hold-span routers and replica-side ownership checks that
    /// hash once and test twice.
    pub fn shard_of_hash(&self, hash: u64) -> u32 {
        match &self.assign {
            Assignment::Hash { shards } => (hash % *shards as u64) as u32,
            Assignment::Ranges { ranges, count, .. } => {
                let live = &ranges[..*count as usize];
                // Last range whose start is <= hash (table sorted by start,
                // first start is always 0).
                let idx = live.partition_point(|r| r.start <= hash) - 1;
                live[idx].group
            }
        }
    }

    /// The live range table of an elastic map (`None` for static hash
    /// maps). Sorted by `start`; entry *i* covers `[start_i, start_{i+1})`,
    /// the last entry runs to `u64::MAX` inclusive.
    pub fn ranges(&self) -> Option<&[KeyRange]> {
        match &self.assign {
            Assignment::Hash { .. } => None,
            Assignment::Ranges { ranges, count, .. } => Some(&ranges[..*count as usize]),
        }
    }

    /// Plan a live split: halve `source`'s widest range and hand the upper
    /// half to a brand-new group (index = current [`ShardMap::shards`]),
    /// bumping the epoch. Pure planning — nothing migrates until the
    /// deployment executes the [`SplitPlan`].
    ///
    /// # Panics
    /// Panics on a static hash map (build elastic deployments with
    /// [`ShardMap::ranged`]), an out-of-range `source`, a full range table
    /// ([`MAX_RANGES`]), or a source span too narrow to halve.
    pub fn split(&self, source: u32) -> SplitPlan {
        let Assignment::Ranges {
            ranges,
            count,
            shards,
        } = self.assign
        else {
            panic!("static hash maps cannot split; deploy with ShardMap::ranged");
        };
        assert!(source < shards, "source shard {source} out of range");
        assert!(
            (count as usize) < MAX_RANGES,
            "range table full ({MAX_RANGES} entries)"
        );
        let live = &ranges[..count as usize];
        // The widest range owned by the source (ties: lowest start).
        let (idx, lo, hi) = live
            .iter()
            .enumerate()
            .filter(|(_, r)| r.group == source)
            .map(|(i, r)| {
                let end = live.get(i + 1).map_or(u64::MAX, |n| n.start - 1);
                (i, r.start, end)
            })
            .max_by_key(|&(i, lo, hi)| (hi - lo, usize::MAX - i))
            .unwrap_or_else(|| panic!("shard {source} owns no range"));
        assert!(hi > lo, "source span too narrow to split");
        let mid = lo + (hi - lo) / 2 + 1; // upper half [mid, hi] moves
        let target = shards;
        let mut next = ranges;
        // Insert the new range right after the halved one, keeping order.
        next.copy_within(idx + 1..count as usize, idx + 2);
        next[idx + 1] = KeyRange {
            start: mid,
            group: target,
        };
        SplitPlan {
            new_map: ShardMap {
                epoch: self.epoch + 1,
                assign: Assignment::Ranges {
                    ranges: next,
                    count: count + 1,
                    shards: shards + 1,
                },
            },
            source,
            target,
            moved_lo: mid,
            moved_hi: hi,
        }
    }

    /// Route an operation naming `keys`: the single group owning all of
    /// them, or a typed error when there is no such group.
    pub fn route<K: AsRef<[u8]>>(&self, keys: &[K]) -> Result<u32, RouteError> {
        let Some(first) = keys.first() else {
            return Err(RouteError::NoKeys);
        };
        let shard = self.shard_of(first.as_ref());
        for key in &keys[1..] {
            let s = self.shard_of(key.as_ref());
            if s != shard {
                return Err(RouteError::CrossShard {
                    first: (first.as_ref().to_vec(), shard),
                    conflicting: (key.as_ref().to_vec(), s),
                });
            }
        }
        Ok(shard)
    }

    /// Canonical wire encoding (replicas order [`crate::xshard`] `Reshard`
    /// operations carrying a map, so the encoding must be deterministic).
    pub fn encode_into(&self, e: &mut Enc) {
        e.u64(self.epoch);
        match &self.assign {
            Assignment::Hash { shards } => {
                e.u8(0).u32(*shards);
            }
            Assignment::Ranges {
                ranges,
                count,
                shards,
            } => {
                e.u8(1).u32(*shards).u32(*count);
                for r in &ranges[..*count as usize] {
                    e.u64(r.start).u32(r.group);
                }
            }
        }
    }

    /// Decode a [`ShardMap::encode_into`] image.
    ///
    /// # Errors
    /// [`WireError`] on truncation, an unknown representation tag, or a
    /// malformed range table (empty, oversized, unsorted, or not starting
    /// at hash 0).
    pub fn decode_from(d: &mut Dec<'_>) -> Result<ShardMap, WireError> {
        let epoch = d.u64()?;
        let assign = match d.u8()? {
            0 => {
                let shards = d.u32()?;
                if shards == 0 {
                    return Err(WireError::BadLength(0));
                }
                Assignment::Hash { shards }
            }
            1 => {
                let shards = d.u32()?;
                let count = d.u32()?;
                if count == 0 || count as usize > MAX_RANGES || shards == 0 {
                    return Err(WireError::BadLength(count as u64));
                }
                let mut ranges = [KeyRange { start: 0, group: 0 }; MAX_RANGES];
                for r in ranges.iter_mut().take(count as usize) {
                    r.start = d.u64()?;
                    r.group = d.u32()?;
                    if r.group >= shards {
                        return Err(WireError::BadLength(r.group as u64));
                    }
                }
                let live = &ranges[..count as usize];
                if live[0].start != 0 || live.windows(2).any(|w| w[0].start >= w[1].start) {
                    return Err(WireError::BadTag(1));
                }
                Assignment::Ranges {
                    ranges,
                    count,
                    shards,
                }
            }
            t => return Err(WireError::BadTag(t)),
        };
        Ok(ShardMap { epoch, assign })
    }

    /// Encode as a standalone byte string ([`ShardMap::decode`] inverts).
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Enc::new();
        self.encode_into(&mut e);
        e.into_bytes()
    }

    /// Decode a standalone [`ShardMap::encode`] image.
    ///
    /// # Errors
    /// See [`ShardMap::decode_from`]; also rejects trailing bytes.
    pub fn decode(bytes: &[u8]) -> Result<ShardMap, WireError> {
        let mut d = Dec::new(bytes);
        let map = Self::decode_from(&mut d)?;
        d.finish()?;
        Ok(map)
    }
}

/// Test-only probe shared by this crate's test modules: the first small
/// integer key (big-endian `u64` bytes) that `map` assigns to a different
/// shard than `than`.
///
/// # Panics
/// Panics if 64 probes all collide — impossible for a uniform hash over
/// two or more shards.
#[cfg(test)]
pub(crate) fn test_key_on_other_shard(map: &ShardMap, than: &[u8]) -> Vec<u8> {
    let home = map.shard_of(than);
    (0..64u64)
        .map(|i| i.to_be_bytes().to_vec())
        .find(|k| map.shard_of(k) != home)
        .expect("uniform hash cannot put 64 keys on one shard")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routing_is_deterministic_and_total() {
        let map = ShardMap::new(5);
        for i in 0..1000u64 {
            let key = i.to_be_bytes();
            let s = map.shard_of(&key);
            assert!(s < 5);
            assert_eq!(s, map.shard_of(&key), "same key, same shard");
        }
    }

    #[test]
    fn one_shard_routes_everything_to_zero() {
        let map = ShardMap::new(1);
        assert_eq!(map.shard_of(b""), 0);
        assert_eq!(map.shard_of(b"any key at all"), 0);
    }

    #[test]
    fn multi_key_agreement_routes() {
        let map = ShardMap::new(4);
        let k = b"agree".to_vec();
        assert_eq!(
            map.route(&[k.clone(), k.clone(), k]).unwrap(),
            map.shard_of(b"agree")
        );
    }

    #[test]
    fn cross_shard_is_a_typed_error() {
        let map = ShardMap::new(8);
        // Find two keys on different shards (the first few integers suffice).
        let ka = 0u64.to_be_bytes().to_vec();
        let sa = map.shard_of(&ka);
        let kb = test_key_on_other_shard(&map, &ka);
        let sb = map.shard_of(&kb);
        match map.route(&[ka.clone(), kb.clone()]) {
            Err(RouteError::CrossShard { first, conflicting }) => {
                assert_eq!(first, (ka, sa));
                assert_eq!(conflicting, (kb, sb));
            }
            other => panic!("expected CrossShard, got {other:?}"),
        }
    }

    #[test]
    fn empty_key_set_is_rejected() {
        let keys: [&[u8]; 0] = [];
        assert_eq!(ShardMap::new(2).route(&keys), Err(RouteError::NoKeys));
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_panics() {
        ShardMap::new(0);
    }

    #[test]
    fn hash_avalanches_short_suffix_changes() {
        // Keys differing in one trailing byte should not collapse onto a few
        // shards: check the spread over 256 single-byte variations.
        let map = ShardMap::new(8);
        let mut seen = [0u32; 8];
        for b in 0..=255u8 {
            seen[map.shard_of(&[b"prefix-".as_slice(), &[b]].concat()) as usize] += 1;
        }
        assert!(seen.iter().all(|&c| c > 0), "all shards hit: {seen:?}");
    }

    #[test]
    fn ranged_map_is_total_and_balanced() {
        for shards in [1u32, 2, 3, 4, 8, 16] {
            let map = ShardMap::ranged(shards);
            assert!(map.is_elastic());
            assert_eq!(map.epoch(), 0);
            assert_eq!(map.shards(), shards);
            let mut seen = vec![0u32; shards as usize];
            for i in 0..4096u64 {
                seen[map.shard_of(&i.to_be_bytes()) as usize] += 1;
            }
            assert!(
                seen.iter().all(|&c| c > 0),
                "{shards} ranges all hit: {seen:?}"
            );
            // Ring extremes route into the first and last range.
            assert_eq!(map.shard_of_hash(0), 0);
            assert_eq!(map.shard_of_hash(u64::MAX), shards - 1);
        }
    }

    #[test]
    fn split_moves_exactly_the_upper_half_span() {
        let map = ShardMap::ranged(2);
        let plan = map.split(0);
        assert_eq!(plan.source, 0);
        assert_eq!(plan.target, 2, "new group appended");
        assert_eq!(plan.new_map.shards(), 3);
        assert_eq!(plan.new_map.epoch(), 1);
        for i in 0..4096u64 {
            let key = i.to_be_bytes();
            let (old, new) = (map.shard_of(&key), plan.new_map.shard_of(&key));
            if plan.moves(&key) {
                assert_eq!(old, 0, "only source keys move");
                assert_eq!(new, 2, "moved keys land on the target");
            } else {
                assert_eq!(old, new, "unmoved keys keep their owner");
            }
        }
        // The moved span sits inside the source's old range.
        assert_eq!(map.shard_of_hash(plan.moved_lo), 0);
        assert_eq!(map.shard_of_hash(plan.moved_hi), 0);
        assert_eq!(plan.new_map.shard_of_hash(plan.moved_lo), 2);
        assert_eq!(plan.new_map.shard_of_hash(plan.moved_hi), 2);
        assert_eq!(plan.new_map.shard_of_hash(plan.moved_lo - 1), 0);
    }

    #[test]
    fn repeated_splits_grow_to_the_table_bound() {
        // 2 → 4 (the acceptance scenario) and on until the table fills.
        let mut map = ShardMap::ranged(2);
        for step in 0..(MAX_RANGES as u32 - 2) {
            let source = step % map.shards();
            let plan = map.split(source);
            assert_eq!(plan.new_map.epoch(), map.epoch() + 1);
            assert_eq!(plan.new_map.shards(), map.shards() + 1);
            map = plan.new_map;
        }
        assert_eq!(map.ranges().unwrap().len(), MAX_RANGES);
        // Still total and covering every group.
        let mut seen = vec![0u32; map.shards() as usize];
        for i in 0..65536u64 {
            seen[map.shard_of(&i.to_be_bytes()) as usize] += 1;
        }
        assert!(
            seen.iter().all(|&c| c > 0),
            "all groups reachable: {seen:?}"
        );
    }

    #[test]
    #[should_panic(expected = "cannot split")]
    fn static_hash_maps_cannot_split() {
        ShardMap::new(4).split(0);
    }

    #[test]
    fn maps_roundtrip_on_the_wire() {
        let hash = ShardMap::new(7);
        assert_eq!(ShardMap::decode(&hash.encode()), Ok(hash));
        let mut elastic = ShardMap::ranged(2);
        elastic = elastic.split(1).new_map;
        elastic = elastic.split(0).new_map;
        assert_eq!(ShardMap::decode(&elastic.encode()), Ok(elastic));
    }

    #[test]
    fn malformed_map_images_are_rejected() {
        // Unknown representation tag.
        let mut e = Enc::new();
        e.u64(0).u8(9);
        assert!(ShardMap::decode(&e.into_bytes()).is_err());
        // Zero shards.
        let mut e = Enc::new();
        e.u64(0).u8(0).u32(0);
        assert!(ShardMap::decode(&e.into_bytes()).is_err());
        // Unsorted range table.
        let mut e = Enc::new();
        e.u64(1).u8(1).u32(2).u32(2);
        e.u64(10).u32(0); // first start must be 0
        e.u64(5).u32(1);
        assert!(ShardMap::decode(&e.into_bytes()).is_err());
        // Trailing garbage.
        let mut bytes = ShardMap::new(2).encode();
        bytes.push(0);
        assert!(ShardMap::decode(&bytes).is_err());
    }
}
