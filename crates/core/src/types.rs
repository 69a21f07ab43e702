//! Core identifier types.

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::hash::{BuildHasher, Hasher};

/// A replica's protocol index, `0..n`. The primary of view `v` is replica
/// `v mod n`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ReplicaId(pub u32);

impl fmt::Display for ReplicaId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// A client identifier.
///
/// With static membership these are assigned at configuration time. With
/// dynamic membership (paper §3.1) they are arbitrary identifiers allocated
/// at Join time and routed through the *redirection table* — "instead of
/// using a single address range of [0..max_clients], an arbitrary identifier
/// is assigned to each new client and a table maps this number to the index
/// in the array of client and server node entries".
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ClientId(pub u64);

impl fmt::Display for ClientId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

/// A view number. The epoch during which one primary is stable.
pub type View = u64;

/// A sequence number assigned by the primary; defines the total order.
pub type SeqNum = u64;

/// A transport address (the driving harness maps these to real endpoints;
/// under simnet they are `NodeId` values).
pub type NetAddr = u32;

/// The largest group a [`VoteSet`] can record: one bit of a `u128` per
/// replica, so `n = 3f + 1 ≤ 128` (f ≤ 42). [`crate::Replica::new`] refuses
/// a larger configuration.
pub const MAX_REPLICAS: usize = 128;

/// The replicas whose vote for one log slot is held — a bitmask indexed by
/// [`ReplicaId`], so a slot's prepare and commit sets cost no heap node and
/// a quorum test is a popcount. Ids at or above [`MAX_REPLICAS`] are never
/// members: [`VoteSet::insert`] refuses them instead of shifting by them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VoteSet(u128);

impl VoteSet {
    /// Record `r`'s vote. Returns whether it was new; an id the mask cannot
    /// hold is not recorded and reports `false`.
    pub fn insert(&mut self, r: ReplicaId) -> bool {
        if r.0 as usize >= MAX_REPLICAS {
            return false;
        }
        let bit = 1u128 << r.0;
        let new = self.0 & bit == 0;
        self.0 |= bit;
        new
    }

    /// Whether `r`'s vote is held.
    pub fn contains(&self, r: ReplicaId) -> bool {
        (r.0 as usize) < MAX_REPLICAS && self.0 & (1u128 << r.0) != 0
    }

    /// Number of distinct voters.
    pub fn len(&self) -> usize {
        self.0.count_ones() as usize
    }

    /// True when no vote is held.
    pub fn is_empty(&self) -> bool {
        self.0 == 0
    }

    /// The voters in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = ReplicaId> {
        let mut rest = self.0;
        std::iter::from_fn(move || {
            (rest != 0).then(|| {
                let r = rest.trailing_zeros();
                rest &= rest - 1;
                ReplicaId(r)
            })
        })
    }
}

impl Extend<ReplicaId> for VoteSet {
    fn extend<I: IntoIterator<Item = ReplicaId>>(&mut self, iter: I) {
        for r in iter {
            self.insert(r);
        }
    }
}

impl FromIterator<ReplicaId> for VoteSet {
    fn from_iter<I: IntoIterator<Item = ReplicaId>>(iter: I) -> Self {
        let mut set = VoteSet::default();
        set.extend(iter);
        set
    }
}

/// Hasher state for the digest- and client-keyed maps on the request path
/// ([`FoldMap`] / [`FoldSet`]): two secret words, fixed per node.
///
/// The keys of those maps are SHA-256 digests — already uniform — or client
/// ids, so SipHash's 32 rounds per lookup buy nothing but the secrecy of the
/// bucket, and that is kept: both words are derived from the deployment
/// seed and the node's own identity, and every input word is XORed with a
/// secret word *before* the one 64 × 64 → 128-bit multiply whose halves are
/// folded together. Someone who chooses request bodies (and so, by
/// grinding, some bits of their digests) but does not know the key cannot
/// predict which bucket a digest lands in, and two replicas order the same
/// digests differently.
#[derive(Debug, Clone, Copy)]
pub struct FoldState {
    k0: u64,
    k1: u64,
}

impl FoldState {
    /// The state for one node: `domain` separates the nodes of a deployment
    /// (a replica passes its id, a client its id with the top bit set).
    pub fn keyed(group_seed: u64, domain: u64) -> FoldState {
        let key = pbft_crypto::hmac::derive_key(
            &group_seed.to_be_bytes(),
            "map-hash",
            &domain.to_be_bytes(),
        );
        let word =
            |i: usize| u64::from_le_bytes(key[8 * i..8 * i + 8].try_into().expect("8 bytes"));
        FoldState {
            k0: word(0),
            k1: word(1),
        }
    }
}

impl BuildHasher for FoldState {
    type Hasher = FoldHasher;

    fn build_hasher(&self) -> FoldHasher {
        FoldHasher {
            state: self.k0,
            k1: self.k1,
        }
    }
}

/// The [`Hasher`] of [`FoldState`]: a keyed folded multiply over the first
/// two words of a byte string (all of a digest's entropy that a bucket index
/// can use) or over an integer key.
#[derive(Debug, Clone, Copy)]
pub struct FoldHasher {
    state: u64,
    k1: u64,
}

/// The low and high halves of the 128-bit product, XORed.
fn folded_mul(a: u64, b: u64) -> u64 {
    let p = u128::from(a) * u128::from(b);
    (p as u64) ^ ((p >> 64) as u64)
}

impl FoldHasher {
    fn fold(&mut self, word: u64) {
        self.state = folded_mul(self.state ^ word, self.k1);
    }
}

impl Hasher for FoldHasher {
    fn write(&mut self, bytes: &[u8]) {
        if let Some((head, _)) = bytes.split_first_chunk::<16>() {
            let a = u64::from_le_bytes(head[..8].try_into().expect("8 bytes"));
            let b = u64::from_le_bytes(head[8..].try_into().expect("8 bytes"));
            self.state = folded_mul(self.state ^ a, self.k1 ^ b);
        } else {
            // Short strings are not on any hot path; fold them whole.
            for chunk in bytes.chunks(8) {
                let mut word = [0u8; 8];
                word[..chunk.len()].copy_from_slice(chunk);
                self.fold(u64::from_le_bytes(word));
            }
        }
    }

    fn write_u32(&mut self, i: u32) {
        self.fold(u64::from(i));
    }

    fn write_u64(&mut self, i: u64) {
        self.fold(i);
    }

    fn write_usize(&mut self, i: usize) {
        self.fold(i as u64);
    }

    fn finish(&self) -> u64 {
        self.state
    }
}

/// A `HashMap` hashed by [`FoldState`].
pub type FoldMap<K, V> = HashMap<K, V, FoldState>;

/// A `HashSet` hashed by [`FoldState`].
pub type FoldSet<K> = HashSet<K, FoldState>;

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use pbft_crypto::rng::SplitMix64;
    use pbft_crypto::Digest;

    use super::*;

    #[test]
    fn display_forms() {
        assert_eq!(ReplicaId(2).to_string(), "r2");
        assert_eq!(ClientId(17).to_string(), "c17");
    }

    #[test]
    fn ordering() {
        assert!(ReplicaId(1) < ReplicaId(2));
        assert!(ClientId(1) < ClientId(2));
    }

    #[test]
    fn vote_set_agrees_with_a_btree_set() {
        let mut rng = SplitMix64::new(0x5eed);
        for _ in 0..64 {
            let mut set = VoteSet::default();
            let mut model = BTreeSet::new();
            assert!(set.is_empty());
            for _ in 0..rng.next_u64() % 200 {
                // Ids a little past the mask, so refusals are exercised too.
                let r = ReplicaId((rng.next_u64() % 160) as u32);
                let in_range = (r.0 as usize) < MAX_REPLICAS;
                assert_eq!(set.insert(r), in_range && model.insert(r), "insert {r}");
                assert_eq!(set.contains(r), model.contains(&r));
            }
            assert_eq!(set.len(), model.len());
            assert_eq!(set.is_empty(), model.is_empty());
            assert!(
                set.iter().eq(model.iter().copied()),
                "ascending, no repeats"
            );
            // Extending by another set's voters is the union.
            let more: Vec<ReplicaId> = (0..20)
                .map(|_| ReplicaId((rng.next_u64() % 128) as u32))
                .collect();
            set.extend(more.iter().copied());
            model.extend(more.iter().copied());
            assert!(set.iter().eq(model.iter().copied()));
            assert_eq!(more.iter().copied().collect::<VoteSet>().len(), {
                let distinct: BTreeSet<_> = more.iter().collect();
                distinct.len()
            });
        }
    }

    #[test]
    fn vote_set_holds_id_127_and_refuses_128() {
        let mut set = VoteSet::default();
        assert!(set.insert(ReplicaId(127)));
        assert!(!set.insert(ReplicaId(127)), "a repeated vote is not new");
        assert!(
            !set.insert(ReplicaId(128)),
            "no bit for 128: not recorded, no shift overflow"
        );
        assert!(!set.insert(ReplicaId(u32::MAX)));
        assert!(set.contains(ReplicaId(127)));
        assert!(!set.contains(ReplicaId(128)));
        assert!(!set.contains(ReplicaId(u32::MAX)));
        assert_eq!(set.len(), 1);
        assert_eq!(set.iter().collect::<Vec<_>>(), vec![ReplicaId(127)]);
    }

    fn digests(count: u64) -> Vec<Digest> {
        (0..count).map(|i| Digest::of(&i.to_be_bytes())).collect()
    }

    #[test]
    fn fold_hasher_equal_keys_hash_equal_and_keys_differ_across_nodes() {
        let a = FoldState::keyed(7, 0);
        let b = FoldState::keyed(7, 1);
        let ds = digests(64);
        for d in &ds {
            assert_eq!(
                a.hash_one(d),
                a.hash_one(*d),
                "same key, same node: same hash"
            );
            assert_eq!(
                a.hash_one(d),
                FoldState::keyed(7, 0).hash_one(d),
                "the state is derived"
            );
        }
        assert_eq!(a.hash_one(ClientId(9)), a.hash_one(ClientId(9)));
        assert_ne!(a.hash_one(ClientId(9)), a.hash_one(ClientId(10)));
        // Two replicas put the same digests in different bucket orders: of
        // 64 digests over 16 buckets nearly all move.
        let bucket = |s: &FoldState, d: &Digest| s.hash_one(d) % 16;
        let moved = ds.iter().filter(|d| bucket(&a, d) != bucket(&b, d)).count();
        assert!(moved > 48, "only {moved} of 64 digests changed bucket");
        let order = |s: FoldState| {
            let mut set = FoldSet::with_hasher(s);
            set.extend(ds.iter().copied());
            set.into_iter().collect::<Vec<_>>()
        };
        assert_ne!(order(a), order(b));
    }

    #[test]
    fn fold_hasher_spreads_digests_and_dense_ids() {
        // Both halves of the hash matter to the table (bucket from the low
        // bits, tag from the top seven): neither may collapse.
        let s = FoldState::keyed(42, 3);
        let ds = digests(4096);
        for shift in [0, 57] {
            let mut buckets = [0u32; 128];
            for d in &ds {
                buckets[((s.hash_one(d) >> shift) & 127) as usize] += 1;
            }
            let (lo, hi) = (buckets.iter().min().unwrap(), buckets.iter().max().unwrap());
            assert!(
                *lo >= 12 && *hi <= 60,
                "4096 digests over 128 buckets: {lo}..{hi}"
            );
        }
        let ids: BTreeSet<u64> = (1..=64u64).map(|c| s.hash_one(ClientId(c)) & 127).collect();
        assert!(
            ids.len() >= 32,
            "64 dense client ids landed in {} of 128 buckets",
            ids.len()
        );
    }

    #[test]
    fn fold_map_round_trips_ten_thousand_digests() {
        let mut map = FoldMap::with_hasher(FoldState::keyed(1, 2));
        let ds = digests(10_000);
        for (i, d) in ds.iter().enumerate() {
            assert!(map.insert(*d, i).is_none());
        }
        assert_eq!(map.len(), ds.len());
        for (i, d) in ds.iter().enumerate() {
            assert_eq!(map.get(d), Some(&i));
        }
        assert!(!map.contains_key(&Digest::of(b"absent")));
        for d in ds.iter().step_by(2) {
            assert!(map.remove(d).is_some());
        }
        assert_eq!(map.len(), ds.len() / 2);
        assert!(ds.iter().skip(1).step_by(2).all(|d| map.contains_key(d)));
    }
}
