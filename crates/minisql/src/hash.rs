//! A multiplicative hasher for the engine's own maps: one rotate, xor and
//! multiply per word (the Fx scheme), no dependency, no per-process seed.
//! SipHash's resistance to crafted collisions buys nothing here and costs a
//! page lookup more than the rest of it: page ids are handed out by the
//! pager, not chosen by a client, and a statement shape's hash only picks
//! which of at most 64 kept shapes to compare token by token.

use std::hash::{BuildHasherDefault, Hasher};

/// An odd constant with well-mixed high bits (the one rustc's `FxHasher`
/// uses); a hash table takes its control bits from the top of the product
/// and its bucket from the bottom, which for sequential page ids is the ids'
/// own low bits permuted.
const K: u64 = 0x517c_c1b7_2722_0a95;

/// See the module docs.
#[derive(Debug, Default)]
pub struct MulHasher(u64);

/// `HashMap`'s hasher parameter for [`MulHasher`].
pub type BuildMulHasher = BuildHasherDefault<MulHasher>;

impl MulHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for MulHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.add(u64::from_le_bytes(w.try_into().expect("8 bytes")));
        }
        // A byte loop, not a copy into a word: most keys are a few bytes,
        // and a copy of unknown length is a call.
        let last = words
            .remainder()
            .iter()
            .fold(0, |word, &b| word << 8 | u64::from(b));
        // The length keeps "a" and "\0a" apart.
        self.add(last ^ (bytes.len() as u64) << 56);
    }

    fn write_u8(&mut self, n: u8) {
        self.add(u64::from(n));
    }

    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hash(bytes: &[u8]) -> u64 {
        let mut h = MulHasher::default();
        h.write(bytes);
        h.finish()
    }

    #[test]
    fn byte_strings_of_every_length_differ() {
        let inputs: Vec<Vec<u8>> = (0..24).map(|n| vec![0u8; n]).collect();
        let mut seen: Vec<u64> = inputs.iter().map(|b| hash(b)).collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(
            seen.len(),
            inputs.len(),
            "zero runs of different lengths collide"
        );
        assert_ne!(hash(b"votes"), hash(b"voter"));
    }

    #[test]
    fn sequential_page_ids_fill_distinct_buckets() {
        // A table of 1024 buckets indexes by the low ten bits.
        let mut buckets: Vec<u64> = (0u32..1024)
            .map(|id| {
                let mut h = MulHasher::default();
                h.write_u32(id);
                h.finish() & 1023
            })
            .collect();
        buckets.sort_unstable();
        buckets.dedup();
        assert_eq!(buckets.len(), 1024);
    }
}
