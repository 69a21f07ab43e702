//! SHA-256, implemented from scratch (FIPS 180-4).
//!
//! Used for every digest in the reproduction: message digests, Merkle tree
//! nodes, checkpoint digests, key fingerprints. The original PBFT library used
//! MD5 in this role; SHA-256 is a drop-in structural replacement (the paper's
//! §3.3.1 explicitly calls for stronger primitives than the library shipped).

use std::fmt;

#[cfg(target_arch = "x86_64")]
mod ni;

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// A 256-bit digest.
///
/// Implements `Ord` so digests can key `BTreeMap`s (deterministic iteration
/// matters for protocol determinism) and `Display` as lowercase hex.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Digest(pub [u8; 32]);

impl Digest {
    /// The all-zero digest, used as a sentinel for "no digest".
    pub const ZERO: Digest = Digest([0u8; 32]);

    /// Digest of `data` in one shot.
    pub fn of(data: &[u8]) -> Digest {
        sha256(data)
    }

    /// Digest of the concatenation of several byte slices, without allocating.
    pub fn of_parts(parts: &[&[u8]]) -> Digest {
        let mut h = Sha256::new();
        for p in parts {
            h.update(p);
        }
        h.finish()
    }

    /// Raw bytes of the digest.
    pub fn as_bytes(&self) -> &[u8; 32] {
        &self.0
    }

    /// First 8 bytes as a big-endian u64 — handy for logging and for the
    /// simulated RSA message representative.
    pub fn prefix_u64(&self) -> u64 {
        u64::from_be_bytes(self.0[..8].try_into().expect("8 bytes"))
    }

    /// Short hex prefix for human-readable traces.
    pub fn short(&self) -> String {
        self.0[..4].iter().map(|b| format!("{b:02x}")).collect()
    }
}

impl fmt::Debug for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Digest({})", self.short())
    }
}

impl fmt::Display for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for b in &self.0 {
            write!(f, "{b:02x}")?;
        }
        Ok(())
    }
}

impl From<[u8; 32]> for Digest {
    fn from(b: [u8; 32]) -> Self {
        Digest(b)
    }
}

impl AsRef<[u8]> for Digest {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

/// The compression function over a whole number of 64-byte blocks.
type Compress = fn(&mut [u32; 8], &[u8]);

/// Incremental SHA-256 hasher.
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buf: [u8; 64],
    buf_len: usize,
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Create a fresh hasher.
    pub fn new() -> Self {
        Sha256 {
            state: H0,
            buf: [0; 64],
            buf_len: 0,
            total_len: 0,
        }
    }

    /// A hasher that has already absorbed one 64-byte block and reached
    /// `state` — how a keyed HMAC resumes from its ipad/opad blocks.
    pub(crate) fn after_first_block(state: [u32; 8]) -> Self {
        Sha256 {
            state,
            buf: [0; 64],
            buf_len: 0,
            total_len: 64,
        }
    }

    /// The chaining value after absorbing exactly one 64-byte block.
    pub(crate) fn first_block_state(block: &[u8; 64]) -> [u32; 8] {
        let mut state = H0;
        compress(&mut state, block);
        state
    }

    /// Absorb `data`.
    pub fn update(&mut self, data: &[u8]) {
        self.absorb(data, compress);
    }

    /// Finalize and return the digest. Consumes the hasher.
    pub fn finish(self) -> Digest {
        self.finalize(compress)
    }

    fn absorb(&mut self, mut data: &[u8], compress: Compress) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        if self.buf_len > 0 {
            let take = (64 - self.buf_len).min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len < 64 {
                return;
            }
            compress(&mut self.state, &self.buf);
            self.buf_len = 0;
        }
        // All whole blocks in place, no copy; the tail waits in `buf`.
        let (blocks, tail) = data.split_at(data.len() & !63);
        if !blocks.is_empty() {
            compress(&mut self.state, blocks);
        }
        self.buf[..tail.len()].copy_from_slice(tail);
        self.buf_len = tail.len();
    }

    fn finalize(mut self, compress: Compress) -> Digest {
        // Padding: 0x80, zeros, 8-byte big-endian bit length, spilling into a
        // second block when fewer than 8 bytes are left after the 0x80.
        let bit_len = self.total_len.wrapping_mul(8);
        self.buf[self.buf_len] = 0x80;
        self.buf[self.buf_len + 1..].fill(0);
        if self.buf_len >= 56 {
            compress(&mut self.state, &self.buf);
            self.buf.fill(0);
        }
        self.buf[56..].copy_from_slice(&bit_len.to_be_bytes());
        compress(&mut self.state, &self.buf);
        let mut out = [0u8; 32];
        for (o, w) in out.chunks_exact_mut(4).zip(self.state) {
            o.copy_from_slice(&w.to_be_bytes());
        }
        Digest(out)
    }
}

/// The compression function this CPU runs fastest: SHA-NI where the CPU has
/// it (detected at run time; x86-64 only), the portable scalar loop
/// everywhere else. Both produce the same bits.
fn compress(state: &mut [u32; 8], blocks: &[u8]) {
    #[cfg(target_arch = "x86_64")]
    if ni::try_compress(state, blocks) {
        return;
    }
    compress_scalar(state, blocks);
}

/// Portable FIPS 180-4 compression over a whole number of 64-byte blocks.
fn compress_scalar(state: &mut [u32; 8], blocks: &[u8]) {
    debug_assert_eq!(blocks.len() % 64, 0);
    for block in blocks.chunks_exact(64) {
        let mut w = [0u32; 64];
        for (wi, b) in w.iter_mut().zip(block.chunks_exact(4)) {
            *wi = u32::from_be_bytes(b.try_into().expect("4 bytes"));
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }
        for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
            *s = s.wrapping_add(v);
        }
    }
}

/// One-shot SHA-256 of `data`.
pub fn sha256(data: &[u8]) -> Digest {
    let mut h = Sha256::new();
    h.update(data);
    h.finish()
}

/// SHA-256 of `data` through the scalar back end only, whatever this CPU has
/// — what the cross-check tests compare [`sha256`] against.
#[cfg(test)]
pub(crate) fn sha256_scalar(data: &[u8]) -> Digest {
    let mut h = Sha256::new();
    h.absorb(data, compress_scalar);
    h.finalize(compress_scalar)
}

/// The byte pattern this crate's golden digests and tags were computed over
/// (on commit 87ffb01, before any back end but the scalar one existed).
#[cfg(test)]
pub(crate) fn pattern(len: usize) -> Vec<u8> {
    (0..len).map(|i| ((i * 131 + 7) % 251) as u8).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `data` must hash to `hex` through the dispatching hasher and through
    /// the scalar back end.
    fn check_vector(data: &[u8], hex: &str) {
        assert_eq!(sha256(data).to_string(), hex, "auto, len {}", data.len());
        assert_eq!(
            sha256_scalar(data).to_string(),
            hex,
            "scalar, len {}",
            data.len()
        );
    }

    #[test]
    fn crosscheck_nist_vectors_on_both_back_ends() {
        check_vector(
            b"",
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        );
        check_vector(
            b"abc",
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
        );
        check_vector(
            b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
        );
        check_vector(
            b"The quick brown fox jumps over the lazy dog",
            "d7a8fbb307d7809469ca9abcb0082e4f8d5651e46d3cdb762d02d0bf37c9e592",
        );
        check_vector(
            &vec![b'a'; 1_000_000],
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
        );
    }

    /// Digests computed by the scalar-only implementation this one replaced
    /// (commit 87ffb01): "bit-identical" as a test.
    #[test]
    fn crosscheck_golden_digests() {
        for (len, hex) in [
            (
                1,
                "ca358758f6d27e6cf45272937977a748fd88391db679ceda7dc7bf1f005ee879",
            ),
            (
                55,
                "4cfcc2771bfe1d9569dff80565efddb245e4f480503e29f39cabd2a803df639a",
            ),
            (
                56,
                "8c6fabc04644a28838809bbf23aac665f574f8e350c3fc620aecd58193fc6fe9",
            ),
            (
                63,
                "f9740f526ff5b76381fbd8f27333de45ff77bc1e6cd2d696357f837f2c6fb3bd",
            ),
            (
                64,
                "0277d2ee9ab7ac130da65c6f8b6612449f1f95adc68597a55393ebfde47d72cb",
            ),
            (
                65,
                "b04cf89fc1dd2c3998754469afe354193d0351a8869a4c01c78e5f3fd9c288c5",
            ),
            (
                119,
                "b51f2c1e02e208228bafda3bc6f9a8e6ffacf75f0301d8269842aae671c9b339",
            ),
            (
                120,
                "639876f579bd42ba160da4bc4a5a4a0b24368fcf1b946666e4fcaca9ac3df4c8",
            ),
            (
                1024,
                "fcfe451f6eeb3935754dbf7d8f86373eaf2b530c51f2a2b15472b7fca83793dc",
            ),
            (
                4096,
                "67b0fa68baf258208cd0f5b6108908b74652bf5e28f709bddd3d4a02c4a61b44",
            ),
            (
                8191,
                "0f5c23c767fb5d0866f7f7a16e8196c28d4c223f565c83901a990708d8fe89ab",
            ),
        ] {
            check_vector(&pattern(len), hex);
        }
    }

    /// The property the whole change rests on: for any input, cut into
    /// `update` calls anywhere, the dispatching hasher (SHA-NI on a CPU that
    /// has it) and the scalar one agree. On a CPU without the extension both
    /// sides are the scalar path and the property is trivially true.
    #[test]
    fn crosscheck_prop_split_updates_match_scalar() {
        propcheck::check("sha256_split_updates_match_scalar", 256, |g| {
            let data = g.bytes(0..8193);
            let mut cuts = g.vec(0..6, |g| g.usize_in(0..data.len() + 1));
            cuts.push(data.len());
            cuts.sort_unstable();
            let mut auto = Sha256::new();
            let mut scalar = Sha256::new();
            let mut from = 0;
            for cut in cuts {
                auto.update(&data[from..cut]);
                scalar.absorb(&data[from..cut], compress_scalar);
                from = cut;
            }
            let expect = sha256_scalar(&data);
            assert_eq!(auto.finish(), expect);
            assert_eq!(scalar.finalize(compress_scalar), expect);
        });
    }

    /// The two compression functions themselves, from arbitrary chaining
    /// values over runs of 0..=8 blocks (the multi-block loop keeps the
    /// state in registers across blocks; the scalar one does not).
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn crosscheck_prop_ni_compress_matches_scalar() {
        if !ni::try_compress(&mut H0.clone(), &[]) {
            eprintln!("no SHA extensions on this CPU: SHA-NI back end not exercised");
            return;
        }
        propcheck::check("sha_ni_compress_matches_scalar", 256, |g| {
            let state: [u32; 8] = std::array::from_fn(|_| g.u32());
            let blocks = g.usize_in(0..9);
            let data = g.bytes(blocks * 64..blocks * 64 + 1);
            let (mut a, mut b) = (state, state);
            assert!(ni::try_compress(&mut a, &data));
            compress_scalar(&mut b, &data);
            assert_eq!(a, b);
        });
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data: Vec<u8> = (0..1000u32).map(|i| (i % 251) as u8).collect();
        for chunk in [1usize, 3, 7, 63, 64, 65, 127, 999] {
            let mut h = Sha256::new();
            for c in data.chunks(chunk) {
                h.update(c);
            }
            assert_eq!(h.finish(), sha256(&data), "chunk size {chunk}");
        }
    }

    #[test]
    fn of_parts_matches_concat() {
        let a = b"hello ".to_vec();
        let b = b"world".to_vec();
        let mut cat = a.clone();
        cat.extend_from_slice(&b);
        assert_eq!(Digest::of_parts(&[&a, &b]), sha256(&cat));
    }

    #[test]
    fn digest_helpers() {
        let d = sha256(b"x");
        assert_eq!(d.short().len(), 8);
        assert_ne!(d.prefix_u64(), 0);
        assert_eq!(Digest::ZERO.prefix_u64(), 0);
        assert!(format!("{d:?}").starts_with("Digest("));
    }

    #[test]
    fn boundary_lengths() {
        // Exercise padding across the 55/56/63/64 byte boundaries.
        for len in [55usize, 56, 57, 63, 64, 65, 119, 120, 121] {
            let data = vec![0xabu8; len];
            let mut h = Sha256::new();
            h.update(&data[..len / 2]);
            h.update(&data[len / 2..]);
            assert_eq!(h.finish(), sha256(&data), "len {len}");
            assert_eq!(sha256_scalar(&data), sha256(&data), "len {len}");
        }
    }

    #[test]
    fn resumed_hasher_continues_after_the_first_block() {
        let data = pattern(200);
        let first: [u8; 64] = data[..64].try_into().expect("64 bytes");
        let mut h = Sha256::after_first_block(Sha256::first_block_state(&first));
        h.update(&data[64..]);
        assert_eq!(h.finish(), sha256(&data));
    }
}
