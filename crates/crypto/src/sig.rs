//! Simulation-grade RSA signatures (the Rabin stand-in).
//!
//! The original PBFT library used the Rabin cryptosystem for the rare
//! operations that need public-key signatures (key distribution, view
//! changes when configured without MACs, the `nomac` configurations of the
//! paper's Table 1). We implement textbook RSA with *64-bit moduli*: real
//! modular exponentiation, real Miller–Rabin key generation, real
//! sign/verify asymmetry — but key sizes that are trivially breakable.
//!
//! This is a deliberate substitution (listed under "Deliberate deviations"
//! in `ARCHITECTURE.md`): the
//! experiments measure *where* signatures sit in the protocol and *how often*
//! they are computed, with the cost charged through the simulator's cost
//! model, so small-but-real asymmetric math preserves every relevant
//! behaviour while keeping the crate dependency-free.

use std::fmt;

use crate::rng::SplitMix64;
use crate::sha256::Digest;

/// Errors from signature operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SigError {
    /// The signature did not verify under the given public key.
    BadSignature,
}

impl fmt::Display for SigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SigError::BadSignature => write!(f, "signature verification failed"),
        }
    }
}

impl std::error::Error for SigError {}

/// An RSA public key `(n, e)`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PublicKey {
    n: u64,
    e: u64,
}

impl fmt::Debug for PublicKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PublicKey(n={:#x})", self.n)
    }
}

/// A signature: the RSA representative plus the full message digest.
///
/// Carrying the digest alongside the RSA value keeps the simulated scheme
/// collision-resistant even though the modulus is only 64 bits: verification
/// checks both the RSA equation over the digest prefix *and* the digest
/// itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Signature {
    s: u64,
    digest: Digest,
}

impl Signature {
    /// Wire encoding (8-byte RSA value followed by the 32-byte digest).
    pub fn to_bytes(&self) -> [u8; 40] {
        let mut out = [0u8; 40];
        out[..8].copy_from_slice(&self.s.to_be_bytes());
        out[8..].copy_from_slice(self.digest.as_bytes());
        out
    }

    /// Parse a signature from its wire encoding.
    pub fn from_bytes(b: &[u8; 40]) -> Self {
        let s = u64::from_be_bytes(b[..8].try_into().expect("8 bytes"));
        let mut d = [0u8; 32];
        d.copy_from_slice(&b[8..]);
        Signature {
            s,
            digest: Digest(d),
        }
    }
}

/// An RSA key pair.
#[derive(Clone)]
pub struct KeyPair {
    public: PublicKey,
    d: u64,
}

impl fmt::Debug for KeyPair {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Never print the private exponent.
        write!(f, "KeyPair({:?})", self.public)
    }
}

impl KeyPair {
    /// Deterministically generate a key pair from a seed.
    ///
    /// Each node in a deployment derives its key pair from its configured
    /// seed, so whole-cluster key material is reproducible.
    pub fn generate(seed: u64) -> KeyPair {
        let mut rng = SplitMix64::new(seed ^ 0x5157_4b45_5947_454e); // "QWKEYGEN"
        loop {
            let p = random_prime(&mut rng);
            let q = random_prime(&mut rng);
            if p == q {
                continue;
            }
            let n = (p as u64) * (q as u64);
            let lambda = lcm((p - 1) as u64, (q - 1) as u64);
            let e = 65_537u64;
            if gcd(e, lambda) != 1 {
                continue;
            }
            let d = match mod_inverse(e, lambda) {
                Some(d) => d,
                None => continue,
            };
            return KeyPair {
                public: PublicKey { n, e },
                d,
            };
        }
    }

    /// The public half.
    pub fn public(&self) -> PublicKey {
        self.public
    }

    /// Sign `msg` (hashes internally).
    pub fn sign(&self, msg: &[u8]) -> Signature {
        let digest = Digest::of(msg);
        self.sign_digest(&digest)
    }

    /// Sign the concatenation of `parts` (equal to [`KeyPair::sign`] of the
    /// joined bytes, without joining them).
    pub fn sign_parts(&self, parts: &[&[u8]]) -> Signature {
        self.sign_digest(&Digest::of_parts(parts))
    }

    /// Sign a precomputed digest.
    pub fn sign_digest(&self, digest: &Digest) -> Signature {
        let m = representative(digest, self.public.n);
        let s = mod_pow(m, self.d, self.public.n);
        Signature { s, digest: *digest }
    }
}

impl PublicKey {
    /// Verify `sig` over `msg`.
    ///
    /// # Errors
    /// Returns [`SigError::BadSignature`] if the digest does not match the
    /// message or the RSA equation does not hold.
    pub fn verify(&self, msg: &[u8], sig: &Signature) -> Result<(), SigError> {
        let digest = Digest::of(msg);
        self.verify_digest(&digest, sig)
    }

    /// Verify `sig` over the concatenation of `parts`.
    ///
    /// # Errors
    /// As [`PublicKey::verify`] of the joined bytes.
    pub fn verify_parts(&self, parts: &[&[u8]], sig: &Signature) -> Result<(), SigError> {
        self.verify_digest(&Digest::of_parts(parts), sig)
    }

    /// Verify `sig` over a precomputed digest.
    ///
    /// # Errors
    /// Returns [`SigError::BadSignature`] on mismatch.
    pub fn verify_digest(&self, digest: &Digest, sig: &Signature) -> Result<(), SigError> {
        if sig.digest != *digest {
            return Err(SigError::BadSignature);
        }
        let m = representative(digest, self.n);
        if mod_pow(sig.s, self.e, self.n) == m {
            Ok(())
        } else {
            Err(SigError::BadSignature)
        }
    }

    /// A stable fingerprint of the key, used as a node identity commitment in
    /// Join messages.
    pub fn fingerprint(&self) -> Digest {
        let mut buf = [0u8; 16];
        buf[..8].copy_from_slice(&self.n.to_be_bytes());
        buf[8..].copy_from_slice(&self.e.to_be_bytes());
        Digest::of(&buf)
    }

    /// Wire encoding.
    pub fn to_bytes(&self) -> [u8; 16] {
        let mut out = [0u8; 16];
        out[..8].copy_from_slice(&self.n.to_be_bytes());
        out[8..].copy_from_slice(&self.e.to_be_bytes());
        out
    }

    /// Parse from wire encoding.
    pub fn from_bytes(b: &[u8; 16]) -> Self {
        PublicKey {
            n: u64::from_be_bytes(b[..8].try_into().expect("8 bytes")),
            e: u64::from_be_bytes(b[8..].try_into().expect("8 bytes")),
        }
    }
}

/// Map a digest to an RSA message representative in `[2, n)`.
fn representative(digest: &Digest, n: u64) -> u64 {
    (digest.prefix_u64() % (n - 2)) + 2
}

fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

fn lcm(a: u64, b: u64) -> u64 {
    a / gcd(a, b) * b
}

/// Modular inverse via the extended Euclidean algorithm.
fn mod_inverse(a: u64, m: u64) -> Option<u64> {
    let (mut old_r, mut r) = (a as i128, m as i128);
    let (mut old_s, mut s) = (1i128, 0i128);
    while r != 0 {
        let q = old_r / r;
        (old_r, r) = (r, old_r - q * r);
        (old_s, s) = (s, old_s - q * s);
    }
    if old_r != 1 {
        return None;
    }
    let mut inv = old_s % (m as i128);
    if inv < 0 {
        inv += m as i128;
    }
    Some(inv as u64)
}

/// Modular exponentiation over u64 using u128 intermediates.
pub(crate) fn mod_pow(mut base: u64, mut exp: u64, modulus: u64) -> u64 {
    let m = modulus as u128;
    let mut result: u128 = 1;
    let mut b = (base as u128) % m;
    while exp > 0 {
        if exp & 1 == 1 {
            result = result * b % m;
        }
        b = b * b % m;
        exp >>= 1;
    }
    base = result as u64;
    base
}

/// Small primes whose multiples are rejected before any exponentiation.
const SMALL_PRIMES: [u32; 12] = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37];

/// Deterministic Miller–Rabin for a 32-bit candidate. The bases {2, 7, 61}
/// decide every n below 4 759 123 141 exactly (Jaeschke), which covers
/// `u32`, and below 2³² a product of two residues fits a `u64`, so no step
/// needs 128-bit arithmetic. It agrees with the 12-base u64 test the key
/// generator used before on every 32-bit input (`tests`), so every key pair
/// comes out bit-identical — three times faster.
fn is_prime(n: u32) -> bool {
    if n < 2 {
        return false;
    }
    for p in SMALL_PRIMES {
        if n == p {
            return true;
        }
        if n.is_multiple_of(p) {
            return false;
        }
    }
    let n = u64::from(n);
    let mul = |a: u64, b: u64| a * b % n;
    let pow = |mut b: u64, mut e: u64| {
        let mut acc = 1;
        while e > 0 {
            if e & 1 == 1 {
                acc = mul(acc, b);
            }
            b = mul(b, b);
            e >>= 1;
        }
        acc
    };
    let d = (n - 1) >> (n - 1).trailing_zeros();
    let r = (n - 1).trailing_zeros();
    'witness: for a in [2u64, 7, 61] {
        // n > 37 here, so only n = 61 itself could divide a base.
        if a % n == 0 {
            continue;
        }
        let mut x = pow(a, d);
        if x == 1 || x == n - 1 {
            continue;
        }
        for _ in 1..r {
            x = mul(x, x);
            if x == n - 1 {
                continue 'witness;
            }
        }
        return false;
    }
    true
}

/// A random 32-bit prime (so the product fits in u64).
fn random_prime(rng: &mut SplitMix64) -> u32 {
    loop {
        // Force the top bit so n = p*q is close to 64 bits, and the low bit.
        let candidate = (rng.next_u64() as u32) | 0x8000_0001;
        if is_prime(candidate) {
            return candidate;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sign_verify_roundtrip() {
        let kp = KeyPair::generate(1);
        let sig = kp.sign(b"attack at dawn");
        assert!(kp.public().verify(b"attack at dawn", &sig).is_ok());
    }

    #[test]
    fn verify_rejects_wrong_message() {
        let kp = KeyPair::generate(2);
        let sig = kp.sign(b"attack at dawn");
        assert_eq!(
            kp.public().verify(b"attack at dusk", &sig),
            Err(SigError::BadSignature)
        );
    }

    #[test]
    fn verify_rejects_wrong_key() {
        let kp1 = KeyPair::generate(3);
        let kp2 = KeyPair::generate(4);
        let sig = kp1.sign(b"msg");
        assert_eq!(
            kp2.public().verify(b"msg", &sig),
            Err(SigError::BadSignature)
        );
    }

    #[test]
    fn verify_rejects_tampered_signature() {
        let kp = KeyPair::generate(5);
        let mut sig = kp.sign(b"msg");
        sig.s ^= 1;
        assert_eq!(
            kp.public().verify(b"msg", &sig),
            Err(SigError::BadSignature)
        );
    }

    #[test]
    fn deterministic_keygen() {
        let a = KeyPair::generate(99);
        let b = KeyPair::generate(99);
        assert_eq!(a.public(), b.public());
        assert_ne!(a.public(), KeyPair::generate(100).public());
    }

    #[test]
    fn signature_wire_roundtrip() {
        let kp = KeyPair::generate(6);
        let sig = kp.sign(b"wire");
        let back = Signature::from_bytes(&sig.to_bytes());
        assert_eq!(sig, back);
        assert!(kp.public().verify(b"wire", &back).is_ok());
    }

    #[test]
    fn pubkey_wire_roundtrip() {
        let pk = KeyPair::generate(7).public();
        assert_eq!(PublicKey::from_bytes(&pk.to_bytes()), pk);
    }

    #[test]
    fn fingerprint_is_stable_and_distinct() {
        let a = KeyPair::generate(8).public();
        let b = KeyPair::generate(9).public();
        assert_eq!(a.fingerprint(), a.fingerprint());
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn miller_rabin_known_values() {
        for p in [2u32, 3, 5, 7, 97, 7919, 2_147_483_647, 4_294_967_291] {
            assert!(is_prime(p), "{p} should be prime");
        }
        for c in [0u32, 1, 4, 9, 100, 7917, 2_147_483_649, 4_294_967_295] {
            assert!(!is_prime(c), "{c} should be composite");
        }
    }

    /// The 12-base u64 Miller–Rabin the key generator used before the
    /// 32-bit test: the reference the fast test is checked against.
    fn is_prime_reference(n: u64) -> bool {
        if n < 2 {
            return false;
        }
        const BASES: [u64; 12] = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37];
        for p in BASES {
            if n == p {
                return true;
            }
            if n.is_multiple_of(p) {
                return false;
            }
        }
        let mut d = n - 1;
        let mut r = 0u32;
        while d.is_multiple_of(2) {
            d /= 2;
            r += 1;
        }
        'witness: for a in BASES {
            let mut x = mod_pow(a, d, n);
            if x == 1 || x == n - 1 {
                continue;
            }
            for _ in 0..r - 1 {
                x = mod_pow(x, 2, n);
                if x == n - 1 {
                    continue 'witness;
                }
            }
            return false;
        }
        true
    }

    #[test]
    fn crosscheck_fast_primality_matches_the_reference() {
        let agree = |n: u32| assert_eq!(is_prime(n), is_prime_reference(n.into()), "n = {n}");
        // Every small n (the bases themselves, 61 included, and their
        // neighbours), a window at the top of the range, and the window
        // key generation draws from.
        (0..200_000).for_each(agree);
        (u32::MAX - 100_000..=u32::MAX).for_each(agree);
        (0x8000_0001..0x8000_0001 + 200_000)
            .step_by(2)
            .for_each(agree);
        // Strong pseudoprimes: the first ones to base 2 (OEIS A001262), and
        // the smallest to bases {2, 3}, {2, 3, 5} and {2, 3, 5, 7}. (The
        // smallest to {2, 7, 61}, 4 759 123 141, is past `u32`.)
        let strong = [
            2_047u32,
            3_277,
            4_033,
            4_681,
            8_321,
            15_841,
            29_341,
            42_799,
            49_141,
            52_633,
            1_373_653,
            25_326_001,
            3_215_031_751,
        ];
        for n in strong {
            agree(n);
            assert!(!is_prime(n), "{n} is composite");
        }
    }

    /// Key generation is pinned bit for bit: the public keys of seeds
    /// 0..64 and, through one signature each, their private exponents,
    /// as the generator produced them before its primality test went
    /// 32-bit (digest and three keys computed on that code).
    #[test]
    fn golden_keys_for_64_seeds() {
        let mut h = crate::sha256::Sha256::new();
        for seed in 0..64u64 {
            let kp = KeyPair::generate(seed);
            h.update(&kp.public().to_bytes());
            h.update(&kp.sign(b"golden").to_bytes());
        }
        assert_eq!(
            h.finish().to_string(),
            "75a1927117be21c352f8e283b92f1959f14ab6469d81a55c13370c127d784a7a"
        );
        for (seed, n, d) in [
            (0, 0xc536_5e35_f2cc_2aed, 0x0f28_70e0_af9b_3cc9),
            (1, 0x8c96_fae4_550f_2b4d, 0x1be7_0f2e_1a85_23e1),
            (2, 0xe7a6_ad3c_f088_fa5d, 0x7024_75df_4b2e_6857),
        ] {
            let kp = KeyPair::generate(seed);
            assert_eq!((kp.public().n, kp.d), (n, d), "seed {seed}");
        }
    }

    #[test]
    fn mod_pow_basics() {
        assert_eq!(mod_pow(2, 10, 1000), 24);
        assert_eq!(mod_pow(7, 0, 13), 1);
        assert_eq!(mod_pow(5, 3, 13), 125 % 13);
    }

    #[test]
    fn many_seeds_generate_valid_keys() {
        for seed in 0..10u64 {
            let kp = KeyPair::generate(seed);
            let sig = kp.sign(&seed.to_be_bytes());
            assert!(kp.public().verify(&seed.to_be_bytes(), &sig).is_ok());
        }
    }

    #[test]
    fn debug_does_not_leak_private_exponent() {
        let kp = KeyPair::generate(11);
        let s = format!("{kp:?}");
        assert!(!s.contains(&format!("{}", kp.d)));
    }
}
