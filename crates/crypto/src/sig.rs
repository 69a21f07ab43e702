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

/// Deterministic Miller–Rabin for u64 (exact for this range with these bases).
fn is_prime(n: u64) -> bool {
    if n < 2 {
        return false;
    }
    for p in [2u64, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37] {
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
    'witness: for a in [2u64, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37] {
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

/// A random 32-bit prime (so the product fits in u64).
fn random_prime(rng: &mut SplitMix64) -> u32 {
    loop {
        // Force the top bit so n = p*q is close to 64 bits, and the low bit.
        let candidate = (rng.next_u64() as u32) | 0x8000_0001;
        if is_prime(candidate as u64) {
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
        for p in [2u64, 3, 5, 7, 97, 7919, 2_147_483_647, 4_294_967_291] {
            assert!(is_prime(p), "{p} should be prime");
        }
        for c in [0u64, 1, 4, 9, 100, 7917, 2_147_483_649, 4_294_967_295] {
            assert!(!is_prime(c), "{c} should be composite");
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
