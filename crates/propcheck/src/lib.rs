//! A small, fully offline property-based testing harness.
//!
//! This is the workspace's replacement for `proptest`: the environment the
//! repo builds in has no registry access, so the dev-dependency surface must
//! be in-repo. The design follows the Hypothesis school rather than the
//! QuickCheck one: every generated value is derived from a stream of `u64`
//! draws produced by a seeded [`SplitMix64`] (the same deterministic PRNG the
//! crypto substrate uses for key generation), and the harness records that
//! stream. When a property fails, the harness *shrinks the stream* — deleting
//! chunks, zeroing and halving draws — and replays the property on each
//! mutated stream. Because all generators map "smaller draws" to "simpler
//! values" (zero draws mean empty collections, zero integers, `false`, the
//! range minimum), stream-level shrinking yields value-level simplification
//! without per-type shrinker plumbing.
//!
//! # Writing a property
//!
//! ```
//! propcheck::check("reverse_is_involutive", 64, |g| {
//!     let v = g.vec(0..32, |g| g.u8());
//!     let mut w = v.clone();
//!     w.reverse();
//!     w.reverse();
//!     assert_eq!(v, w);
//! });
//! ```
//!
//! Properties assert with the ordinary `assert!`/`assert_eq!`/`expect`
//! machinery; the harness catches the unwind, shrinks, and then re-runs the
//! minimal counterexample *uncaught* so the original panic message and
//! location surface in the test report, prefixed by a reproduction header.
//!
//! Runs are deterministic: the seed is derived from the property name (so
//! every property explores a different corner of the space) and can be
//! overridden with the `PROPCHECK_SEED` environment variable for replay.

#![forbid(unsafe_code)]

use std::cell::Cell;
use std::collections::BTreeMap;
use std::ops::Range;
use std::panic::{self, AssertUnwindSafe};
use std::sync::Once;

use pbft_crypto::rng::SplitMix64;

/// Source of generated values for one property invocation.
///
/// All generator methods ultimately pull 64-bit draws from the underlying
/// stream; a draw of zero always maps to the simplest value the generator can
/// produce (range minimum, empty collection, `false`, …), which is what makes
/// stream shrinking effective.
pub struct Gen {
    rng: SplitMix64,
    replay: Vec<u64>,
    is_replay: bool,
    pos: usize,
    recorded: Vec<u64>,
}

impl Gen {
    fn random(seed: u64) -> Gen {
        Gen {
            rng: SplitMix64::new(seed),
            replay: Vec::new(),
            is_replay: false,
            pos: 0,
            recorded: Vec::new(),
        }
    }

    fn replay(stream: Vec<u64>) -> Gen {
        Gen {
            rng: SplitMix64::new(0),
            replay: stream,
            is_replay: true,
            pos: 0,
            recorded: Vec::new(),
        }
    }

    fn draw(&mut self) -> u64 {
        let v = if self.is_replay {
            // Past the end of a shrunk stream every draw is zero: the
            // simplest value. This is what lets truncation shrink cases.
            self.replay.get(self.pos).copied().unwrap_or(0)
        } else {
            self.rng.next_u64()
        };
        self.pos += 1;
        self.recorded.push(v);
        v
    }

    /// A uniformly random `u64` over the full range.
    pub fn u64(&mut self) -> u64 {
        self.draw()
    }

    /// A `u64` in `[range.start, range.end)`.
    pub fn u64_in(&mut self, range: Range<u64>) -> u64 {
        assert!(range.start < range.end, "empty range");
        let width = range.end - range.start;
        range.start + self.draw() % width
    }

    /// An `i64` over the full range.
    pub fn i64(&mut self) -> i64 {
        self.draw() as i64
    }

    /// An `i64` in `[range.start, range.end)`.
    pub fn i64_in(&mut self, range: Range<i64>) -> i64 {
        assert!(range.start < range.end, "empty range");
        let width = range.end.wrapping_sub(range.start) as u64;
        range.start.wrapping_add((self.draw() % width) as i64)
    }

    /// A `usize` in `[range.start, range.end)`.
    pub fn usize_in(&mut self, range: Range<usize>) -> usize {
        self.u64_in(range.start as u64..range.end as u64) as usize
    }

    /// A uniformly random byte.
    pub fn u8(&mut self) -> u8 {
        self.draw() as u8
    }

    /// A `u8` in `[range.start, range.end)`.
    pub fn u8_in(&mut self, range: Range<u8>) -> u8 {
        self.u64_in(range.start as u64..range.end as u64) as u8
    }

    /// A uniformly random `u32`.
    pub fn u32(&mut self) -> u32 {
        self.draw() as u32
    }

    /// A boolean; shrinks toward `false`.
    pub fn bool(&mut self) -> bool {
        self.draw() & 1 == 1
    }

    /// An arbitrary `f64` bit pattern (includes infinities and NaNs).
    pub fn f64(&mut self) -> f64 {
        f64::from_bits(self.draw())
    }

    /// A uniformly random index in `[0, len)`; `len` must be non-zero.
    pub fn index(&mut self, len: usize) -> usize {
        assert!(len > 0, "index into empty collection");
        self.usize_in(0..len)
    }

    /// Pick one of `n` alternatives (for `one_of`-style generators).
    pub fn choice(&mut self, n: usize) -> usize {
        self.index(n)
    }

    /// A vector whose length is drawn from `len`, elements from `f`.
    pub fn vec<T>(&mut self, len: Range<usize>, mut f: impl FnMut(&mut Gen) -> T) -> Vec<T> {
        let n = self.usize_in(len);
        (0..n).map(|_| f(self)).collect()
    }

    /// A byte vector whose length is drawn from `len`.
    pub fn bytes(&mut self, len: Range<usize>) -> Vec<u8> {
        self.vec(len, |g| g.u8())
    }

    /// A fixed-size byte array.
    pub fn byte_array<const N: usize>(&mut self) -> [u8; N] {
        let mut out = [0u8; N];
        for b in &mut out {
            *b = self.u8();
        }
        out
    }

    /// A map with between `len` entries *before* key deduplication (matching
    /// `proptest`'s `btree_map` semantics, duplicate keys collapse).
    pub fn btree_map<K: Ord, V>(
        &mut self,
        len: Range<usize>,
        mut fk: impl FnMut(&mut Gen) -> K,
        mut fv: impl FnMut(&mut Gen) -> V,
    ) -> BTreeMap<K, V> {
        let n = self.usize_in(len);
        let mut out = BTreeMap::new();
        for _ in 0..n {
            let k = fk(self);
            let v = fv(self);
            out.insert(k, v);
        }
        out
    }

    /// A string of characters drawn from `alphabet`, length drawn from `len`.
    pub fn string_from(&mut self, alphabet: &[char], len: Range<usize>) -> String {
        let n = self.usize_in(len);
        (0..n)
            .map(|_| alphabet[self.index(alphabet.len())])
            .collect()
    }
}

// ----------------------------------------------------------------------
// The checker.
// ----------------------------------------------------------------------

/// Run `f` against `cases` generated inputs; on failure, shrink and re-panic
/// with the minimal counterexample.
///
/// The seed is derived from `name` (override with `PROPCHECK_SEED=<u64>`), so
/// runs are reproducible and distinct properties explore distinct corners.
pub fn check<F: Fn(&mut Gen)>(name: &str, cases: u32, f: F) {
    check_budgeted(name, cases, 2000, f);
}

/// [`check`] with an explicit shrink budget (maximum candidate re-runs on
/// failure). The default budget of 2000 assumes a property costs
/// microseconds; heavyweight properties — whole-cluster fault-schedule
/// simulations at seconds of wall clock per run — must cap it, or a single
/// failure turns into an hour of shrinking.
pub fn check_budgeted<F: Fn(&mut Gen)>(name: &str, cases: u32, shrink_budget: u32, f: F) {
    install_quiet_hook();
    let base = base_seed(name);
    for case in 0..cases {
        let seed = SplitMix64::new(base.wrapping_add(case as u64)).next_u64();
        let mut g = Gen::random(seed);
        if run_caught(&f, &mut g).is_err() {
            let minimal = shrink(&f, g.recorded, shrink_budget);
            eprintln!(
                "propcheck: property `{name}` failed at case {case}/{cases} \
                 (base seed {base:#018x}); minimal counterexample uses {} draws. \
                 Re-running it uncaught so the assertion surfaces below. \
                 Reproduce the full run with PROPCHECK_SEED={base}.",
                minimal.len()
            );
            let mut g = Gen::replay(minimal);
            f(&mut g);
            panic!(
                "propcheck: property `{name}` failed under the random run but the \
                 shrunk counterexample passed on replay — the property is flaky \
                 (non-deterministic or dependent on ambient state)"
            );
        }
    }
}

fn base_seed(name: &str) -> u64 {
    if let Ok(s) = std::env::var("PROPCHECK_SEED") {
        if let Ok(v) = s.trim().parse::<u64>() {
            return v;
        }
    }
    // FNV-1a over the property name.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn run_caught<F: Fn(&mut Gen)>(f: &F, g: &mut Gen) -> Result<(), ()> {
    QUIET.with(|q| q.set(true));
    let r = panic::catch_unwind(AssertUnwindSafe(|| f(g)));
    QUIET.with(|q| q.set(false));
    r.map(drop).map_err(drop)
}

/// Shrink a failing draw stream: repeatedly delete chunks, zero draws, and
/// halve draws, keeping every mutation that still fails, until a fixpoint or
/// the attempt budget is exhausted.
fn shrink<F: Fn(&mut Gen)>(f: &F, start: Vec<u64>, budget: u32) -> Vec<u64> {
    let mut best = start;
    let mut budget: u32 = budget;

    // Returns true (and updates `best`) if `cand` still fails.
    let attempt = |cand: Vec<u64>, best: &mut Vec<u64>, budget: &mut u32| -> bool {
        if *budget == 0 {
            return false;
        }
        *budget -= 1;
        let mut g = Gen::replay(cand.clone());
        if run_caught(f, &mut g).is_err() {
            // Draws never consumed on replay are dead weight: drop them.
            let used = g.recorded.len().min(cand.len());
            let mut kept = cand;
            kept.truncate(used);
            *best = kept;
            true
        } else {
            false
        }
    };

    loop {
        let mut improved = false;

        // Pass 1: delete chunks, largest first, scanning from the tail so
        // trailing structure (usually the most recently generated values)
        // goes first.
        for size in [32usize, 8, 4, 2, 1] {
            let mut i = best.len();
            while i >= size && budget > 0 {
                let lo = i - size;
                let mut cand = best.clone();
                cand.drain(lo..i);
                if attempt(cand, &mut best, &mut budget) {
                    improved = true;
                    i = best.len().min(i);
                } else {
                    i -= 1;
                }
            }
        }

        // Pass 2: simplify individual draws in place.
        let mut i = 0;
        while i < best.len() && budget > 0 {
            let v = best[i];
            if v != 0 {
                let mut cand = best.clone();
                cand[i] = 0;
                if !attempt(cand, &mut best, &mut budget) {
                    let mut cand = best.clone();
                    cand[i] = v / 2;
                    if attempt(cand, &mut best, &mut budget) {
                        improved = true;
                    }
                } else {
                    improved = true;
                }
            }
            i += 1;
        }

        if !improved || budget == 0 {
            return best;
        }
    }
}

// ----------------------------------------------------------------------
// Panic-hook silencing while the harness probes candidates. Thread-local so
// concurrently failing tests in other threads still report normally.
// ----------------------------------------------------------------------

thread_local! {
    static QUIET: Cell<bool> = const { Cell::new(false) };
}

static HOOK: Once = Once::new();

fn install_quiet_hook() {
    HOOK.call_once(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if !QUIET.with(|q| q.get()) {
                prev(info);
            }
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn draws_are_deterministic_per_seed() {
        let mut a = Gen::random(42);
        let mut b = Gen::random(42);
        for _ in 0..64 {
            assert_eq!(a.u64(), b.u64());
        }
    }

    #[test]
    fn ranges_are_respected() {
        let mut g = Gen::random(7);
        for _ in 0..1000 {
            let v = g.u64_in(10..20);
            assert!((10..20).contains(&v));
            let v = g.i64_in(-5..5);
            assert!((-5..5).contains(&v));
            let v = g.usize_in(0..3);
            assert!(v < 3);
        }
    }

    #[test]
    fn collections_honor_length_bounds() {
        let mut g = Gen::random(9);
        for _ in 0..200 {
            assert!(g.bytes(0..17).len() < 17);
            assert!(g.vec(1..4, |g| g.bool()).len() < 4);
            assert!(g.btree_map(0..5, |g| g.u8(), |g| g.u8()).len() < 5);
            let s = g.string_from(&['a', 'b', 'c'], 2..6);
            assert!((2..6).contains(&s.chars().count()));
            assert!(s.chars().all(|c| "abc".contains(c)));
        }
    }

    #[test]
    fn replay_past_end_yields_simplest_values() {
        let mut g = Gen::replay(vec![]);
        assert_eq!(g.u64(), 0);
        assert!(!g.bool());
        assert_eq!(g.u64_in(3..9), 3);
        assert!(g.bytes(0..100).is_empty());
    }

    #[test]
    fn passing_property_passes() {
        check("tautology", 64, |g| {
            let v = g.bytes(0..64);
            assert!(v.len() < 64);
        });
    }

    #[test]
    fn failing_property_panics_after_shrinking() {
        install_quiet_hook();
        QUIET.with(|q| q.set(true));
        let r = panic::catch_unwind(|| {
            check("sums_stay_small", 64, |g| {
                let v = g.vec(0..100, |g| g.u64_in(0..100));
                assert!(v.iter().sum::<u64>() < 50);
            });
        });
        QUIET.with(|q| q.set(false));
        assert!(r.is_err(), "the impossible property must fail");
    }

    #[test]
    fn shrinker_minimizes_a_known_failure() {
        // Property: every generated byte vector is shorter than 10. The
        // minimal counterexample needs exactly one draw (a length >= 10);
        // the shrunk stream must be tiny and still fail.
        let prop = |g: &mut Gen| {
            let v = g.bytes(0..100);
            assert!(v.len() < 10);
        };
        // Find a failing random case first.
        let mut failing = None;
        for seed in 0..1000 {
            let mut g = Gen::random(seed);
            if run_caught(&prop, &mut g).is_err() {
                failing = Some(g.recorded);
                break;
            }
        }
        let minimal = shrink(&prop, failing.expect("some seed fails"), 2000);
        // One draw decides the length; everything after the length draw that
        // the shrinker could delete is gone.
        assert!(
            minimal.len() <= 11,
            "stream of {} draws not minimal",
            minimal.len()
        );
        let mut g = Gen::replay(minimal);
        assert!(
            run_caught(&prop, &mut g).is_err(),
            "minimal case still fails"
        );
    }
}
