//! The estimator: best-of-repetitions stitching, percentiles, and the
//! timing loop of the layer probes.
//!
//! The schedule is deterministic, so slice `k` (a hundred consecutive
//! completions) does byte-identical work in every repetition, and timed
//! operation `j` is the same operation, waiting behind the same work, in
//! every repetition. What differs between repetitions is interference from
//! outside the program, and interference only ever adds time. So the
//! estimate of slice `k`'s duration is its minimum over repetitions, and a
//! run's throughput is the op count over the sum of those minima; the
//! estimate of operation `j`'s latency is its minimum over repetitions, and
//! percentiles are taken over those, all timed operations pooled. Every slice and every operation is
//! still represented, so periodic costs (a checkpoint every 128 sequence
//! numbers) cannot hide.

use std::hint::black_box;
use std::time::Instant;

/// Nearest-rank percentile of an ascending slice (`p` in `0.0..=1.0`).
///
/// # Panics
/// Panics on an empty slice.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Durations of consecutive slices of `slice` completions: `done_ns` are the
/// completion stamps, `start_ns` the stamp the first slice starts at (a
/// shorter last slice is kept).
pub fn slice_times(start_ns: u64, done_ns: &[u64], slice: usize) -> Vec<u64> {
    let ends = done_ns.chunks(slice).map(|c| *c.last().expect("non-empty"));
    let starts = std::iter::once(start_ns).chain(ends.clone());
    ends.zip(starts).map(|(end, start)| end - start).collect()
}

/// Fold one repetition into the running element-wise best (minimum):
/// `best[k] = min(best[k], rep[k])`. An empty `best` takes `rep` as is.
///
/// # Panics
/// Panics if the lengths differ — they are schedule-deterministic, so a
/// mismatch is a determinism bug.
pub fn keep_best(best: &mut Vec<u64>, rep: &[u64]) {
    if best.is_empty() {
        best.extend_from_slice(rep);
        return;
    }
    assert_eq!(
        best.len(),
        rep.len(),
        "repetitions disagree on the sample count"
    );
    for (b, &r) in best.iter_mut().zip(rep) {
        *b = (*b).min(r);
    }
}

/// Best nanoseconds per call of `f` over two samples of `iters` calls (after
/// one untimed sample to fill caches). A probe pass is kept this short on
/// purpose: an invocation makes one pass per round of repetitions and keeps
/// each probe's best, so the samples are spread over the whole run instead
/// of sitting in one burst that a noisy moment can spoil.
pub fn best_ns<R>(iters: u32, mut f: impl FnMut() -> R) -> f64 {
    let mut best = f64::INFINITY;
    for sample in 0..3 {
        let t = Instant::now();
        for _ in 0..iters {
            black_box(f());
        }
        let ns = t.elapsed().as_nanos() as f64 / f64::from(iters);
        if sample > 0 {
            best = best.min(ns);
        }
    }
    best
}

/// Stateless 64-bit mixer (SplitMix64 finaliser over the three inputs):
/// how the workload seed stamps payloads.
pub fn mix(seed: u64, a: u64, b: u64) -> u64 {
    let mut z = seed
        .wrapping_add(a.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(b.wrapping_mul(0xbf58_476d_1ce4_e5b9))
        .wrapping_add(0x94d0_49bb_1331_11eb);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&v, 0.50), 500);
        assert_eq!(percentile(&v, 0.99), 990); // ten samples lie beyond it
        assert_eq!(percentile(&v, 1.0), 1000);
        assert_eq!(percentile(&v, 0.0), 1);
        assert_eq!(percentile(&[7], 0.99), 7);
    }

    #[test]
    fn slices_partition_the_timed_part() {
        let done = [12, 15, 21, 30, 34, 50, 51];
        let slices = slice_times(10, &done, 3);
        assert_eq!(slices, vec![11, 29, 1]); // ends at 21, 50 and (short) 51
        assert_eq!(slices.iter().sum::<u64>(), 51 - 10);
        assert_eq!(slice_times(10, &done, 1).len(), done.len());
        assert_eq!(slice_times(10, &[], 3), Vec::<u64>::new());
    }

    #[test]
    fn keep_best_takes_each_slice_from_its_best_repetition() {
        let mut best = Vec::new();
        keep_best(&mut best, &[10, 50, 10]);
        assert_eq!(best, vec![10, 50, 10]);
        keep_best(&mut best, &[40, 12, 40]);
        assert_eq!(best, vec![10, 12, 10]);
    }

    #[test]
    #[should_panic(expected = "sample count")]
    fn keep_best_rejects_ragged_repetitions() {
        let mut best = vec![1, 2];
        keep_best(&mut best, &[1]);
    }

    #[test]
    fn mix_depends_on_every_input() {
        let base = mix(1, 2, 3);
        assert_ne!(base, mix(2, 2, 3));
        assert_ne!(base, mix(1, 3, 3));
        assert_ne!(base, mix(1, 2, 4));
        assert_eq!(base, mix(1, 2, 3));
    }
}
