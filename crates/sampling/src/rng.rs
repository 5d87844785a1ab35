//! Deterministic RNG helpers.
//!
//! All samplers and experiments take explicit seeds so every figure and table
//! in the harness is reproducible. Worker threads derive their own streams
//! with [`split_seed`] (a SplitMix64 step), which keeps parallel runs
//! deterministic for a fixed thread count.
//!
//! [`index_from_word`] and [`Mixture`] are the draws of WarpLDA's hot loops:
//! each turns one 32-bit half of a 64-bit word into an exactly uniform index,
//! so a mixture proposal costs one generator step.

use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};

/// Creates the workspace-standard RNG from a seed.
pub fn new_rng(seed: u64) -> SmallRng {
    SmallRng::seed_from_u64(seed)
}

/// Derives an independent stream seed from a base seed and a stream index
/// using SplitMix64 finalization. Used to give each worker/thread/document
/// batch its own reproducible RNG.
pub fn split_seed(base: u64, stream: u64) -> u64 {
    let mut z = base ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The `Dice(K)` primitive from Algorithm 2: a uniform draw from `0..k`.
pub trait Dice {
    /// Draws uniformly from `0..k`. `k` must be positive.
    fn dice(&mut self, k: usize) -> usize;
    /// Draws a uniform f64 in `[0, 1)`.
    fn unit(&mut self) -> f64;
    /// Flips a coin that is true with probability `p`.
    fn flip(&mut self, p: f64) -> bool;
}

impl<R: Rng> Dice for R {
    #[inline]
    fn dice(&mut self, k: usize) -> usize {
        debug_assert!(k > 0, "Dice(0) is undefined");
        self.gen_range(0..k)
    }

    #[inline]
    fn unit(&mut self) -> f64 {
        self.gen::<f64>()
    }

    #[inline]
    fn flip(&mut self, p: f64) -> bool {
        self.gen::<f64>() < p
    }
}

/// An exactly uniform index in `0..n` from the 32-bit `word`: Lemire's
/// multiply-shift including its rejection step. A word whose low product
/// falls below `2³² mod n` is rejected (probability < n/2³²) and replaced by
/// the low 32 bits of a fresh draw from `rng`, so every index has probability
/// exactly `1/n`. `n` must be positive.
#[inline]
pub fn index_from_word<R: RngCore + ?Sized>(word: u32, n: u32, rng: &mut R) -> u32 {
    debug_assert!(n > 0, "an index needs a non-empty range");
    let mut m = u64::from(word) * u64::from(n);
    if (m as u32) < n {
        let reject_below = n.wrapping_neg() % n;
        while (m as u32) < reject_below {
            m = u64::from(rng.next_u64() as u32) * u64::from(n);
        }
    }
    (m >> 32) as u32
}

/// A two-component mixture drawn with one 64-bit word: the high half picks
/// the first component with probability `⌊p·2³²⌋ / 2³²`, the low half an
/// exactly uniform index into the picked component (see
/// [`index_from_word`]). The mixture weight is quantised at 2⁻³²; nothing
/// else is approximated.
#[derive(Debug, Clone, Copy)]
pub struct Mixture {
    /// `⌊p·2³²⌋`, from 0 (never the first component) to 2³² (always).
    thresh: u64,
}

impl Mixture {
    /// A mixture that picks its first component with probability `p`, a
    /// probability in `[0, 1]`.
    pub fn new(p: f64) -> Self {
        debug_assert!((0.0..=1.0).contains(&p), "{p} is not a probability");
        Self { thresh: (p * 4_294_967_296.0) as u64 }
    }

    /// Draws `(first, index)`: whether the first component was picked, and a
    /// uniform index into it — `0..n_first` if so, `0..n_second` otherwise.
    /// The picked component's size must be positive.
    #[inline]
    pub fn draw<R: RngCore + ?Sized>(
        self,
        rng: &mut R,
        n_first: u32,
        n_second: u32,
    ) -> (bool, u32) {
        let r = rng.next_u64();
        let first = (r >> 32) < self.thresh;
        (first, index_from_word(r as u32, if first { n_first } else { n_second }, rng))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A generator that replays fixed words, then fails the test.
    struct Replay<I>(I);

    impl<I: Iterator<Item = u64>> RngCore for Replay<I> {
        fn next_u64(&mut self) -> u64 {
            self.0.next().expect("the draw asked for more words than expected")
        }
    }

    fn replay(words: &[u64]) -> Replay<impl Iterator<Item = u64> + '_> {
        Replay(words.iter().copied())
    }

    #[test]
    fn indices_stay_in_range_and_reach_both_ends() {
        let mut rng = new_rng(4);
        for n in [1u32, 2, 3, 7, 50, 4_096, 70_000, u32::MAX] {
            for _ in 0..2_000 {
                assert!(index_from_word(rng.next_u32(), n, &mut rng) < n);
            }
            // The largest word lands on the top index, without a redraw.
            assert_eq!(index_from_word(u32::MAX, n, &mut replay(&[])), n - 1);
        }
        // Word 0 is accepted exactly when n divides 2³², and lands on 0.
        assert_eq!(index_from_word(0, 4_096, &mut replay(&[])), 0);
    }

    #[test]
    fn a_rejected_word_is_replaced_by_the_low_half_of_a_fresh_draw() {
        // n = 3: 2³² mod 3 = 1, so only a word whose product with 3 has a
        // low half of 0 — word 0 — is rejected. The replacement 0x…_0000_0000
        // is rejected again, then 0x…_8000_0000 (the middle) gives index 1.
        let mut rng = replay(&[0xFFFF_FFFF_0000_0000, 0x1234_5678_8000_0000]);
        assert_eq!(index_from_word(0, 3, &mut rng), 1);
        assert!(rng.0.next().is_none(), "both replacement words were drawn");
        // n = 5: 2³² mod 5 = 1; word 0 rejected, the next low word accepted.
        assert_eq!(index_from_word(0, 5, &mut replay(&[u64::from(u32::MAX)])), 4);
    }

    #[test]
    fn indices_pass_a_chi_squared_test() {
        let mut rng = new_rng(9);
        for n in [3u32, 50, 4_096] {
            let draws = 200 * n as usize;
            let mut hist = vec![0u32; n as usize];
            for _ in 0..draws {
                hist[index_from_word(rng.next_u64() as u32, n, &mut rng) as usize] += 1;
            }
            let expected = draws as f64 / n as f64;
            let chi2: f64 = hist.iter().map(|&h| (h as f64 - expected).powi(2) / expected).sum();
            // Mean n − 1, standard deviation √(2(n − 1)): five deviations up.
            let df = (n - 1) as f64;
            assert!(chi2 < df + 5.0 * (2.0 * df).sqrt(), "n = {n}: χ² = {chi2:.1}");
        }
    }

    #[test]
    fn the_coin_edges_are_exact_and_its_rate_is_p() {
        // p = 0 never picks the first component, p = 1 always does, even at
        // the extreme high halves (low halves that no range rejects).
        for word in [0x0000_0000_FFFF_FFFF, u64::MAX, 0x8000_0000_FFFF_FFFF] {
            assert!(!Mixture::new(0.0).draw(&mut replay(&[word]), 5, 7).0);
            assert!(Mixture::new(1.0).draw(&mut replay(&[word]), 5, 7).0);
        }
        let mut rng = new_rng(12);
        let coin = Mixture::new(0.3);
        let n = 100_000;
        let mut first = 0;
        for _ in 0..n {
            let (pick, index) = coin.draw(&mut rng, 5, 7);
            assert!(index < if pick { 5 } else { 7 });
            first += usize::from(pick);
        }
        let rate = first as f64 / n as f64;
        assert!((rate - 0.3).abs() < 4.0 * (0.3f64 * 0.7 / n as f64).sqrt(), "rate {rate}");
    }

    #[test]
    fn split_seed_streams_differ() {
        let s0 = split_seed(42, 0);
        let s1 = split_seed(42, 1);
        let s2 = split_seed(43, 0);
        assert_ne!(s0, s1);
        assert_ne!(s0, s2);
        // Deterministic.
        assert_eq!(split_seed(42, 1), s1);
    }

    #[test]
    fn dice_stays_in_range_and_covers_values() {
        let mut rng = new_rng(1);
        let mut seen = [false; 6];
        for _ in 0..1000 {
            let v = rng.dice(6);
            assert!(v < 6);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s), "all faces should appear in 1000 rolls");
    }

    #[test]
    fn unit_is_in_half_open_interval() {
        let mut rng = new_rng(2);
        for _ in 0..1000 {
            let u = rng.unit();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn flip_matches_probability_roughly() {
        let mut rng = new_rng(3);
        let n = 50_000;
        let heads = (0..n).filter(|_| rng.flip(0.3)).count();
        let rate = heads as f64 / n as f64;
        assert!((rate - 0.3).abs() < 0.02, "rate {rate}");
    }

    #[test]
    fn same_seed_same_stream() {
        let mut a = new_rng(99);
        let mut b = new_rng(99);
        for _ in 0..100 {
            assert_eq!(a.dice(1000), b.dice(1000));
        }
    }
}
