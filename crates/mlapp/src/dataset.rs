//! Synthetic MovieLens-like rating data.
//!
//! Ratings are sampled from a ground-truth low-rank model plus Gaussian-ish
//! noise and clipped to the 0.5–5.0 star range, which gives SGD matrix
//! factorization the same "iterative and convergent" structure as the real
//! MovieLens data the paper trains on.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One observed rating.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rating {
    /// User index in `0..num_users`.
    pub user: u32,
    /// Item index in `0..num_items`.
    pub item: u32,
    /// Observed rating value.
    pub value: f64,
}

/// Parameters of the synthetic dataset generator.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetConfig {
    /// Number of users.
    pub num_users: usize,
    /// Number of items.
    pub num_items: usize,
    /// Number of observed ratings to sample.
    pub num_ratings: usize,
    /// Rank of the ground-truth model the ratings are sampled from.
    pub true_rank: usize,
    /// Standard deviation of the observation noise.
    pub noise: f64,
    /// RNG seed (the generator is fully deterministic given the config).
    pub seed: u64,
}

impl DatasetConfig {
    /// A small configuration suitable for unit tests and examples.
    pub fn small(seed: u64) -> Self {
        Self { num_users: 200, num_items: 120, num_ratings: 4_000, true_rank: 4, noise: 0.05, seed }
    }
}

/// A generated dataset: the ratings plus the dimensions they refer to.
#[derive(Debug, Clone, PartialEq)]
pub struct RatingsDataset {
    /// Number of users.
    pub num_users: usize,
    /// Number of items.
    pub num_items: usize,
    /// Observed ratings.
    pub ratings: Vec<Rating>,
}

impl RatingsDataset {
    /// Generate a dataset from the given configuration.
    pub fn generate(config: &DatasetConfig) -> Self {
        assert!(config.num_users > 0 && config.num_items > 0 && config.true_rank > 0);
        let mut rng = StdRng::seed_from_u64(config.seed);
        // Ground-truth factors with entries in [0, 1).
        let u: Vec<f64> = (0..config.num_users * config.true_rank).map(|_| rng.gen::<f64>()).collect();
        let v: Vec<f64> = (0..config.num_items * config.true_rank).map(|_| rng.gen::<f64>()).collect();
        let k = config.true_rank;
        let mut ratings = Vec::with_capacity(config.num_ratings);
        for _ in 0..config.num_ratings {
            let user = rng.gen_range(0..config.num_users);
            let item = rng.gen_range(0..config.num_items);
            let mut dot = 0.0;
            for f in 0..k {
                dot += u[user * k + f] * v[item * k + f];
            }
            // Scale the dot product into the star range and add noise.
            let noise: f64 = (rng.gen::<f64>() - 0.5) * 2.0 * config.noise;
            let value = (1.0 + dot * 4.0 / k as f64 + noise).clamp(0.5, 5.0);
            ratings.push(Rating { user: user as u32, item: item as u32, value });
        }
        Self { num_users: config.num_users, num_items: config.num_items, ratings }
    }

    /// Number of observed ratings.
    pub fn len(&self) -> usize {
        self.ratings.len()
    }

    /// Whether the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.ratings.is_empty()
    }

    /// The partition of the ratings owned by `rank` out of `ranks` workers:
    /// users are split into contiguous blocks, mirroring a row-partitioned
    /// MF training setup.
    pub fn partition(&self, rank: usize, ranks: usize) -> Vec<Rating> {
        assert!(rank < ranks);
        let users_per_rank = self.num_users.div_ceil(ranks);
        let lo = (rank * users_per_rank) as u32;
        let hi = ((rank + 1) * users_per_rank).min(self.num_users) as u32;
        self.ratings.iter().copied().filter(|r| r.user >= lo && r.user < hi).collect()
    }

    /// Mean rating value (useful as a baseline predictor in tests).
    pub fn mean_rating(&self) -> f64 {
        if self.ratings.is_empty() {
            return 0.0;
        }
        self.ratings.iter().map(|r| r.value).sum::<f64>() / self.ratings.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let c = DatasetConfig::small(7);
        assert_eq!(RatingsDataset::generate(&c), RatingsDataset::generate(&c));
    }

    #[test]
    fn different_seeds_give_different_data() {
        let a = RatingsDataset::generate(&DatasetConfig::small(1));
        let b = RatingsDataset::generate(&DatasetConfig::small(2));
        assert_ne!(a, b);
    }

    #[test]
    fn ratings_stay_in_star_range_and_reference_valid_ids() {
        let c = DatasetConfig::small(3);
        let d = RatingsDataset::generate(&c);
        assert_eq!(d.len(), c.num_ratings);
        for r in &d.ratings {
            assert!((0.5..=5.0).contains(&r.value));
            assert!((r.user as usize) < c.num_users);
            assert!((r.item as usize) < c.num_items);
        }
    }

    #[test]
    fn partitions_are_disjoint_and_cover_everything() {
        let d = RatingsDataset::generate(&DatasetConfig::small(5));
        let ranks = 7;
        let total: usize = (0..ranks).map(|r| d.partition(r, ranks).len()).sum();
        assert_eq!(total, d.len());
        // A user appears in exactly one partition.
        for r in 0..ranks {
            for rating in d.partition(r, ranks) {
                for other in 0..ranks {
                    if other != r {
                        assert!(!d.partition(other, ranks).iter().any(|x| x.user == rating.user));
                    }
                }
            }
        }
    }

    #[test]
    fn mean_rating_is_plausible() {
        let d = RatingsDataset::generate(&DatasetConfig::small(11));
        let m = d.mean_rating();
        assert!(m > 0.5 && m < 5.0);
    }
}
