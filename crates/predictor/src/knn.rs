//! k-nearest-neighbour power prediction: "jobs like the ones this user
//! ran before will draw similar power" — the instance-based alternative
//! studied alongside parametric models in \[17\].

use crate::Regressor;

/// k-NN regressor over Euclidean feature distance.
#[derive(Debug, Clone, PartialEq)]
pub struct KnnRegressor {
    /// Neighbours consulted.
    pub k: usize,
    cols: usize,
    x: Vec<f64>,
    y: Vec<f64>,
}

impl KnnRegressor {
    /// New model consulting `k ≥ 1` neighbours.
    pub fn new(k: usize) -> Self {
        assert!(k >= 1);
        KnnRegressor {
            k,
            cols: 0,
            x: Vec::new(),
            y: Vec::new(),
        }
    }

    /// Stored training rows.
    pub fn len(&self) -> usize {
        self.y.len()
    }

    /// True before `fit`.
    pub fn is_empty(&self) -> bool {
        self.y.is_empty()
    }

    fn distance_sq(a: &[f64], b: &[f64]) -> f64 {
        a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
    }
}

impl Regressor for KnnRegressor {
    fn fit(&mut self, x: &[f64], rows: usize, cols: usize, y: &[f64]) {
        assert_eq!(x.len(), rows * cols);
        assert_eq!(y.len(), rows);
        self.cols = cols;
        self.x = x.to_vec();
        self.y = y.to_vec();
    }

    fn predict(&self, features: &[f64]) -> f64 {
        assert!(!self.is_empty(), "fit before predict");
        assert_eq!(features.len(), self.cols);
        let rows = self.y.len();
        // Partial selection of the k smallest distances.
        let mut dists: Vec<(f64, usize)> = (0..rows)
            .map(|r| {
                let row = &self.x[r * self.cols..(r + 1) * self.cols];
                (Self::distance_sq(row, features), r)
            })
            .collect();
        let k = self.k.min(rows);
        dists.select_nth_unstable_by(k - 1, |a, b| a.0.total_cmp(&b.0));
        let mut sum = 0.0;
        for &(_, r) in dists.iter().take(k) {
            sum += self.y[r];
        }
        sum / k as f64
    }

    fn name(&self) -> &'static str {
        "knn"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_nn_memorises_training_points() {
        let x = vec![0.0, 0.0, 1.0, 0.0, 0.0, 1.0];
        let y = vec![10.0, 20.0, 30.0];
        let mut m = KnnRegressor::new(1);
        m.fit(&x, 3, 2, &y);
        assert_eq!(m.predict(&[0.0, 0.0]), 10.0);
        assert_eq!(m.predict(&[1.0, 0.0]), 20.0);
        assert_eq!(m.predict(&[0.01, 0.99]), 30.0);
    }

    #[test]
    fn k_averages_neighbours() {
        let x = vec![0.0, 0.1, 0.2, 10.0];
        let y = vec![1.0, 2.0, 3.0, 100.0];
        let mut m = KnnRegressor::new(3);
        m.fit(&x, 4, 1, &y);
        // The three close points average to 2; the outlier is excluded.
        assert!((m.predict(&[0.1]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn k_larger_than_dataset_is_clamped() {
        let x = vec![0.0, 1.0];
        let y = vec![4.0, 6.0];
        let mut m = KnnRegressor::new(10);
        m.fit(&x, 2, 1, &y);
        assert!((m.predict(&[0.5]) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn clustered_users_predicted_from_their_own_history() {
        // User A's jobs draw ~1500 W, user B's ~800 W; features are the
        // one-hot user id. k-NN must keep them apart.
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..20 {
            x.extend([1.0, 0.0]);
            y.push(1500.0 + (i % 5) as f64);
            x.extend([0.0, 1.0]);
            y.push(800.0 + (i % 3) as f64);
        }
        let mut m = KnnRegressor::new(5);
        m.fit(&x, 40, 2, &y);
        assert!((m.predict(&[1.0, 0.0]) - 1500.0).abs() < 5.0);
        assert!((m.predict(&[0.0, 1.0]) - 800.0).abs() < 5.0);
    }

    #[test]
    #[should_panic(expected = "fit before predict")]
    fn predict_before_fit_panics() {
        KnnRegressor::new(3).predict(&[1.0]);
    }
}
