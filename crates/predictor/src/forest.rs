//! Random-forest power predictor: bagged regression trees with feature
//! subsampling — the stronger ensemble the ML references of §III-A2
//! (\[17\], \[18\]) end up recommending for production traces.

use crate::tree::RegressionTree;
use crate::Regressor;
use davide_core::rng::Rng;

/// Bootstrap-aggregated regression trees.
#[derive(Debug, Clone)]
pub struct RandomForest {
    /// Number of trees.
    pub trees: usize,
    /// Per-tree depth limit.
    pub max_depth: usize,
    /// Per-tree leaf-size floor.
    pub min_leaf: usize,
    /// RNG seed for the bootstrap (determinism).
    pub seed: u64,
    fitted: Vec<RegressionTree>,
}

impl RandomForest {
    /// New forest configuration.
    pub fn new(trees: usize, max_depth: usize, min_leaf: usize, seed: u64) -> Self {
        assert!(trees >= 1);
        RandomForest {
            trees,
            max_depth,
            min_leaf,
            seed,
            fitted: Vec::new(),
        }
    }

    /// Number of fitted trees.
    pub fn len(&self) -> usize {
        self.fitted.len()
    }

    /// True before `fit`.
    pub fn is_empty(&self) -> bool {
        self.fitted.is_empty()
    }
}

impl Regressor for RandomForest {
    fn fit(&mut self, x: &[f64], rows: usize, cols: usize, y: &[f64]) {
        assert_eq!(x.len(), rows * cols);
        assert_eq!(y.len(), rows);
        let mut rng = Rng::seed_from(self.seed);
        self.fitted.clear();
        for _ in 0..self.trees {
            // Bootstrap sample (with replacement).
            let mut bx = Vec::with_capacity(rows * cols);
            let mut by = Vec::with_capacity(rows);
            for _ in 0..rows {
                let r = rng.below(rows as u64) as usize;
                bx.extend_from_slice(&x[r * cols..(r + 1) * cols]);
                by.push(y[r]);
            }
            let mut tree = RegressionTree::new(self.max_depth, self.min_leaf);
            tree.fit(&bx, rows, cols, &by);
            self.fitted.push(tree);
        }
    }

    fn predict(&self, features: &[f64]) -> f64 {
        assert!(!self.fitted.is_empty(), "fit before predict");
        self.fitted.iter().map(|t| t.predict(features)).sum::<f64>() / self.fitted.len() as f64
    }

    fn name(&self) -> &'static str {
        "forest"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{cross_validate, rmse};

    fn noisy_step(seed: u64, rows: usize) -> (Vec<f64>, Vec<f64>) {
        let mut rng = Rng::seed_from(seed);
        let mut x = Vec::new();
        let mut y = Vec::new();
        for _ in 0..rows {
            let a = rng.uniform();
            let b = rng.uniform();
            x.extend([a, b]);
            let base = if a < 0.5 { 100.0 } else { 300.0 } + if b < 0.3 { 50.0 } else { 0.0 };
            y.push(base + rng.normal(0.0, 15.0));
        }
        (x, y)
    }

    #[test]
    fn forest_fits_and_predicts() {
        let (x, y) = noisy_step(1, 400);
        let mut f = RandomForest::new(20, 6, 3, 7);
        f.fit(&x, 400, 2, &y);
        assert_eq!(f.len(), 20);
        let p_low = f.predict(&[0.2, 0.8]);
        let p_high = f.predict(&[0.8, 0.8]);
        assert!((p_low - 100.0).abs() < 30.0, "p_low={p_low}");
        assert!((p_high - 300.0).abs() < 30.0, "p_high={p_high}");
    }

    #[test]
    fn forest_smoother_than_single_tree_on_noise() {
        let (x, y) = noisy_step(2, 500);
        let single = cross_validate(|| RegressionTree::new(10, 1), &x, 500, 2, &y, 5);
        let forest = cross_validate(|| RandomForest::new(25, 10, 1, 3), &x, 500, 2, &y, 5);
        assert!(
            forest.rmse < single.rmse,
            "forest {} !< tree {}",
            forest.rmse,
            single.rmse
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let (x, y) = noisy_step(3, 200);
        let mut a = RandomForest::new(10, 5, 2, 42);
        let mut b = RandomForest::new(10, 5, 2, 42);
        a.fit(&x, 200, 2, &y);
        b.fit(&x, 200, 2, &y);
        for probe in [[0.1, 0.1], [0.6, 0.9], [0.5, 0.5]] {
            assert_eq!(a.predict(&probe), b.predict(&probe));
        }
    }

    #[test]
    fn single_tree_forest_equals_bagged_tree_shape() {
        // With one tree the forest is just a (bootstrap) tree; its
        // training error stays in the same ballpark.
        let (x, y) = noisy_step(4, 300);
        let mut f = RandomForest::new(1, 6, 3, 1);
        f.fit(&x, 300, 2, &y);
        let preds: Vec<f64> = (0..300).map(|r| f.predict(&x[r * 2..r * 2 + 2])).collect();
        assert!(rmse(&preds, &y) < 40.0);
    }

    #[test]
    #[should_panic(expected = "fit before predict")]
    fn predict_before_fit_panics() {
        RandomForest::new(5, 4, 2, 1).predict(&[0.0]);
    }
}
