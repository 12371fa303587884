//! Regression-tree power predictor: handles the interaction effects
//! (user × application × geometry) that a linear model misses, the way
//! the ML models of \[17\]/\[18\] do.

use crate::Regressor;

/// A binary regression tree node.
#[derive(Debug, Clone, PartialEq)]
enum Node {
    Leaf {
        value: f64,
    },
    Split {
        feature: usize,
        threshold: f64,
        left: Box<Node>,
        right: Box<Node>,
    },
}

/// CART-style regression tree (variance-reduction splits).
#[derive(Debug, Clone, PartialEq)]
pub struct RegressionTree {
    /// Maximum tree depth.
    pub max_depth: usize,
    /// Minimum samples in a leaf.
    pub min_leaf: usize,
    cols: usize,
    root: Option<Node>,
}

impl RegressionTree {
    /// New tree with the given capacity controls.
    pub fn new(max_depth: usize, min_leaf: usize) -> Self {
        assert!(max_depth >= 1 && min_leaf >= 1);
        RegressionTree {
            max_depth,
            min_leaf,
            cols: 0,
            root: None,
        }
    }

    /// Number of leaves (diagnostics).
    pub fn leaf_count(&self) -> usize {
        fn count(n: &Node) -> usize {
            match n {
                Node::Leaf { .. } => 1,
                Node::Split { left, right, .. } => count(left) + count(right),
            }
        }
        self.root.as_ref().map_or(0, count)
    }

    fn build(&self, x: &[f64], y: &[f64], idx: &mut [usize], depth: usize) -> Node {
        let mean = idx.iter().map(|&i| y[i]).sum::<f64>() / idx.len() as f64;
        if depth >= self.max_depth || idx.len() < 2 * self.min_leaf {
            return Node::Leaf { value: mean };
        }
        // Find the best split by variance reduction.
        let total_sse: f64 = idx.iter().map(|&i| (y[i] - mean).powi(2)).sum();
        let mut best: Option<(usize, f64, f64)> = None; // (feature, threshold, sse)
        for f in 0..self.cols {
            // Sort indices by this feature.
            let mut order: Vec<usize> = idx.to_vec();
            order.sort_by(|&a, &b| x[a * self.cols + f].total_cmp(&x[b * self.cols + f]));
            // Prefix sums for O(n) split evaluation.
            let mut left_sum = 0.0;
            let mut left_sq = 0.0;
            let total_sum: f64 = order.iter().map(|&i| y[i]).sum();
            let total_sq: f64 = order.iter().map(|&i| y[i] * y[i]).sum();
            for (k, &i) in order.iter().enumerate().take(order.len() - 1) {
                left_sum += y[i];
                left_sq += y[i] * y[i];
                let nl = (k + 1) as f64;
                let nr = (order.len() - k - 1) as f64;
                if (k + 1) < self.min_leaf || (order.len() - k - 1) < self.min_leaf {
                    continue;
                }
                let xv = x[i * self.cols + f];
                let xnext = x[order[k + 1] * self.cols + f];
                if xv == xnext {
                    continue; // cannot split between equal values
                }
                let right_sum = total_sum - left_sum;
                let right_sq = total_sq - left_sq;
                let sse =
                    (left_sq - left_sum * left_sum / nl) + (right_sq - right_sum * right_sum / nr);
                if best.is_none_or(|(_, _, b)| sse < b) {
                    best = Some((f, 0.5 * (xv + xnext), sse));
                }
            }
        }
        match best {
            Some((feature, threshold, sse)) if sse < total_sse - 1e-12 => {
                let (mut li, mut ri): (Vec<usize>, Vec<usize>) = idx
                    .iter()
                    .partition(|&&i| x[i * self.cols + feature] <= threshold);
                let left = self.build(x, y, &mut li, depth + 1);
                let right = self.build(x, y, &mut ri, depth + 1);
                Node::Split {
                    feature,
                    threshold,
                    left: Box::new(left),
                    right: Box::new(right),
                }
            }
            _ => Node::Leaf { value: mean },
        }
    }
}

impl Regressor for RegressionTree {
    fn fit(&mut self, x: &[f64], rows: usize, cols: usize, y: &[f64]) {
        assert_eq!(x.len(), rows * cols);
        assert_eq!(y.len(), rows);
        assert!(rows >= 1);
        self.cols = cols;
        let mut idx: Vec<usize> = (0..rows).collect();
        self.root = Some(self.build(x, y, &mut idx, 0));
    }

    fn predict(&self, features: &[f64]) -> f64 {
        let mut node = self.root.as_ref().expect("fit before predict");
        loop {
            match node {
                Node::Leaf { value } => return *value,
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    node = if features[*feature] <= *threshold {
                        left
                    } else {
                        right
                    };
                }
            }
        }
    }

    fn name(&self) -> &'static str {
        "tree"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use davide_core::rng::Rng;

    #[test]
    fn learns_step_function() {
        // y = 100 for x < 0.5, 200 otherwise.
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..100 {
            let v = i as f64 / 100.0;
            x.push(v);
            y.push(if v < 0.5 { 100.0 } else { 200.0 });
        }
        let mut t = RegressionTree::new(3, 5);
        t.fit(&x, 100, 1, &y);
        assert!((t.predict(&[0.2]) - 100.0).abs() < 1e-9);
        assert!((t.predict(&[0.8]) - 200.0).abs() < 1e-9);
    }

    #[test]
    fn captures_interaction_linear_model_cannot() {
        // y = 100 + 400·a·b — a multiplicative interaction (user × app in
        // the power-prediction setting) that needs two levels of splits.
        let mut x = Vec::new();
        let mut y = Vec::new();
        for a in [0.0, 1.0] {
            for b in [0.0, 1.0] {
                for _ in 0..10 {
                    x.extend([a, b]);
                    y.push(100.0 + 400.0 * a * b);
                }
            }
        }
        let mut t = RegressionTree::new(4, 2);
        t.fit(&x, 40, 2, &y);
        assert!((t.predict(&[1.0, 1.0]) - 500.0).abs() < 1e-9);
        assert!((t.predict(&[0.0, 1.0]) - 100.0).abs() < 1e-9);
        assert!((t.predict(&[1.0, 0.0]) - 100.0).abs() < 1e-9);
    }

    #[test]
    fn depth_limit_bounds_leaves() {
        let mut rng = Rng::seed_from(1);
        let rows = 200;
        let x: Vec<f64> = (0..rows).map(|_| rng.uniform()).collect();
        let y: Vec<f64> = x.iter().map(|v| v * 100.0).collect();
        let mut shallow = RegressionTree::new(2, 1);
        shallow.fit(&x, rows, 1, &y);
        assert!(shallow.leaf_count() <= 4);
        let mut deep = RegressionTree::new(6, 1);
        deep.fit(&x, rows, 1, &y);
        assert!(deep.leaf_count() > shallow.leaf_count());
    }

    #[test]
    fn constant_target_gives_single_leaf() {
        let x = vec![1.0, 2.0, 3.0, 4.0];
        let y = vec![7.0; 4];
        let mut t = RegressionTree::new(5, 1);
        t.fit(&x, 4, 1, &y);
        assert_eq!(t.leaf_count(), 1);
        assert_eq!(t.predict(&[99.0]), 7.0);
    }

    #[test]
    fn min_leaf_respected() {
        let x: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let y: Vec<f64> = (0..10).map(|i| i as f64 * 10.0).collect();
        let mut t = RegressionTree::new(10, 5);
        t.fit(&x, 10, 1, &y);
        // With min_leaf 5 on 10 points there can be at most one split.
        assert!(t.leaf_count() <= 2);
    }
}
