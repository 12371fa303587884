//! Predictor evaluation: error metrics and k-fold cross-validation.

use crate::Regressor;

/// Mean absolute percentage error (the headline metric of \[17\]).
pub fn mape(pred: &[f64], truth: &[f64]) -> f64 {
    assert_eq!(pred.len(), truth.len());
    assert!(!pred.is_empty());
    let mut acc = 0.0;
    let mut n = 0usize;
    for (p, t) in pred.iter().zip(truth) {
        if t.abs() > 1e-12 {
            acc += ((p - t) / t).abs();
            n += 1;
        }
    }
    100.0 * acc / n.max(1) as f64
}

/// Root-mean-square error.
pub fn rmse(pred: &[f64], truth: &[f64]) -> f64 {
    assert_eq!(pred.len(), truth.len());
    assert!(!pred.is_empty());
    let sse: f64 = pred.iter().zip(truth).map(|(p, t)| (p - t).powi(2)).sum();
    (sse / pred.len() as f64).sqrt()
}

/// Mean absolute error.
pub fn mae(pred: &[f64], truth: &[f64]) -> f64 {
    assert_eq!(pred.len(), truth.len());
    assert!(!pred.is_empty());
    pred.iter()
        .zip(truth)
        .map(|(p, t)| (p - t).abs())
        .sum::<f64>()
        / pred.len() as f64
}

/// Coefficient of determination R².
pub fn r2(pred: &[f64], truth: &[f64]) -> f64 {
    assert_eq!(pred.len(), truth.len());
    let mean = truth.iter().sum::<f64>() / truth.len() as f64;
    let ss_tot: f64 = truth.iter().map(|t| (t - mean).powi(2)).sum();
    let ss_res: f64 = pred.iter().zip(truth).map(|(p, t)| (t - p).powi(2)).sum();
    if ss_tot == 0.0 {
        return if ss_res == 0.0 { 1.0 } else { 0.0 };
    }
    1.0 - ss_res / ss_tot
}

/// Cross-validation summary.
#[derive(Debug, Clone, PartialEq)]
pub struct CvReport {
    /// Model name.
    pub model: &'static str,
    /// Mean MAPE over folds, percent.
    pub mape: f64,
    /// Mean RMSE over folds.
    pub rmse: f64,
    /// Mean MAE over folds.
    pub mae: f64,
    /// Mean R² over folds.
    pub r2: f64,
}

/// k-fold cross-validation of a regressor factory over a row-major
/// design matrix. Folds are contiguous blocks (the caller shuffles).
pub fn cross_validate<R: Regressor>(
    mut factory: impl FnMut() -> R,
    x: &[f64],
    rows: usize,
    cols: usize,
    y: &[f64],
    folds: usize,
) -> CvReport {
    assert!(folds >= 2 && rows >= folds);
    let fold_size = rows / folds;
    let mut mapes = Vec::new();
    let mut rmses = Vec::new();
    let mut maes = Vec::new();
    let mut r2s = Vec::new();
    let mut name = "";
    for f in 0..folds {
        let test_start = f * fold_size;
        let test_end = if f == folds - 1 {
            rows
        } else {
            test_start + fold_size
        };
        let mut train_x = Vec::new();
        let mut train_y = Vec::new();
        for r in 0..rows {
            if r < test_start || r >= test_end {
                train_x.extend_from_slice(&x[r * cols..(r + 1) * cols]);
                train_y.push(y[r]);
            }
        }
        let mut model = factory();
        model.fit(&train_x, train_y.len(), cols, &train_y);
        name = model.name();
        let preds: Vec<f64> = (test_start..test_end)
            .map(|r| model.predict(&x[r * cols..(r + 1) * cols]))
            .collect();
        let truth = &y[test_start..test_end];
        mapes.push(mape(&preds, truth));
        rmses.push(rmse(&preds, truth));
        maes.push(mae(&preds, truth));
        r2s.push(r2(&preds, truth));
    }
    let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    CvReport {
        model: name,
        mape: avg(&mapes),
        rmse: avg(&rmses),
        mae: avg(&maes),
        r2: avg(&r2s),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linreg::RidgeRegression;

    #[test]
    fn metric_basics() {
        let truth = [100.0, 200.0];
        let pred = [110.0, 180.0];
        assert!((mape(&pred, &truth) - 10.0).abs() < 1e-12);
        assert!((mae(&pred, &truth) - 15.0).abs() < 1e-12);
        assert!((rmse(&pred, &truth) - (250.0_f64).sqrt()).abs() < 1e-12);
        assert_eq!(r2(&truth, &truth), 1.0);
        assert!(r2(&pred, &truth) < 1.0);
    }

    #[test]
    fn mape_skips_zero_truth() {
        let truth = [0.0, 100.0];
        let pred = [5.0, 110.0];
        assert!((mape(&pred, &truth) - 10.0).abs() < 1e-12);
    }

    #[test]
    fn perfect_model_cross_validates_perfectly() {
        // y depends linearly on x; ridge should nail every fold.
        let rows = 100;
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..rows {
            let v = i as f64 / 10.0;
            x.extend([v, 1.0]);
            y.push(3.0 * v + 7.0);
        }
        let report = cross_validate(|| RidgeRegression::new(1e-8), &x, rows, 2, &y, 5);
        assert_eq!(report.model, "ridge");
        assert!(report.mape < 0.1, "mape={}", report.mape);
        assert!(report.r2 > 0.999);
    }

    #[test]
    fn cv_uses_held_out_data() {
        // A model that memorises (1-NN) still shows error on held-out
        // folds when the target has noise — CV must not leak.
        use crate::knn::KnnRegressor;
        use davide_core::rng::Rng;
        let mut rng = Rng::seed_from(5);
        let rows = 200;
        let mut x = Vec::new();
        let mut y = Vec::new();
        for _ in 0..rows {
            let v = rng.uniform();
            x.push(v);
            y.push(v * 100.0 + rng.normal(0.0, 10.0));
        }
        let report = cross_validate(|| KnnRegressor::new(1), &x, rows, 1, &y, 5);
        assert!(report.rmse > 5.0, "held-out error visible: {}", report.rmse);
    }

    #[test]
    #[should_panic]
    fn cv_requires_enough_rows() {
        cross_validate(|| RidgeRegression::new(1.0), &[1.0], 1, 1, &[1.0], 2);
    }
}
