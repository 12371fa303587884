//! # davide-predictor
//!
//! Per-job power predictors trained on historical traces (§III-A2 of the
//! paper and its references \[17\]\[18\]): the machine-learning engine the
//! D.A.V.I.D.E. job scheduler consults before admitting a job under a
//! system power cap.
//!
//! * [`features`] — submission-time feature extraction (user, app,
//!   geometry, walltime, time of day);
//! * [`linalg`] — Cholesky SPD solves for the normal equations;
//! * [`linreg`] — ridge regression; [`knn`] — k-nearest neighbours;
//!   [`tree`] — CART-style regression tree; [`forest`] — bagged trees;
//!   [`online`] — recursive least squares for streaming retraining;
//! * [`eval`] — MAPE/RMSE/MAE/R² and k-fold cross-validation.

#![warn(missing_docs)]

pub mod eval;
pub mod features;
pub mod forest;
pub mod knn;
pub mod linalg;
pub mod linreg;
pub mod model;
pub mod online;
pub mod tree;

/// A trainable power predictor over row-major feature matrices.
pub trait Regressor {
    /// Fit on `rows × cols` design matrix `x` and targets `y`.
    fn fit(&mut self, x: &[f64], rows: usize, cols: usize, y: &[f64]);
    /// Predict the target for one feature vector.
    fn predict(&self, features: &[f64]) -> f64;
    /// Short model name for reports.
    fn name(&self) -> &'static str;
}

pub use eval::{cross_validate, mape, r2, rmse, CvReport};
pub use features::{FeatureEncoder, JobDescriptor};
pub use forest::RandomForest;
pub use knn::KnnRegressor;
pub use linreg::RidgeRegression;
pub use model::ModelKind;
pub use online::RlsPredictor;
pub use tree::RegressionTree;
