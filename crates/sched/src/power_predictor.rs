//! Bridge between the scheduler and the ML power predictors: train on
//! completed-job history, annotate incoming submissions — the "EP"
//! (energy predictor) box of Fig. 4, fed from the accounting database.
//!
//! The model family is chosen at runtime: [`PowerPredictor`] owns an
//! object-safe [`Regressor`] built from a
//! [`ModelKind`], and
//! [`OnlinePowerPredictor`] layers a streaming RLS residual corrector on
//! top for the closed control loop.

use crate::job::Job;
use davide_predictor::{FeatureEncoder, JobDescriptor, ModelKind, Regressor, RlsPredictor};

/// Physical per-node power envelope predictions are clamped to, watts.
pub const NODE_POWER_RANGE_W: (f64, f64) = (300.0, 2300.0);

/// Build the submission-time descriptor of a job.
pub fn descriptor(job: &Job) -> JobDescriptor {
    JobDescriptor {
        user_id: job.user_id,
        app_id: job.app as u32,
        nodes: job.nodes,
        gpus_per_node: 4,
        cores_per_socket: 8,
        walltime_s: job.walltime_req_s,
        submit_hour: (job.submit_s / 3600.0) % 24.0,
    }
}

/// A trained per-node power predictor over a runtime-selected model.
pub struct PowerPredictor {
    encoder: FeatureEncoder,
    model: Box<dyn Regressor>,
}

impl PowerPredictor {
    /// Train `model` on the history's true per-node powers.
    pub fn train<R: Regressor + 'static>(model: R, history: &[Job], n_users: usize) -> Self {
        Self::train_boxed(Box::new(model), history, n_users)
    }

    /// Train a model picked at runtime via [`ModelKind`].
    pub fn from_kind(kind: ModelKind, history: &[Job], n_users: usize) -> Self {
        Self::train_boxed(kind.build(), history, n_users)
    }

    /// Train an already-boxed model on the history's true per-node powers.
    pub fn train_boxed(mut model: Box<dyn Regressor>, history: &[Job], n_users: usize) -> Self {
        assert!(!history.is_empty(), "need history to train on");
        let encoder = FeatureEncoder::new(n_users, 4);
        let descriptors: Vec<JobDescriptor> = history.iter().map(descriptor).collect();
        let x = encoder.encode_batch(&descriptors);
        let y: Vec<f64> = history.iter().map(|j| j.true_power_w).collect();
        model.fit(&x, history.len(), encoder.dim(), &y);
        PowerPredictor { encoder, model }
    }

    /// Short name of the underlying model family.
    pub fn model_name(&self) -> &'static str {
        self.model.name()
    }

    /// Submission-time feature vector of a job.
    pub fn features(&self, job: &Job) -> Vec<f64> {
        self.encoder.encode(&descriptor(job))
    }

    /// Predict per-node power for a submission, clamped to the physical
    /// node envelope.
    pub fn predict(&self, job: &Job) -> f64 {
        let f = self.encoder.encode(&descriptor(job));
        self.model
            .predict(&f)
            .clamp(NODE_POWER_RANGE_W.0, NODE_POWER_RANGE_W.1)
    }

    /// Overwrite `predicted_power_w` across a trace.
    pub fn annotate(&self, trace: &mut [Job]) {
        for job in trace {
            job.predicted_power_w = self.predict(job);
        }
    }

    /// Mean absolute percentage error on a labelled set.
    pub fn mape_on(&self, jobs: &[Job]) -> f64 {
        let preds: Vec<f64> = jobs.iter().map(|j| self.predict(j)).collect();
        let truth: Vec<f64> = jobs.iter().map(|j| j.true_power_w).collect();
        davide_predictor::mape(&preds, &truth)
    }
}

/// A batch-trained base model plus an RLS residual corrector that keeps
/// learning from observed per-node powers as jobs complete — the
/// streaming half of the "EP" box the control plane feeds with
/// telemetry-measured energies.
pub struct OnlinePowerPredictor {
    base: PowerPredictor,
    rls: RlsPredictor,
    /// Running MAPE of the *corrected* prediction, measured before each
    /// observation is absorbed.
    abs_pct_err_sum: f64,
    observed: u64,
}

impl OnlinePowerPredictor {
    /// Wrap a trained base model; `lambda`/`delta` parameterise the RLS
    /// corrector (forgetting factor, prior covariance scale).
    pub fn new(base: PowerPredictor, lambda: f64, delta: f64) -> Self {
        let dim = base.encoder.dim();
        OnlinePowerPredictor {
            base,
            rls: RlsPredictor::new(dim, lambda, delta),
            abs_pct_err_sum: 0.0,
            observed: 0,
        }
    }

    /// Per-node power prediction: base model plus the learned residual,
    /// clamped to the physical envelope.
    pub fn predict(&self, job: &Job) -> f64 {
        let f = self.base.features(job);
        (self.base.model.predict(&f) + self.rls.predict(&f))
            .clamp(NODE_POWER_RANGE_W.0, NODE_POWER_RANGE_W.1)
    }

    /// Absorb an observed mean per-node power for a completed job:
    /// records the (pre-update) prediction error, then trains the
    /// corrector on the base model's residual.
    pub fn observe(&mut self, job: &Job, observed_w: f64) {
        if observed_w <= 0.0 {
            return;
        }
        let err = (self.predict(job) - observed_w).abs() / observed_w;
        self.abs_pct_err_sum += err;
        self.observed += 1;
        let f = self.base.features(job);
        let residual = observed_w - self.base.model.predict(&f);
        self.rls.update(&f, residual);
    }

    /// Record a prediction error without training the corrector (the
    /// open-loop report still wants the online MAPE).
    pub fn record_error_only(&mut self, job: &Job, observed_w: f64) {
        if observed_w <= 0.0 {
            return;
        }
        let err = (self.predict(job) - observed_w).abs() / observed_w;
        self.abs_pct_err_sum += err;
        self.observed += 1;
    }

    /// Online MAPE (%) over the observations so far.
    pub fn online_mape(&self) -> f64 {
        100.0 * self.abs_pct_err_sum / self.observed.max(1) as f64
    }

    /// Number of observations recorded.
    pub fn observations(&self) -> u64 {
        self.observed
    }

    /// Residual-corrector updates absorbed.
    pub fn updates(&self) -> u64 {
        self.rls.updates()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{WorkloadConfig, WorkloadGenerator};
    use davide_predictor::{KnnRegressor, RidgeRegression};

    fn history_and_test() -> (Vec<Job>, Vec<Job>) {
        let cfg = WorkloadConfig::default();
        let mut gen = WorkloadGenerator::new(cfg, 77);
        let all = gen.trace(3000);
        let (train, test) = all.split_at(2500);
        (train.to_vec(), test.to_vec())
    }

    #[test]
    fn ridge_reaches_single_digit_mape() {
        let (train, test) = history_and_test();
        let p = PowerPredictor::train(RidgeRegression::new(1.0), &train, 24);
        let mape = p.mape_on(&test);
        // [17] reports ~10 % on production traces; user/app regularity in
        // the generator should land the ridge model well under that.
        assert!(mape < 10.0, "ridge MAPE {mape}%");
    }

    #[test]
    fn knn_also_works() {
        let (train, test) = history_and_test();
        let p = PowerPredictor::train(KnnRegressor::new(7), &train, 24);
        let mape = p.mape_on(&test);
        assert!(mape < 12.0, "knn MAPE {mape}%");
    }

    #[test]
    fn every_model_kind_trains_via_factory() {
        let (train, test) = history_and_test();
        for kind in ModelKind::ALL {
            let p = PowerPredictor::from_kind(kind, &train, 24);
            assert_eq!(p.model_name(), kind.name());
            let mape = p.mape_on(&test);
            assert!(mape < 25.0, "{} MAPE {mape}%", kind.name());
        }
    }

    #[test]
    fn annotate_overwrites_predictions() {
        let (train, mut test) = history_and_test();
        let p = PowerPredictor::train(RidgeRegression::new(1.0), &train, 24);
        for j in &mut test {
            j.predicted_power_w = -1.0;
        }
        p.annotate(&mut test);
        for j in &test {
            assert!((300.0..=2300.0).contains(&j.predicted_power_w));
        }
    }

    #[test]
    fn predictions_clamped_to_envelope() {
        let (train, _) = history_and_test();
        let p = PowerPredictor::train(RidgeRegression::new(1.0), &train, 24);
        let mut weird = train[0].clone();
        weird.walltime_req_s = 1e9;
        let pred = p.predict(&weird);
        assert!((300.0..=2300.0).contains(&pred));
    }

    #[test]
    fn online_corrector_learns_systematic_bias() {
        let (train, test) = history_and_test();
        let base = PowerPredictor::train(RidgeRegression::new(1.0), &train, 24);
        let mut online = OnlinePowerPredictor::new(base, 0.995, 1000.0);
        // Plant drifts +150 W above what the base model learned.
        let bias = 150.0;
        let before: f64 = test[..50]
            .iter()
            .map(|j| (online.predict(j) - (j.true_power_w + bias)).abs())
            .sum::<f64>()
            / 50.0;
        for j in &test[..400] {
            online.observe(j, j.true_power_w + bias);
        }
        let after: f64 = test[400..450]
            .iter()
            .map(|j| (online.predict(j) - (j.true_power_w + bias)).abs())
            .sum::<f64>()
            / 50.0;
        assert!(
            after < before / 2.0,
            "corrector must absorb the bias: {before:.1} W → {after:.1} W"
        );
        assert_eq!(online.updates(), 400);
        assert!(online.online_mape() > 0.0);
    }
}
