//! Feature extraction from job-submission metadata.
//!
//! §III-A2 / \[17\]\[18\]: "job power consumption can be estimated before job
//! execution, based on user's request and at job submission information".
//! The features available at submission time are: who submits, which
//! application, the requested geometry (nodes, GPUs, cores) and walltime,
//! and when it was submitted.

use serde::{Deserialize, Serialize};

/// Submission-time job description (everything the predictor may see).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct JobDescriptor {
    /// Submitting user.
    pub user_id: u32,
    /// Application index (e.g. `AppKind as u8`).
    pub app_id: u32,
    /// Nodes requested.
    pub nodes: u32,
    /// GPUs per node requested.
    pub gpus_per_node: u32,
    /// Cores per socket requested.
    pub cores_per_socket: u32,
    /// Requested walltime, seconds.
    pub walltime_s: f64,
    /// Submission hour of day (0–24).
    pub submit_hour: f64,
}

/// One-hot + numeric feature encoder with fixed vocabulary sizes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FeatureEncoder {
    /// Number of distinct users one-hot encoded (ids ≥ n_users share a
    /// catch-all slot).
    pub n_users: usize,
    /// Number of distinct applications.
    pub n_apps: usize,
}

impl FeatureEncoder {
    /// Encoder for a site with `n_users` users and `n_apps` applications.
    pub fn new(n_users: usize, n_apps: usize) -> Self {
        assert!(n_users >= 1 && n_apps >= 1);
        FeatureEncoder { n_users, n_apps }
    }

    /// Length of the produced feature vector.
    pub fn dim(&self) -> usize {
        // users + apps + [bias, nodes, gpus, cores, log-walltime, hour-sin, hour-cos]
        self.n_users + 1 + self.n_apps + 1 + 7
    }

    /// Encode a job into a feature vector.
    pub fn encode(&self, job: &JobDescriptor) -> Vec<f64> {
        let mut v = vec![0.0; self.dim()];
        let user_slot = (job.user_id as usize).min(self.n_users);
        v[user_slot] = 1.0;
        let app_slot = self.n_users + 1 + (job.app_id as usize).min(self.n_apps);
        v[app_slot] = 1.0;
        let base = self.n_users + 1 + self.n_apps + 1;
        v[base] = 1.0; // bias
        v[base + 1] = job.nodes as f64 / 45.0;
        v[base + 2] = job.gpus_per_node as f64 / 4.0;
        v[base + 3] = job.cores_per_socket as f64 / 8.0;
        v[base + 4] = (job.walltime_s.max(1.0)).ln() / 12.0;
        let theta = 2.0 * std::f64::consts::PI * job.submit_hour / 24.0;
        v[base + 5] = theta.sin();
        v[base + 6] = theta.cos();
        v
    }

    /// Encode a whole batch into a row-major design matrix.
    pub fn encode_batch(&self, jobs: &[JobDescriptor]) -> Vec<f64> {
        let mut x = Vec::with_capacity(jobs.len() * self.dim());
        for j in jobs {
            x.extend(self.encode(j));
        }
        x
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job() -> JobDescriptor {
        JobDescriptor {
            user_id: 3,
            app_id: 1,
            nodes: 9,
            gpus_per_node: 4,
            cores_per_socket: 8,
            walltime_s: 3600.0,
            submit_hour: 14.5,
        }
    }

    #[test]
    fn dimension_is_consistent() {
        let enc = FeatureEncoder::new(10, 4);
        assert_eq!(enc.encode(&job()).len(), enc.dim());
        assert_eq!(enc.dim(), 10 + 1 + 4 + 1 + 7);
    }

    #[test]
    fn one_hot_slots() {
        let enc = FeatureEncoder::new(10, 4);
        let v = enc.encode(&job());
        assert_eq!(v[3], 1.0, "user 3 one-hot");
        assert_eq!(v.iter().take(11).sum::<f64>(), 1.0, "single user slot");
        assert_eq!(v[11 + 1], 1.0, "app 1 one-hot");
    }

    #[test]
    fn unknown_user_hits_catchall() {
        let enc = FeatureEncoder::new(5, 4);
        let mut j = job();
        j.user_id = 999;
        let v = enc.encode(&j);
        assert_eq!(v[5], 1.0, "catch-all slot");
    }

    #[test]
    fn numeric_features_scaled() {
        let enc = FeatureEncoder::new(5, 4);
        let v = enc.encode(&job());
        let base = 5 + 1 + 4 + 1;
        assert_eq!(v[base], 1.0, "bias");
        assert!((v[base + 1] - 0.2).abs() < 1e-12, "9/45 nodes");
        assert_eq!(v[base + 2], 1.0, "4/4 gpus");
        // Hour encoding is on the unit circle.
        let (s, c) = (v[base + 5], v[base + 6]);
        assert!((s * s + c * c - 1.0).abs() < 1e-12);
    }

    #[test]
    fn batch_is_concatenation() {
        let enc = FeatureEncoder::new(5, 4);
        let jobs = vec![job(), job()];
        let x = enc.encode_batch(&jobs);
        assert_eq!(x.len(), 2 * enc.dim());
        assert_eq!(&x[..enc.dim()], &x[enc.dim()..]);
    }
}
