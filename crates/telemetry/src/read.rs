//! The unified read-path surface: one trait, every store.
//!
//! Before this module, each store grew its own ad-hoc accessor shapes —
//! [`TsDb`] answers by interned id (`last_id`, `mean_id_with_coverage`,
//! `query_range_id`), [`ShardedTsDb`](crate::ShardedTsDb) grew
//! name-keyed one-offs (`query`, `query_range`, `mean`, `energy_j`),
//! and none of them agreed on whether a caller gets provenance back.
//! [`SeriesRead`] redesigns that into a single name-keyed, versionable
//! contract that `davide-api`'s `QueryService` (and any in-repo report
//! code) can be generic over:
//!
//! * every range/aggregate answer carries its [`QueryCoverage`], so a
//!   serving layer can always tell complete history from truncated;
//! * multi-series answers ([`SeriesRead::series_range_filter`]) merge
//!   coverage with [`QueryCoverage::merge`] — per-tier counts add and
//!   the `evicted` truncation flag is sticky across series *and
//!   shards*, so one evicted shard taints the merged answer instead of
//!   being masked by whichever shard answered last;
//! * [`SeriesRead::series_watermark`] exposes the per-series ingest
//!   watermark (total points absorbed) that caches key invalidation on.
//!
//! The id-keyed [`TsDb`] methods remain the allocation-free ingest/hot
//! path; this trait is the *serving* path, where a string lookup per
//! request is noise against cache and socket costs.

use crate::storage::{QueryCoverage, RangeQuery, TierStats};
use crate::tsdb::{Point, Resolution, TsDb};
use davide_mqtt::topic::filter_matches;

/// A multi-series range answer: per-series results plus the coverage
/// merged across all of them ([`QueryCoverage::merge`] semantics).
#[derive(Debug, Clone, Default)]
pub struct FilterRangeQuery {
    /// Matching series in sorted name order, each with its own points
    /// and per-series coverage.
    pub series: Vec<(String, RangeQuery)>,
    /// Coverage folded over every matching series: tier counts summed,
    /// `evicted` true if *any* contributor lost requested history.
    pub coverage: QueryCoverage,
}

/// The one read-path contract over telemetry stores.
///
/// Implemented by [`TsDb`] and [`ShardedTsDb`](crate::ShardedTsDb);
/// `davide-api`'s `QueryService` is generic over it, so the serving
/// layer neither knows nor cares whether the store is sharded. All
/// methods are name-keyed and total: unknown series answer empty (zero
/// count, `None` latest, empty ranges) rather than erroring, matching
/// what a remote caller can distinguish anyway.
pub trait SeriesRead {
    /// Known series names, sorted.
    fn series_names(&self) -> Vec<String>;

    /// Total observations absorbed by a series — monotonic, never
    /// reduced by eviction, so it doubles as the ingest watermark that
    /// rollup caches validate against.
    fn series_watermark(&self, key: &str) -> u64;

    /// Latest raw observation, if any (the staleness probe).
    fn series_last(&self, key: &str) -> Option<Point>;

    /// Range query with provenance over `[t0, t1)` at a resolution.
    fn series_range(&self, key: &str, res: Resolution, t0: f64, t1: f64) -> RangeQuery;

    /// Mean over a window at a resolution, with the provenance of the
    /// points that made it.
    fn series_mean(
        &self,
        key: &str,
        res: Resolution,
        t0: f64,
        t1: f64,
    ) -> (Option<f64>, QueryCoverage);

    /// Energy (rectangle rule over raw spacing) over a window, with
    /// provenance — a true 0 J and an evicted-history 0 J differ.
    fn series_energy_j(&self, key: &str, t0: f64, t1: f64) -> (f64, QueryCoverage);

    /// Point-in-time tier occupancy for the whole store (all shards).
    fn store_tier_stats(&self) -> TierStats;

    /// Range query over every series matching an MQTT-style filter
    /// (`davide/+/power/#`), in sorted name order, with coverage merged
    /// across all matches per [`QueryCoverage::merge`].
    fn series_range_filter(
        &self,
        filter: &str,
        res: Resolution,
        t0: f64,
        t1: f64,
    ) -> FilterRangeQuery {
        let mut out = FilterRangeQuery::default();
        for name in self.series_names() {
            if filter_matches(filter, &name) {
                let rq = self.series_range(&name, res, t0, t1);
                out.coverage.merge(&rq.coverage);
                out.series.push((name, rq));
            }
        }
        out
    }
}

impl SeriesRead for TsDb {
    fn series_names(&self) -> Vec<String> {
        self.keys()
    }

    fn series_watermark(&self, key: &str) -> u64 {
        self.lookup(key).map_or(0, |id| self.count_id(id))
    }

    fn series_last(&self, key: &str) -> Option<Point> {
        self.last_id(self.lookup(key)?)
    }

    fn series_range(&self, key: &str, res: Resolution, t0: f64, t1: f64) -> RangeQuery {
        match self.lookup(key) {
            Some(id) => self.query_range_id(id, res, t0, t1),
            None => RangeQuery::default(),
        }
    }

    fn series_mean(
        &self,
        key: &str,
        res: Resolution,
        t0: f64,
        t1: f64,
    ) -> (Option<f64>, QueryCoverage) {
        match self.lookup(key) {
            Some(id) => self.mean_id_with_coverage(id, res, t0, t1),
            None => (None, QueryCoverage::default()),
        }
    }

    fn series_energy_j(&self, key: &str, t0: f64, t1: f64) -> (f64, QueryCoverage) {
        match self.lookup(key) {
            Some(id) => self.energy_j_id_with_coverage(id, t0, t1),
            None => (0.0, QueryCoverage::default()),
        }
    }

    fn store_tier_stats(&self) -> TierStats {
        self.tier_stats()
    }
}

impl SeriesRead for crate::ingest::ShardedTsDb {
    fn series_names(&self) -> Vec<String> {
        self.keys()
    }

    fn series_watermark(&self, key: &str) -> u64 {
        self.owning_shard(key).series_watermark(key)
    }

    fn series_last(&self, key: &str) -> Option<Point> {
        self.owning_shard(key).series_last(key)
    }

    fn series_range(&self, key: &str, res: Resolution, t0: f64, t1: f64) -> RangeQuery {
        self.owning_shard(key).series_range(key, res, t0, t1)
    }

    fn series_mean(
        &self,
        key: &str,
        res: Resolution,
        t0: f64,
        t1: f64,
    ) -> (Option<f64>, QueryCoverage) {
        self.owning_shard(key).series_mean(key, res, t0, t1)
    }

    fn series_energy_j(&self, key: &str, t0: f64, t1: f64) -> (f64, QueryCoverage) {
        self.owning_shard(key).series_energy_j(key, t0, t1)
    }

    fn store_tier_stats(&self) -> TierStats {
        self.tier_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ingest::ShardedTsDb;
    use crate::storage::TieringConfig;
    use crate::tsdb::TsDbConfig;

    fn fill(db: &mut TsDb, key: &str, n: usize) {
        let id = db.resolve(key);
        for i in 0..n {
            db.append_id(id, i as f64, 100.0 + i as f64);
        }
    }

    #[test]
    fn coverage_merge_sums_and_sticks() {
        let mut a = QueryCoverage {
            hot: 3,
            compressed: 1,
            disk: 0,
            evicted: false,
        };
        let b = QueryCoverage {
            hot: 2,
            compressed: 0,
            disk: 5,
            evicted: true,
        };
        a.merge(&b);
        assert_eq!(a.hot, 5);
        assert_eq!(a.compressed, 1);
        assert_eq!(a.disk, 5);
        assert!(a.evicted, "evicted is sticky");
        // Merging a clean coverage cannot clear the flag.
        a.merge(&QueryCoverage::default());
        assert!(a.evicted);
        assert_eq!(a.total(), 11);
    }

    #[test]
    fn tsdb_trait_answers_match_id_path() {
        let mut db = TsDb::new();
        fill(&mut db, "node00/power/node", 100);
        let id = db.lookup("node00/power/node").unwrap();

        assert_eq!(db.series_names(), db.keys());
        assert_eq!(db.series_watermark("node00/power/node"), db.count_id(id));
        assert_eq!(db.series_last("node00/power/node"), db.last_id(id));
        let rq = db.series_range("node00/power/node", Resolution::Raw, 10.0, 20.0);
        let direct = db.query_range_id(id, Resolution::Raw, 10.0, 20.0);
        assert_eq!(rq.points, direct.points);
        assert_eq!(rq.coverage, direct.coverage);
        assert_eq!(
            db.series_mean("node00/power/node", Resolution::Raw, 0.0, 1e9),
            db.mean_id_with_coverage(id, Resolution::Raw, 0.0, 1e9)
        );
        assert_eq!(
            db.series_energy_j("node00/power/node", 0.0, 1e9),
            db.energy_j_id_with_coverage(id, 0.0, 1e9)
        );
    }

    #[test]
    fn unknown_series_answer_empty() {
        let db = TsDb::new();
        assert_eq!(db.series_watermark("missing"), 0);
        assert_eq!(db.series_last("missing"), None);
        let rq = db.series_range("missing", Resolution::Raw, 0.0, 1e9);
        assert!(rq.points.is_empty());
        assert!(rq.coverage.is_complete());
        assert_eq!(db.series_mean("missing", Resolution::Raw, 0.0, 1e9).0, None);
        assert_eq!(db.series_energy_j("missing", 0.0, 1e9).0, 0.0);
    }

    #[test]
    fn energy_coverage_flags_evicted_history() {
        let mut db = TsDb::with_capacity(8);
        fill(&mut db, "s", 20); // points 0..12 evicted
        let (e_all, cov_all) = db.series_energy_j("s", 0.0, 1e9);
        assert!(e_all > 0.0);
        assert!(cov_all.evicted, "window reaches into lost history");
        let (_, cov_tail) = db.series_energy_j("s", 12.0, 1e9);
        assert!(
            cov_tail.is_complete(),
            "window entirely inside retained history"
        );
    }

    #[test]
    fn filter_query_merges_coverage_across_series() {
        let mut db = TsDb::with_capacity(8);
        fill(&mut db, "davide/node00/power/node", 20); // overflows: evicted
        fill(&mut db, "davide/node01/power/node", 4); // fits: complete
        let all = db.series_range_filter("davide/+/power/#", Resolution::Raw, 0.0, 1e9);
        assert_eq!(all.series.len(), 2);
        assert!(all.coverage.evicted, "one truncated series taints merge");
        assert_eq!(all.coverage.total(), 8 + 4);
        // Per-series coverage is preserved alongside the merge.
        let by_name: std::collections::HashMap<_, _> = all
            .series
            .iter()
            .map(|(k, rq)| (k.as_str(), rq.coverage))
            .collect();
        assert!(by_name["davide/node00/power/node"].evicted);
        assert!(by_name["davide/node01/power/node"].is_complete());
        let none = db.series_range_filter("other/#", Resolution::Raw, 0.0, 1e9);
        assert!(none.series.is_empty());
        assert!(none.coverage.is_complete());
    }

    /// The satellite fix: a sharded store must merge per-shard coverage
    /// flags instead of reporting whichever shard answered. Two series
    /// land in different shards; only one overflows its ring. The
    /// merged filter answer must carry the evicted bit even though the
    /// other shard (and the shard answering "last" in sorted order) is
    /// complete.
    #[test]
    fn sharded_filter_merges_eviction_across_shards() {
        let mut db = ShardedTsDb::new(4, 8, 100);
        // Find two keys that land in different shards.
        let keys: Vec<String> = (0..32)
            .map(|i| format!("davide/node{i:02}/power/node"))
            .collect();
        let a = keys[0].clone();
        let b = keys
            .iter()
            .find(|k| db.shard_of(k) != db.shard_of(&a))
            .expect("32 keys over 4 shards must span at least two")
            .clone();
        // Overflow only `a`'s ring (capacity 8).
        for i in 0..20 {
            db.append_frame(&a, i as f64, 0.0, &[1000.0]);
        }
        for i in 0..4 {
            db.append_frame(&b, i as f64, 0.0, &[500.0]);
        }
        assert!(
            !db.series_range(&b, Resolution::Raw, 0.0, 1e9)
                .coverage
                .evicted
        );
        assert!(
            db.series_range(&a, Resolution::Raw, 0.0, 1e9)
                .coverage
                .evicted
        );
        let merged = db.series_range_filter("davide/+/power/#", Resolution::Raw, 0.0, 1e9);
        assert_eq!(merged.series.len(), 2);
        assert!(
            merged.coverage.evicted,
            "evicted shard must taint the merged coverage"
        );
        assert_eq!(merged.coverage.total(), 8 + 4);
        // Sorted order puts the complete series (`b` may sort either
        // side of `a`) somewhere in the answer; the merge must not
        // depend on which answered last.
        let mut rev = merged.series.clone();
        rev.reverse();
        let mut cov = QueryCoverage::default();
        for (_, rq) in &rev {
            cov.merge(&rq.coverage);
        }
        assert!(cov.evicted);
    }

    #[test]
    fn sharded_trait_matches_flat_store() {
        let mut flat = TsDb::new();
        let mut sharded = ShardedTsDb::new(4, 100_000, 100_000);
        for node in 0..6 {
            let key = format!("davide/node{node:02}/power/node");
            for i in 0..50 {
                let t = i as f64;
                let v = 1000.0 + (node * 7 + i) as f64;
                let id = flat.resolve(&key);
                flat.append_id(id, t, v);
                sharded.append_frame(&key, t, 0.0, &[v as f32]);
            }
        }
        assert_eq!(flat.series_names(), sharded.series_names());
        for key in flat.series_names() {
            assert_eq!(flat.series_watermark(&key), sharded.series_watermark(&key));
            assert_eq!(flat.series_last(&key), sharded.series_last(&key));
            let (fr, sr) = (
                flat.series_range(&key, Resolution::Raw, 0.0, 1e9),
                sharded.series_range(&key, Resolution::Raw, 0.0, 1e9),
            );
            assert_eq!(fr.points, sr.points);
            assert_eq!(fr.coverage, sr.coverage);
            assert_eq!(
                flat.series_energy_j(&key, 0.0, 1e9),
                sharded.series_energy_j(&key, 0.0, 1e9)
            );
        }
    }

    #[test]
    fn tiered_store_reports_tier_stats_via_trait() {
        let mut db = TsDb::with_config(TsDbConfig {
            raw_capacity: 4096,
            tiering: Some(TieringConfig {
                seal_block: 256,
                hot_retain: Some(256),
                ..TieringConfig::default()
            }),
            ..TsDbConfig::default()
        })
        .unwrap();
        let id = db.resolve("s");
        for i in 0..2000 {
            db.append_id(id, i as f64 * 0.001, 1500.0);
        }
        db.compact();
        let st = db.store_tier_stats();
        assert!(st.sealed_points > 0, "compaction sealed blocks");
        assert_eq!(st, db.tier_stats());
    }
}
