//! MQTT topic names and subscription filters (MQTT 3.1.1 §4.7).
//!
//! Topic names are `/`-separated level strings; filters may use the `+`
//! single-level and `#` multi-level wildcards. Topics starting with `$`
//! (broker-internal, e.g. `$SYS/...`) are not matched by filters whose
//! first level is a wildcard.

use davide_obs::Fnv1a;
use std::fmt;

/// Errors from topic/filter validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopicError {
    /// Empty topic or filter string.
    Empty,
    /// A topic name contained a wildcard character.
    WildcardInTopic,
    /// `#` appeared somewhere other than the final level, or was mixed
    /// into a level with other characters.
    BadMultiLevelWildcard,
    /// `+` was mixed into a level with other characters.
    BadSingleLevelWildcard,
    /// Embedded NUL character.
    NulCharacter,
}

impl fmt::Display for TopicError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopicError::Empty => write!(f, "topic must not be empty"),
            TopicError::WildcardInTopic => write!(f, "topic names must not contain wildcards"),
            TopicError::BadMultiLevelWildcard => {
                write!(f, "'#' must be the entire final level of a filter")
            }
            TopicError::BadSingleLevelWildcard => {
                write!(f, "'+' must occupy an entire filter level")
            }
            TopicError::NulCharacter => write!(f, "topic must not contain NUL"),
        }
    }
}

impl std::error::Error for TopicError {}

/// Validate a topic *name* (used when publishing).
pub fn validate_topic(topic: &str) -> Result<(), TopicError> {
    if topic.is_empty() {
        return Err(TopicError::Empty);
    }
    if topic.contains('\0') {
        return Err(TopicError::NulCharacter);
    }
    if topic.contains('+') || topic.contains('#') {
        return Err(TopicError::WildcardInTopic);
    }
    Ok(())
}

/// Validate a subscription *filter*.
pub fn validate_filter(filter: &str) -> Result<(), TopicError> {
    if filter.is_empty() {
        return Err(TopicError::Empty);
    }
    if filter.contains('\0') {
        return Err(TopicError::NulCharacter);
    }
    let levels: Vec<&str> = filter.split('/').collect();
    for (i, level) in levels.iter().enumerate() {
        if level.contains('#') && (*level != "#" || i != levels.len() - 1) {
            return Err(TopicError::BadMultiLevelWildcard);
        }
        if level.contains('+') && *level != "+" {
            return Err(TopicError::BadSingleLevelWildcard);
        }
    }
    Ok(())
}

/// Does `filter` match `topic`? Both must already be valid.
///
/// ```
/// use davide_mqtt::topic::filter_matches;
/// assert!(filter_matches("node/+/power", "node/17/power"));
/// assert!(filter_matches("node/#", "node/17/power/cpu0"));
/// assert!(!filter_matches("node/+/power", "node/17/temp"));
/// ```
pub fn filter_matches(filter: &str, topic: &str) -> bool {
    // $-prefixed topics are invisible to leading wildcards.
    if topic.starts_with('$') && (filter.starts_with('+') || filter.starts_with('#')) {
        return false;
    }
    let mut f = filter.split('/');
    let mut t = topic.split('/');
    loop {
        match (f.next(), t.next()) {
            (Some("#"), _) => return true,
            (Some("+"), Some(_)) => {}
            (Some(fl), Some(tl)) if fl == tl => {}
            (None, None) => return true,
            // "sport/tennis/#" also matches "sport/tennis".
            _ => {
                return false;
            }
        }
    }
}

/// Split a topic into its levels.
pub fn levels(topic: &str) -> impl Iterator<Item = &str> {
    topic.split('/')
}

/// The set of broker shards a subscription filter must be registered on.
///
/// A filter whose first two levels are literal maps to exactly one shard
/// (the shard its matching topics hash to); any wildcard in the first two
/// levels forces registration on every shard, because matching topics can
/// hash anywhere.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardSet {
    /// Register on every shard.
    All,
    /// Register on exactly this shard index.
    One(usize),
}

impl ShardSet {
    /// Does this set contain shard `idx`?
    pub fn contains(&self, idx: usize) -> bool {
        match self {
            ShardSet::All => true,
            ShardSet::One(i) => *i == idx,
        }
    }

    /// Iterate the shard indices in this set, in ascending order.
    pub fn iter(&self, shard_count: usize) -> impl Iterator<Item = usize> {
        let (start, end) = match self {
            ShardSet::All => (0, shard_count),
            ShardSet::One(i) => (*i, *i + 1),
        };
        start..end
    }
}

/// FNV-1a over the shard key of a topic: its first two levels joined by a
/// NUL byte (topics cannot contain NUL, so the key is unambiguous). A
/// single-level topic hashes just that level.
///
/// Two levels — not one — because every telemetry topic in this system
/// starts with the same site prefix (`davide/...`); hashing only the first
/// level would put the entire cluster in one shard. The second level is the
/// node/gateway name, which is exactly the axis concurrent publishers are
/// disjoint on.
fn shard_hash(topic: &str) -> u64 {
    let mut h = Fnv1a::new();
    let mut iter = topic.split('/');
    h.write(iter.next().unwrap_or("").as_bytes());
    if let Some(l1) = iter.next() {
        // A NUL separator byte, so `ab` and `a/b` cannot collide by
        // construction.
        h.write(&[0]);
        h.write(l1.as_bytes());
    }
    h.finish()
}

/// Which shard (of `shard_count`) does `topic` belong to?
pub fn shard_of_topic(topic: &str, shard_count: usize) -> usize {
    debug_assert!(shard_count > 0);
    (shard_hash(topic) % shard_count as u64) as usize
}

/// Which shards must `filter` be registered on so every topic it can match
/// is covered? Guarantee: for any valid topic `t` and filter `f`, if
/// `filter_matches(f, t)` then `filter_shards(f, n).contains(shard_of_topic(t, n))`.
pub fn filter_shards(filter: &str, shard_count: usize) -> ShardSet {
    debug_assert!(shard_count > 0);
    if shard_count == 1 {
        return ShardSet::One(0);
    }
    let mut iter = filter.split('/');
    let l0 = iter.next().unwrap_or("");
    if l0 == "+" || l0 == "#" {
        return ShardSet::All;
    }
    match iter.next() {
        // Single-level filter: matches only the single-level topic `l0`.
        None => ShardSet::One(shard_of_topic(l0, shard_count)),
        Some("#") | Some("+") => {
            // `a/#` also matches the single-level topic `a`, which hashes
            // differently from `a/<x>` — so a second-level wildcard spans
            // every shard.
            ShardSet::All
        }
        Some(_) => {
            // First two levels literal: every matching topic starts with
            // them, so all matching topics share one shard. Hash the
            // filter's own two-level prefix — identical to the topics'.
            ShardSet::One(shard_of_topic(filter, shard_count))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn topic_validation() {
        assert!(validate_topic("node/17/power").is_ok());
        assert!(
            validate_topic("/leading/slash").is_ok(),
            "empty level legal"
        );
        assert_eq!(validate_topic(""), Err(TopicError::Empty));
        assert_eq!(validate_topic("a/+/b"), Err(TopicError::WildcardInTopic));
        assert_eq!(validate_topic("a/#"), Err(TopicError::WildcardInTopic));
        assert_eq!(validate_topic("a\0b"), Err(TopicError::NulCharacter));
    }

    #[test]
    fn filter_validation() {
        assert!(validate_filter("node/+/power").is_ok());
        assert!(validate_filter("#").is_ok());
        assert!(validate_filter("node/#").is_ok());
        assert!(validate_filter("+/+/+").is_ok());
        assert_eq!(validate_filter(""), Err(TopicError::Empty));
        assert_eq!(
            validate_filter("node/#/power"),
            Err(TopicError::BadMultiLevelWildcard)
        );
        assert_eq!(
            validate_filter("node/x#"),
            Err(TopicError::BadMultiLevelWildcard)
        );
        assert_eq!(
            validate_filter("node/x+/power"),
            Err(TopicError::BadSingleLevelWildcard)
        );
    }

    #[test]
    fn exact_matching() {
        assert!(filter_matches("a/b/c", "a/b/c"));
        assert!(!filter_matches("a/b/c", "a/b"));
        assert!(!filter_matches("a/b", "a/b/c"));
        assert!(!filter_matches("a/b/c", "a/b/d"));
    }

    #[test]
    fn single_level_wildcard() {
        assert!(filter_matches("a/+/c", "a/b/c"));
        assert!(filter_matches("+/+/+", "a/b/c"));
        assert!(!filter_matches("a/+", "a/b/c"));
        assert!(filter_matches("a/+", "a/"));
        assert!(!filter_matches("+", "a/b"));
    }

    #[test]
    fn multi_level_wildcard() {
        assert!(filter_matches("#", "a"));
        assert!(filter_matches("#", "a/b/c/d"));
        assert!(filter_matches("a/#", "a/b/c"));
        assert!(filter_matches("a/b/#", "a/b"), "parent matches per spec");
        assert!(!filter_matches("a/#", "b/c"));
        assert!(filter_matches("a/+/#", "a/x/y/z"));
    }

    #[test]
    fn dollar_topics_hidden_from_leading_wildcards() {
        assert!(!filter_matches("#", "$SYS/broker/load"));
        assert!(!filter_matches("+/broker/load", "$SYS/broker/load"));
        assert!(filter_matches("$SYS/#", "$SYS/broker/load"));
        assert!(filter_matches("$SYS/broker/load", "$SYS/broker/load"));
    }

    #[test]
    fn davide_telemetry_topics() {
        // The EG publishes per-node, per-channel topics like these.
        let t = "davide/node03/power/gpu1";
        assert!(validate_topic(t).is_ok());
        assert!(filter_matches("davide/+/power/#", t));
        assert!(filter_matches("davide/node03/#", t));
        assert!(!filter_matches("davide/+/temp/#", t));
    }

    #[test]
    fn obs_namespace_is_isolated_from_application_filters() {
        // Self-telemetry lives at davide/obs/self/<metric>: the third
        // level is the literal `self`, never `power`, so the standard
        // application subscriptions cannot match it.
        let obs = "davide/obs/self/ingest_frames_total";
        assert!(validate_topic(obs).is_ok());
        for app_filter in [
            "davide/+/power/#",    // telemetry aggregators
            "davide/+/power/node", // the control plane's node feed
            "davide/node00/#",     // a per-node profiler
            "davide/+/ctl/speed",  // DVFS command watchers
            "davide/+/job/#",      // per-job accounting
        ] {
            assert!(
                !filter_matches(app_filter, obs),
                "{app_filter} must not see {obs}"
            );
        }
        // The reserved filter sees the whole namespace, and nothing but.
        assert!(filter_matches("davide/obs/#", obs));
        assert!(filter_matches("davide/obs/self/+", obs));
        assert!(!filter_matches("davide/obs/#", "davide/node00/power/node"));
        // A cluster-wide `davide/#` firehose does see obs traffic —
        // that is intentional (it asked for everything).
        assert!(filter_matches("davide/#", obs));
    }

    #[test]
    fn shard_of_topic_is_stable_and_in_range() {
        for n in [1usize, 2, 4, 8, 16] {
            for t in [
                "davide/node03/power/gpu1",
                "davide/node03/temp/cpu0",
                "davide/gw07/power/node",
                "a",
                "/leading",
                "$SYS/broker/load",
            ] {
                let s = shard_of_topic(t, n);
                assert!(s < n, "{t} -> {s} out of range for {n}");
                assert_eq!(s, shard_of_topic(t, n), "must be deterministic");
            }
        }
        // Topics sharing a two-level prefix land on the same shard.
        assert_eq!(
            shard_of_topic("davide/node03/power/gpu1", 8),
            shard_of_topic("davide/node03/temp/cpu0", 8)
        );
    }

    #[test]
    fn filter_shards_covers_matching_topics() {
        let topics = [
            "davide/node03/power/gpu1",
            "davide/node04/power/gpu1",
            "davide/node03",
            "davide",
            "a/b/c",
            "a/b",
            "a",
            "/x",
            "$SYS/broker/load",
        ];
        let filters = [
            "#",
            "+/+",
            "davide/#",
            "davide/+/power/#",
            "davide/node03/#",
            "davide/node03/power/+",
            "davide/node03/power/gpu1",
            "a/b/c",
            "a/+",
            "a",
            "$SYS/#",
        ];
        for n in [1usize, 2, 3, 8] {
            for f in filters {
                let set = filter_shards(f, n);
                for t in topics {
                    if filter_matches(f, t) {
                        assert!(
                            set.contains(shard_of_topic(t, n)),
                            "filter {f} matches {t} but shard set {set:?} \
                             misses its shard (n={n})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn two_level_literal_filters_pin_one_shard() {
        // The common case — per-node filters — must not fan out to every
        // shard, or sharding buys nothing.
        assert!(matches!(
            filter_shards("davide/node03/#", 8),
            ShardSet::One(_)
        ));
        assert!(matches!(
            filter_shards("davide/node03/power/+", 8),
            ShardSet::One(_)
        ));
        assert_eq!(filter_shards("davide/+/power/#", 8), ShardSet::All);
        assert_eq!(filter_shards("#", 8), ShardSet::All);
        assert_eq!(filter_shards("davide/#", 8), ShardSet::All);
        // Single shard degenerates to One(0) for everything.
        assert_eq!(filter_shards("#", 1), ShardSet::One(0));
    }

    #[test]
    fn obs_metric_topics_are_single_level_safe() {
        // Sanitised metric names must form exactly one topic level:
        // wildcards and separators are not valid in a topic name, and a
        // `+` at the metric position must not be publishable.
        assert!(validate_topic("davide/obs/self/mqtt_published_total").is_ok());
        assert!(validate_topic("davide/obs/self/metric+name").is_err());
        assert!(validate_topic("davide/obs/self/metric#name").is_err());
    }
}
