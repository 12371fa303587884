//! MQTT topic names and subscription filters (MQTT 3.1.1 §4.7).
//!
//! Topic names are `/`-separated level strings; filters may use the `+`
//! single-level and `#` multi-level wildcards. Topics starting with `$`
//! (broker-internal, e.g. `$SYS/...`) are not matched by filters whose
//! first level is a wildcard.

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
    fn obs_metric_topics_are_single_level_safe() {
        // Sanitised metric names must form exactly one topic level:
        // wildcards and separators are not valid in a topic name, and a
        // `+` at the metric position must not be publishable.
        assert!(validate_topic("davide/obs/self/mqtt_published_total").is_ok());
        assert!(validate_topic("davide/obs/self/metric+name").is_err());
        assert!(validate_topic("davide/obs/self/metric#name").is_err());
    }
}
