//! A lightweight, levelled, in-memory event log.
//!
//! Protocol state machines are easiest to debug from a chronological trace
//! of decisions ("entered fast recovery", "RTO backoff x2", "queue drop").
//! [`EventLog`] collects such records with their simulated timestamps; it is
//! deliberately simple — a `Vec` with a level filter and an optional
//! capacity bound — because it runs inside a hot single-threaded loop.

use crate::time::SimTime;
use std::fmt;

/// Severity/verbosity of a log record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LogLevel {
    /// High-volume per-packet detail.
    Trace,
    /// Per-round-trip or per-window decisions.
    Debug,
    /// Rare, interesting events (loss episodes, state transitions).
    Info,
    /// Conditions that usually indicate a configuration problem.
    Warn,
}

impl fmt::Display for LogLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            LogLevel::Trace => "TRACE",
            LogLevel::Debug => "DEBUG",
            LogLevel::Info => "INFO",
            LogLevel::Warn => "WARN",
        };
        f.write_str(s)
    }
}

/// One timestamped log record.
#[derive(Debug, Clone)]
pub struct LogRecord {
    /// When the event occurred in simulated time.
    pub time: SimTime,
    /// Severity.
    pub level: LogLevel,
    /// Component that emitted the record (e.g. `"tcp.sender[2]"`).
    pub component: String,
    /// Human-readable message.
    pub message: String,
}

impl fmt::Display for LogRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{} {} {}] {}",
            self.time, self.level, self.component, self.message
        )
    }
}

/// An in-memory log with a minimum level and optional record cap.
#[derive(Debug, Clone)]
pub struct EventLog {
    records: Vec<LogRecord>,
    min_level: LogLevel,
    capacity: Option<usize>,
    dropped: u64,
}

impl Default for EventLog {
    fn default() -> Self {
        Self::new(LogLevel::Info)
    }
}

impl EventLog {
    /// Create a log keeping records at `min_level` and above.
    pub fn new(min_level: LogLevel) -> Self {
        EventLog {
            records: Vec::new(),
            min_level,
            capacity: None,
            dropped: 0,
        }
    }

    /// Bound the number of retained records; once full, **new** records are
    /// counted but discarded (the head of a run usually matters most when
    /// debugging convergence).
    pub fn with_capacity_limit(mut self, cap: usize) -> Self {
        self.capacity = Some(cap);
        self
    }

    /// The configured minimum level.
    pub fn min_level(&self) -> LogLevel {
        self.min_level
    }

    /// Would a record at `level` pass the filter? Callers on hot paths
    /// check this (or use [`EventLog::log_with`]) before building a message.
    pub fn enabled(&self, level: LogLevel) -> bool {
        level >= self.min_level
    }

    /// Record a message if it passes the level filter.
    pub fn log(
        &mut self,
        time: SimTime,
        level: LogLevel,
        component: &str,
        message: impl Into<String>,
    ) {
        self.log_with(time, level, component, || message.into());
    }

    /// Like [`EventLog::log`], but the message is only built if the record
    /// is kept: a filtered-out or over-capacity record never runs `message`,
    /// so a `format!` on a per-packet path costs nothing at the default level.
    pub fn log_with(
        &mut self,
        time: SimTime,
        level: LogLevel,
        component: &str,
        message: impl FnOnce() -> String,
    ) {
        if !self.enabled(level) {
            return;
        }
        if let Some(cap) = self.capacity {
            if self.records.len() >= cap {
                self.dropped += 1;
                return;
            }
        }
        self.records.push(LogRecord {
            time,
            level,
            component: component.to_string(),
            message: message(),
        });
    }

    /// All retained records in chronological (insertion) order.
    pub fn records(&self) -> &[LogRecord] {
        &self.records
    }

    /// Records from one component.
    pub fn for_component<'a>(
        &'a self,
        component: &'a str,
    ) -> impl Iterator<Item = &'a LogRecord> + 'a {
        self.records
            .iter()
            .filter(move |r| r.component == component)
    }

    /// Number of records discarded due to the capacity bound.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Forget everything (between experiment repetitions).
    pub fn clear(&mut self) {
        self.records.clear();
        self.dropped = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_filter_applies() {
        let mut log = EventLog::new(LogLevel::Info);
        log.log(SimTime::ZERO, LogLevel::Trace, "x", "hidden");
        log.log(SimTime::ZERO, LogLevel::Debug, "x", "hidden");
        log.log(SimTime::ZERO, LogLevel::Info, "x", "kept");
        log.log(SimTime::ZERO, LogLevel::Warn, "x", "kept");
        assert_eq!(log.records().len(), 2);
    }

    #[test]
    fn below_level_message_closure_is_never_invoked() {
        let mut log = EventLog::new(LogLevel::Warn);
        assert!(!log.enabled(LogLevel::Debug));
        assert!(log.enabled(LogLevel::Warn));
        log.log_with(SimTime::ZERO, LogLevel::Debug, "x", || {
            unreachable!("a filtered-out record must not build its message")
        });
        assert!(log.records().is_empty());
        log.log_with(SimTime::ZERO, LogLevel::Warn, "x", || "kept".to_string());
        assert_eq!(log.records().len(), 1);
        assert_eq!(log.records()[0].message, "kept");
    }

    #[test]
    fn capacity_limit_counts_drops() {
        let mut log = EventLog::new(LogLevel::Trace).with_capacity_limit(2);
        for i in 0..5 {
            log.log(SimTime::from_nanos(i), LogLevel::Info, "c", format!("m{i}"));
        }
        assert_eq!(log.records().len(), 2);
        assert_eq!(log.dropped(), 3);
        assert_eq!(log.records()[0].message, "m0");
    }

    #[test]
    fn component_filter() {
        let mut log = EventLog::new(LogLevel::Trace);
        log.log(SimTime::ZERO, LogLevel::Info, "a", "1");
        log.log(SimTime::ZERO, LogLevel::Info, "b", "2");
        log.log(SimTime::ZERO, LogLevel::Info, "a", "3");
        let msgs: Vec<_> = log.for_component("a").map(|r| r.message.as_str()).collect();
        assert_eq!(msgs, vec!["1", "3"]);
    }

    #[test]
    fn display_format_is_stable() {
        let rec = LogRecord {
            time: SimTime::from_millis(5),
            level: LogLevel::Warn,
            component: "tcp".into(),
            message: "rto backoff".into(),
        };
        assert_eq!(format!("{rec}"), "[5.000ms WARN tcp] rto backoff");
    }

    #[test]
    fn clear_resets() {
        let mut log = EventLog::default().with_capacity_limit(1);
        log.log(SimTime::ZERO, LogLevel::Info, "c", "a");
        log.log(SimTime::ZERO, LogLevel::Info, "c", "b");
        assert_eq!(log.dropped(), 1);
        log.clear();
        assert!(log.records().is_empty());
        assert_eq!(log.dropped(), 0);
    }
}
