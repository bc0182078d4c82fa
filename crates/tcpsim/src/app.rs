//! Application traffic models.
//!
//! The paper uses iperf — an unlimited greedy source. [`AppSource`] also
//! provides bounded transfers (for flow-completion experiments).

/// What the application above a TCP sender does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AppSource {
    /// Always has data (iperf / bulk transfer).
    Unlimited,
    /// Send exactly this many bytes, then stop.
    Fixed(u64),
}
