//! Content-addressed persistence of scenario runs.
//!
//! A reproduction pipeline regenerates its tables many times — after a
//! docs change, in CI, on a reviewer's machine — and every regeneration
//! used to pay for every simulation again even though nothing upstream of
//! the result changed. [`RunStore`] closes that loop: each [`Scenario`] is
//! reduced to a canonical 64-bit [digest](Scenario::digest) over every
//! input that can influence its [`RunResult`] (topology, paths, algorithm,
//! seeds, fault schedule — the same "key pins every input" discipline as
//! [`lpsolve::LpCache`]), and finished results are persisted under that
//! digest. A warm store answers a repeat run without
//! simulating *or* solving the LP, and — because a run is a pure function
//! of its scenario — a hit is byte-identical to what a cold run would have
//! produced, trace hash included.
//!
//! The on-disk format is a hand-rolled binary codec (this repository
//! vendors no serialization framework): length-prefixed vectors,
//! big-endian integers, floats via `f64::to_bits` so no parsing or
//! rounding is involved in a round-trip. Every record embeds a format
//! version and its own digest; a mismatch of either is treated as a miss,
//! never as data.
//!
//! Activation is explicit: experiment binaries opt in via the
//! `OVERLAP_STORE` environment variable (a directory path), which
//! [`RunStore::from_env`] resolves. Library tests and the determinism
//! harness run storeless.

use crate::scenario::{RunResult, Scenario};
use lpsolve::{LinearProgram, LpCache, MaxThroughput, Sense};
use mptcpsim::{CcAlgo, SchedulerKind};
use netsim::{FaultAction, LinkId, QueueConfig};
use simbase::{Bandwidth, SimDuration, SimTime};
use simtrace::{ConvergenceReport, TimeSeries};
use std::collections::BTreeSet;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use tcpsim::{AppSource, SenderStats};

/// Version folded into every digest. Bump whenever the canonical encoding
/// below changes meaning, so digests from older encodings can never alias
/// new ones. v2: the engine, region-count and region-map fields are gone
/// from [`Scenario`] and from the encoding.
pub const DIGEST_VERSION: u32 = 2;

/// On-disk record format version. Bump on any codec change; records with
/// another version are ignored (a miss), not migrated.
pub const STORE_FORMAT: u32 = 1;

/// Magic prefix of every store record.
const MAGIC: &[u8; 4] = b"OVRS";

// ---------------------------------------------------------------------------
// Canonical scenario digest
// ---------------------------------------------------------------------------

/// FNV-1a, 64-bit: tiny, dependency-free, and stable across platforms and
/// Rust versions (unlike `DefaultHasher`, whose algorithm is unspecified).
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u8(&mut self, v: u8) {
        self.write(&[v]);
    }

    fn u32(&mut self, v: u32) {
        self.write(&v.to_be_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.write(&v.to_be_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }

    /// Length-prefixed so `("ab", "c")` and `("a", "bc")` cannot collide.
    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.write(s.as_bytes());
    }

    fn time(&mut self, t: SimTime) {
        self.u64(t.as_nanos());
    }

    fn dur(&mut self, d: SimDuration) {
        self.u64(d.as_nanos());
    }

    fn bw(&mut self, b: Bandwidth) {
        self.u64(b.as_bps());
    }

    fn queue(&mut self, q: &QueueConfig) {
        match q {
            QueueConfig::DropTailPackets(n) => {
                self.u8(0);
                self.u64(*n as u64);
            }
            QueueConfig::DropTailBytes(b) => {
                self.u8(1);
                self.u64(*b);
            }
            QueueConfig::Red(c) => {
                self.u8(2);
                self.u64(c.max_packets as u64);
                self.f64(c.min_thresh);
                self.f64(c.max_thresh);
                self.f64(c.max_p);
                self.f64(c.weight);
                self.bool(c.ecn_marking);
                self.dur(c.mean_pkt_time);
            }
            QueueConfig::CoDel(c) => {
                self.u8(3);
                self.u64(c.max_packets as u64);
                self.dur(c.target);
                self.dur(c.interval);
            }
        }
    }

    fn fault(&mut self, action: &FaultAction) {
        self.u32(action.link().0);
        match action {
            FaultAction::LinkDown(_) => self.u8(0),
            FaultAction::LinkUp(_) => self.u8(1),
            FaultAction::SetCapacity(_, bw) => {
                self.u8(2);
                self.bw(*bw);
            }
            FaultAction::SetDelay(_, d) => {
                self.u8(3);
                self.dur(*d);
            }
            FaultAction::SetLoss(_, rate) => {
                self.u8(4);
                self.f64(*rate);
            }
            FaultAction::SetQueue(_, q) => {
                self.u8(5);
                self.queue(q);
            }
        }
    }

    fn finish(self) -> u64 {
        self.0
    }
}

impl Scenario {
    /// The canonical content digest of this scenario: a 64-bit FNV-1a hash
    /// over a versioned, length-prefixed encoding of **every** run input —
    /// topology (nodes, link capacities/delays/losses/queues), paths,
    /// default path, congestion control, scheduler, timing, seed,
    /// application model, SACK/ECN flags, convergence parameters, jitter,
    /// cross traffic, and fault schedule.
    ///
    /// Two scenarios with equal digests run identically (a run is a pure
    /// function of these inputs), which is what lets [`RunStore`] answer a
    /// repeat run from disk. The encoding is positional and versioned
    /// ([`DIGEST_VERSION`]), not structural: reordering topology
    /// construction changes node/link ids and therefore — correctly — the
    /// digest, because ids feed the per-entity RNG streams.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv::new();
        h.u32(DIGEST_VERSION);

        h.u64(self.topology.node_count() as u64);
        for n in self.topology.node_ids() {
            h.str(&self.topology.node(n).name);
        }
        h.u64(self.topology.link_count() as u64);
        for l in self.topology.link_ids() {
            let spec = self.topology.link(l);
            h.u32(spec.a.0);
            h.u32(spec.b.0);
            h.bw(spec.capacity);
            h.dur(spec.delay);
            h.f64(spec.loss_rate);
            h.queue(&spec.queue);
        }

        h.u64(self.paths.len() as u64);
        for p in &self.paths {
            h.u64(p.nodes().len() as u64);
            for n in p.nodes() {
                h.u32(n.0);
            }
            for l in p.links() {
                h.u32(l.0);
            }
        }
        h.u64(self.default_path as u64);

        h.u8(match self.algo {
            CcAlgo::Cubic => 0,
            CcAlgo::RenoUncoupled => 1,
            CcAlgo::Lia => 2,
            CcAlgo::Olia => 3,
            CcAlgo::Balia => 4,
            CcAlgo::WVegas => 5,
        });
        h.u8(match self.scheduler {
            SchedulerKind::MinRtt => 0,
            SchedulerKind::RoundRobin => 1,
            SchedulerKind::Redundant => 2,
        });
        h.dur(self.duration);
        h.dur(self.sample_bin);
        h.u64(self.seed);
        match self.app {
            AppSource::Unlimited => h.u8(0),
            AppSource::Fixed(n) => {
                h.u8(1);
                h.u64(n);
            }
            AppSource::Paced { chunk, interval } => {
                h.u8(2);
                h.u64(chunk);
                h.dur(interval);
            }
        }
        h.bool(self.sack);
        h.bool(self.ecn);
        h.f64(self.tolerance);
        h.dur(self.hold);
        h.dur(self.forward_jitter);

        h.u64(self.background.len() as u64);
        for bg in &self.background {
            h.u32(bg.from.0);
            h.u32(bg.to.0);
            h.bw(bg.rate);
            h.u32(bg.packet_bytes);
        }

        h.u64(self.faults.entries().len() as u64);
        for (at, action) in self.faults.entries() {
            h.time(*at);
            h.fault(action);
        }

        h.finish()
    }
}

// ---------------------------------------------------------------------------
// Binary codec
// ---------------------------------------------------------------------------

/// Why a store record failed to decode. Any of these is treated as a cache
/// miss by [`RunStore::get`]; the variants exist for tests and diagnostics.
#[derive(Debug)]
pub enum CodecError {
    /// The record is shorter than a read required.
    Truncated,
    /// Magic bytes, format version, or embedded digest did not match.
    Header(&'static str),
    /// A decoded length or tag was out of range.
    Invalid(&'static str),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "record truncated"),
            CodecError::Header(what) => write!(f, "bad record header: {what}"),
            CodecError::Invalid(what) => write!(f, "invalid field: {what}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Append-only byte writer with the store's primitive encodings.
struct Enc(Vec<u8>);

impl Enc {
    fn new() -> Enc {
        Enc(Vec::new())
    }

    fn u8(&mut self, v: u8) {
        self.0.push(v);
    }

    fn u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_be_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_be_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.0.extend_from_slice(s.as_bytes());
    }

    fn f64s(&mut self, vs: &[f64]) {
        self.u64(vs.len() as u64);
        for &v in vs {
            self.f64(v);
        }
    }

    fn series(&mut self, s: &TimeSeries) {
        self.str(&s.label);
        self.u64(s.start().as_nanos());
        self.u64(s.bin().as_nanos());
        self.f64s(s.values());
    }
}

/// Cursor-based reader mirroring [`Enc`].
struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    fn new(buf: &'a [u8]) -> Dec<'a> {
        Dec { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        let end = self.pos.checked_add(n).ok_or(CodecError::Truncated)?;
        if end > self.buf.len() {
            return Err(CodecError::Truncated);
        }
        let out = &self.buf[self.pos..end]; // simlint: allow(panic-surface, reason = "range checked against buf.len() above")
        self.pos = end;
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, CodecError> {
        let b = self.take(4)?;
        // simlint: allow(unwrap, reason = "take(4) returned exactly four bytes")
        Ok(u32::from_be_bytes(b.try_into().expect("4-byte slice")))
    }

    fn u64(&mut self) -> Result<u64, CodecError> {
        let b = self.take(8)?;
        // simlint: allow(unwrap, reason = "take(8) returned exactly eight bytes")
        Ok(u64::from_be_bytes(b.try_into().expect("8-byte slice")))
    }

    fn f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn len(&mut self) -> Result<usize, CodecError> {
        let n = self.u64()?;
        let n = usize::try_from(n).map_err(|_| CodecError::Invalid("length"))?;
        // A length can never legitimately exceed the bytes that remain —
        // reject early instead of letting a corrupt record allocate GBs.
        if n > self.buf.len().saturating_sub(self.pos) {
            return Err(CodecError::Truncated);
        }
        Ok(n)
    }

    fn str(&mut self) -> Result<String, CodecError> {
        let n = self.len()?;
        let b = self.take(n)?;
        String::from_utf8(b.to_vec()).map_err(|_| CodecError::Invalid("utf-8"))
    }

    fn f64s(&mut self) -> Result<Vec<f64>, CodecError> {
        let n = self.len()?;
        let mut out = Vec::with_capacity(n.min(1 << 16));
        for _ in 0..n {
            out.push(self.f64()?);
        }
        Ok(out)
    }

    fn series(&mut self) -> Result<TimeSeries, CodecError> {
        let label = self.str()?;
        let start = SimTime::from_nanos(self.u64()?);
        let bin = SimDuration::from_nanos(self.u64()?);
        if bin.is_zero() {
            return Err(CodecError::Invalid("zero series bin"));
        }
        let values = self.f64s()?;
        Ok(TimeSeries::new(label, start, bin, values))
    }

    fn done(&self) -> Result<(), CodecError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(CodecError::Invalid("trailing bytes"))
        }
    }
}

/// Encode a full store record: header (magic, format, digest) + payload.
fn encode_record(digest: u64, r: &RunResult) -> Vec<u8> {
    let mut e = Enc::new();
    e.0.extend_from_slice(MAGIC);
    e.u32(STORE_FORMAT);
    e.u64(digest);

    e.u64(r.per_path.len() as u64);
    for s in &r.per_path {
        e.series(s);
    }
    e.series(&r.total);

    // MaxThroughput, LinearProgram included (a store hit must not need the
    // simplex any more than it needs the simulator).
    let lp = &r.lp.lp;
    e.u64(lp.num_vars() as u64);
    for (i, &obj) in lp.objective().iter().enumerate() {
        e.str(lp.var_name(i));
        e.f64(obj);
    }
    e.u64(lp.num_constraints() as u64);
    for c in lp.constraints() {
        e.f64s(&c.coeffs);
        e.u8(match c.sense {
            Sense::Le => 0,
            Sense::Eq => 1,
            Sense::Ge => 2,
        });
        e.f64(c.rhs);
        e.str(&c.label);
    }
    e.f64s(&r.lp.per_path_mbps);
    e.f64(r.lp.total_mbps);
    e.u64(r.lp.tight_links.len() as u64);
    for l in &r.lp.tight_links {
        e.u32(l.0);
    }
    e.u64(r.lp.link_constraints.len() as u64);
    for (link, paths, cap) in &r.lp.link_constraints {
        e.u32(link.0);
        e.u64(paths.len() as u64);
        for &p in paths {
            e.u64(p as u64);
        }
        e.u64(cap.as_bps());
    }

    e.f64(r.convergence.target);
    e.f64(r.convergence.tolerance);
    match r.convergence.converged_at {
        None => e.u8(0),
        Some(t) => {
            e.u8(1);
            e.u64(t.as_nanos());
        }
    }
    e.f64(r.convergence.steady_mean);
    e.f64(r.convergence.steady_cov);
    e.f64(r.convergence.efficiency);

    e.f64s(&r.per_path_steady_mbps);
    e.u64(r.drops);
    e.u64(r.events);
    e.u64(r.events_scheduled);
    e.u64(r.events_cancelled);
    e.u64(r.packets_delivered);
    e.u64(r.data_delivered);
    e.u64(r.duplicate_bytes);

    e.u64(r.subflow_stats.len() as u64);
    for s in &r.subflow_stats {
        e.u64(s.segments_sent);
        e.u64(s.retransmits);
        e.u64(s.loss_events);
        e.u64(s.rtos);
        e.u64(s.tlp_probes);
        e.u64(s.ecn_reductions);
        e.u64(s.bytes_acked);
    }
    e.u64(r.trace_hash);
    e.0
}

/// Decode a store record, validating magic, format, and digest.
fn decode_record(digest: u64, buf: &[u8]) -> Result<RunResult, CodecError> {
    let mut d = Dec::new(buf);
    if d.take(4)? != MAGIC {
        return Err(CodecError::Header("magic"));
    }
    if d.u32()? != STORE_FORMAT {
        return Err(CodecError::Header("format version"));
    }
    if d.u64()? != digest {
        return Err(CodecError::Header("digest"));
    }

    let n = d.len()?;
    let mut per_path = Vec::with_capacity(n);
    for _ in 0..n {
        per_path.push(d.series()?);
    }
    let total = d.series()?;

    let mut lp = LinearProgram::new();
    let vars = d.len()?;
    for _ in 0..vars {
        let name = d.str()?;
        let obj = d.f64()?;
        if !obj.is_finite() {
            return Err(CodecError::Invalid("objective"));
        }
        lp.add_var(name, obj);
    }
    let constraints = d.len()?;
    for _ in 0..constraints {
        let coeffs = d.f64s()?;
        if coeffs.len() != vars || coeffs.iter().any(|c| !c.is_finite()) {
            return Err(CodecError::Invalid("constraint coefficients"));
        }
        let sense = match d.u8()? {
            0 => Sense::Le,
            1 => Sense::Eq,
            2 => Sense::Ge,
            _ => return Err(CodecError::Invalid("sense")),
        };
        let rhs = d.f64()?;
        if !rhs.is_finite() {
            return Err(CodecError::Invalid("rhs"));
        }
        let label = d.str()?;
        let terms: Vec<(usize, f64)> = coeffs.iter().copied().enumerate().collect();
        lp.add_constraint(label, &terms, sense, rhs);
    }
    let per_path_mbps = d.f64s()?;
    let total_mbps = d.f64()?;
    let n = d.len()?;
    let mut tight_links = Vec::with_capacity(n);
    for _ in 0..n {
        tight_links.push(LinkId(d.u32()?));
    }
    let n = d.len()?;
    let mut link_constraints = Vec::with_capacity(n);
    for _ in 0..n {
        let link = LinkId(d.u32()?);
        let k = d.len()?;
        let mut paths = Vec::with_capacity(k);
        for _ in 0..k {
            paths.push(usize::try_from(d.u64()?).map_err(|_| CodecError::Invalid("path index"))?);
        }
        link_constraints.push((link, paths, Bandwidth::from_bps(d.u64()?)));
    }
    let lp = MaxThroughput {
        lp,
        per_path_mbps,
        total_mbps,
        tight_links,
        link_constraints,
    };

    let target = d.f64()?;
    let tolerance = d.f64()?;
    let converged_at = match d.u8()? {
        0 => None,
        1 => Some(SimTime::from_nanos(d.u64()?)),
        _ => return Err(CodecError::Invalid("converged_at tag")),
    };
    let convergence = ConvergenceReport {
        target,
        tolerance,
        converged_at,
        steady_mean: d.f64()?,
        steady_cov: d.f64()?,
        efficiency: d.f64()?,
    };

    let per_path_steady_mbps = d.f64s()?;
    let drops = d.u64()?;
    let events = d.u64()?;
    let events_scheduled = d.u64()?;
    let events_cancelled = d.u64()?;
    let packets_delivered = d.u64()?;
    let data_delivered = d.u64()?;
    let duplicate_bytes = d.u64()?;

    let n = d.len()?;
    let mut subflow_stats = Vec::with_capacity(n);
    for _ in 0..n {
        subflow_stats.push(SenderStats {
            segments_sent: d.u64()?,
            retransmits: d.u64()?,
            loss_events: d.u64()?,
            rtos: d.u64()?,
            tlp_probes: d.u64()?,
            ecn_reductions: d.u64()?,
            bytes_acked: d.u64()?,
        });
    }
    let trace_hash = d.u64()?;
    d.done()?;

    Ok(RunResult {
        per_path,
        total,
        lp,
        convergence,
        per_path_steady_mbps,
        drops,
        events,
        events_scheduled,
        events_cancelled,
        packets_delivered,
        data_delivered,
        duplicate_bytes,
        subflow_stats,
        trace_hash,
    })
}

// ---------------------------------------------------------------------------
// The store
// ---------------------------------------------------------------------------

/// Counter snapshot of a [`RunStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StoreStats {
    /// Lookups answered from disk (no simulation, no LP solve).
    pub hits: u64,
    /// Lookups that found nothing (the caller simulates and inserts).
    pub misses: u64,
    /// Record bytes written by `put`.
    pub bytes_written: u64,
    /// Record bytes read by hits.
    pub bytes_read: u64,
}

impl StoreStats {
    /// Total lookups observed.
    pub fn total(&self) -> u64 {
        self.hits + self.misses
    }
}

/// A content-addressed, on-disk store of [`RunResult`]s keyed by
/// [`Scenario::digest`].
///
/// Thread-safe: a `Mutex` guards the in-memory index of digests known to
/// be on disk (loaded once at [`open`](RunStore::open)), and writes go
/// through a temp-file + rename so concurrent writers of the same digest
/// race benignly (both write identical bytes — a run is a pure function of
/// its digest inputs).
#[derive(Debug)]
pub struct RunStore {
    dir: PathBuf,
    index: Mutex<BTreeSet<u64>>,
    hits: AtomicU64,
    misses: AtomicU64,
    bytes_written: AtomicU64,
    bytes_read: AtomicU64,
}

impl RunStore {
    /// Open (creating if necessary) a store rooted at `dir` and index the
    /// records already present.
    pub fn open(dir: impl AsRef<Path>) -> std::io::Result<RunStore> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        let mut index = BTreeSet::new();
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            let Some(hex) = name.strip_suffix(".run") else {
                continue;
            };
            if let Ok(digest) = u64::from_str_radix(hex, 16) {
                index.insert(digest);
            }
        }
        Ok(RunStore {
            dir,
            index: Mutex::new(index),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            bytes_written: AtomicU64::new(0),
            bytes_read: AtomicU64::new(0),
        })
    }

    /// Open the store named by the `OVERLAP_STORE` environment variable
    /// (a directory path), or `None` when the variable is unset or the
    /// directory cannot be created. This is the only activation path —
    /// nothing consults a store unless the user asked for one.
    pub fn from_env() -> Option<RunStore> {
        let dir = std::env::var_os("OVERLAP_STORE")?;
        match RunStore::open(&dir) {
            Ok(store) => Some(store),
            Err(e) => {
                eprintln!(
                    "warning: OVERLAP_STORE {}: {e}; running storeless",
                    dir.to_string_lossy()
                );
                None
            }
        }
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn record_path(&self, digest: u64) -> PathBuf {
        self.dir.join(format!("{digest:016x}.run"))
    }

    /// Look up a digest. A hit returns the decoded result (counted, bytes
    /// accounted); anything else — absent, unreadable, corrupt, wrong
    /// version — is a miss.
    pub fn get(&self, digest: u64) -> Option<RunResult> {
        let known = {
            // Poisoning only means another thread panicked mid-insert of a
            // set element; the set is never left inconsistent.
            let index = self.index.lock().unwrap_or_else(|p| p.into_inner());
            index.contains(&digest)
        };
        let result = if known {
            std::fs::read(self.record_path(digest))
                .ok()
                .and_then(|buf| match decode_record(digest, &buf) {
                    Ok(r) => {
                        self.bytes_read
                            .fetch_add(buf.len() as u64, Ordering::Relaxed);
                        Some(r)
                    }
                    Err(e) => {
                        eprintln!(
                            "warning: store record {:016x} unreadable ({e}); re-simulating",
                            digest
                        );
                        None
                    }
                })
        } else {
            None
        };
        match &result {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        result
    }

    /// Persist a result under its digest (temp file + atomic rename).
    pub fn put(&self, digest: u64, result: &RunResult) -> std::io::Result<()> {
        let bytes = encode_record(digest, result);
        let tmp = self
            .dir
            .join(format!("{digest:016x}.run.tmp.{}", std::process::id()));
        {
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(&bytes)?;
            f.sync_all()?;
        }
        std::fs::rename(&tmp, self.record_path(digest))?;
        self.bytes_written
            .fetch_add(bytes.len() as u64, Ordering::Relaxed);
        let mut index = self.index.lock().unwrap_or_else(|p| p.into_inner());
        index.insert(digest);
        Ok(())
    }

    /// Number of records in the index.
    pub fn len(&self) -> usize {
        self.index.lock().unwrap_or_else(|p| p.into_inner()).len()
    }

    /// True when the store holds no records.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Counter snapshot.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            bytes_written: self.bytes_written.load(Ordering::Relaxed),
            bytes_read: self.bytes_read.load(Ordering::Relaxed),
        }
    }
}

/// Run `scenario`, answering from `store` when possible.
///
/// A hit returns the persisted result without building a simulator or
/// touching `lp_cache` (the record embeds the LP ground truth), so LP
/// cache accounting is not double-counted when a store fronts it. A miss
/// simulates normally and inserts; a failed insert degrades to storeless
/// operation with a warning rather than failing the run.
pub fn run_via_store(
    scenario: &Scenario,
    store: Option<&RunStore>,
    lp_cache: Option<&LpCache>,
) -> RunResult {
    let Some(store) = store else {
        return scenario.run_with_lp_cache(lp_cache);
    };
    let digest = scenario.digest();
    if let Some(hit) = store.get(digest) {
        return hit;
    }
    let result = scenario.run_with_lp_cache(lp_cache);
    if let Err(e) = store.put(digest, &result) {
        eprintln!("warning: store insert {digest:016x} failed ({e}); continuing storeless");
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper::PaperNetwork;
    use crate::runner::SweepSpec;
    use netsim::FaultSchedule;
    use worldgen::{FatTree, FatTreeConfig};

    fn paper_scenario() -> Scenario {
        let net = PaperNetwork::new();
        Scenario {
            default_path: net.default_path,
            ..Scenario::new(net.topology, net.paths)
        }
        .with_timing(SimDuration::from_millis(500), SimDuration::from_millis(100))
    }

    fn tmp_store(tag: &str) -> RunStore {
        let dir =
            std::env::temp_dir().join(format!("overlap-store-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        RunStore::open(&dir).expect("store dir")
    }

    #[test]
    fn digest_is_a_pure_function_of_the_scenario() {
        let a = paper_scenario();
        let b = a.clone();
        assert_eq!(a.digest(), b.digest());
        assert_eq!(a.digest(), a.digest());
    }

    #[test]
    fn digest_separates_every_varied_input() {
        let base = paper_scenario();
        let net = PaperNetwork::new();
        let s = net.topology.node_by_name("s").unwrap();
        let v4 = net.topology.node_by_name("v4").unwrap();
        let link = net.topology.link_between(s, v4).unwrap();
        let mut lossy_topo = base.topology.clone();
        lossy_topo.set_link_loss(link, 0.01);

        let variants = vec![
            base.clone(),
            base.clone().with_seed(base.seed + 1),
            base.clone().with_algo(CcAlgo::Lia),
            base.clone()
                .with_timing(SimDuration::from_millis(600), SimDuration::from_millis(100)),
            base.clone()
                .with_timing(SimDuration::from_millis(500), SimDuration::from_millis(50)),
            base.clone().with_faults(FaultSchedule::new().outage(
                link,
                SimTime::from_millis(100),
                SimTime::from_millis(200),
            )),
            base.clone().with_faults(FaultSchedule::new().outage(
                link,
                SimTime::from_millis(100),
                SimTime::from_millis(201),
            )),
            Scenario {
                default_path: 2,
                ..base.clone()
            },
            Scenario {
                sack: false,
                ..base.clone()
            },
            Scenario {
                topology: lossy_topo,
                ..base.clone()
            },
        ];
        let digests: BTreeSet<u64> = variants.iter().map(Scenario::digest).collect();
        assert_eq!(
            digests.len(),
            variants.len(),
            "every varied input must produce a distinct digest"
        );
    }

    /// The no-collision property over realistic corpora: every cell of the
    /// Table-1 sweep plus a worldgen fat-tree ECMP corpus, all digesting to
    /// distinct keys (and distinct from each other).
    #[test]
    fn digest_has_no_collisions_over_table1_and_worldgen_corpora() {
        let mut scenarios: Vec<Scenario> = Vec::new();

        // Table-1 corpus: the paper sweep across all six algorithms, all
        // three default paths, five seeds.
        let spec = SweepSpec::paper(
            &[
                CcAlgo::Cubic,
                CcAlgo::RenoUncoupled,
                CcAlgo::Lia,
                CcAlgo::Olia,
                CcAlgo::Balia,
                CcAlgo::WVegas,
            ],
            0..5,
            SimDuration::from_secs(4),
        );
        for cell in spec.cells() {
            scenarios.push(spec.scenario(&cell));
        }

        // Worldgen corpus: ECMP subflow pairs on two fat-tree fabrics.
        for fabric_seed in 0..2u64 {
            let tree = FatTree::build(&FatTreeConfig {
                seed: fabric_seed,
                ..FatTreeConfig::default()
            });
            for c in 0..4 {
                let (src, dst) = (tree.hosts[2 * c], tree.hosts[2 * c + 1]);
                let paths = tree.ecmp_subflow_paths(src, dst, fabric_seed ^ c as u64, 2);
                scenarios.push(
                    Scenario::new(tree.topology.clone(), paths)
                        .with_algo(CcAlgo::Lia)
                        .with_seed(fabric_seed),
                );
            }
        }

        assert!(scenarios.len() > 90, "corpus too small to mean anything");
        let digests: BTreeSet<u64> = scenarios.iter().map(Scenario::digest).collect();
        assert_eq!(
            digests.len(),
            scenarios.len(),
            "digest collision within the Table-1 + worldgen corpus"
        );
    }

    /// Field-by-field equality of two results, exact to the bit on floats
    /// (the store must reproduce, not approximate).
    fn assert_results_identical(a: &RunResult, b: &RunResult) {
        assert_eq!(a.trace_hash, b.trace_hash);
        assert_eq!(a.per_path.len(), b.per_path.len());
        for (x, y) in a.per_path.iter().zip(&b.per_path) {
            assert_eq!(x.label, y.label);
            assert_eq!(x.start(), y.start());
            assert_eq!(x.bin(), y.bin());
            assert_eq!(x.values(), y.values());
        }
        assert_eq!(a.total.values(), b.total.values());
        assert_eq!(a.lp.per_path_mbps, b.lp.per_path_mbps);
        assert_eq!(a.lp.total_mbps.to_bits(), b.lp.total_mbps.to_bits());
        assert_eq!(a.lp.tight_links, b.lp.tight_links);
        assert_eq!(a.lp.link_constraints, b.lp.link_constraints);
        assert_eq!(a.lp.lp.num_vars(), b.lp.lp.num_vars());
        assert_eq!(a.lp.lp.objective(), b.lp.lp.objective());
        assert_eq!(a.lp.lp.constraints().len(), b.lp.lp.constraints().len());
        for (x, y) in a.lp.lp.constraints().iter().zip(b.lp.lp.constraints()) {
            assert_eq!(x.coeffs, y.coeffs);
            assert_eq!(x.rhs.to_bits(), y.rhs.to_bits());
            assert_eq!(x.label, y.label);
        }
        assert_eq!(a.convergence.converged_at, b.convergence.converged_at);
        assert_eq!(
            a.convergence.steady_mean.to_bits(),
            b.convergence.steady_mean.to_bits()
        );
        assert_eq!(
            a.convergence.efficiency.to_bits(),
            b.convergence.efficiency.to_bits()
        );
        assert_eq!(a.per_path_steady_mbps, b.per_path_steady_mbps);
        assert_eq!(a.drops, b.drops);
        assert_eq!(a.events, b.events);
        assert_eq!(a.events_scheduled, b.events_scheduled);
        assert_eq!(a.events_cancelled, b.events_cancelled);
        assert_eq!(a.packets_delivered, b.packets_delivered);
        assert_eq!(a.data_delivered, b.data_delivered);
        assert_eq!(a.duplicate_bytes, b.duplicate_bytes);
        assert_eq!(a.subflow_stats.len(), b.subflow_stats.len());
        for (x, y) in a.subflow_stats.iter().zip(&b.subflow_stats) {
            assert_eq!(x.segments_sent, y.segments_sent);
            assert_eq!(x.retransmits, y.retransmits);
            assert_eq!(x.bytes_acked, y.bytes_acked);
        }
    }

    #[test]
    fn codec_roundtrips_a_real_result_exactly() {
        let result = paper_scenario().run();
        let digest = paper_scenario().digest();
        let bytes = encode_record(digest, &result);
        let back = decode_record(digest, &bytes).expect("decode");
        assert_results_identical(&result, &back);
    }

    #[test]
    fn decode_rejects_corruption_and_wrong_digest() {
        let result = paper_scenario().run();
        let digest = paper_scenario().digest();
        let bytes = encode_record(digest, &result);
        assert!(matches!(
            decode_record(digest ^ 1, &bytes),
            Err(CodecError::Header(_))
        ));
        assert!(matches!(
            decode_record(digest, &bytes[..bytes.len() - 1]),
            Err(CodecError::Truncated) | Err(CodecError::Invalid(_))
        ));
        let mut garbled = bytes.clone();
        garbled[0] ^= 0xff;
        assert!(decode_record(digest, &garbled).is_err());
    }

    #[test]
    fn store_roundtrip_and_reopen() {
        let store = tmp_store("roundtrip");
        let scenario = paper_scenario();
        let digest = scenario.digest();
        assert!(store.get(digest).is_none());
        let result = scenario.run();
        store.put(digest, &result).expect("put");
        let hit = store.get(digest).expect("hit after put");
        assert_results_identical(&result, &hit);
        let stats = store.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        assert!(stats.bytes_written > 0);
        assert_eq!(stats.bytes_read, stats.bytes_written);

        // A fresh handle on the same directory must index the record.
        let reopened = RunStore::open(store.dir()).expect("reopen");
        assert_eq!(reopened.len(), 1);
        let hit = reopened.get(digest).expect("hit after reopen");
        assert_results_identical(&result, &hit);
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn record_under_a_v1_key_is_a_miss_not_an_error() {
        // `paper_scenario().digest()` as `DIGEST_VERSION` 1 computed it.
        const V1_KEY: u64 = 0xcd9d_5cfc_41f9_c615;
        let store = tmp_store("v1-key");
        let scenario = paper_scenario();
        assert_ne!(scenario.digest(), V1_KEY, "the version feeds the digest");
        let result = scenario.run();
        store.put(V1_KEY, &result).expect("put");

        // Nothing asks for the old key any more: the run simulates, lands
        // under its v2 key, and the stale record just sits there.
        let rerun = run_via_store(&scenario, Some(&store), None);
        assert_eq!((store.stats().hits, store.stats().misses), (0, 1));
        assert_eq!(store.len(), 2);
        assert_results_identical(&result, &rerun);
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn run_via_store_hits_skip_simulation_and_lp_solve() {
        let store = tmp_store("lp-accounting");
        let scenario = paper_scenario();
        let lp_cache = LpCache::new();

        let cold = run_via_store(&scenario, Some(&store), Some(&lp_cache));
        assert_eq!(lp_cache.stats().misses, 1);
        assert_eq!(lp_cache.stats().hits, 0);

        // The second run must be answered from disk: no new LP activity at
        // all (not even a cache hit), exactly one store hit, identical
        // bytes out.
        let warm = run_via_store(&scenario, Some(&store), Some(&lp_cache));
        assert_eq!(
            lp_cache.stats(),
            lpsolve::LpCacheStats { hits: 0, misses: 1 },
            "a store hit must not consult the LP cache"
        );
        assert_eq!(store.stats().hits, 1);
        assert_eq!(store.stats().misses, 1);
        assert_results_identical(&cold, &warm);

        // And a storeless run still matches both.
        let direct = scenario.run();
        assert_results_identical(&direct, &warm);
        let _ = std::fs::remove_dir_all(store.dir());
    }
}
