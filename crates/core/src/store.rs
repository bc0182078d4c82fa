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
//! Both encodings come from one description (this repository vendors no
//! serialization framework): `Put` writes a value and `Get` reads back what
//! `Put` wrote — big-endian integers, floats via `f64::to_bits` (no parsing
//! or rounding in a round-trip), length-prefixed strings and sequences.
//! `codec!` derives both from a struct's field list, so the digest is the
//! FNV-1a of [`DIGEST_VERSION`] and [`Scenario`]'s fields and a record is a
//! header followed by [`RunResult`]'s fields; a field added to either struct
//! and not listed is a compile error, not a stale hit.
//!
//! A record is `MAGIC | STORE_FORMAT | digest | RunResult | checksum`, the
//! checksum being the FNV-1a/64 of every byte before it. A wrong magic,
//! format, checksum or digest, a truncation, a flipped byte, or any value
//! `Put` cannot have written is a miss with a warning, never data.
//!
//! The store is its directory: a record is the file `<digest>.run`, and
//! there is no index to load or keep in step with the disk.
//!
//! Activation is explicit: experiment binaries opt in via the
//! `OVERLAP_STORE` environment variable (a directory path), which
//! [`RunStore::from_env`] resolves. Library tests and the determinism
//! harness run storeless.

use crate::scenario::{CrossTraffic, RunResult, Scenario};
use lpsolve::{Constraint, LinearProgram, LpCache, MaxThroughput};
use mptcpsim::{CcAlgo, SchedulerKind};
use netsim::{
    CoDel, FaultAction, FaultSchedule, LinkId, LinkSpec, NodeId, Path as NetPath, QueueConfig, Red,
    Topology,
};
use simbase::{Bandwidth, Fnv64, SimDuration, SimTime};
use simtrace::TimeSeries;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use tcpsim::{AppSource, SenderStats};

/// Version folded into every digest. Bump whenever the canonical encoding
/// below changes meaning, so digests from older encodings can never alias
/// new ones. v2: the engine, region-count and region-map fields are gone
/// from [`Scenario`] and from the encoding. v3: so are the convergence
/// band's `tolerance` and `hold`, and a run's steady state is its second
/// half, so a v2 key names a result computed under another definition.
pub const DIGEST_VERSION: u32 = 3;

/// On-disk record format version. Bump on any codec change; records with
/// another version are ignored (a miss), not migrated. v2: every record
/// ends in an FNV-1a/64 checksum of all the bytes before it. v3: the
/// convergence report is gone from [`RunResult`], and
/// `per_path_steady_mbps` is the mean over the run's second half instead
/// of over the band analyzer's post-convergence window.
pub const STORE_FORMAT: u32 = 3;

/// Magic prefix of every store record.
const MAGIC: &[u8; 4] = b"OVRS";

/// FNV-1a/64 of `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv64::new();
    h.write_bytes(bytes);
    h.finish()
}

impl Scenario {
    /// The canonical content digest of this scenario: the 64-bit FNV-1a hash
    /// of [`DIGEST_VERSION`] followed by **every** field of the scenario, in
    /// declaration order, in the record codec's encoding —
    /// topology (nodes, link capacities/delays/losses/queues), paths,
    /// default path, congestion control, scheduler, timing, seed,
    /// application model, SACK/ECN flags, jitter, cross traffic, and fault
    /// schedule.
    ///
    /// Two scenarios with equal digests run identically (a run is a pure
    /// function of these inputs), which is what lets [`RunStore`] answer a
    /// repeat run from disk. The encoding is positional and versioned
    /// ([`DIGEST_VERSION`]), not structural: reordering topology
    /// construction changes node/link ids and therefore — correctly — the
    /// digest, because ids feed the per-entity RNG streams.
    pub fn digest(&self) -> u64 {
        let mut out = Vec::new();
        DIGEST_VERSION.put(&mut out);
        self.put(&mut out);
        fnv1a(&out)
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
    /// Magic bytes, format version, checksum or embedded digest did not
    /// match.
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

/// A value with a canonical byte encoding.
trait Put {
    fn put(&self, out: &mut Vec<u8>);
}

/// Reads back exactly what [`Put`] can have written, and rejects the rest.
trait Get: Sized {
    fn get(d: &mut Dec<'_>) -> Result<Self, CodecError>;
}

/// The bytes of a record not yet read.
struct Dec<'a>(&'a [u8]);

impl<'a> Dec<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        let (head, rest) = self.0.split_at_checked(n).ok_or(CodecError::Truncated)?;
        self.0 = rest;
        Ok(head)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], CodecError> {
        self.take(N)?.try_into().map_err(|_| CodecError::Truncated)
    }

    /// A length prefix. It can never legitimately exceed the bytes that
    /// remain — reject early instead of letting a corrupt record allocate
    /// GBs.
    fn len(&mut self) -> Result<usize, CodecError> {
        let n = usize::get(self)?;
        if n > self.0.len() {
            return Err(CodecError::Truncated);
        }
        Ok(n)
    }

    fn done(&self) -> Result<(), CodecError> {
        if self.0.is_empty() {
            Ok(())
        } else {
            Err(CodecError::Invalid("trailing bytes"))
        }
    }
}

macro_rules! big_endian {
    ($($t:ty),*) => {$(
        impl Put for $t {
            fn put(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_be_bytes());
            }
        }
        impl Get for $t {
            fn get(d: &mut Dec<'_>) -> Result<Self, CodecError> {
                Ok(<$t>::from_be_bytes(d.array()?))
            }
        }
    )*};
}
big_endian!(u8, u32, u64);

/// Derives [`Put`] from each struct's field list, written in the listed
/// order, and [`Get`] as well unless the list starts with `put` (those
/// structs are only ever written: the scenario, for its digest). The
/// destructuring has no `..`, so a field added to a struct and not listed
/// here does not compile.
macro_rules! codec {
    (put $($ty:ident { $($f:ident),* $(,)? })*) => {$(
        impl Put for $ty {
            fn put(&self, out: &mut Vec<u8>) {
                let $ty { $($f),* } = self;
                $($f.put(out);)*
            }
        }
    )*};
    ($($ty:ident { $($f:ident),* $(,)? })*) => {$(
        codec!(put $ty { $($f),* });
        impl Get for $ty {
            fn get(d: &mut Dec<'_>) -> Result<Self, CodecError> {
                Ok($ty { $($f: Get::get(d)?),* })
            }
        }
    )*};
}

impl Put for bool {
    fn put(&self, out: &mut Vec<u8>) {
        u8::from(*self).put(out);
    }
}

impl Put for usize {
    fn put(&self, out: &mut Vec<u8>) {
        (*self as u64).put(out);
    }
}

impl Get for usize {
    fn get(d: &mut Dec<'_>) -> Result<Self, CodecError> {
        usize::try_from(u64::get(d)?).map_err(|_| CodecError::Invalid("usize"))
    }
}

/// Length-prefixed so `("ab", "c")` and `("a", "bc")` cannot collide.
impl Put for str {
    fn put(&self, out: &mut Vec<u8>) {
        self.len().put(out);
        out.extend_from_slice(self.as_bytes());
    }
}

impl Get for String {
    fn get(d: &mut Dec<'_>) -> Result<Self, CodecError> {
        let n = d.len()?;
        String::from_utf8(d.take(n)?.to_vec()).map_err(|_| CodecError::Invalid("utf-8"))
    }
}

impl<T: Put> Put for [T] {
    fn put(&self, out: &mut Vec<u8>) {
        self.len().put(out);
        for v in self {
            v.put(out);
        }
    }
}

impl<T: Put> Put for Vec<T> {
    fn put(&self, out: &mut Vec<u8>) {
        self.as_slice().put(out);
    }
}

impl<T: Get> Get for Vec<T> {
    fn get(d: &mut Dec<'_>) -> Result<Self, CodecError> {
        let n = d.len()?;
        (0..n).map(|_| T::get(d)).collect()
    }
}

macro_rules! tuple {
    ($($v:ident: $t:ident),*) => {
        impl<$($t: Put),*> Put for ($($t,)*) {
            fn put(&self, out: &mut Vec<u8>) {
                let ($($v,)*) = self;
                $($v.put(out);)*
            }
        }
        impl<$($t: Get),*> Get for ($($t,)*) {
            fn get(d: &mut Dec<'_>) -> Result<Self, CodecError> {
                Ok(($($t::get(d)?,)*))
            }
        }
    };
}
tuple!(a: A, b: B);
tuple!(a: A, b: B, c: C);

impl<T: Put + ?Sized> Put for &T {
    fn put(&self, out: &mut Vec<u8>) {
        (**self).put(out);
    }
}

/// Values carried by one integer: `$into` is written, `$from` reads it back.
macro_rules! via_integer {
    ($($ty:ty: $inner:ty, |$v:ident| $into:expr, $from:expr;)*) => {$(
        impl Put for $ty {
            fn put(&self, out: &mut Vec<u8>) {
                let $v = self;
                $into.put(out);
            }
        }
        impl Get for $ty {
            fn get(d: &mut Dec<'_>) -> Result<Self, CodecError> {
                Ok($from(<$inner>::get(d)?))
            }
        }
    )*};
}
via_integer! {
    f64: u64, |v| v.to_bits(), f64::from_bits;
    SimTime: u64, |t| t.as_nanos(), SimTime::from_nanos;
    SimDuration: u64, |t| t.as_nanos(), SimDuration::from_nanos;
    Bandwidth: u64, |b| b.as_bps(), Bandwidth::from_bps;
    LinkId: u32, |l| l.0, LinkId;
    NodeId: u32, |n| n.0, NodeId;
}

// --- The scenario (written for its digest, never read) ---------------------

codec! { put
    Scenario { topology, paths, default_path, algo, scheduler, duration, sample_bin, seed, app,
        sack, ecn, forward_jitter, background, faults }
    CrossTraffic { from, to, rate, packet_bytes }
    LinkSpec { a, b, capacity, delay, loss_rate, queue }
}

impl Put for Topology {
    fn put(&self, out: &mut Vec<u8>) {
        self.node_count().put(out);
        for n in self.node_ids() {
            self.node_name(n).put(out);
        }
        self.link_count().put(out);
        for l in self.link_ids() {
            self.link(l).put(out);
        }
    }
}

/// The links follow the nodes with no length prefix of their own: a path
/// of `n` nodes has `n - 1` links.
impl Put for NetPath {
    fn put(&self, out: &mut Vec<u8>) {
        self.nodes().put(out);
        for l in self.links() {
            l.put(out);
        }
    }
}

impl Put for FaultSchedule {
    fn put(&self, out: &mut Vec<u8>) {
        self.entries().put(out);
    }
}

/// Unit enums as one tag byte. The tags are spelled out, not `as u8`:
/// reordering a variant must not move a digest. `CcAlgo`'s tag 1 stays
/// unused, so no new algorithm can alias a stored packet-level Reno run.
macro_rules! tags {
    ($($ty:ident { $($v:ident = $tag:literal),* })*) => {$(
        impl Put for $ty {
            fn put(&self, out: &mut Vec<u8>) {
                let tag: u8 = match self {
                    $($ty::$v => $tag),*
                };
                tag.put(out);
            }
        }
        impl Get for $ty {
            fn get(d: &mut Dec<'_>) -> Result<Self, CodecError> {
                match u8::get(d)? {
                    $($tag => Ok($ty::$v),)*
                    _ => Err(CodecError::Invalid(stringify!($ty))),
                }
            }
        }
    )*};
}
tags! {
    CcAlgo { Cubic = 0, Lia = 2, Olia = 3, Balia = 4, WVegas = 5 }
    SchedulerKind { MinRtt = 0, RoundRobin = 1, Redundant = 2 }
}

impl Put for AppSource {
    fn put(&self, out: &mut Vec<u8>) {
        match self {
            AppSource::Unlimited => 0u8.put(out),
            AppSource::Fixed(n) => (1u8, n).put(out),
        }
    }
}

/// The AQMs' fixed parameters follow their tags: they are inputs of the
/// run, so changing one of the constants moves the digest. Their order keeps
/// every digest what it was when they were settings, and tag 1 stays unused
/// so no new queue can alias a stored byte-bounded drop-tail scenario.
impl Put for QueueConfig {
    fn put(&self, out: &mut Vec<u8>) {
        match *self {
            QueueConfig::DropTailPackets(n) => (0u8, n).put(out),
            QueueConfig::Red { ecn_marking } => {
                (2u8, Red::MAX_PACKETS, Red::MIN_THRESH).put(out);
                (Red::MAX_THRESH, Red::MAX_P, Red::WEIGHT).put(out);
                (ecn_marking, Red::MEAN_PKT_TIME).put(out);
            }
            QueueConfig::CoDel => {
                (3u8, CoDel::MAX_PACKETS).put(out);
                (CoDel::TARGET, CoDel::INTERVAL).put(out);
            }
        }
    }
}

/// The link comes first, ahead of the tag. Tags 4 and 5 stay unused, so no
/// new action can alias a stored scenario's loss-rate or queue change.
impl Put for FaultAction {
    fn put(&self, out: &mut Vec<u8>) {
        self.link().put(out);
        match self {
            FaultAction::LinkDown(_) => 0u8.put(out),
            FaultAction::LinkUp(_) => 1u8.put(out),
            FaultAction::SetCapacity(_, bw) => (2u8, bw).put(out),
            FaultAction::SetDelay(_, d) => (3u8, d).put(out),
        }
    }
}

// --- The result (written and read back) ------------------------------------

// The LP travels with the result: a store hit must not need the simplex
// any more than it needs the simulator.
codec! {
    RunResult { per_path, total, lp, per_path_steady_mbps, drops, events,
        events_scheduled, events_cancelled, packets_delivered, data_delivered, duplicate_bytes,
        subflow_stats, trace_hash }
    MaxThroughput { lp, per_path_mbps, total_mbps, tight_links, link_constraints }
    SenderStats { segments_sent, retransmits, loss_events, rtos, tlp_probes, ecn_reductions,
        bytes_acked }
}

/// Every row is `≤`, but a record keeps the sense byte it has carried since
/// format 1, always `0` (the `≤` tag). Anything else, and a right-hand
/// side the builder would refuse, is an unreadable record, not a panic.
impl Put for Constraint {
    fn put(&self, out: &mut Vec<u8>) {
        (&self.coeffs, 0u8, self.rhs).put(out);
        self.label.put(out);
    }
}

impl Get for Constraint {
    fn get(d: &mut Dec<'_>) -> Result<Self, CodecError> {
        let (coeffs, sense, rhs) = <(Vec<f64>, u8, f64)>::get(d)?;
        if sense != 0 {
            return Err(CodecError::Invalid("constraint sense"));
        }
        if !(rhs.is_finite() && rhs >= 0.0) {
            return Err(CodecError::Invalid("rhs"));
        }
        Ok(Constraint {
            coeffs,
            rhs,
            label: String::get(d)?,
        })
    }
}

impl Put for TimeSeries {
    fn put(&self, out: &mut Vec<u8>) {
        (self.label.as_str(), self.start(), self.bin()).put(out);
        self.values().put(out);
    }
}

impl Get for TimeSeries {
    fn get(d: &mut Dec<'_>) -> Result<Self, CodecError> {
        let (label, start, bin) = <(String, SimTime, SimDuration)>::get(d)?;
        if bin.is_zero() {
            return Err(CodecError::Invalid("zero series bin"));
        }
        Ok(TimeSeries::new(label, start, bin, Vec::get(d)?))
    }
}

impl Put for LinearProgram {
    fn put(&self, out: &mut Vec<u8>) {
        self.num_vars().put(out);
        for (i, objective) in self.objective().iter().enumerate() {
            (self.var_name(i), objective).put(out);
        }
        self.constraints().put(out);
    }
}

/// Rebuilt through the public builder, after checking everything its
/// assertions would panic on.
impl Get for LinearProgram {
    fn get(d: &mut Dec<'_>) -> Result<Self, CodecError> {
        let vars = Vec::<(String, f64)>::get(d)?;
        let constraints = Vec::<Constraint>::get(d)?;
        let mut lp = LinearProgram::new();
        for (name, objective) in vars {
            if !objective.is_finite() {
                return Err(CodecError::Invalid("objective"));
            }
            lp.add_var(name, objective);
        }
        for c in constraints {
            if c.coeffs.len() != lp.num_vars() || c.coeffs.iter().any(|x| !x.is_finite()) {
                return Err(CodecError::Invalid("constraint coefficients"));
            }
            let terms: Vec<(usize, f64)> = c.coeffs.into_iter().enumerate().collect();
            lp.add_constraint(c.label, &terms, c.rhs);
        }
        Ok(lp)
    }
}

/// A full store record: magic, format, digest, the result, and the
/// checksum of all of that.
fn encode_record(digest: u64, r: &RunResult) -> Vec<u8> {
    let mut out = MAGIC.to_vec();
    (STORE_FORMAT, digest, r).put(&mut out);
    fnv1a(&out).put(&mut out);
    out
}

/// Decode a store record, validating magic, format, checksum and digest.
/// The checksum is checked before the payload is parsed: FNV-1a's steps
/// are bijections, so any one substituted byte is a mismatch.
fn decode_record(digest: u64, buf: &[u8]) -> Result<RunResult, CodecError> {
    let (body, sum) = buf.split_last_chunk().ok_or(CodecError::Truncated)?;
    let mut d = Dec(body);
    if d.take(MAGIC.len())? != MAGIC {
        return Err(CodecError::Header("magic"));
    }
    if u32::get(&mut d)? != STORE_FORMAT {
        return Err(CodecError::Header("format version"));
    }
    if fnv1a(body) != u64::from_be_bytes(*sum) {
        return Err(CodecError::Header("checksum"));
    }
    if u64::get(&mut d)? != digest {
        return Err(CodecError::Header("digest"));
    }
    let r = RunResult::get(&mut d)?;
    d.done()?;
    Ok(r)
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
/// The directory is the index: a lookup reads `<digest>.run`, and a missing
/// file is a miss. Thread-safe: the counters are atomics, and every writer
/// fills a temp file of its own and renames it into place, so concurrent
/// writers of the same digest race benignly (both write identical bytes — a
/// run is a pure function of its digest inputs) and a reader sees a whole
/// record or none.
#[derive(Debug)]
pub struct RunStore {
    dir: PathBuf,
    hits: AtomicU64,
    misses: AtomicU64,
    bytes_written: AtomicU64,
    bytes_read: AtomicU64,
}

/// Numbers this process's temp files, so no two writers share one.
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

impl RunStore {
    /// Open (creating if necessary) a store rooted at `dir`.
    pub fn open(dir: impl AsRef<Path>) -> std::io::Result<RunStore> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        Ok(RunStore {
            dir,
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
        let hit = match std::fs::read(self.record_path(digest)) {
            Err(_) => None,
            Ok(buf) => match decode_record(digest, &buf) {
                Ok(r) => {
                    self.bytes_read
                        .fetch_add(buf.len() as u64, Ordering::Relaxed);
                    Some(r)
                }
                Err(e) => {
                    eprintln!(
                        "warning: store record {digest:016x} unreadable ({e}); re-simulating"
                    );
                    None
                }
            },
        };
        let counter = if hit.is_some() {
            &self.hits
        } else {
            &self.misses
        };
        counter.fetch_add(1, Ordering::Relaxed);
        hit
    }

    /// Persist a result under its digest (temp file + atomic rename).
    pub fn put(&self, digest: u64, result: &RunResult) -> std::io::Result<()> {
        let bytes = encode_record(digest, result);
        let tmp = self.dir.join(format!(
            "{digest:016x}.run.tmp.{}.{}",
            std::process::id(),
            TMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        {
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(&bytes)?;
            f.sync_all()?;
        }
        std::fs::rename(&tmp, self.record_path(digest))?;
        self.bytes_written
            .fetch_add(bytes.len() as u64, Ordering::Relaxed);
        Ok(())
    }

    /// Number of records (`*.run` files) in the directory.
    pub fn len(&self) -> usize {
        std::fs::read_dir(&self.dir).map_or(0, |entries| {
            entries
                .filter(|e| {
                    e.as_ref()
                        .is_ok_and(|e| e.file_name().to_string_lossy().ends_with(".run"))
                })
                .count()
        })
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
    use std::collections::BTreeSet;
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

        // Table-1 corpus: the paper sweep across all five algorithms, all
        // three default paths, six seeds.
        let spec = SweepSpec::paper(
            &[
                CcAlgo::Cubic,
                CcAlgo::Lia,
                CcAlgo::Olia,
                CcAlgo::Balia,
                CcAlgo::WVegas,
            ],
            0..6,
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

    /// The two results encode to the same bytes: every field, exact to
    /// the bit on floats (the store must reproduce, not approximate).
    fn assert_results_identical(a: &RunResult, b: &RunResult) {
        let bytes = |r: &RunResult| {
            let mut out = Vec::new();
            r.put(&mut out);
            out
        };
        assert!(bytes(a) == bytes(b), "results differ");
    }

    #[test]
    fn codec_roundtrips_a_real_result_exactly() {
        let result = paper_scenario().run();
        let digest = paper_scenario().digest();
        let bytes = encode_record(digest, &result);
        let back = decode_record(digest, &bytes).expect("decode");
        assert_results_identical(&result, &back);
    }

    /// A format-3 record of `paper_scenario()`, whose digest is
    /// `FIXTURE_DIGEST`. A change to `RunResult` or to its encoding stops
    /// it decoding or re-encoding byte for byte: bump `STORE_FORMAT`, write
    /// `encode_record(paper_scenario().digest(), &paper_scenario().run())`
    /// over the file, and re-pin its checksum in the test below.
    const FIXTURE: &[u8] = include_bytes!("../testdata/paper_500ms.run");
    const FIXTURE_DIGEST: u64 = 0x7e40_4f78_a9a7_9471;

    #[test]
    fn fixture_decodes_and_reencodes_byte_for_byte() {
        let result = decode_record(FIXTURE_DIGEST, FIXTURE).expect("decode");
        assert!(encode_record(FIXTURE_DIGEST, &result) == FIXTURE);
        let checksum = FIXTURE.last_chunk().map(|b| u64::from_be_bytes(*b));
        assert_eq!((STORE_FORMAT, checksum), (3, Some(0xe31f_4bd8_1121_9cb0)));
    }

    /// Every truncation, and every single-bit flip and inverted byte, of a
    /// real record is an error, never data.
    #[test]
    fn decode_rejects_corruption_and_wrong_digest() {
        assert!(matches!(
            decode_record(FIXTURE_DIGEST ^ 1, FIXTURE),
            Err(CodecError::Header("digest"))
        ));
        for len in 0..FIXTURE.len() {
            let truncated = &FIXTURE[..len];
            assert!(
                decode_record(FIXTURE_DIGEST, truncated).is_err(),
                "{len} bytes decoded"
            );
        }
        let mut garbled = FIXTURE.to_vec();
        for i in 0..garbled.len() {
            for flip in (0..8).map(|bit| 1u8 << bit).chain([0xff]) {
                garbled[i] ^= flip;
                let decoded = decode_record(FIXTURE_DIGEST, &garbled);
                assert!(decoded.is_err(), "byte {i} ^ {flip:#04x} decoded");
                garbled[i] ^= flip;
            }
        }
    }

    /// `CcAlgo`'s tag 1, once packet-level Reno, is assigned to nothing: it
    /// decodes to a typed error like any unknown tag, and the five laws
    /// keep their bytes.
    #[test]
    fn the_freed_algorithm_tag_is_a_typed_error() {
        for (algo, tag) in [
            (CcAlgo::Cubic, 0u8),
            (CcAlgo::Lia, 2),
            (CcAlgo::Olia, 3),
            (CcAlgo::Balia, 4),
            (CcAlgo::WVegas, 5),
        ] {
            let mut out = Vec::new();
            algo.put(&mut out);
            assert_eq!(out, [tag], "{algo:?}");
            assert!(matches!(CcAlgo::get(&mut Dec(&out)), Ok(a) if a == algo));
        }
        for tag in [1u8, 6, 0xff] {
            assert!(
                matches!(
                    CcAlgo::get(&mut Dec(&[tag])),
                    Err(CodecError::Invalid("CcAlgo"))
                ),
                "tag {tag}"
            );
        }
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

    /// Writers of one digest on several threads of one process each use a
    /// temp file of their own: every `put` succeeds and every `get` after it
    /// hits.
    #[test]
    fn concurrent_puts_of_one_digest_all_land() {
        let store = tmp_store("concurrent");
        let scenario = paper_scenario();
        let digest = scenario.digest();
        let result = scenario.run();
        let start = std::sync::Barrier::new(8);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    start.wait();
                    for _ in 0..50 {
                        store.put(digest, &result).expect("put");
                        assert!(store.get(digest).is_some(), "get after put missed");
                    }
                });
            }
        });
        assert_eq!(store.stats().hits, 400);
        assert_eq!(store.len(), 1);
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
        // under its current key, and the stale record just sits there.
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

    /// FIXTURE with its LP's first row's sense byte and right-hand side
    /// overwritten and the checksum recomputed, so only the values can
    /// make the record unreadable.
    fn fixture_with_first_row(sense: u8, rhs: f64) -> Vec<u8> {
        let result = decode_record(FIXTURE_DIGEST, FIXTURE).expect("decode");
        let row = &result.lp.lp.constraints()[0];
        let mut encoded = Vec::new();
        (&row.coeffs, 0u8, row.rhs).put(&mut encoded);
        let at = FIXTURE
            .windows(encoded.len())
            .position(|w| w == encoded)
            .expect("the first row's bytes are in the record")
            + encoded.len()
            - 9;
        let mut bytes = FIXTURE[..FIXTURE.len() - 8].to_vec();
        bytes[at] = sense;
        bytes[at + 1..at + 9].copy_from_slice(&rhs.to_bits().to_be_bytes());
        let checksum = fnv1a(&bytes);
        checksum.put(&mut bytes);
        bytes
    }

    /// A `≥` row or a negative capacity would trip the LP builder's
    /// assertion: the decoder refuses both first, and the store reports an
    /// unreadable miss.
    #[test]
    fn a_record_the_builder_would_refuse_is_an_unreadable_miss() {
        assert!(
            fixture_with_first_row(0, 40.0) == FIXTURE,
            "the paper's first row"
        );
        let store = tmp_store("refused-row");
        for (bytes, what) in [
            (fixture_with_first_row(1, 40.0), "constraint sense"),
            (fixture_with_first_row(0, -1.0), "rhs"),
        ] {
            assert!(matches!(
                decode_record(FIXTURE_DIGEST, &bytes),
                Err(CodecError::Invalid(w)) if w == what
            ));
            std::fs::write(store.record_path(FIXTURE_DIGEST), &bytes).expect("write");
            assert!(store.get(FIXTURE_DIGEST).is_none(), "{what}");
        }
        assert_eq!((store.stats().hits, store.stats().misses), (0, 2));
        let _ = std::fs::remove_dir_all(store.dir());
    }

    /// Absolute digests of a paper, a failover (every fault kind), an
    /// AQM-ablation (RED+ECN links, round-robin, ECN) and a CoDel scenario,
    /// pinned at `DIGEST_VERSION` 3, when the convergence band's
    /// `tolerance` and `hold` left the scenario. A change that moves one
    /// turns every stored record into a miss: it must come with a
    /// `DIGEST_VERSION` bump and new pins.
    #[test]
    fn digests_are_pinned() {
        use crate::failover::{failover_scenario, FailoverConfig, FailoverSetup};
        use crate::paper::PaperNetworkConfig;
        let setup = FailoverSetup::paper();
        let link = setup.dead_link;
        let failover = failover_scenario(&setup, CcAlgo::Lia, 1, &FailoverConfig::default());
        let faults = failover
            .faults
            .clone()
            .at(
                SimTime::from_secs(2),
                FaultAction::SetCapacity(link, Bandwidth::from_mbps(5)),
            )
            .at(
                SimTime::from_secs(3),
                FaultAction::SetCapacity(link, Bandwidth::from_mbps(40)),
            )
            .at(
                SimTime::from_secs(3),
                FaultAction::SetDelay(link, SimDuration::from_millis(3)),
            );
        let failover = failover.with_faults(faults);
        let aqm = |queue| {
            let net = PaperNetwork::build(&PaperNetworkConfig {
                queue,
                ..Default::default()
            });
            Scenario {
                default_path: net.default_path,
                ..Scenario::new(net.topology, net.paths)
            }
        };
        let ablation = Scenario {
            scheduler: SchedulerKind::RoundRobin,
            ecn: true,
            ..aqm(QueueConfig::Red { ecn_marking: true })
        };
        let codel = aqm(QueueConfig::CoDel);
        assert_eq!(
            [
                paper_scenario().digest(),
                failover.digest(),
                ablation.digest(),
                codel.digest()
            ],
            [
                0x7e40_4f78_a9a7_9471,
                0x32e3_8276_35b2_2c49,
                0xb52f_55f0_9a58_99c3,
                0xf0b9_1d7e_7ce6_b2dd
            ]
        );
    }
}
