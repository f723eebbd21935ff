//! Typed stage artifacts of the exploration pipeline.
//!
//! The paper's Figure 1/2 loop is a chain of stages — compile →
//! profile → schedule (optimize) → analyze (detect) → design →
//! evaluate. Each stage's output is a distinct artifact type carrying
//! its benchmark identity and the parameters it was produced under, so
//! downstream code cannot accidentally mix a level-0 schedule with a
//! level-2 report. Payloads are shared through [`Arc`]: a cache hit in
//! the [`Explorer`](crate::Explorer) session returns a handle to the
//! *same* underlying data, never a re-computed copy.

use asip_benchmarks::Benchmark;
use asip_chains::SequenceReport;
use asip_ir::{OpClass, Program};
use asip_opt::{OptLevel, ScheduleGraph};
use asip_sim::Profile;
use asip_synth::{AsipDesign, Evaluation};
use std::sync::Arc;

/// The stages of the exploration pipeline: the six per-benchmark stages
/// in paper order, then the two suite-level stages (one shared ASIP for
/// a set of applications — the paper's actual deployment scenario).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Stage {
    /// Mini-C source → validated 3-address code (Figure 2, step 1).
    Compile,
    /// Dynamic execution counts on the Table-1 input data (step 2).
    Profile,
    /// Optimized wide-instruction program graph (step 3).
    Schedule,
    /// Detected chainable-sequence report (step 4, the contribution).
    Analyze,
    /// Selected ISA extension set under constraints (Figure 1).
    Design,
    /// Measured speedup of the rewritten program (Figure 1, closed).
    Evaluate,
    /// One extension set selected for a whole benchmark suite.
    DesignSuite,
    /// The suite design measured on every member.
    EvaluateSuite,
    /// The pruned design-space frontier of a whole constraint grid
    /// explored over a suite (per-config winners + pareto points).
    DesignSpace,
}

/// Number of pipeline stages — the length of [`Stage::all`], and the
/// size of every `Stage as usize`-indexed counter array.
pub const STAGE_COUNT: usize = 9;

impl Stage {
    /// All stages in pipeline order (suite stages last).
    pub fn all() -> [Stage; STAGE_COUNT] {
        [
            Stage::Compile,
            Stage::Profile,
            Stage::Schedule,
            Stage::Analyze,
            Stage::Design,
            Stage::Evaluate,
            Stage::DesignSuite,
            Stage::EvaluateSuite,
            Stage::DesignSpace,
        ]
    }

    /// Stable lowercase name (used in stats displays, store directory
    /// names and the store manifest).
    pub fn name(self) -> &'static str {
        match self {
            Stage::Compile => "compile",
            Stage::Profile => "profile",
            Stage::Schedule => "schedule",
            Stage::Analyze => "analyze",
            Stage::Design => "design",
            Stage::Evaluate => "evaluate",
            Stage::DesignSuite => "design-suite",
            Stage::EvaluateSuite => "evaluate-suite",
            Stage::DesignSpace => "design-space",
        }
    }

    /// The inverse of [`Stage::name`], for parsers of on-disk state
    /// (store manifests, stage directory names). Unknown names are
    /// `None`, never a panic — on-disk state is untrusted input.
    pub fn from_name(name: &str) -> Option<Stage> {
        Stage::all().into_iter().find(|s| s.name() == name)
    }
}

impl std::fmt::Display for Stage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Compile-stage artifact: validated 3-address code.
#[derive(Debug, Clone)]
pub struct Compiled {
    /// The benchmark this program was compiled from.
    pub benchmark: Benchmark,
    /// The validated IR (shared with every dependent artifact).
    pub program: Arc<Program>,
}

/// Profile-stage artifact: dynamic execution counts.
#[derive(Debug, Clone)]
pub struct Profiled {
    /// The benchmark that was simulated.
    pub benchmark: Benchmark,
    /// The data-generation seed the run used.
    pub seed: u64,
    /// Per-instruction dynamic counts.
    pub profile: Arc<Profile>,
}

/// Schedule-stage artifact: the optimized program graph at one level.
#[derive(Debug, Clone)]
pub struct Scheduled {
    /// The benchmark that was scheduled.
    pub benchmark: Benchmark,
    /// The optimization level the graph was produced at.
    pub level: OptLevel,
    /// The wide-instruction program graph.
    pub graph: Arc<ScheduleGraph>,
}

/// Analyze-stage artifact: the detected-sequence report at one level.
#[derive(Debug, Clone)]
pub struct Analyzed {
    /// The benchmark that was analyzed.
    pub benchmark: Benchmark,
    /// The optimization level the analysis ran over.
    pub level: OptLevel,
    /// Sequence signatures with dynamic frequencies.
    pub report: Arc<SequenceReport>,
}

/// Design-stage artifact: the selected ISA extension set.
#[derive(Debug, Clone)]
pub struct Designed {
    /// The benchmark the design was tuned for.
    pub benchmark: Benchmark,
    /// The chained-instruction extensions chosen under constraints.
    pub design: Arc<AsipDesign>,
}

/// Evaluate-stage artifact: the measured effect of the design.
#[derive(Debug, Clone)]
pub struct Evaluated {
    /// The benchmark that was measured.
    pub benchmark: Benchmark,
    /// The design that was applied.
    pub design: Arc<AsipDesign>,
    /// Before/after cycle counts and speedup (shared with the session
    /// cache like every other artifact payload).
    pub evaluation: Arc<Evaluation>,
}

/// Suite-design-stage artifact: one extension set shared by a suite.
#[derive(Debug, Clone)]
pub struct DesignedSuite {
    /// The member benchmark names, sorted and deduplicated (the suite's
    /// canonical identity — also its cache-key order).
    pub benchmarks: Vec<String>,
    /// The shared extension set selected from the combined feedback.
    pub design: Arc<AsipDesign>,
}

/// Suite-evaluate-stage artifact: the shared design measured on every
/// suite member.
#[derive(Debug, Clone)]
pub struct EvaluatedSuite {
    /// The member benchmark names, sorted and deduplicated.
    pub benchmarks: Vec<String>,
    /// The shared extension set that was applied.
    pub design: Arc<AsipDesign>,
    /// Per-member measurements, in `benchmarks` order.
    pub evaluations: Arc<Vec<(String, Evaluation)>>,
}

/// Design-space-stage artifact: the pruned frontier of a whole
/// constraint grid explored over a suite in one incremental search.
#[derive(Debug, Clone)]
pub struct DesignSpaced {
    /// The member benchmark names, sorted and deduplicated.
    pub benchmarks: Vec<String>,
    /// Per-config winners and pareto points (shared with the session
    /// cache like every other artifact payload).
    pub space: Arc<asip_synth::DesignSpace>,
}

impl EvaluatedSuite {
    /// The measured speedup of one member, if it is in the suite.
    pub fn speedup_of(&self, name: &str) -> Option<f64> {
        self.evaluations
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, e)| e.speedup)
    }

    /// Geometric-mean speedup over the members, or `None` for an empty
    /// suite (the mean of zero factors is undefined, not `NaN`).
    pub fn geomean_speedup(&self) -> Option<f64> {
        geomean(self.evaluations.iter().map(|(_, e)| e.speedup))
    }
}

/// Geometric mean of a speedup series, or `None` for an empty series
/// (a mean of zero factors would otherwise divide 0 by 0 and print as
/// `NaN`).
pub fn geomean(speedups: impl IntoIterator<Item = f64>) -> Option<f64> {
    let (count, log_sum) = speedups
        .into_iter()
        .fold((0u32, 0.0_f64), |(n, sum), s| (n + 1, sum + s.ln()));
    if count == 0 {
        return None;
    }
    Some((log_sum / f64::from(count)).exp())
}

/// A stage result at the API boundary: any artifact, tagged by stage.
///
/// Stage methods on [`Explorer`](crate::Explorer) return the concrete
/// artifact types above; this enum is for callers that treat the
/// pipeline uniformly (progress reporting, artifact stores, servers).
#[derive(Debug, Clone)]
pub enum Artifact {
    /// Compile-stage result.
    Compiled(Compiled),
    /// Profile-stage result.
    Profiled(Profiled),
    /// Schedule-stage result.
    Scheduled(Scheduled),
    /// Analyze-stage result.
    Analyzed(Analyzed),
    /// Design-stage result.
    Designed(Designed),
    /// Evaluate-stage result.
    Evaluated(Evaluated),
    /// Suite-design-stage result.
    DesignedSuite(DesignedSuite),
    /// Suite-evaluate-stage result.
    EvaluatedSuite(EvaluatedSuite),
    /// Design-space-stage result.
    DesignSpaced(DesignSpaced),
}

impl Artifact {
    /// Which stage produced this artifact.
    pub fn stage(&self) -> Stage {
        match self {
            Artifact::Compiled(_) => Stage::Compile,
            Artifact::Profiled(_) => Stage::Profile,
            Artifact::Scheduled(_) => Stage::Schedule,
            Artifact::Analyzed(_) => Stage::Analyze,
            Artifact::Designed(_) => Stage::Design,
            Artifact::Evaluated(_) => Stage::Evaluate,
            Artifact::DesignedSuite(_) => Stage::DesignSuite,
            Artifact::EvaluatedSuite(_) => Stage::EvaluateSuite,
            Artifact::DesignSpaced(_) => Stage::DesignSpace,
        }
    }

    /// The benchmark the artifact belongs to, for the per-benchmark
    /// stages. Suite-level artifacts span many benchmarks and return
    /// `None` — their members are in their `benchmarks` field.
    pub fn benchmark(&self) -> Option<&Benchmark> {
        match self {
            Artifact::Compiled(a) => Some(&a.benchmark),
            Artifact::Profiled(a) => Some(&a.benchmark),
            Artifact::Scheduled(a) => Some(&a.benchmark),
            Artifact::Analyzed(a) => Some(&a.benchmark),
            Artifact::Designed(a) => Some(&a.benchmark),
            Artifact::Evaluated(a) => Some(&a.benchmark),
            Artifact::DesignedSuite(_)
            | Artifact::EvaluatedSuite(_)
            | Artifact::DesignSpaced(_) => None,
        }
    }
}

/// The complete result of exploring one benchmark: every stage artifact
/// the session's configuration asked for.
#[derive(Debug, Clone)]
pub struct Exploration {
    /// The explored benchmark.
    pub benchmark: Benchmark,
    /// Compile-stage artifact.
    pub compiled: Compiled,
    /// Profile-stage artifact.
    pub profiled: Profiled,
    /// One (schedule, analysis) pair per configured level, in the
    /// session's level order.
    pub levels: Vec<(Scheduled, Analyzed)>,
    /// Design-stage artifact.
    pub designed: Designed,
    /// Evaluate-stage artifact.
    pub evaluated: Evaluated,
}

impl Exploration {
    /// The schedule graph produced at `level`, if that level was
    /// configured on the session.
    pub fn graph_at(&self, level: OptLevel) -> Option<&ScheduleGraph> {
        self.levels
            .iter()
            .find(|(s, _)| s.level == level)
            .map(|(s, _)| s.graph.as_ref())
    }

    /// The sequence report produced at `level`, if configured.
    pub fn report_at(&self, level: OptLevel) -> Option<&SequenceReport> {
        self.levels
            .iter()
            .find(|(_, a)| a.level == level)
            .map(|(_, a)| a.report.as_ref())
    }

    /// The measured speedup of the selected design.
    pub fn speedup(&self) -> f64 {
        self.evaluated.evaluation.speedup
    }
}

// -- the artifact codec ------------------------------------------------
//
// The offline build links a no-op `serde` shim, so derive-based
// serialization is unavailable; stage payloads are persisted with this
// hand-rolled self-describing binary codec instead. Every value carries
// a one-byte type tag, so a decoder reading skewed bytes fails with a
// typed [`CodecError`] instead of misinterpreting them. Swapping in the
// real serde later is mechanical: replace each `ArtifactCodec` impl
// with the already-present derives and re-point the store at
// `bincode`/`serde_json`.

/// Type tags of the self-describing binary artifact encoding. One tag
/// byte precedes every encoded value; see `docs/persistence.md` for the
/// full framing specification.
mod tag {
    /// Unsigned 64-bit integer (8 bytes little-endian follow).
    pub const U64: u8 = 0x01;
    /// Signed 64-bit integer (8 bytes little-endian follow).
    pub const I64: u8 = 0x02;
    /// IEEE-754 double (8 bytes little-endian bit pattern follow).
    pub const F64: u8 = 0x03;
    /// Boolean (1 byte follows: 0 or 1).
    pub const BOOL: u8 = 0x04;
    /// UTF-8 string (u64 little-endian byte length, then the bytes).
    pub const STR: u8 = 0x05;
    /// Sequence header (u64 little-endian element count; the elements
    /// follow, each self-tagged).
    pub const SEQ: u8 = 0x06;
    /// Absent optional value (no payload).
    pub const NONE: u8 = 0x07;
    /// Present optional value (the value follows, self-tagged).
    pub const SOME: u8 = 0x08;
    /// Raw byte string (u64 little-endian byte length, then the bytes
    /// verbatim). Carries opaque payloads — e.g. already-encoded
    /// artifacts traveling through the wire protocol — without
    /// re-interpreting them.
    pub const BYTES: u8 = 0x09;
}

/// Write half of the artifact codec: a growing byte buffer with one
/// `put_*` method per primitive of the encoding.
///
/// ```
/// use asip_explorer::artifact::{ArtifactCodec, Decoder, Encoder};
///
/// let mut enc = Encoder::new();
/// enc.put_str("fir");
/// enc.put_u64(1995);
/// let bytes = enc.into_bytes();
///
/// let mut dec = Decoder::new(&bytes);
/// assert_eq!(dec.str()?, "fir");
/// assert_eq!(dec.u64()?, 1995);
/// dec.finish()?;
/// # Ok::<(), asip_explorer::error::CodecError>(())
/// ```
#[derive(Debug, Default)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    /// An empty encoder.
    pub fn new() -> Self {
        Encoder::default()
    }

    /// The encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Append an unsigned integer.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.push(tag::U64);
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a signed integer.
    pub fn put_i64(&mut self, v: i64) {
        self.buf.push(tag::I64);
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a float (by exact bit pattern — NaNs round-trip).
    pub fn put_f64(&mut self, v: f64) {
        self.buf.push(tag::F64);
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    /// Append a boolean.
    pub fn put_bool(&mut self, v: bool) {
        self.buf.push(tag::BOOL);
        self.buf.push(u8::from(v));
    }

    /// Append a string.
    pub fn put_str(&mut self, v: &str) {
        self.buf.push(tag::STR);
        self.buf.extend_from_slice(&(v.len() as u64).to_le_bytes());
        self.buf.extend_from_slice(v.as_bytes());
    }

    /// Append an opaque byte string verbatim. The counterpart of
    /// [`Decoder::bytes`]; used for payloads that are already encoded
    /// (a nested artifact moving through the remote protocol) and must
    /// round-trip untouched.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.buf.push(tag::BYTES);
        self.buf.extend_from_slice(&(v.len() as u64).to_le_bytes());
        self.buf.extend_from_slice(v);
    }

    /// Append a sequence header; the caller then encodes exactly `len`
    /// elements.
    pub fn put_seq(&mut self, len: usize) {
        self.buf.push(tag::SEQ);
        self.buf.extend_from_slice(&(len as u64).to_le_bytes());
    }

    /// Append a whole slice as a sequence (header plus every element),
    /// without requiring the caller to own a `Vec` — the stage payloads
    /// that expose their data as slices encode through this instead of
    /// cloning with `to_vec()` first.
    pub fn put_elems<T: ArtifactCodec>(&mut self, items: &[T]) {
        self.put_seq(items.len());
        for v in items {
            v.encode(self);
        }
    }

    /// Append an optional value.
    pub fn put_option<T: ArtifactCodec>(&mut self, v: Option<&T>) {
        match v {
            None => self.buf.push(tag::NONE),
            Some(v) => {
                self.buf.push(tag::SOME);
                v.encode(self);
            }
        }
    }
}

/// Read half of the artifact codec: a cursor over encoded bytes that
/// validates every type tag. See [`Encoder`] for a round-trip example.
#[derive(Debug)]
pub struct Decoder<'a> {
    bytes: &'a [u8],
    pos: usize,
}

use crate::error::CodecError;

impl<'a> Decoder<'a> {
    /// A decoder over `bytes`, positioned at the start.
    pub fn new(bytes: &'a [u8]) -> Self {
        Decoder { bytes, pos: 0 }
    }

    /// Current read offset (for error reporting).
    pub fn position(&self) -> usize {
        self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or(CodecError::Truncated { at: self.pos })?;
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn expect_tag(&mut self, expected: u8) -> Result<(), CodecError> {
        let at = self.pos;
        let found = self.take(1)?[0];
        if found == expected {
            Ok(())
        } else {
            Err(CodecError::Tag {
                at,
                expected,
                found,
            })
        }
    }

    fn raw_u64(&mut self) -> Result<u64, CodecError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    /// Read an unsigned integer.
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        self.expect_tag(tag::U64)?;
        self.raw_u64()
    }

    /// Read an unsigned integer that must fit `usize`.
    pub fn usize(&mut self) -> Result<usize, CodecError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| CodecError::Invalid {
            detail: format!("{v} does not fit usize"),
        })
    }

    /// Read an unsigned integer that must fit `u32`.
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        let v = self.u64()?;
        u32::try_from(v).map_err(|_| CodecError::Invalid {
            detail: format!("{v} does not fit u32"),
        })
    }

    /// Read a signed integer.
    pub fn i64(&mut self) -> Result<i64, CodecError> {
        self.expect_tag(tag::I64)?;
        self.raw_u64().map(|v| v as i64)
    }

    /// Read a float.
    pub fn f64(&mut self) -> Result<f64, CodecError> {
        self.expect_tag(tag::F64)?;
        self.raw_u64().map(f64::from_bits)
    }

    /// Read a boolean.
    pub fn bool(&mut self) -> Result<bool, CodecError> {
        self.expect_tag(tag::BOOL)?;
        match self.take(1)?[0] {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(CodecError::Invalid {
                detail: format!("boolean byte {other:#04x}"),
            }),
        }
    }

    /// Read a string.
    pub fn str(&mut self) -> Result<String, CodecError> {
        self.expect_tag(tag::STR)?;
        let len = self.raw_u64()?;
        let len = usize::try_from(len).map_err(|_| CodecError::Invalid {
            detail: format!("string length {len} does not fit usize"),
        })?;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|e| CodecError::Invalid {
            detail: format!("string is not UTF-8: {e}"),
        })
    }

    /// Read an opaque byte string written by [`Encoder::put_bytes`].
    pub fn bytes(&mut self) -> Result<Vec<u8>, CodecError> {
        self.expect_tag(tag::BYTES)?;
        let len = self.raw_u64()?;
        let len = usize::try_from(len).map_err(|_| CodecError::Invalid {
            detail: format!("byte-string length {len} does not fit usize"),
        })?;
        Ok(self.take(len)?.to_vec())
    }

    /// Read a sequence header, returning the element count. The caller
    /// then decodes exactly that many elements.
    pub fn seq(&mut self) -> Result<usize, CodecError> {
        self.expect_tag(tag::SEQ)?;
        let len = self.raw_u64()?;
        usize::try_from(len).map_err(|_| CodecError::Invalid {
            detail: format!("sequence length {len} does not fit usize"),
        })
    }

    /// Read an optional value.
    pub fn option<T: ArtifactCodec>(&mut self) -> Result<Option<T>, CodecError> {
        let at = self.pos;
        match self.take(1)?[0] {
            t if t == tag::NONE => Ok(None),
            t if t == tag::SOME => Ok(Some(T::decode(self)?)),
            found => Err(CodecError::Tag {
                at,
                expected: tag::SOME,
                found,
            }),
        }
    }

    /// Assert that every byte was consumed (corrupted entries often
    /// decode to a structurally valid prefix; this catches the rest).
    pub fn finish(self) -> Result<(), CodecError> {
        let remaining = self.bytes.len() - self.pos;
        if remaining == 0 {
            Ok(())
        } else {
            Err(CodecError::Trailing { remaining })
        }
    }
}

/// Binary encode/decode for one artifact payload type.
///
/// Implemented by every stage payload the
/// [`Explorer`](crate::Explorer) caches ([`Program`], [`Profile`],
/// [`ScheduleGraph`], [`SequenceReport`], [`AsipDesign`],
/// [`Evaluation`] and the suite evaluation vector), plus the primitives
/// they are built from. `decode(encode(x)) == x` for every valid value;
/// decoding arbitrary bytes returns a [`CodecError`], never panics.
///
/// ```
/// use asip_explorer::artifact::{ArtifactCodec, Decoder, Encoder};
/// use asip_explorer::synth::Evaluation;
///
/// let e = Evaluation {
///     base_cycles: 200, asip_cycles: 100, speedup: 2.0,
///     fused_chains: 3, extension_area: 512.0,
/// };
/// let mut enc = Encoder::new();
/// e.encode(&mut enc);
/// let bytes = enc.into_bytes();
/// let mut dec = Decoder::new(&bytes);
/// assert_eq!(Evaluation::decode(&mut dec)?, e);
/// dec.finish()?;
/// # Ok::<(), asip_explorer::error::CodecError>(())
/// ```
pub trait ArtifactCodec: Sized {
    /// Append this value's encoding to `enc`.
    fn encode(&self, enc: &mut Encoder);

    /// Decode one value from the cursor.
    ///
    /// # Errors
    ///
    /// Any [`CodecError`] on truncated, mistyped or invalid bytes.
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError>;

    /// Encode into a fresh byte vector.
    fn to_bytes(&self) -> Vec<u8> {
        let mut enc = Encoder::new();
        self.encode(&mut enc);
        enc.into_bytes()
    }

    /// Decode from a complete byte slice, requiring full consumption.
    ///
    /// # Errors
    ///
    /// As [`ArtifactCodec::decode`], plus [`CodecError::Trailing`] when
    /// bytes are left over.
    fn from_bytes(bytes: &[u8]) -> Result<Self, CodecError> {
        let mut dec = Decoder::new(bytes);
        let v = Self::decode(&mut dec)?;
        dec.finish()?;
        Ok(v)
    }
}

/// Decode a batch of independently-encoded payloads of one artifact
/// type, returning one result per payload (order preserved). For batch
/// consumers of staged/persisted artifacts (e.g. tools sweeping a store
/// directory): a single damaged payload yields one `Err` entry instead
/// of aborting the whole batch.
pub fn decode_batch<V: ArtifactCodec>(
    payloads: impl IntoIterator<Item = impl AsRef<[u8]>>,
) -> Vec<Result<V, CodecError>> {
    payloads
        .into_iter()
        .map(|p| V::from_bytes(p.as_ref()))
        .collect()
}

impl ArtifactCodec for u32 {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u64(u64::from(*self));
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        dec.u32()
    }
}

impl ArtifactCodec for u64 {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u64(*self);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        dec.u64()
    }
}

impl ArtifactCodec for usize {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u64(*self as u64);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        dec.usize()
    }
}

impl ArtifactCodec for i64 {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_i64(*self);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        dec.i64()
    }
}

impl ArtifactCodec for f64 {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_f64(*self);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        dec.f64()
    }
}

impl ArtifactCodec for bool {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_bool(*self);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        dec.bool()
    }
}

impl ArtifactCodec for String {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_str(self);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        dec.str()
    }
}

impl<T: ArtifactCodec> ArtifactCodec for Vec<T> {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_seq(self.len());
        for v in self {
            v.encode(enc);
        }
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        let len = dec.seq()?;
        // Cap the up-front reservation: a corrupted length must not
        // allocate gigabytes before element decoding fails.
        let mut out = Vec::with_capacity(len.min(1024));
        for _ in 0..len {
            out.push(T::decode(dec)?);
        }
        Ok(out)
    }
}

impl<A: ArtifactCodec, B: ArtifactCodec> ArtifactCodec for (A, B) {
    fn encode(&self, enc: &mut Encoder) {
        self.0.encode(enc);
        self.1.encode(enc);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok((A::decode(dec)?, B::decode(dec)?))
    }
}

impl<T: ArtifactCodec> ArtifactCodec for Option<T> {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_option(self.as_ref());
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        dec.option()
    }
}

// -- IR ids and operands -----------------------------------------------

use asip_ir::{BinOp, Inst, InstKind, Operand, UnOp};
use asip_opt::NodeId;

impl ArtifactCodec for asip_ir::Reg {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u64(u64::from(self.0));
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok(asip_ir::Reg(dec.u32()?))
    }
}

impl ArtifactCodec for asip_ir::ArrayId {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u64(u64::from(self.0));
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok(asip_ir::ArrayId(dec.u32()?))
    }
}

impl ArtifactCodec for asip_ir::BlockId {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u64(u64::from(self.0));
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok(asip_ir::BlockId(dec.u32()?))
    }
}

impl ArtifactCodec for asip_ir::InstId {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u64(u64::from(self.0));
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok(asip_ir::InstId(dec.u32()?))
    }
}

impl ArtifactCodec for NodeId {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u64(u64::from(self.0));
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok(NodeId(dec.u32()?))
    }
}

/// Decode a mnemonic string through `FromStr` (the IR's mnemonics are
/// stable public vocabulary, which makes them better version-skew
/// detectors than raw discriminant integers).
fn parse_mnemonic<T: std::str::FromStr>(s: &str, what: &str) -> Result<T, CodecError> {
    s.parse().map_err(|_| CodecError::Invalid {
        detail: format!("unknown {what} mnemonic `{s}`"),
    })
}

impl ArtifactCodec for BinOp {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_str(self.mnemonic());
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        parse_mnemonic(&dec.str()?, "binary op")
    }
}

impl ArtifactCodec for UnOp {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_str(self.mnemonic());
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        parse_mnemonic(&dec.str()?, "unary op")
    }
}

impl ArtifactCodec for OpClass {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_str(self.paper_name());
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        parse_mnemonic(&dec.str()?, "op class")
    }
}

impl ArtifactCodec for Operand {
    fn encode(&self, enc: &mut Encoder) {
        match self {
            Operand::Reg(r) => {
                enc.put_u64(0);
                r.encode(enc);
            }
            Operand::ImmInt(v) => {
                enc.put_u64(1);
                enc.put_i64(*v);
            }
            Operand::ImmFloat(v) => {
                enc.put_u64(2);
                enc.put_f64(*v);
            }
        }
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        match dec.u64()? {
            0 => Ok(Operand::Reg(asip_ir::Reg::decode(dec)?)),
            1 => Ok(Operand::ImmInt(dec.i64()?)),
            2 => Ok(Operand::ImmFloat(dec.f64()?)),
            v => Err(CodecError::Invalid {
                detail: format!("operand variant {v}"),
            }),
        }
    }
}

impl ArtifactCodec for Inst {
    fn encode(&self, enc: &mut Encoder) {
        self.id.encode(enc);
        match &self.kind {
            InstKind::Binary { op, dst, lhs, rhs } => {
                enc.put_u64(0);
                op.encode(enc);
                dst.encode(enc);
                lhs.encode(enc);
                rhs.encode(enc);
            }
            InstKind::Unary { op, dst, src } => {
                enc.put_u64(1);
                op.encode(enc);
                dst.encode(enc);
                src.encode(enc);
            }
            InstKind::Load { dst, array, index } => {
                enc.put_u64(2);
                dst.encode(enc);
                array.encode(enc);
                index.encode(enc);
            }
            InstKind::Store {
                array,
                index,
                value,
            } => {
                enc.put_u64(3);
                array.encode(enc);
                index.encode(enc);
                value.encode(enc);
            }
            InstKind::Branch {
                cond,
                then_target,
                else_target,
            } => {
                enc.put_u64(4);
                cond.encode(enc);
                then_target.encode(enc);
                else_target.encode(enc);
            }
            InstKind::Jump { target } => {
                enc.put_u64(5);
                target.encode(enc);
            }
            InstKind::Ret { value } => {
                enc.put_u64(6);
                value.encode(enc);
            }
            InstKind::Chained {
                ext,
                dst,
                inputs,
                ops,
            } => {
                enc.put_u64(7);
                ext.encode(enc);
                dst.encode(enc);
                inputs.encode(enc);
                ops.encode(enc);
            }
        }
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        let id = asip_ir::InstId::decode(dec)?;
        let kind = match dec.u64()? {
            0 => InstKind::Binary {
                op: BinOp::decode(dec)?,
                dst: asip_ir::Reg::decode(dec)?,
                lhs: Operand::decode(dec)?,
                rhs: Operand::decode(dec)?,
            },
            1 => InstKind::Unary {
                op: UnOp::decode(dec)?,
                dst: asip_ir::Reg::decode(dec)?,
                src: Operand::decode(dec)?,
            },
            2 => InstKind::Load {
                dst: asip_ir::Reg::decode(dec)?,
                array: asip_ir::ArrayId::decode(dec)?,
                index: Operand::decode(dec)?,
            },
            3 => InstKind::Store {
                array: asip_ir::ArrayId::decode(dec)?,
                index: Operand::decode(dec)?,
                value: Operand::decode(dec)?,
            },
            4 => InstKind::Branch {
                cond: Operand::decode(dec)?,
                then_target: asip_ir::BlockId::decode(dec)?,
                else_target: asip_ir::BlockId::decode(dec)?,
            },
            5 => InstKind::Jump {
                target: asip_ir::BlockId::decode(dec)?,
            },
            6 => InstKind::Ret {
                value: Option::<Operand>::decode(dec)?,
            },
            7 => InstKind::Chained {
                ext: u32::decode(dec)?,
                dst: asip_ir::Reg::decode(dec)?,
                inputs: Vec::<Operand>::decode(dec)?,
                ops: Vec::<BinOp>::decode(dec)?,
            },
            v => {
                return Err(CodecError::Invalid {
                    detail: format!("instruction variant {v}"),
                })
            }
        };
        Ok(Inst { id, kind })
    }
}

// -- stage payloads ----------------------------------------------------

impl ArtifactCodec for Program {
    /// Programs persist through the IR's lossless textual format (see
    /// [`asip_ir::parse_program`]): the dump is validated on decode, so
    /// a bit-flipped program file is rejected rather than simulated.
    /// `next_inst_id` is carried explicitly because the text encodes
    /// only the *used* ids.
    fn encode(&self, enc: &mut Encoder) {
        enc.put_str(&self.to_string());
        enc.put_u64(u64::from(self.next_inst_id));
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        let text = dec.str()?;
        let next = dec.u32()?;
        let mut program = asip_ir::parse_program(&text).map_err(|e| CodecError::Invalid {
            detail: format!("program text rejected: {e}"),
        })?;
        program.next_inst_id = program.next_inst_id.max(next);
        Ok(program)
    }
}

impl ArtifactCodec for Profile {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_elems(self.inst_counts());
        enc.put_elems(self.block_counts());
        enc.put_u64(self.total_ops());
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        let inst_counts = Vec::<u64>::decode(dec)?;
        let block_counts = Vec::<u64>::decode(dec)?;
        let total_ops = dec.u64()?;
        Ok(Profile::from_parts(inst_counts, block_counts, total_ops))
    }
}

impl ArtifactCodec for asip_opt::ScheduledOp {
    fn encode(&self, enc: &mut Encoder) {
        self.inst.encode(enc);
        self.orig.encode(enc);
        enc.put_f64(self.weight);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok(asip_opt::ScheduledOp {
            inst: Inst::decode(dec)?,
            orig: asip_ir::InstId::decode(dec)?,
            weight: dec.f64()?,
        })
    }
}

impl ArtifactCodec for asip_opt::SchedNode {
    fn encode(&self, enc: &mut Encoder) {
        self.ops.encode(enc);
        self.succs.encode(enc);
        self.preds.encode(enc);
        self.block.encode(enc);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok(asip_opt::SchedNode {
            ops: Vec::decode(dec)?,
            succs: Vec::decode(dec)?,
            preds: Vec::decode(dec)?,
            block: asip_ir::BlockId::decode(dec)?,
        })
    }
}

impl ArtifactCodec for ScheduleGraph {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_str(&self.name);
        self.nodes.encode(enc);
        self.entry.encode(enc);
        self.arrays_float.encode(enc);
        enc.put_u64(self.total_profile_ops);
        enc.put_bool(self.region_chaining);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        let graph = ScheduleGraph {
            name: dec.str()?,
            nodes: Vec::decode(dec)?,
            entry: NodeId::decode(dec)?,
            arrays_float: Vec::decode(dec)?,
            total_profile_ops: dec.u64()?,
            region_chaining: dec.bool()?,
        };
        // Re-validate structure: a decoded graph feeds the detector and
        // the design stage, which index nodes unchecked.
        graph
            .check_invariants()
            .map_err(|detail| CodecError::Invalid { detail })?;
        Ok(graph)
    }
}

impl ArtifactCodec for asip_chains::Signature {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_elems(self.classes());
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        let classes = Vec::<OpClass>::decode(dec)?;
        if classes.len() < 2 {
            return Err(CodecError::Invalid {
                detail: format!("signature of length {}", classes.len()),
            });
        }
        Ok(asip_chains::Signature::new(classes))
    }
}

impl ArtifactCodec for asip_chains::SeqStats {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_f64(self.frequency);
        enc.put_u64(self.occurrences as u64);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok(asip_chains::SeqStats {
            frequency: dec.f64()?,
            occurrences: dec.usize()?,
        })
    }
}

impl ArtifactCodec for SequenceReport {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_str(&self.name);
        enc.put_elems(self.entries());
        enc.put_u64(self.total_profile_ops);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        let name = dec.str()?;
        let entries = Vec::decode(dec)?;
        let total = dec.u64()?;
        // from_parts re-sorts, so a tampered entry order cannot change
        // what `top(n)` reports.
        Ok(SequenceReport::from_parts(name, entries, total))
    }
}

impl ArtifactCodec for asip_synth::IsaExtension {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u64(u64::from(self.id));
        self.signature.encode(enc);
        enc.put_f64(self.area);
        enc.put_f64(self.expected_benefit);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok(asip_synth::IsaExtension {
            id: dec.u32()?,
            signature: asip_chains::Signature::decode(dec)?,
            area: dec.f64()?,
            expected_benefit: dec.f64()?,
        })
    }
}

impl ArtifactCodec for AsipDesign {
    fn encode(&self, enc: &mut Encoder) {
        self.extensions.encode(enc);
        enc.put_f64(self.extension_area);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok(AsipDesign {
            extensions: Vec::decode(dec)?,
            extension_area: dec.f64()?,
        })
    }
}

impl ArtifactCodec for OptLevel {
    /// Levels persist by their stable paper number (0/1/2), the same
    /// identity the session cache keys fold.
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u64(u64::from(self.number()));
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        let n = dec.u64()?;
        OptLevel::all()
            .into_iter()
            .find(|l| u64::from(l.number()) == n)
            .ok_or_else(|| CodecError::Invalid {
                detail: format!("unknown optimization level {n}"),
            })
    }
}

impl ArtifactCodec for asip_synth::DesignConstraints {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_f64(self.area_budget);
        enc.put_f64(self.clock_ns);
        enc.put_u64(self.max_extensions as u64);
        self.opt_level.encode(enc);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok(asip_synth::DesignConstraints {
            area_budget: dec.f64()?,
            clock_ns: dec.f64()?,
            max_extensions: dec.usize()?,
            opt_level: OptLevel::decode(dec)?,
        })
    }
}

impl ArtifactCodec for asip_synth::ParetoPoint {
    fn encode(&self, enc: &mut Encoder) {
        self.level.encode(enc);
        enc.put_f64(self.clock_ns);
        enc.put_f64(self.area);
        enc.put_f64(self.benefit);
        enc.put_u64(self.extensions as u64);
        self.design.encode(enc);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok(asip_synth::ParetoPoint {
            level: OptLevel::decode(dec)?,
            clock_ns: dec.f64()?,
            area: dec.f64()?,
            benefit: dec.f64()?,
            extensions: dec.usize()?,
            design: AsipDesign::decode(dec)?,
        })
    }
}

impl ArtifactCodec for asip_synth::SearchStats {
    fn encode(&self, enc: &mut Encoder) {
        for v in [
            self.groups,
            self.candidates,
            self.eliminated,
            self.expanded,
            self.pruned,
            self.memo_hits,
            self.memo_misses,
        ] {
            enc.put_u64(v as u64);
        }
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok(asip_synth::SearchStats {
            groups: dec.usize()?,
            candidates: dec.usize()?,
            eliminated: dec.usize()?,
            expanded: dec.usize()?,
            pruned: dec.usize()?,
            memo_hits: dec.usize()?,
            memo_misses: dec.usize()?,
        })
    }
}

impl ArtifactCodec for asip_synth::DesignSpace {
    fn encode(&self, enc: &mut Encoder) {
        self.configs.encode(enc);
        self.frontier.encode(enc);
        self.stats.encode(enc);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok(asip_synth::DesignSpace {
            configs: Vec::decode(dec)?,
            frontier: Vec::decode(dec)?,
            stats: asip_synth::SearchStats::decode(dec)?,
        })
    }
}

impl ArtifactCodec for Evaluation {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u64(self.base_cycles);
        enc.put_u64(self.asip_cycles);
        enc.put_f64(self.speedup);
        enc.put_u64(self.fused_chains as u64);
        enc.put_f64(self.extension_area);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok(Evaluation {
            base_cycles: dec.u64()?,
            asip_cycles: dec.u64()?,
            speedup: dec.f64()?,
            fused_chains: dec.usize()?,
            extension_area: dec.f64()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stages_enumerate_in_pipeline_order() {
        let all = Stage::all();
        assert_eq!(all.len(), 9);
        assert!(all.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(all[0].to_string(), "compile");
        assert_eq!(all[5].to_string(), "evaluate");
        assert_eq!(all[6].to_string(), "design-suite");
        assert_eq!(all[7].to_string(), "evaluate-suite");
        assert_eq!(all[8].to_string(), "design-space");
        assert_eq!(Stage::from_name("design-space"), Some(Stage::DesignSpace));
    }

    #[test]
    fn suite_geomean_is_guarded_against_empty_suites() {
        let empty = EvaluatedSuite {
            benchmarks: Vec::new(),
            design: Arc::new(AsipDesign::default()),
            evaluations: Arc::new(Vec::new()),
        };
        assert_eq!(empty.geomean_speedup(), None, "no NaN from 0/0");
        assert_eq!(empty.speedup_of("fir"), None);

        let one = EvaluatedSuite {
            benchmarks: vec!["fir".into()],
            design: Arc::new(AsipDesign::default()),
            evaluations: Arc::new(vec![(
                "fir".into(),
                Evaluation {
                    base_cycles: 200,
                    asip_cycles: 100,
                    speedup: 2.0,
                    fused_chains: 1,
                    extension_area: 0.0,
                },
            )]),
        };
        assert_eq!(one.geomean_speedup(), Some(2.0));
        assert_eq!(one.speedup_of("fir"), Some(2.0));
    }

    fn round_trip<T: ArtifactCodec + PartialEq + std::fmt::Debug>(v: &T) {
        let bytes = v.to_bytes();
        let back = T::from_bytes(&bytes).expect("decodes");
        assert_eq!(&back, v);
    }

    #[test]
    fn primitives_round_trip() {
        round_trip(&0u64);
        round_trip(&u64::MAX);
        round_trip(&(-42i64));
        round_trip(&f64::NEG_INFINITY);
        round_trip(&3.25f64);
        round_trip(&true);
        round_trip(&String::from("héllo"));
        round_trip(&vec![1u64, 2, 3]);
        round_trip(&Some(7u64));
        round_trip(&None::<u64>);
        round_trip(&(String::from("k"), 2.5f64));
        // NaN round-trips by bit pattern (PartialEq can't see it)
        let nan_bits = f64::NAN.to_bits();
        let back = f64::from_bytes(&f64::from_bits(nan_bits).to_bytes()).expect("decodes");
        assert_eq!(back.to_bits(), nan_bits);
    }

    #[test]
    fn decode_batch_isolates_damaged_payloads() {
        let payloads = vec![1u64.to_bytes(), b"junk".to_vec(), 3u64.to_bytes()];
        let out = decode_batch::<u64>(&payloads);
        assert_eq!(out.len(), 3);
        assert_eq!(out[0], Ok(1));
        assert!(out[1].is_err(), "one bad payload does not abort the batch");
        assert_eq!(out[2], Ok(3));
    }

    #[test]
    fn decode_rejects_tag_and_truncation_errors() {
        use crate::error::CodecError;
        // wrong tag
        let bytes = 5u64.to_bytes();
        assert!(matches!(
            f64::from_bytes(&bytes),
            Err(CodecError::Tag { .. })
        ));
        // truncation
        assert!(matches!(
            u64::from_bytes(&bytes[..4]),
            Err(CodecError::Truncated { .. })
        ));
        // trailing garbage
        let mut long = bytes.clone();
        long.push(0xFF);
        assert!(matches!(
            u64::from_bytes(&long),
            Err(CodecError::Trailing { remaining: 1 })
        ));
        // empty input
        assert!(u64::from_bytes(&[]).is_err());
    }

    #[test]
    fn stage_payloads_round_trip() {
        // compile / profile / schedule / analyze / design / evaluate
        // payloads for a real benchmark survive encode → decode exactly
        let bench = asip_benchmarks::registry();
        let bench = bench.find("sewha").expect("built-in");
        let program = bench.compile().expect("compiles");
        round_trip(&program);

        let profile = bench.profile(&program).expect("profiles");
        round_trip(&profile);

        let graph = asip_opt::Optimizer::new(OptLevel::Pipelined).run(&program, &profile);
        round_trip(&graph);

        let report = asip_chains::SequenceDetector::new(asip_chains::DetectorConfig::default())
            .analyze(&graph);
        round_trip(&report);

        let design = asip_synth::AsipDesigner::new(asip_synth::DesignConstraints::default())
            .design_for(&program, &profile);
        round_trip(&design);

        let data = bench.dataset();
        let (_, image) = asip_sim::Engine::new(Arc::new(program.clone()))
            .run_output(&data)
            .expect("runs");
        let prepared = asip_synth::prepare(&program, &design);
        let evaluation =
            asip_synth::measure(&prepared, &data, profile.total_ops(), &image).expect("evaluates");
        round_trip(&evaluation);
        round_trip(&vec![(String::from("sewha"), evaluation)]);
    }

    #[test]
    fn design_space_payload_round_trips() {
        use asip_synth::{AsipDesigner, DesignConstraints, LevelFeedback};
        let bench = asip_benchmarks::registry();
        let bench = bench.find("sewha").expect("built-in");
        let program = bench.compile().expect("compiles");
        let profile = bench.profile(&program).expect("profiles");
        let graph = asip_opt::Optimizer::new(OptLevel::Pipelined).run(&program, &profile);
        let report = asip_synth::coverage_report(&graph, asip_chains::DetectorConfig::default());
        let feedback = [LevelFeedback {
            level: OptLevel::Pipelined,
            suite: vec![(&report, &program)],
        }];
        let configs: Vec<DesignConstraints> = [500.0, 2000.0, 6000.0]
            .into_iter()
            .map(|area_budget| DesignConstraints {
                area_budget,
                ..DesignConstraints::default()
            })
            .collect();
        let space = AsipDesigner::new(DesignConstraints::default())
            .explore_design_space(&feedback, &configs);
        assert_eq!(space.len(), configs.len());
        round_trip(&space);
        // and the pieces round-trip on their own
        round_trip(&OptLevel::PipelinedRenamed);
        round_trip(&configs);
        round_trip(&space.stats);
    }

    #[test]
    fn chained_instructions_round_trip() {
        use asip_ir::{BinOp, Inst, InstId, InstKind, Operand, Reg};
        let inst = Inst::new(
            InstId(9),
            InstKind::Chained {
                ext: 2,
                dst: Reg(4),
                inputs: vec![
                    Operand::Reg(Reg(1)),
                    Operand::imm_int(3),
                    Operand::imm_float(0.5),
                ],
                ops: vec![BinOp::Mul, BinOp::Add],
            },
        );
        round_trip(&inst);
    }

    #[test]
    fn decoded_graph_is_revalidated() {
        let bench = asip_benchmarks::registry();
        let bench = bench.find("sewha").expect("built-in");
        let program = bench.compile().expect("compiles");
        let profile = bench.profile(&program).expect("profiles");
        let mut graph = ScheduleGraph::sequential(&program, &profile);
        // break edge symmetry, encode, and watch decode reject it
        graph.nodes[0].succs.push(asip_opt::NodeId(2));
        let bytes = graph.to_bytes();
        assert!(matches!(
            ScheduleGraph::from_bytes(&bytes),
            Err(crate::error::CodecError::Invalid { .. })
        ));
    }
}
