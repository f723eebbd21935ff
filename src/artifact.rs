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
//!
//! Every payload also has a binary encoding, [`ArtifactCodec`], which
//! the store's entries and the serve protocol's bodies share. It is
//! untagged: LEB128 varints for integers, lengths and variants (see
//! [`Encoder`]), op codes and op classes as indices into the IR's
//! `all()` tables, and programs field by field. Decoding range-checks
//! every primitive and re-validates every structure, so arbitrary bytes
//! yield a [`CodecError`], never a panic.

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

    /// Stable lowercase name (used in stats displays and in the header
    /// of every store record).
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
// hand-rolled binary codec instead. The encoding is untagged: a value's
// type is fixed by its position in the payload's schema, so the bytes
// carry only the values themselves. Integers are LEB128 varints, so the
// small ids, lengths, counts and op codes that make up most payloads
// take one or two bytes. Skew between writer and reader is caught by
// the envelope, not by the payload: store entries and wire frames carry
// a format/protocol version and an XXH64 checksum, and the store's keys
// hash the format version. Within a payload every primitive is still
// range-checked, so arbitrary bytes decode to a typed [`CodecError`],
// never a panic. See `docs/persistence.md` for the full specification.

/// Write half of the artifact codec: a growing byte buffer with one
/// `put_*` method per primitive of the encoding.
///
/// - `u64`, lengths, element counts and enum variants: LEB128 varint
///   (7 bits a byte, least significant group first, high bit set on
///   every byte but the last);
/// - `i64`: zigzag-mapped, then varint;
/// - `f64`: its 8-byte little-endian IEEE-754 bit pattern;
/// - `bool` and the `Option` marker: one byte, `0` or `1`;
/// - strings and byte strings: varint byte length, then the bytes.
///
/// ```
/// use asip_explorer::artifact::{ArtifactCodec, Decoder, Encoder};
///
/// let mut enc = Encoder::new();
/// enc.put_str("fir");
/// enc.put_u64(1995);
/// let bytes = enc.into_bytes();
/// assert_eq!(bytes, [3, b'f', b'i', b'r', 0xCB, 0x0F]);
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

/// Encoded size of `v` as a varint (1 to 10 bytes). Lets callers
/// budget an encoding exactly without producing it.
pub(crate) fn varint_len(v: u64) -> usize {
    (64 - (v | 1).leading_zeros() as usize).div_ceil(7)
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

    /// Append an unsigned integer (varint).
    pub fn put_u64(&mut self, mut v: u64) {
        while v >= 0x80 {
            self.buf.push(v as u8 | 0x80);
            v >>= 7;
        }
        self.buf.push(v as u8);
    }

    /// Append a signed integer (zigzag varint: small magnitudes of
    /// either sign stay short).
    pub fn put_i64(&mut self, v: i64) {
        self.put_u64(((v << 1) ^ (v >> 63)) as u64);
    }

    /// Append a float (by exact bit pattern — NaNs round-trip).
    pub fn put_f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    /// Append a boolean.
    pub fn put_bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    /// Append a string.
    pub fn put_str(&mut self, v: &str) {
        self.put_bytes(v.as_bytes());
    }

    /// Append an opaque byte string verbatim. The counterpart of
    /// [`Decoder::bytes`]; used for payloads that are already encoded
    /// (a nested artifact moving through the remote protocol) and must
    /// round-trip untouched.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_u64(v.len() as u64);
        self.buf.extend_from_slice(v);
    }

    /// Append a sequence header; the caller then encodes exactly `len`
    /// elements.
    pub fn put_seq(&mut self, len: usize) {
        self.put_u64(len as u64);
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
        self.put_bool(v.is_some());
        if let Some(v) = v {
            v.encode(self);
        }
    }
}

/// Read half of the artifact codec: a cursor over encoded bytes that
/// range-checks every primitive. See [`Encoder`] for the encoding and a
/// round-trip example.
#[derive(Debug)]
pub struct Decoder<'a> {
    bytes: &'a [u8],
    pos: usize,
}

use crate::error::CodecError;

fn invalid(detail: String) -> CodecError {
    CodecError::Invalid { detail }
}

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

    fn byte(&mut self) -> Result<u8, CodecError> {
        let b = *self
            .bytes
            .get(self.pos)
            .ok_or(CodecError::Truncated { at: self.pos })?;
        self.pos += 1;
        Ok(b)
    }

    /// Read an unsigned integer (varint). An overlong encoding (a
    /// redundant trailing zero group) or one wider than 64 bits is
    /// [`CodecError::Invalid`]: every value has exactly one encoding.
    #[inline]
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        // most ids, counts and codes fit one byte
        match self.bytes.get(self.pos) {
            Some(&b) if b < 0x80 => {
                self.pos += 1;
                Ok(u64::from(b))
            }
            _ => self.long_varint(),
        }
    }

    fn long_varint(&mut self) -> Result<u64, CodecError> {
        let at = self.pos;
        let mut value = 0u64;
        for shift in (0..64).step_by(7) {
            let b = self.byte()?;
            if shift == 63 && b > 1 {
                return Err(invalid(format!("varint at offset {at} exceeds 64 bits")));
            }
            value |= u64::from(b & 0x7F) << shift;
            if b < 0x80 {
                if b == 0 && shift > 0 {
                    return Err(invalid(format!("overlong varint at offset {at}")));
                }
                return Ok(value);
            }
        }
        // the tenth byte (shift 63) always returns above
        Err(invalid(format!("varint at offset {at} exceeds 64 bits")))
    }

    /// Read an unsigned integer that must fit `usize`.
    pub fn usize(&mut self) -> Result<usize, CodecError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| invalid(format!("{v} does not fit usize")))
    }

    /// Read an unsigned integer that must fit `u32`.
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        let v = self.u64()?;
        u32::try_from(v).map_err(|_| invalid(format!("{v} does not fit u32")))
    }

    /// Read a signed integer (zigzag varint).
    pub fn i64(&mut self) -> Result<i64, CodecError> {
        let v = self.u64()?;
        Ok((v >> 1) as i64 ^ -((v & 1) as i64))
    }

    /// Read a float.
    pub fn f64(&mut self) -> Result<f64, CodecError> {
        let b = self.take(8)?;
        Ok(f64::from_bits(u64::from_le_bytes(
            b.try_into().expect("take(8) yields 8 bytes"),
        )))
    }

    /// Read a boolean: one byte, `0` or `1`.
    pub fn bool(&mut self) -> Result<bool, CodecError> {
        let at = self.pos;
        match self.byte()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(invalid(format!(
                "byte {other:#04x} at offset {at} is not 0 or 1"
            ))),
        }
    }

    /// Read a length prefix and that many bytes, borrowed from the
    /// input.
    fn len_prefixed(&mut self) -> Result<&'a [u8], CodecError> {
        let len = self.usize()?;
        self.take(len)
    }

    /// Read a string.
    pub fn str(&mut self) -> Result<String, CodecError> {
        let bytes = self.len_prefixed()?;
        std::str::from_utf8(bytes)
            .map(str::to_owned)
            .map_err(|e| invalid(format!("string is not UTF-8: {e}")))
    }

    /// Read an opaque byte string written by [`Encoder::put_bytes`].
    pub fn bytes(&mut self) -> Result<Vec<u8>, CodecError> {
        self.len_prefixed().map(<[u8]>::to_vec)
    }

    /// Read a sequence header, returning the element count. The caller
    /// then decodes exactly that many elements. Every element encodes
    /// to at least one byte, so a count beyond the bytes left is
    /// [`CodecError::Truncated`] before anything is allocated for it.
    pub fn seq(&mut self) -> Result<usize, CodecError> {
        let at = self.pos;
        let len = self.usize()?;
        if len > self.bytes.len() - self.pos {
            return Err(CodecError::Truncated { at });
        }
        Ok(len)
    }

    /// Read a sequence into a vector allocated once. Each element takes
    /// at least `min_len` bytes, so a count the bytes left cannot hold is
    /// [`CodecError::Truncated`] before anything is allocated.
    pub fn elems<T: ArtifactCodec>(&mut self, min_len: usize) -> Result<Vec<T>, CodecError> {
        let at = self.pos;
        let len = self.seq()?;
        if len.saturating_mul(min_len) > self.bytes.len() - self.pos {
            return Err(CodecError::Truncated { at });
        }
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(T::decode(self)?);
        }
        Ok(out)
    }

    /// Read an optional value.
    pub fn option<T: ArtifactCodec>(&mut self) -> Result<Option<T>, CodecError> {
        if self.bool()? {
            T::decode(self).map(Some)
        } else {
            Ok(None)
        }
    }

    /// Read a code written as an index into `table` (the op-code
    /// tables, enum variants): the entry at that index, or
    /// [`CodecError::Invalid`] naming `what` for an unknown code.
    pub fn code<T: Copy>(&mut self, table: &[T], what: &str) -> Result<T, CodecError> {
        let code = self.u64()?;
        usize::try_from(code)
            .ok()
            .and_then(|i| table.get(i))
            .copied()
            .ok_or_else(|| invalid(format!("unknown {what} code {code}")))
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
    /// Any [`CodecError`] on truncated or invalid bytes.
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

/// The most elements a decoder reserves up front for a sequence. `seq`
/// bounds a count by the bytes left, but an element can be far larger
/// in memory than its one-byte minimum encoding, so a hostile count
/// must not size an allocation: past this cap the vector grows as
/// elements actually decode.
const PREALLOC_CAP: usize = 1024;

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
        let mut out = Vec::with_capacity(len.min(PREALLOC_CAP));
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

use asip_ir::{ArrayDecl, ArrayKind, BinOp, Block, Inst, InstKind, MathFn, Operand, Ty, UnOp};
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

// Op codes are indices into the IR's `all()` tables (`BinOp::all`,
// `OpClass::all`, `MathFn::all`); `artifact::tests` pins those tables,
// so reordering one fails a test and forces a `FORMAT_VERSION` bump.

impl ArtifactCodec for BinOp {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u64(*self as u64);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        dec.code(BinOp::all(), "binary op")
    }
}

/// The unary ops other than `Math`, in code order: a unary op's code is
/// its index here, or `PLAIN_UNARY.len()` plus the [`MathFn::all`]
/// index of a `Math` intrinsic.
const PLAIN_UNARY: [UnOp; 6] = [
    UnOp::Neg,
    UnOp::Not,
    UnOp::FNeg,
    UnOp::Mov,
    UnOp::IntToFloat,
    UnOp::FloatToInt,
];

impl ArtifactCodec for UnOp {
    fn encode(&self, enc: &mut Encoder) {
        let code = match self {
            UnOp::Neg => 0,
            UnOp::Not => 1,
            UnOp::FNeg => 2,
            UnOp::Mov => 3,
            UnOp::IntToFloat => 4,
            UnOp::FloatToInt => 5,
            UnOp::Math(m) => PLAIN_UNARY.len() as u64 + *m as u64,
        };
        enc.put_u64(code);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        let code = dec.u64()?;
        let plain = PLAIN_UNARY.len() as u64;
        let op = if code < plain {
            PLAIN_UNARY.get(code as usize).copied()
        } else {
            usize::try_from(code - plain)
                .ok()
                .and_then(|i| MathFn::all().get(i))
                .map(|&m| UnOp::Math(m))
        };
        op.ok_or_else(|| invalid(format!("unknown unary op code {code}")))
    }
}

impl ArtifactCodec for OpClass {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u64(*self as u64);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        dec.code(OpClass::all(), "op class")
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
            v => Err(invalid(format!("operand variant {v}"))),
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
            v => return Err(invalid(format!("instruction variant {v}"))),
        };
        Ok(Inst { id, kind })
    }
}

// -- stage payloads ----------------------------------------------------

impl ArtifactCodec for Ty {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u64(*self as u64);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        dec.code(&[Ty::Int, Ty::Float], "type")
    }
}

impl ArtifactCodec for ArrayDecl {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_str(&self.name);
        self.ty.encode(enc);
        enc.put_u64(self.len as u64);
        enc.put_u64(self.kind as u64);
        enc.put_i64(self.base);
        enc.put_i64(self.elem_size);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok(ArrayDecl {
            name: dec.str()?,
            ty: Ty::decode(dec)?,
            len: dec.usize()?,
            kind: dec.code(
                &[ArrayKind::Input, ArrayKind::Output, ArrayKind::Internal],
                "array kind",
            )?,
            base: dec.i64()?,
            elem_size: dec.i64()?,
        })
    }
}

impl ArtifactCodec for Program {
    /// Programs persist field by field: name, register types, array
    /// declarations, blocks (label and instructions; a block's id is
    /// its position), entry and `next_inst_id`. Decode re-checks the
    /// program: `next_inst_id` is raised past the
    /// largest instruction id, and the program must pass
    /// [`Program::validate`], so a tampered program is rejected rather
    /// than simulated.
    fn encode(&self, enc: &mut Encoder) {
        enc.put_str(&self.name);
        enc.put_elems(&self.reg_types);
        enc.put_elems(&self.arrays);
        enc.put_seq(self.blocks.len());
        for block in &self.blocks {
            enc.put_option(block.label.as_ref());
            enc.put_elems(&block.insts);
        }
        self.entry.encode(enc);
        enc.put_u64(u64::from(self.next_inst_id));
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        let name = dec.str()?;
        let reg_types = Vec::decode(dec)?;
        let arrays = Vec::decode(dec)?;
        let len = dec.seq()?;
        let mut blocks = Vec::with_capacity(len.min(PREALLOC_CAP));
        let mut ids_end = 0u32;
        for index in 0..len {
            let id = u32::try_from(index)
                .map_err(|_| invalid(format!("block index {index} does not fit u32")))?;
            let label = dec.option()?;
            let insts: Vec<Inst> = Vec::decode(dec)?;
            for inst in &insts {
                let end = inst.id.0.checked_add(1).ok_or_else(|| {
                    invalid(format!("instruction id {} leaves no next id", inst.id))
                })?;
                ids_end = ids_end.max(end);
            }
            blocks.push(Block {
                id: asip_ir::BlockId(id),
                label,
                insts,
            });
        }
        let entry = asip_ir::BlockId::decode(dec)?;
        let next_inst_id = dec.u32()?.max(ids_end);
        let program = Program {
            name,
            reg_types,
            arrays,
            blocks,
            entry,
            next_inst_id,
        };
        program
            .validate()
            .map_err(|e| invalid(format!("program rejected: {e}")))?;
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

impl ArtifactCodec for ScheduleGraph {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_str(&self.name);
        enc.put_elems(&self.ops);
        enc.put_elems(&self.node_start);
        enc.put_elems(&self.succ_start);
        enc.put_elems(&self.succs);
        enc.put_elems(&self.node_block);
        self.entry.encode(enc);
        self.arrays_float.encode(enc);
        enc.put_u64(self.total_profile_ops);
        enc.put_bool(self.region_chaining);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        let graph = ScheduleGraph {
            name: dec.str()?,
            // id, variant and operand, original id, 8-byte weight
            ops: dec.elems(12)?,
            node_start: dec.elems(1)?,
            succ_start: dec.elems(1)?,
            succs: dec.elems(1)?,
            node_block: dec.elems(1)?,
            entry: NodeId::decode(dec)?,
            arrays_float: dec.elems(1)?,
            total_profile_ops: dec.u64()?,
            region_chaining: dec.bool()?,
        };
        // Re-validate structure: a decoded graph feeds the detector and
        // the design stage, which index its ranges unchecked.
        graph.check_invariants().map_err(invalid)?;
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
            return Err(invalid(format!("signature of length {}", classes.len())));
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
        let frequency = dec.f64()?;
        // reports sort by frequency and require a total order on it
        if !(frequency.is_finite() && frequency >= 0.0) {
            return Err(invalid(format!("sequence frequency {frequency}")));
        }
        Ok(asip_chains::SeqStats {
            frequency,
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
            .ok_or_else(|| invalid(format!("unknown optimization level {n}")))
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
        round_trip(&i64::MIN);
        round_trip(&i64::MAX);
        for v in [
            0u64,
            1,
            127,
            128,
            16_383,
            16_384,
            u64::from(u32::MAX),
            u64::MAX,
        ] {
            round_trip(&v);
            assert_eq!(v.to_bytes().len(), varint_len(v), "{v}");
        }
        round_trip(&Some(7u64));
        round_trip(&None::<u64>);
        round_trip(&(String::from("k"), 2.5f64));
        // NaN round-trips by bit pattern (PartialEq can't see it)
        let nan_bits = f64::NAN.to_bits();
        let back = f64::from_bytes(&f64::from_bits(nan_bits).to_bytes()).expect("decodes");
        assert_eq!(back.to_bits(), nan_bits);
    }

    #[test]
    fn decode_rejects_truncation_and_trailing_bytes() {
        use crate::error::CodecError;
        // truncation, inside a varint and inside a fixed-width float
        let bytes = u64::MAX.to_bytes();
        assert_eq!(bytes.len(), 10);
        assert!(matches!(
            u64::from_bytes(&bytes[..4]),
            Err(CodecError::Truncated { .. })
        ));
        assert!(matches!(
            f64::from_bytes(&1.5f64.to_bytes()[..7]),
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
    fn integers_are_varints_and_small_values_take_one_byte() {
        assert_eq!(0u64.to_bytes(), [0]);
        assert_eq!(127u64.to_bytes(), [0x7F]);
        assert_eq!(128u64.to_bytes(), [0x80, 0x01]);
        assert_eq!(300u64.to_bytes(), [0xAC, 0x02]);
        assert_eq!(u64::MAX.to_bytes().last(), Some(&0x01));
        // zigzag: 0, -1, 1, -2, 2 … map to 0, 1, 2, 3, 4 …
        assert_eq!(0i64.to_bytes(), [0]);
        assert_eq!((-1i64).to_bytes(), [1]);
        assert_eq!(1i64.to_bytes(), [2]);
        assert_eq!((-64i64).to_bytes(), [0x7F]);
        assert_eq!(i64::MIN.to_bytes().len(), 10);
        assert_eq!(true.to_bytes(), [1]);
        assert_eq!(Some(5u64).to_bytes(), [1, 5]);
        assert_eq!(None::<u64>.to_bytes(), [0]);
        assert_eq!(2.0f64.to_bytes(), 2.0f64.to_bits().to_le_bytes());
    }

    /// The op-code tables: an op's code is its index here. Reordering,
    /// inserting or removing an entry changes stored payloads, so it
    /// must fail this test and bump `FORMAT_VERSION`.
    #[test]
    fn op_code_tables_are_pinned() {
        let binary: Vec<&str> = BinOp::all().iter().map(|op| op.mnemonic()).collect();
        assert_eq!(
            binary,
            [
                "add", "sub", "mul", "div", "rem", "shl", "shr", "and", "or", "xor", "cmplt",
                "cmple", "cmpgt", "cmpge", "cmpeq", "cmpne", "fadd", "fsub", "fmul", "fdiv",
                "fcmplt", "fcmple", "fcmpgt", "fcmpge", "fcmpeq", "fcmpne"
            ]
        );
        let math: Vec<&str> = MathFn::all().iter().map(|m| m.name()).collect();
        assert_eq!(math, ["sin", "cos", "sqrt", "fabs", "exp", "log", "floor"]);
        let classes: Vec<&str> = OpClass::all().iter().map(|c| c.paper_name()).collect();
        assert_eq!(
            classes,
            [
                "add",
                "subtract",
                "multiply",
                "divide",
                "shift",
                "logic",
                "compare",
                "load",
                "store",
                "fadd",
                "fsub",
                "fmultiply",
                "fdivide",
                "fload",
                "fstore",
                "move",
                "convert",
                "math",
                "branch",
                "chained"
            ]
        );
        let plain: Vec<&str> = PLAIN_UNARY.iter().map(|op| op.mnemonic()).collect();
        assert_eq!(plain, ["neg", "not", "fneg", "mov", "itof", "ftoi"]);

        // the encoder writes exactly those indices
        for (i, op) in BinOp::all().iter().enumerate() {
            assert_eq!(op.to_bytes(), (i as u64).to_bytes(), "{op}");
        }
        for (i, class) in OpClass::all().iter().enumerate() {
            assert_eq!(class.to_bytes(), (i as u64).to_bytes(), "{class}");
        }
        let unary = PLAIN_UNARY
            .iter()
            .copied()
            .chain(MathFn::all().iter().map(|&m| UnOp::Math(m)));
        for (i, op) in unary.enumerate() {
            assert_eq!(op.to_bytes(), (i as u64).to_bytes(), "{op}");
            round_trip(&op);
        }
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
        // add an edge no successor range covers, encode, and watch
        // decode reject it
        graph.succs.push(asip_opt::NodeId(2));
        let bytes = graph.to_bytes();
        assert!(matches!(
            ScheduleGraph::from_bytes(&bytes),
            Err(crate::error::CodecError::Invalid { .. })
        ));
    }
}
