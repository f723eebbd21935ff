//! The pre-decoded execution engine.
//!
//! [`DecodedProgram::decode`] lowers a [`Program`] once into a dense,
//! flat instruction array the interpreter can execute without touching
//! the IR (or the boxed [`Value`] representation) again:
//!
//! - every instruction becomes one copy-only decoded entry in a
//!   single `Vec`, grouped by block with per-block index ranges;
//! - all run-time data lives in two **typed arenas**: one flat `i64`
//!   allocation and one flat `f64` allocation, each laid out
//!   `[arrays][registers][constants]`. Operand types are static in
//!   the IR (registers are typed, validation pins operand types per
//!   op), so every operand resolves at decode time to an arena slot
//!   and the hot loop does raw machine arithmetic — no `Value` enum
//!   packing, unpacking or coercion;
//! - array accesses carry their bounds/offset/element size inline
//!   (with specialized element-indexed variants for the default
//!   `base = 0, elem_size = 1` layout that skip the address
//!   arithmetic);
//! - branch targets are resolved to decoded block indices;
//! - chained super-instructions (every rewritten program's hot code)
//!   are flattened into a side table of typed `i64`/`f64` steps; where
//!   an operand's bank differs from its op's domain, decode inserts an
//!   explicit conversion with the exact [`Value::as_int`] /
//!   [`Value::as_float`] semantics of the chain contract.
//!
//! The hot loop exploits two structural invariants (established at
//! decode time):
//!
//! - **block-granular stepping** — a well-formed block has its single
//!   terminator last, so entering a block of `n` instructions executes
//!   exactly `n` dynamic operations. The step-limit check runs once per
//!   block; only a block that *could* cross the limit falls back to a
//!   per-instruction careful loop that reproduces the reference
//!   interpreter's exact error ordering.
//! - **derived profiles** — for the same reason, every instruction in a
//!   block executes exactly once per block entry, so the hot loop only
//!   counts block entries; per-instruction counts (and `total_ops`) are
//!   reconstructed from the block counters after the run, via
//!   precomputed per-block profile-slot lists. The result is
//!   byte-identical to the reference interpreter's bump-per-instruction
//!   profile.
//!
//! Per-run state lives in a reusable, arena-backed `RunState`: both
//! typed arenas are single allocations sized once at decode time and
//! **reset by `memcpy`** from the decoded init images at the start of
//! every run. [`Engine`] pools states internally, so sweeps that run
//! the same decoded program thousands of times (ablation, design-space
//! search, seed sweeps) perform zero per-run bank allocations after
//! the first — see [`Engine::run_profile`]. Output memory is
//! materialized lazily: profile-only runs never re-box arenas into
//! `Vec<Value>`.
//!
//! Error paths allocate nothing until an error actually occurs: the
//! decoded load/store entries carry only declaration indices, and the
//! array name for an [`SimError::OutOfBounds`] message is rebuilt from
//! the decode-time array plan at error time.
//!
//! Traced runs ([`Engine::run_traced`]) use a separate specialized loop
//! so the untraced hot path carries no `Option<sink>` check; the trace
//! loop rebuilds each event's `&Inst` from a decoded-index origin
//! table.
//!
//! ## Decode-time validation vs run-time checks
//!
//! Decoding assumes a structurally *and type* valid program (the
//! builder and the parser validate; see [`Program::validate`]) and
//! resolves every register, array and block reference — and every
//! operand type — eagerly. A dangling reference or an operand type
//! validation would reject panics at decode time, where the reference
//! interpreter would only panic (or silently coerce) if the broken
//! instruction were ever executed. Data-dependent conditions (input
//! binding, array indices, the step limit) remain run-time checks with
//! the exact error values of the reference interpreter.
//!
//! ## Example
//!
//! ```
//! use asip_sim::{DataSet, Engine};
//! use std::sync::Arc;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! # let program = {
//! #     use asip_ir::{BinOp, Operand, ProgramBuilder, Ty};
//! #     let mut b = ProgramBuilder::new("t");
//! #     let x = b.input_array("x", Ty::Int, 4);
//! #     let e = b.entry_block();
//! #     b.select_block(e);
//! #     let v = b.load(x, Operand::imm_int(0));
//! #     let _ = b.binary(BinOp::Add, v.into(), Operand::imm_int(1));
//! #     b.ret(None);
//! #     b.finish()?
//! # };
//! // decode once, run many times
//! let engine = Engine::new(Arc::new(program));
//! let mut data = DataSet::new();
//! data.bind_ints("x", vec![1, 2, 3, 4]);
//! let first = engine.run(&data)?;
//! let again = engine.run(&data)?;
//! assert_eq!(first.profile, again.profile);
//! # Ok(())
//! # }
//! ```

use crate::data::DataSet;
use crate::error::{Result, SimError};
use crate::machine::Execution;
use crate::profile::Profile;
use crate::trace::{TraceEvent, TraceSink};
use asip_ir::{ArrayKind, BinOp, InstKind, Operand, Program, Ty, UnOp, Value};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// One pre-decoded instruction: a copy-only struct whose operands are
/// slots into the typed register banks.
#[derive(Debug, Clone, Copy)]
enum DecodedInst {
    /// Integer-domain binary op (including comparisons): `ints[dst] =
    /// op(ints[lhs], ints[rhs])`.
    IntBin {
        op: BinOp,
        dst: u32,
        lhs: u32,
        rhs: u32,
    },
    /// Float-domain binary op with a float result.
    FloatBin {
        op: BinOp,
        dst: u32,
        lhs: u32,
        rhs: u32,
    },
    /// Float comparison: float operands, integer (0/1) result.
    FloatCmp {
        op: BinOp,
        dst: u32,
        lhs: u32,
        rhs: u32,
    },
    /// Integer unary op (`neg`, `not`, int `mov`).
    IntUn { op: UnOp, dst: u32, src: u32 },
    /// Float unary op (`fneg`, float `mov`, math functions).
    FloatUn { op: UnOp, dst: u32, src: u32 },
    /// `floats[dst] = ints[src] as f64`
    IntToFloat { dst: u32, src: u32 },
    /// `ints[dst] = floats[src] as i64` (truncating, like C)
    FloatToInt { dst: u32, src: u32 },
    /// Element-indexed load from an int array (`base = 0, elem = 1`);
    /// `decl` indexes the `direct` arena-span table.
    LoadInt { dst: u32, decl: u32, index: u32 },
    /// Int-array load through the general address layout (`arr` is the
    /// declaration index; the address plan lives there).
    LoadIntAddr { dst: u32, arr: u32, index: u32 },
    /// Element-indexed load from a float array.
    LoadFloat { dst: u32, decl: u32, index: u32 },
    /// Float-array load through the general address layout.
    LoadFloatAddr { dst: u32, arr: u32, index: u32 },
    /// Element-indexed store to an int array.
    StoreInt { decl: u32, index: u32, value: u32 },
    /// Int-array store through the general address layout.
    StoreIntAddr { arr: u32, index: u32, value: u32 },
    /// Element-indexed store to a float array.
    StoreFloat { decl: u32, index: u32, value: u32 },
    /// Float-array store through the general address layout.
    StoreFloatAddr { arr: u32, index: u32, value: u32 },
    /// Conditional branch on a non-zero integer condition.
    Branch { cond: u32, then_b: u32, else_b: u32 },
    /// Decode-time fusion of an integer binary op feeding the block's
    /// terminating branch (the dominant loop back-edge pattern:
    /// `cmp` + `br`). Counts as **two** dynamic steps and two profile
    /// slots; the destination register is still written.
    IntBinBranch {
        op: BinOp,
        dst: u32,
        lhs: u32,
        rhs: u32,
        then_b: u32,
        else_b: u32,
    },
    /// Fusion of a float comparison feeding the terminating branch.
    FloatCmpBranch {
        op: BinOp,
        dst: u32,
        lhs: u32,
        rhs: u32,
        then_b: u32,
        else_b: u32,
    },
    /// Mov-chain collapse: an integer binary op whose result the next
    /// instruction `mov`s into a second register (`v = op(lhs, rhs);
    /// dst = v; dst2 = v` — the accumulator-update idiom). Two steps.
    IntBinMov {
        op: BinOp,
        dst: u32,
        dst2: u32,
        lhs: u32,
        rhs: u32,
    },
    /// Mov-chain collapse of a float binary op feeding a float `mov`.
    FloatBinMov {
        op: BinOp,
        dst: u32,
        dst2: u32,
        lhs: u32,
        rhs: u32,
    },
    /// Address-arithmetic fusion: an integer binary op whose result
    /// immediately indexes a direct-layout int array load
    /// (`v = op(lhs, rhs); dst = v; ld = array[v]`). Two steps.
    IntBinLoadInt {
        op: BinOp,
        dst: u32,
        lhs: u32,
        rhs: u32,
        ld: u32,
        decl: u32,
    },
    /// Address-arithmetic fusion feeding a direct float-array load.
    IntBinLoadFloat {
        op: BinOp,
        dst: u32,
        lhs: u32,
        rhs: u32,
        ld: u32,
        decl: u32,
    },
    /// Unconditional jump to a decoded block index.
    Jump { target: u32 },
    /// `ret` with no value.
    RetNone,
    /// `ret` of an integer slot.
    RetInt { src: u32 },
    /// `ret` of a float slot.
    RetFloat { src: u32 },
    /// Chained super-instruction with an integer destination: run the
    /// typed steps `chain_steps[start..end]` and write the integer
    /// accumulator to `ints[dst]`.
    ChainedInt { dst: u32, start: u32, end: u32 },
    /// Chained super-instruction with a float destination (writes the
    /// float accumulator to `floats[dst]`).
    ChainedFloat { dst: u32, start: u32, end: u32 },
    /// The hot chain shape: an integer chain whose head input and every
    /// operand sit in the integer bank, so `chain_steps[start..end]`
    /// are all `ChainStep::Int` — run without the per-step kind
    /// dispatch, accumulating from `ints[lhs]`.
    IntChain {
        dst: u32,
        lhs: u32,
        start: u32,
        end: u32,
    },
    /// Decode-time marker for a block without a terminator. Executing
    /// it reproduces the reference interpreter's panic; it costs no
    /// dynamic step and has no profile slot.
    Unterminated,
}

/// The decoded shape of one basic block.
#[derive(Debug, Clone, Copy)]
struct BlockPlan {
    /// First decoded index of this block.
    start: u32,
    /// One past the last decoded index (sentinel included, if any).
    end: u32,
    /// Dynamic operations one entry executes (sentinel excluded).
    steps: u32,
}

/// Decode-time metadata for one declared array: its arena placement,
/// address layout, and the binding/error context (name, kind).
#[derive(Debug, Clone)]
struct ArrayPlan {
    name: String,
    ty: Ty,
    len: usize,
    kind: ArrayKind,
    base: i64,
    elem_size: i64,
    /// Element offset of this array's span in the matching typed
    /// arena.
    offset: u32,
}

/// The hot-path address plan for one declared array: a compact copy of
/// the layout fields (no name string nearby), with power-of-two element
/// sizes strength-reduced to shift/mask at decode time. Indexed by
/// declaration order, like `arrays`.
#[derive(Debug, Clone, Copy)]
struct AddrPlan {
    base: i64,
    elem: i64,
    /// `log2(elem)` when `pow2`.
    shift: u32,
    /// `elem - 1` when `pow2`.
    mask: i64,
    len: usize,
    /// Element offset of the array's span in the matching typed arena.
    offset: u32,
    pow2: bool,
}

/// The arena span of one declared array, for direct-layout accesses
/// and input binding: element offset into the matching typed arena,
/// and length. Indexed by declaration order, like `arrays`.
#[derive(Debug, Clone, Copy)]
struct Direct {
    off: u32,
    len: u32,
}

impl AddrPlan {
    /// [`asip_ir::ArrayDecl::element_of`], inlined and
    /// strength-reduced.
    #[inline(always)]
    fn element_of(&self, addr: i64) -> Option<usize> {
        let off = addr.checked_sub(self.base)?;
        if off < 0 {
            return None;
        }
        let idx = if self.pow2 {
            if off & self.mask != 0 {
                return None;
            }
            (off >> self.shift) as usize
        } else {
            if off % self.elem != 0 {
                return None;
            }
            (off / self.elem) as usize
        };
        (idx < self.len).then_some(idx)
    }
}

/// One typed step of a decoded chained super-instruction. A chain
/// runs over two accumulators, `i` (integer domain) and `f` (float
/// domain): it loads its head input, applies each op in the op's own
/// domain (integer ops on `i64`, `FAdd`..`FDiv` on `f64`, `FCmp*` from
/// `f64` to `i64`), and leaves its result in the accumulator of the
/// destination's bank. Every bank crossing is explicit — a `*Conv`
/// operand read or a `ToFloat`/`ToInt` step — and matches
/// [`Value::as_int`] / [`Value::as_float`] bit for bit, so the steps
/// reproduce the chain contract the reference interpreter evaluates
/// over [`Value`]s.
#[derive(Debug, Clone, Copy)]
enum ChainStep {
    /// `i = ints[src]`
    LoadInt(u32),
    /// `f = floats[src]`
    LoadFloat(u32),
    /// `i = op(i, ints[src])`
    Int(BinOp, u32),
    /// `i = op(i, floats[src] as i64)`
    IntConv(BinOp, u32),
    /// `f = op(f, floats[src])`
    Float(BinOp, u32),
    /// `f = op(f, ints[src] as f64)`
    FloatConv(BinOp, u32),
    /// `i = op(f, floats[src])` (float comparison)
    FloatCmp(BinOp, u32),
    /// `i = op(f, ints[src] as f64)`
    FloatCmpConv(BinOp, u32),
    /// `f = i as f64`
    ToFloat,
    /// `i = f as i64` (saturating, like [`Value::as_int`])
    ToInt,
}

/// Control-flow outcome of one executed instruction. Kept small and
/// allocation-free; error context is rebuilt by the caller from the
/// payload only when an error actually occurs.
enum Step {
    Next,
    Goto(u32),
    Halt(Option<Value>),
    /// Out-of-bounds access: the offending *declaration* index and
    /// address (enough to rebuild the exact reference error).
    Oob {
        decl: u32,
        addr: i64,
    },
}

/// A reusable, arena-backed run state: one flat `i64` arena and one
/// flat `f64` arena (each laid out `[arrays][registers][constants]`)
/// plus the per-block entry counters, checked out of the engine's
/// internal pool by every run API. Each run resets it by `memcpy` from
/// the decoded init images before executing, so a faulted or
/// interrupted run can never leak state into the next one.
#[derive(Debug)]
pub(crate) struct RunState {
    ints: Vec<i64>,
    floats: Vec<f64>,
    block_counts: Vec<u64>,
}

/// Input bindings validated and converted for one run: the typed
/// values of every input array plus the arena offsets they are copied
/// to at the start of the run. They are built before a state is
/// checked out, so a binding error never touches the pool.
#[derive(Debug, Clone)]
pub(crate) struct BoundInputs {
    ints: Vec<(u32, Vec<i64>)>,
    floats: Vec<(u32, Vec<f64>)>,
    /// Arena-size stamps: a `BoundInputs` only fits the program whose
    /// arenas have exactly these sizes (checked on every run).
    int_arena: usize,
    float_arena: usize,
}

/// What a profile-only run produces: everything an [`Execution`]
/// carries except the materialized output memory (see
/// [`Engine::run_profile`], and [`Engine::run_output`] for the outputs
/// as a typed image).
#[derive(Debug, Clone, PartialEq)]
pub struct RunOutcome {
    /// The derived execution profile.
    pub profile: Profile,
    /// The program's `ret` value, if any.
    pub result: Option<Value>,
}

/// A run's outputs as a typed image: the values of every declared
/// array in declaration order — the integer arrays packed into one
/// `i64` vector, the float arrays into one `f64` vector, exactly as
/// they sit in the arenas — plus the `ret` value. It costs 8 B per
/// element where the `Vec<Vec<Value>>` memory of an [`Execution`]
/// costs 16 B. Captured by [`Engine::run_output`].
#[derive(Debug, Clone)]
pub struct OutputImage {
    /// `(type, length)` of every declared array, in declaration order.
    shape: Vec<(Ty, usize)>,
    ints: Vec<i64>,
    floats: Vec<f64>,
    result: Option<Value>,
}

impl OutputImage {
    /// Whether two images hold the same output memory, by exactly the
    /// equality of [`Execution::memory`]: as many arrays, the same
    /// length per array, and equal elements (`i64 ==` and `f64 ==`, so
    /// a NaN never equals itself and `-0.0` equals `0.0`; an integer
    /// element never equals a float one). The `ret` values are not
    /// compared.
    pub fn same_memory(&self, other: &OutputImage) -> bool {
        // with every non-empty array of the same type and length, the
        // packed vectors line up span for span
        self.shape.len() == other.shape.len()
            && self
                .shape
                .iter()
                .zip(&other.shape)
                .all(|(&(ta, la), &(tb, lb))| la == lb && (ta == tb || la == 0))
            && self.ints == other.ints
            && self.floats == other.floats
    }

    /// The program's `ret` value, if any.
    pub fn result(&self) -> Option<Value> {
        self.result
    }
}

/// Run-state pool counters (see [`Engine::run_state_stats`]): how many
/// runs checked a state out, and how many of those had to allocate a
/// fresh one. `creates` staying flat while `checkouts` grows is the
/// "zero per-run bank allocations" property the ablation bench
/// asserts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RunStateStats {
    /// Runs that acquired a run state (pooled or freshly allocated).
    pub checkouts: u64,
    /// Checkouts that had to allocate a fresh state.
    pub creates: u64,
}

impl RunStateStats {
    /// Fold another engine's counters into this aggregate.
    pub fn absorb(&mut self, other: RunStateStats) {
        self.checkouts += other.checkouts;
        self.creates += other.creates;
    }
}

/// A program lowered to the dense decoded form. Decode once with
/// [`DecodedProgram::decode`], execute any number of times; the decoded
/// form borrows nothing, so it can be cached next to (or inside) an
/// `Arc<Program>` — see [`Engine`].
#[derive(Debug)]
pub struct DecodedProgram {
    insts: Vec<DecodedInst>,
    /// `(block index, position in block)` per decoded index, for
    /// rebuilding trace events and error context from a decoded index.
    origins: Vec<(u32, u32)>,
    blocks: Vec<BlockPlan>,
    /// Per-block profile slots (instruction ids), flattened; indexed by
    /// the same ranges as `insts` minus sentinels via `profile_ranges`.
    profile_slots: Vec<u32>,
    /// `(start, end)` into `profile_slots` per block.
    profile_ranges: Vec<(u32, u32)>,
    arrays: Vec<ArrayPlan>,
    /// Hot-path address plans, parallel to `arrays`.
    addr_plans: Vec<AddrPlan>,
    /// Arena spans per declared array, parallel to `arrays`.
    direct: Vec<Direct>,
    /// Typed steps of every chained super-instruction, flattened; each
    /// chain entry of `insts` indexes its own range.
    chain_steps: Vec<ChainStep>,
    /// Init image of the int arena, laid out
    /// `[arrays][registers][constants]` (arrays and registers zeroed,
    /// constants materialized). A [`RunState`] is reset by copying
    /// these images over its arenas.
    image_ints: Vec<i64>,
    /// Init image of the float arena, same layout.
    image_floats: Vec<f64>,
    entry: u32,
    /// `Profile` sizing (the program's `next_inst_id`).
    inst_slots: usize,
    /// Working-count sizing: `max(inst_slots, max decoded id + 1)`.
    count_slots: usize,
}

/// Decode-time register/constant slot assignment for one arena.
struct Bank {
    consts_i: Vec<i64>,
    consts_f: Vec<f64>,
    /// First constant slot: arrays and registers precede the pool.
    const_base: u32,
    is_float: bool,
}

impl Bank {
    fn const_slot_i(&mut self, v: i64) -> u32 {
        debug_assert!(!self.is_float);
        let idx = match self.consts_i.iter().position(|&c| c == v) {
            Some(i) => i,
            None => {
                self.consts_i.push(v);
                self.consts_i.len() - 1
            }
        };
        self.const_base + idx as u32
    }

    fn const_slot_f(&mut self, v: f64) -> u32 {
        debug_assert!(self.is_float);
        let idx = match self
            .consts_f
            .iter()
            .position(|&c| c.to_bits() == v.to_bits())
        {
            Some(i) => i,
            None => {
                self.consts_f.push(v);
                self.consts_f.len() - 1
            }
        };
        self.const_base + idx as u32
    }
}

/// Decode-time context shared by the per-instruction lowering.
struct Lowering {
    /// Register index → bank-local slot.
    reg_slots: Vec<u32>,
    /// Register index → is the float bank?
    reg_float: Vec<bool>,
    int_bank: Bank,
    float_bank: Bank,
}

impl Lowering {
    /// Resolve an operand that validation pins to `want`.
    fn slot(&mut self, o: &Operand, want: Ty) -> u32 {
        match (o, want) {
            (Operand::Reg(r), _) => {
                let i = r.index();
                assert!(i < self.reg_slots.len(), "decode: dangling register {r}");
                assert!(
                    self.reg_float[i] == (want == Ty::Float),
                    "decode: register {r} is not of type {want}"
                );
                self.reg_slots[i]
            }
            (Operand::ImmInt(v), Ty::Int) => self.int_bank.const_slot_i(*v),
            (Operand::ImmFloat(v), Ty::Float) => self.float_bank.const_slot_f(*v),
            (o, want) => panic!("decode: operand {o} is not of type {want}"),
        }
    }

    /// Resolve a chain operand read in domain `want`: an immediate is
    /// converted at decode time (`as f64` / `as i64`, exactly what the
    /// run-time coercion would compute) into `want`'s constant pool; a
    /// register keeps its own bank. Returns the slot and whether it
    /// lies in the *other* bank (needs a run-time conversion).
    fn chain_operand(&mut self, o: &Operand, want: Ty) -> (u32, bool) {
        match (*o, want) {
            (Operand::Reg(r), _) => {
                let i = r.index();
                assert!(i < self.reg_slots.len(), "decode: dangling register {r}");
                (self.reg_slots[i], self.reg_float[i] != (want == Ty::Float))
            }
            (Operand::ImmInt(v), Ty::Float) => (self.float_bank.const_slot_f(v as f64), false),
            (Operand::ImmFloat(v), Ty::Int) => (self.int_bank.const_slot_i(v as i64), false),
            (o, want) => (self.slot(&o, want), false),
        }
    }

    /// Lower one chained super-instruction into typed steps appended to
    /// `steps`. The contract (shared with the rewriter and the
    /// reference interpreter): `acc = ops[0](in[0], in[1])`, then
    /// `acc = ops[k](acc, in[k + 1])` while inputs remain, with missing
    /// head inputs zero-filled and the result coerced to the
    /// destination type `dst`.
    fn chain(&mut self, inputs: &[Operand], ops: &[BinOp], dst: Ty, steps: &mut Vec<ChainStep>) {
        let domain = |op: BinOp| if op.is_float() { Ty::Float } else { Ty::Int };
        let convert = |to: Ty| {
            if to == Ty::Float {
                ChainStep::ToFloat
            } else {
                ChainStep::ToInt
            }
        };
        let zero = Operand::ImmInt(0);
        // load the head input straight into the head op's domain (the
        // destination's, for a chain with no op)
        let mut acc = ops.first().map_or(dst, |&op| domain(op));
        let (src, cross) = self.chain_operand(inputs.first().unwrap_or(&zero), acc);
        let float_load = (acc == Ty::Float) != cross;
        steps.push(if float_load {
            ChainStep::LoadFloat(src)
        } else {
            ChainStep::LoadInt(src)
        });
        if cross {
            steps.push(convert(acc));
        }
        for (k, &op) in ops.iter().enumerate() {
            let operand = match inputs.get(k + 1) {
                Some(o) => o,
                None if k == 0 => &zero,
                None => break,
            };
            let want = domain(op);
            if acc != want {
                steps.push(convert(want));
            }
            let (src, cross) = self.chain_operand(operand, want);
            steps.push(match (want, op.result_ty(), cross) {
                (Ty::Int, _, false) => ChainStep::Int(op, src),
                (Ty::Int, _, true) => ChainStep::IntConv(op, src),
                (Ty::Float, Ty::Float, false) => ChainStep::Float(op, src),
                (Ty::Float, Ty::Float, true) => ChainStep::FloatConv(op, src),
                (Ty::Float, Ty::Int, false) => ChainStep::FloatCmp(op, src),
                (Ty::Float, Ty::Int, true) => ChainStep::FloatCmpConv(op, src),
            });
            acc = op.result_ty();
        }
        if acc != dst {
            steps.push(convert(dst));
        }
    }

    /// The bank slot of a destination register, asserting its type.
    fn dst(&self, r: asip_ir::Reg, want: Ty) -> u32 {
        let i = r.index();
        assert!(i < self.reg_slots.len(), "decode: dangling register {r}");
        assert!(
            self.reg_float[i] == (want == Ty::Float),
            "decode: destination {r} is not of type {want}"
        );
        self.reg_slots[i]
    }
}

impl DecodedProgram {
    /// Lower a program into the decoded form.
    ///
    /// # Panics
    ///
    /// Panics on dangling register, array or block references and on
    /// operand type mismatches — the conditions [`Program::validate`]
    /// rejects. Programs built through [`asip_ir::ProgramBuilder`], the
    /// parser, or the synthesis rewriter are always valid.
    pub fn decode(program: &Program) -> Self {
        // -- arena layout ---------------------------------------------
        // per-type arenas laid out `[arrays][registers][constants]`:
        // array offsets must be known while lowering loads and stores,
        // and the constant pools only finish growing during lowering,
        // so arrays come first and constants last. Constant slots
        // therefore always compare greater than register slots, which
        // the fusion peepholes below rely on.
        let (mut int_off, mut float_off) = (0u32, 0u32);
        let arrays: Vec<ArrayPlan> = program
            .arrays
            .iter()
            .map(|a| {
                let cursor = if a.ty == Ty::Float {
                    &mut float_off
                } else {
                    &mut int_off
                };
                let offset = *cursor;
                *cursor += a.len as u32;
                ArrayPlan {
                    name: a.name.clone(),
                    ty: a.ty,
                    len: a.len,
                    kind: a.kind,
                    base: a.base,
                    elem_size: a.elem_size,
                    offset,
                }
            })
            .collect();
        let addr_plans: Vec<AddrPlan> = arrays
            .iter()
            .map(|p| {
                let pow2 = p.elem_size > 0 && (p.elem_size & (p.elem_size - 1)) == 0;
                AddrPlan {
                    base: p.base,
                    elem: p.elem_size,
                    shift: if pow2 {
                        p.elem_size.trailing_zeros()
                    } else {
                        0
                    },
                    mask: if pow2 { p.elem_size - 1 } else { 0 },
                    len: p.len,
                    offset: p.offset,
                    pow2,
                }
            })
            .collect();
        let direct: Vec<Direct> = arrays
            .iter()
            .map(|p| Direct {
                off: p.offset,
                len: p.len as u32,
            })
            .collect();

        let mut reg_slots = Vec::with_capacity(program.reg_types.len());
        let mut reg_float = Vec::with_capacity(program.reg_types.len());
        let (mut n_int, mut n_float) = (0u32, 0u32);
        for &ty in &program.reg_types {
            if ty == Ty::Float {
                reg_slots.push(float_off + n_float);
                reg_float.push(true);
                n_float += 1;
            } else {
                reg_slots.push(int_off + n_int);
                reg_float.push(false);
                n_int += 1;
            }
        }
        let mut lower = Lowering {
            reg_slots,
            reg_float,
            int_bank: Bank {
                consts_i: Vec::new(),
                consts_f: Vec::new(),
                const_base: int_off + n_int,
                is_float: false,
            },
            float_bank: Bank {
                consts_i: Vec::new(),
                consts_f: Vec::new(),
                const_base: float_off + n_float,
                is_float: true,
            },
        };
        let array_plan = |a: asip_ir::ArrayId| -> &ArrayPlan {
            assert!(a.index() < arrays.len(), "decode: dangling array {a}");
            &arrays[a.index()]
        };
        let block_index = |b: asip_ir::BlockId| -> u32 {
            assert!(
                b.index() < program.blocks.len(),
                "decode: dangling block {b}"
            );
            b.0
        };

        // -- instruction lowering -------------------------------------
        let mut insts = Vec::with_capacity(program.inst_count() + 1);
        let mut origins = Vec::with_capacity(insts.capacity());
        let mut blocks = Vec::with_capacity(program.blocks.len());
        let mut profile_slots = Vec::with_capacity(program.inst_count());
        let mut profile_ranges = Vec::with_capacity(program.blocks.len());
        let mut chain_steps: Vec<ChainStep> = Vec::new();
        let mut max_id = 0usize;

        for (bi, block) in program.blocks.iter().enumerate() {
            let start = insts.len() as u32;
            let pstart = profile_slots.len() as u32;
            let mut terminated = false;
            let mut source_steps = 0u32;
            for (pos, inst) in block.insts.iter().enumerate() {
                let decoded = match &inst.kind {
                    InstKind::Binary { op, dst, lhs, rhs } => {
                        if !op.is_float() {
                            DecodedInst::IntBin {
                                op: *op,
                                dst: lower.dst(*dst, Ty::Int),
                                lhs: lower.slot(lhs, Ty::Int),
                                rhs: lower.slot(rhs, Ty::Int),
                            }
                        } else if op.result_ty() == Ty::Int {
                            DecodedInst::FloatCmp {
                                op: *op,
                                dst: lower.dst(*dst, Ty::Int),
                                lhs: lower.slot(lhs, Ty::Float),
                                rhs: lower.slot(rhs, Ty::Float),
                            }
                        } else {
                            DecodedInst::FloatBin {
                                op: *op,
                                dst: lower.dst(*dst, Ty::Float),
                                lhs: lower.slot(lhs, Ty::Float),
                                rhs: lower.slot(rhs, Ty::Float),
                            }
                        }
                    }
                    InstKind::Unary { op, dst, src } => match op {
                        UnOp::Neg | UnOp::Not => DecodedInst::IntUn {
                            op: *op,
                            dst: lower.dst(*dst, Ty::Int),
                            src: lower.slot(src, Ty::Int),
                        },
                        UnOp::FNeg | UnOp::Math(_) => DecodedInst::FloatUn {
                            op: *op,
                            dst: lower.dst(*dst, Ty::Float),
                            src: lower.slot(src, Ty::Float),
                        },
                        UnOp::IntToFloat => DecodedInst::IntToFloat {
                            dst: lower.dst(*dst, Ty::Float),
                            src: lower.slot(src, Ty::Int),
                        },
                        UnOp::FloatToInt => DecodedInst::FloatToInt {
                            dst: lower.dst(*dst, Ty::Int),
                            src: lower.slot(src, Ty::Float),
                        },
                        UnOp::Mov => {
                            let src_ty = match src {
                                Operand::Reg(r) => program.reg_ty(*r),
                                Operand::ImmInt(_) => Ty::Int,
                                Operand::ImmFloat(_) => Ty::Float,
                            };
                            let decoded_src = lower.slot(src, src_ty);
                            if src_ty == Ty::Float {
                                DecodedInst::FloatUn {
                                    op: UnOp::Mov,
                                    dst: lower.dst(*dst, Ty::Float),
                                    src: decoded_src,
                                }
                            } else {
                                DecodedInst::IntUn {
                                    op: UnOp::Mov,
                                    dst: lower.dst(*dst, Ty::Int),
                                    src: decoded_src,
                                }
                            }
                        }
                    },
                    InstKind::Load { dst, array, index } => {
                        let plan = array_plan(*array);
                        let direct = plan.base == 0 && plan.elem_size == 1;
                        // every variant carries the *declaration*
                        // index: the direct span table and the address
                        // plans are both declaration-ordered
                        let decl = array.index() as u32;
                        let is_float = plan.ty == Ty::Float;
                        let index = lower.slot(index, Ty::Int);
                        if is_float {
                            let dst = lower.dst(*dst, Ty::Float);
                            if direct {
                                DecodedInst::LoadFloat { dst, decl, index }
                            } else {
                                DecodedInst::LoadFloatAddr {
                                    dst,
                                    arr: decl,
                                    index,
                                }
                            }
                        } else {
                            let dst = lower.dst(*dst, Ty::Int);
                            if direct {
                                DecodedInst::LoadInt { dst, decl, index }
                            } else {
                                DecodedInst::LoadIntAddr {
                                    dst,
                                    arr: decl,
                                    index,
                                }
                            }
                        }
                    }
                    InstKind::Store {
                        array,
                        index,
                        value,
                    } => {
                        let plan = array_plan(*array);
                        let direct = plan.base == 0 && plan.elem_size == 1;
                        let decl = array.index() as u32;
                        let is_float = plan.ty == Ty::Float;
                        let index = lower.slot(index, Ty::Int);
                        let value = lower.slot(value, plan.ty);
                        match (is_float, direct) {
                            (false, true) => DecodedInst::StoreInt { decl, index, value },
                            (false, false) => DecodedInst::StoreIntAddr {
                                arr: decl,
                                index,
                                value,
                            },
                            (true, true) => DecodedInst::StoreFloat { decl, index, value },
                            (true, false) => DecodedInst::StoreFloatAddr {
                                arr: decl,
                                index,
                                value,
                            },
                        }
                    }
                    InstKind::Branch {
                        cond,
                        then_target,
                        else_target,
                    } => DecodedInst::Branch {
                        cond: lower.slot(cond, Ty::Int),
                        then_b: block_index(*then_target),
                        else_b: block_index(*else_target),
                    },
                    InstKind::Jump { target } => DecodedInst::Jump {
                        target: block_index(*target),
                    },
                    InstKind::Ret { value } => match value {
                        None => DecodedInst::RetNone,
                        Some(o) => {
                            let ty = match o {
                                Operand::Reg(r) => program.reg_ty(*r),
                                Operand::ImmInt(_) => Ty::Int,
                                Operand::ImmFloat(_) => Ty::Float,
                            };
                            let src = lower.slot(o, ty);
                            if ty == Ty::Float {
                                DecodedInst::RetFloat { src }
                            } else {
                                DecodedInst::RetInt { src }
                            }
                        }
                    },
                    InstKind::Chained {
                        dst, inputs, ops, ..
                    } => {
                        let ty = program.reg_ty(*dst);
                        let start = chain_steps.len() as u32;
                        lower.chain(inputs, ops, ty, &mut chain_steps);
                        let end = chain_steps.len() as u32;
                        let dst = lower.dst(*dst, ty);
                        let steps = &chain_steps[start as usize..end as usize];
                        match steps {
                            _ if ty == Ty::Float => DecodedInst::ChainedFloat { dst, start, end },
                            [ChainStep::LoadInt(lhs), rest @ ..]
                                if rest.iter().all(|s| matches!(s, ChainStep::Int(..))) =>
                            {
                                DecodedInst::IntChain {
                                    dst,
                                    lhs: *lhs,
                                    start: start + 1,
                                    end,
                                }
                            }
                            _ => DecodedInst::ChainedInt { dst, start, end },
                        }
                    }
                };
                // peepholes: fuse a producer into the consumer that
                // immediately follows it in the same block when the
                // consumer reads exactly the register the producer
                // wrote — the loop back-edge compare+branch, the
                // accumulator mov chain, and address arithmetic
                // feeding a direct load. A consumer operand that is a
                // constant slot can never alias a produced register
                // (constants sit above all registers in the arena),
                // and fused variants are never matched as producers,
                // so fusion is single-level by construction.
                let decoded = match decoded {
                    DecodedInst::Branch {
                        cond,
                        then_b,
                        else_b,
                    } if insts.len() as u32 > start => match insts.last() {
                        Some(&DecodedInst::IntBin { op, dst, lhs, rhs }) if dst == cond => {
                            insts.pop();
                            DecodedInst::IntBinBranch {
                                op,
                                dst,
                                lhs,
                                rhs,
                                then_b,
                                else_b,
                            }
                        }
                        Some(&DecodedInst::FloatCmp { op, dst, lhs, rhs }) if dst == cond => {
                            insts.pop();
                            DecodedInst::FloatCmpBranch {
                                op,
                                dst,
                                lhs,
                                rhs,
                                then_b,
                                else_b,
                            }
                        }
                        _ => DecodedInst::Branch {
                            cond,
                            then_b,
                            else_b,
                        },
                    },
                    DecodedInst::IntUn {
                        op: UnOp::Mov,
                        dst,
                        src,
                    } if insts.len() as u32 > start => match insts.last() {
                        Some(&DecodedInst::IntBin {
                            op,
                            dst: d,
                            lhs,
                            rhs,
                        }) if d == src => {
                            insts.pop();
                            DecodedInst::IntBinMov {
                                op,
                                dst: d,
                                dst2: dst,
                                lhs,
                                rhs,
                            }
                        }
                        _ => DecodedInst::IntUn {
                            op: UnOp::Mov,
                            dst,
                            src,
                        },
                    },
                    DecodedInst::FloatUn {
                        op: UnOp::Mov,
                        dst,
                        src,
                    } if insts.len() as u32 > start => match insts.last() {
                        Some(&DecodedInst::FloatBin {
                            op,
                            dst: d,
                            lhs,
                            rhs,
                        }) if d == src => {
                            insts.pop();
                            DecodedInst::FloatBinMov {
                                op,
                                dst: d,
                                dst2: dst,
                                lhs,
                                rhs,
                            }
                        }
                        _ => DecodedInst::FloatUn {
                            op: UnOp::Mov,
                            dst,
                            src,
                        },
                    },
                    DecodedInst::LoadInt { dst, decl, index } if insts.len() as u32 > start => {
                        match insts.last() {
                            Some(&DecodedInst::IntBin {
                                op,
                                dst: d,
                                lhs,
                                rhs,
                            }) if d == index => {
                                insts.pop();
                                DecodedInst::IntBinLoadInt {
                                    op,
                                    dst: d,
                                    lhs,
                                    rhs,
                                    ld: dst,
                                    decl,
                                }
                            }
                            _ => DecodedInst::LoadInt { dst, decl, index },
                        }
                    }
                    DecodedInst::LoadFloat { dst, decl, index } if insts.len() as u32 > start => {
                        match insts.last() {
                            Some(&DecodedInst::IntBin {
                                op,
                                dst: d,
                                lhs,
                                rhs,
                            }) if d == index => {
                                insts.pop();
                                DecodedInst::IntBinLoadFloat {
                                    op,
                                    dst: d,
                                    lhs,
                                    rhs,
                                    ld: dst,
                                    decl,
                                }
                            }
                            _ => DecodedInst::LoadFloat { dst, decl, index },
                        }
                    }
                    other => other,
                };
                // a fused pair keeps the *producer's* origin so the
                // trace loop can re-derive both source instructions
                if matches!(
                    decoded,
                    DecodedInst::IntBinBranch { .. }
                        | DecodedInst::FloatCmpBranch { .. }
                        | DecodedInst::IntBinMov { .. }
                        | DecodedInst::FloatBinMov { .. }
                        | DecodedInst::IntBinLoadInt { .. }
                        | DecodedInst::IntBinLoadFloat { .. }
                ) {
                    origins.pop();
                    origins.push((bi as u32, pos as u32 - 1));
                } else {
                    origins.push((bi as u32, pos as u32));
                }
                insts.push(decoded);
                profile_slots.push(inst.id.0);
                source_steps += 1;
                max_id = max_id.max(inst.id.index() + 1);
                if inst.is_terminator() {
                    terminated = true;
                    break;
                }
            }
            if !terminated {
                insts.push(DecodedInst::Unterminated);
                origins.push((bi as u32, block.insts.len() as u32));
            }
            blocks.push(BlockPlan {
                start,
                end: insts.len() as u32,
                steps: source_steps,
            });
            profile_ranges.push((pstart, profile_slots.len() as u32));
        }

        let mut image_ints = vec![0i64; (int_off + n_int) as usize];
        image_ints.extend(&lower.int_bank.consts_i);
        let mut image_floats = vec![0f64; (float_off + n_float) as usize];
        image_floats.extend(&lower.float_bank.consts_f);

        DecodedProgram {
            insts,
            origins,
            blocks,
            profile_slots,
            profile_ranges,
            arrays,
            addr_plans,
            direct,
            chain_steps,
            image_ints,
            image_floats,
            entry: program.entry.0,
            inst_slots: program.next_inst_id as usize,
            count_slots: (program.next_inst_id as usize).max(max_id),
        }
    }

    /// Number of decoded instructions (sentinels included).
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// True if nothing was decoded (impossible for a valid program).
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }

    /// Allocate a fresh, reset [`RunState`] sized for this program's
    /// arenas.
    pub(crate) fn new_state(&self) -> RunState {
        RunState {
            ints: self.image_ints.clone(),
            floats: self.image_floats.clone(),
            block_counts: vec![0u64; self.blocks.len()],
        }
    }

    /// Validate and convert input bindings — the same checks, in the
    /// same declaration order, as the reference interpreter — into
    /// arena spans ready to copy in at the start of each run.
    pub(crate) fn bind(&self, data: &DataSet) -> Result<BoundInputs> {
        let mut ints = Vec::new();
        let mut floats = Vec::new();
        for plan in &self.arrays {
            if plan.kind != ArrayKind::Input {
                continue;
            }
            let bound = data.get(&plan.name).ok_or_else(|| SimError::UnboundInput {
                name: plan.name.clone(),
            })?;
            if bound.len() != plan.len {
                return Err(SimError::WrongLength {
                    name: plan.name.clone(),
                    expected: plan.len,
                    got: bound.len(),
                });
            }
            if bound.iter().any(|v| v.ty() != plan.ty) {
                return Err(SimError::WrongType {
                    name: plan.name.clone(),
                });
            }
            if plan.ty == Ty::Float {
                floats.push((plan.offset, bound.iter().map(Value::as_float).collect()));
            } else {
                ints.push((plan.offset, bound.iter().map(Value::as_int).collect()));
            }
        }
        Ok(BoundInputs {
            ints,
            floats,
            int_arena: self.image_ints.len(),
            float_arena: self.image_floats.len(),
        })
    }

    /// Reset `state` to the decoded init images and copy the bound
    /// inputs in: two arena `memcpy`s plus one span copy per input
    /// array — no allocation. This runs at the *start* of every run,
    /// so a state that carries a faulted run's partial writes is
    /// scrubbed before it is ever read again.
    fn reset_into(&self, state: &mut RunState, inputs: &BoundInputs) {
        assert!(
            inputs.int_arena == self.image_ints.len()
                && inputs.float_arena == self.image_floats.len()
                && state.ints.len() == self.image_ints.len()
                && state.floats.len() == self.image_floats.len()
                && state.block_counts.len() == self.blocks.len(),
            "run state / bound inputs do not fit this program's arenas"
        );
        state.ints.copy_from_slice(&self.image_ints);
        state.floats.copy_from_slice(&self.image_floats);
        state.block_counts.fill(0);
        for (off, vals) in &inputs.ints {
            state.ints[*off as usize..*off as usize + vals.len()].copy_from_slice(vals);
        }
        for (off, vals) in &inputs.floats {
            state.floats[*off as usize..*off as usize + vals.len()].copy_from_slice(vals);
        }
    }

    /// Repackage the arena's array spans into the declaration-ordered
    /// [`Value`] arrays of an [`Execution`] — the lazy half of the old
    /// eager `finish_memory`: profile-only runs never call this.
    pub(crate) fn materialize_memory(&self, state: &RunState) -> Vec<Vec<Value>> {
        self.arrays
            .iter()
            .map(|plan| {
                let span = plan.offset as usize..plan.offset as usize + plan.len;
                if plan.ty == Ty::Float {
                    state.floats[span]
                        .iter()
                        .map(|&v| Value::Float(v))
                        .collect()
                } else {
                    state.ints[span].iter().map(|&v| Value::Int(v)).collect()
                }
            })
            .collect()
    }

    /// Copy the array spans of a finished run's arenas into an
    /// [`OutputImage`]: arrays sit first in each arena, in declaration
    /// order, so each bank's outputs are one prefix copy.
    fn output_image(&self, state: &RunState, result: Option<Value>) -> OutputImage {
        let shape: Vec<(Ty, usize)> = self.arrays.iter().map(|a| (a.ty, a.len)).collect();
        let span = |float: bool| -> usize {
            shape
                .iter()
                .filter(|(ty, _)| (*ty == Ty::Float) == float)
                .map(|&(_, len)| len)
                .sum()
        };
        OutputImage {
            ints: state.ints[..span(false)].to_vec(),
            floats: state.floats[..span(true)].to_vec(),
            shape,
            result,
        }
    }

    /// Rebuild the out-of-bounds error for a memory access, allocating
    /// the context (array name) only now that an error is certain.
    #[cold]
    fn oob(&self, decl: u32, addr: i64) -> SimError {
        let plan = &self.arrays[decl as usize];
        SimError::OutOfBounds {
            name: plan.name.clone(),
            index: addr,
            len: plan.len,
        }
    }

    /// Arena index of element `addr` of a direct-layout array, or the
    /// out-of-bounds step (a negative address wraps to a huge `u64` and
    /// misses).
    #[inline(always)]
    fn direct_at(&self, decl: u32, addr: i64) -> std::result::Result<usize, Step> {
        let d = self.direct[decl as usize];
        if (addr as u64) < d.len as u64 {
            Ok(d.off as usize + addr as usize)
        } else {
            Err(Step::Oob { decl, addr })
        }
    }

    /// Arena index of address `addr` of a general-layout array, or the
    /// out-of-bounds step.
    #[inline(always)]
    fn addr_at(&self, arr: u32, addr: i64) -> std::result::Result<usize, Step> {
        let plan = &self.addr_plans[arr as usize];
        match plan.element_of(addr) {
            Some(slot) => Ok(plan.offset as usize + slot),
            None => Err(Step::Oob { decl: arr, addr }),
        }
    }

    /// Run the typed steps `chain_steps[start..end]` of a chained
    /// super-instruction and return both accumulators `(i, f)`; the
    /// caller stores the one of its destination's bank.
    #[inline(always)]
    fn run_chain(&self, start: u32, end: u32, m: &RunState) -> (i64, f64) {
        let (mut i, mut f) = (0i64, 0f64);
        for step in &self.chain_steps[start as usize..end as usize] {
            match *step {
                ChainStep::LoadInt(s) => i = m.ints[s as usize],
                ChainStep::LoadFloat(s) => f = m.floats[s as usize],
                ChainStep::Int(op, s) => i = eval_int_bin(op, i, m.ints[s as usize]),
                ChainStep::IntConv(op, s) => i = eval_int_bin(op, i, m.floats[s as usize] as i64),
                ChainStep::Float(op, s) => f = eval_float_bin(op, f, m.floats[s as usize]),
                ChainStep::FloatConv(op, s) => f = eval_float_bin(op, f, m.ints[s as usize] as f64),
                ChainStep::FloatCmp(op, s) => i = eval_float_cmp(op, f, m.floats[s as usize]),
                ChainStep::FloatCmpConv(op, s) => {
                    i = eval_float_cmp(op, f, m.ints[s as usize] as f64)
                }
                ChainStep::ToFloat => f = i as f64,
                ChainStep::ToInt => i = f as i64,
            }
        }
        (i, f)
    }

    /// Execute one decoded instruction. Shared by the fast block loop,
    /// the careful near-limit loop and the trace loop.
    #[inline(always)]
    fn exec(&self, inst: &DecodedInst, m: &mut RunState) -> Step {
        match *inst {
            DecodedInst::IntBin { op, dst, lhs, rhs } => {
                m.ints[dst as usize] = eval_int_bin(op, m.ints[lhs as usize], m.ints[rhs as usize]);
                Step::Next
            }
            DecodedInst::FloatBin { op, dst, lhs, rhs } => {
                m.floats[dst as usize] =
                    eval_float_bin(op, m.floats[lhs as usize], m.floats[rhs as usize]);
                Step::Next
            }
            DecodedInst::FloatCmp { op, dst, lhs, rhs } => {
                m.ints[dst as usize] =
                    eval_float_cmp(op, m.floats[lhs as usize], m.floats[rhs as usize]);
                Step::Next
            }
            DecodedInst::IntUn { op, dst, src } => {
                let v = m.ints[src as usize];
                m.ints[dst as usize] = match op {
                    UnOp::Neg => v.wrapping_neg(),
                    UnOp::Not => !v,
                    UnOp::Mov => v,
                    _ => unreachable!("decode put a non-int unary in IntUn"),
                };
                Step::Next
            }
            DecodedInst::FloatUn { op, dst, src } => {
                let v = m.floats[src as usize];
                m.floats[dst as usize] = match op {
                    UnOp::FNeg => -v,
                    UnOp::Mov => v,
                    UnOp::Math(f) => f.eval(v),
                    _ => unreachable!("decode put a non-float unary in FloatUn"),
                };
                Step::Next
            }
            DecodedInst::IntToFloat { dst, src } => {
                m.floats[dst as usize] = m.ints[src as usize] as f64;
                Step::Next
            }
            DecodedInst::FloatToInt { dst, src } => {
                m.ints[dst as usize] = m.floats[src as usize] as i64;
                Step::Next
            }
            DecodedInst::LoadInt { dst, decl, index } => {
                match self.direct_at(decl, m.ints[index as usize]) {
                    Ok(at) => {
                        m.ints[dst as usize] = m.ints[at];
                        Step::Next
                    }
                    Err(oob) => oob,
                }
            }
            DecodedInst::LoadFloat { dst, decl, index } => {
                match self.direct_at(decl, m.ints[index as usize]) {
                    Ok(at) => {
                        m.floats[dst as usize] = m.floats[at];
                        Step::Next
                    }
                    Err(oob) => oob,
                }
            }
            DecodedInst::LoadIntAddr { dst, arr, index } => {
                match self.addr_at(arr, m.ints[index as usize]) {
                    Ok(at) => {
                        m.ints[dst as usize] = m.ints[at];
                        Step::Next
                    }
                    Err(oob) => oob,
                }
            }
            DecodedInst::LoadFloatAddr { dst, arr, index } => {
                match self.addr_at(arr, m.ints[index as usize]) {
                    Ok(at) => {
                        m.floats[dst as usize] = m.floats[at];
                        Step::Next
                    }
                    Err(oob) => oob,
                }
            }
            DecodedInst::StoreInt { decl, index, value } => {
                match self.direct_at(decl, m.ints[index as usize]) {
                    Ok(at) => {
                        m.ints[at] = m.ints[value as usize];
                        Step::Next
                    }
                    Err(oob) => oob,
                }
            }
            DecodedInst::StoreFloat { decl, index, value } => {
                match self.direct_at(decl, m.ints[index as usize]) {
                    Ok(at) => {
                        m.floats[at] = m.floats[value as usize];
                        Step::Next
                    }
                    Err(oob) => oob,
                }
            }
            DecodedInst::StoreIntAddr { arr, index, value } => {
                match self.addr_at(arr, m.ints[index as usize]) {
                    Ok(at) => {
                        m.ints[at] = m.ints[value as usize];
                        Step::Next
                    }
                    Err(oob) => oob,
                }
            }
            DecodedInst::StoreFloatAddr { arr, index, value } => {
                match self.addr_at(arr, m.ints[index as usize]) {
                    Ok(at) => {
                        m.floats[at] = m.floats[value as usize];
                        Step::Next
                    }
                    Err(oob) => oob,
                }
            }
            DecodedInst::IntBinMov {
                op,
                dst,
                dst2,
                lhs,
                rhs,
            } => {
                let v = eval_int_bin(op, m.ints[lhs as usize], m.ints[rhs as usize]);
                m.ints[dst as usize] = v;
                m.ints[dst2 as usize] = v;
                Step::Next
            }
            DecodedInst::FloatBinMov {
                op,
                dst,
                dst2,
                lhs,
                rhs,
            } => {
                let v = eval_float_bin(op, m.floats[lhs as usize], m.floats[rhs as usize]);
                m.floats[dst as usize] = v;
                m.floats[dst2 as usize] = v;
                Step::Next
            }
            // fused address arithmetic: the produced value is written to
            // `dst` *and* used directly as the load address
            DecodedInst::IntBinLoadInt {
                op,
                dst,
                lhs,
                rhs,
                ld,
                decl,
            } => {
                let v = eval_int_bin(op, m.ints[lhs as usize], m.ints[rhs as usize]);
                m.ints[dst as usize] = v;
                match self.direct_at(decl, v) {
                    Ok(at) => {
                        m.ints[ld as usize] = m.ints[at];
                        Step::Next
                    }
                    Err(oob) => oob,
                }
            }
            DecodedInst::IntBinLoadFloat {
                op,
                dst,
                lhs,
                rhs,
                ld,
                decl,
            } => {
                let v = eval_int_bin(op, m.ints[lhs as usize], m.ints[rhs as usize]);
                m.ints[dst as usize] = v;
                match self.direct_at(decl, v) {
                    Ok(at) => {
                        m.floats[ld as usize] = m.floats[at];
                        Step::Next
                    }
                    Err(oob) => oob,
                }
            }
            DecodedInst::Branch {
                cond,
                then_b,
                else_b,
            } => Step::Goto(if m.ints[cond as usize] != 0 {
                then_b
            } else {
                else_b
            }),
            DecodedInst::IntBinBranch {
                op,
                dst,
                lhs,
                rhs,
                then_b,
                else_b,
            } => {
                let v = eval_int_bin(op, m.ints[lhs as usize], m.ints[rhs as usize]);
                m.ints[dst as usize] = v;
                Step::Goto(if v != 0 { then_b } else { else_b })
            }
            DecodedInst::FloatCmpBranch {
                op,
                dst,
                lhs,
                rhs,
                then_b,
                else_b,
            } => {
                let v = eval_float_cmp(op, m.floats[lhs as usize], m.floats[rhs as usize]);
                m.ints[dst as usize] = v;
                Step::Goto(if v != 0 { then_b } else { else_b })
            }
            DecodedInst::Jump { target } => Step::Goto(target),
            DecodedInst::RetNone => Step::Halt(None),
            DecodedInst::RetInt { src } => Step::Halt(Some(Value::Int(m.ints[src as usize]))),
            DecodedInst::RetFloat { src } => Step::Halt(Some(Value::Float(m.floats[src as usize]))),
            DecodedInst::ChainedInt { dst, start, end } => {
                m.ints[dst as usize] = self.run_chain(start, end, m).0;
                Step::Next
            }
            DecodedInst::ChainedFloat { dst, start, end } => {
                m.floats[dst as usize] = self.run_chain(start, end, m).1;
                Step::Next
            }
            DecodedInst::IntChain {
                dst,
                lhs,
                start,
                end,
            } => {
                let mut acc = m.ints[lhs as usize];
                for step in &self.chain_steps[start as usize..end as usize] {
                    let ChainStep::Int(op, s) = *step else {
                        unreachable!("decode put a non-Int step in an IntChain")
                    };
                    acc = eval_int_bin(op, acc, m.ints[s as usize]);
                }
                m.ints[dst as usize] = acc;
                Step::Next
            }
            DecodedInst::Unterminated => {
                unreachable!("block fell through without terminator")
            }
        }
    }

    /// The value a fused pair's producer computes, evaluated on the
    /// state *before* the pair runs (its consumer may overwrite the
    /// producer's register); `None` for every other instruction. Trace
    /// events only.
    fn produced(&self, inst: &DecodedInst, m: &RunState) -> Option<Value> {
        match *inst {
            DecodedInst::IntBinBranch { op, lhs, rhs, .. }
            | DecodedInst::IntBinMov { op, lhs, rhs, .. }
            | DecodedInst::IntBinLoadInt { op, lhs, rhs, .. }
            | DecodedInst::IntBinLoadFloat { op, lhs, rhs, .. } => Some(Value::Int(eval_int_bin(
                op,
                m.ints[lhs as usize],
                m.ints[rhs as usize],
            ))),
            DecodedInst::FloatCmpBranch { op, lhs, rhs, .. } => Some(Value::Int(eval_float_cmp(
                op,
                m.floats[lhs as usize],
                m.floats[rhs as usize],
            ))),
            DecodedInst::FloatBinMov { op, lhs, rhs, .. } => Some(Value::Float(eval_float_bin(
                op,
                m.floats[lhs as usize],
                m.floats[rhs as usize],
            ))),
            _ => None,
        }
    }

    /// The value an instruction (for a fused pair: its consumer) wrote
    /// to its destination register, if any. Trace events only.
    fn wrote(&self, inst: &DecodedInst, m: &RunState) -> Option<Value> {
        match *inst {
            DecodedInst::IntBin { dst, .. }
            | DecodedInst::FloatCmp { dst, .. }
            | DecodedInst::IntBinMov { dst2: dst, .. }
            | DecodedInst::IntBinLoadInt { ld: dst, .. }
            | DecodedInst::IntUn { dst, .. }
            | DecodedInst::FloatToInt { dst, .. }
            | DecodedInst::LoadInt { dst, .. }
            | DecodedInst::LoadIntAddr { dst, .. }
            | DecodedInst::ChainedInt { dst, .. }
            | DecodedInst::IntChain { dst, .. } => Some(Value::Int(m.ints[dst as usize])),
            DecodedInst::FloatBin { dst, .. }
            | DecodedInst::FloatBinMov { dst2: dst, .. }
            | DecodedInst::IntBinLoadFloat { ld: dst, .. }
            | DecodedInst::FloatUn { dst, .. }
            | DecodedInst::IntToFloat { dst, .. }
            | DecodedInst::LoadFloat { dst, .. }
            | DecodedInst::LoadFloatAddr { dst, .. }
            | DecodedInst::ChainedFloat { dst, .. } => Some(Value::Float(m.floats[dst as usize])),
            _ => None,
        }
    }

    /// Derive the per-instruction profile from the block entry counters
    /// (every instruction in a block runs once per entry), reproducing
    /// the reference interpreter's on-demand slot growth exactly.
    fn derive_profile(&self, block_counts: &[u64], total_ops: u64) -> Profile {
        let mut inst_counts = vec![0u64; self.count_slots];
        for (b, &(pstart, pend)) in self.profile_ranges.iter().enumerate() {
            let entries = block_counts[b];
            if entries == 0 {
                continue;
            }
            for &slot in &self.profile_slots[pstart as usize..pend as usize] {
                inst_counts[slot as usize] += entries;
            }
        }
        // the reference profile only grows past `inst_slots` when an
        // instruction with a larger id actually executes
        let mut len = self.inst_slots;
        for i in (self.inst_slots..self.count_slots).rev() {
            if inst_counts[i] > 0 {
                len = i + 1;
                break;
            }
        }
        inst_counts.truncate(len);
        Profile::from_parts(inst_counts, block_counts.to_vec(), total_ops)
    }

    /// Reset `state` from the init images, copy `inputs` in, and run
    /// to completion — the allocation-free hot path under every run
    /// API (only the outcome's derived profile allocates).
    pub(crate) fn run_into(
        &self,
        state: &mut RunState,
        inputs: &BoundInputs,
        limit: u64,
    ) -> Result<RunOutcome> {
        self.reset_into(state, inputs);
        let mut steps: u64 = 0;
        let mut block = self.entry as usize;

        'outer: loop {
            state.block_counts[block] += 1;
            let plan = self.blocks[block];
            let n = plan.steps as u64;
            if steps + n > limit {
                // this block could cross the limit: fall back to the
                // reference interpreter's per-instruction ordering so
                // a data error that strikes first still wins
                for pc in plan.start as usize..plan.end as usize {
                    let inst = &self.insts[pc];
                    steps += step_weight(inst);
                    if steps > limit {
                        // which half of a fused pair crossed is
                        // unobservable: the error (and the discarded
                        // state) is the same either way
                        return Err(SimError::StepLimit { limit });
                    }
                    match self.exec(inst, state) {
                        Step::Next => {}
                        Step::Goto(b) => {
                            block = b as usize;
                            continue 'outer;
                        }
                        Step::Halt(result) => {
                            return Ok(RunOutcome {
                                profile: self.derive_profile(&state.block_counts, steps),
                                result,
                            })
                        }
                        Step::Oob { decl, addr } => return Err(self.oob(decl, addr)),
                    }
                }
            } else {
                steps += n;
                let (lo, hi) = (plan.start as usize, plan.end as usize);
                // iterate the block as a slice so the per-instruction
                // bounds check is hoisted to one check per block
                for inst in &self.insts[lo..hi] {
                    match self.exec(inst, state) {
                        Step::Next => {}
                        Step::Goto(b) => {
                            block = b as usize;
                            continue 'outer;
                        }
                        Step::Halt(result) => {
                            return Ok(RunOutcome {
                                profile: self.derive_profile(&state.block_counts, steps),
                                result,
                            })
                        }
                        Step::Oob { decl, addr } => return Err(self.oob(decl, addr)),
                    }
                }
            }
            // a block ends in a terminator or the Unterminated sentinel
            // (which panics), so falling through is impossible
            unreachable!("block fell through without terminator");
        }
    }

    /// One-shot convenience: bind, allocate a fresh state, run, and
    /// materialize the outputs (the borrowing [`crate::Simulator`]
    /// facade path; [`Engine`] pools states instead).
    pub(crate) fn execute(&self, data: &DataSet, limit: u64) -> Result<Execution> {
        let inputs = self.bind(data)?;
        let mut state = self.new_state();
        let out = self.run_into(&mut state, &inputs, limit)?;
        Ok(Execution {
            profile: out.profile,
            memory: self.materialize_memory(&state),
            result: out.result,
        })
    }

    /// Run with a per-step trace observer: the specialized slow loop.
    /// `program` must be the program this decode was built from (the
    /// trace borrows its instructions).
    pub(crate) fn execute_traced(
        &self,
        program: &Program,
        data: &DataSet,
        limit: u64,
        sink: &mut dyn TraceSink,
    ) -> Result<Execution> {
        let inputs = self.bind(data)?;
        let mut m = self.new_state();
        self.reset_into(&mut m, &inputs);
        let mut steps: u64 = 0;
        let mut block = self.entry as usize;

        'outer: loop {
            m.block_counts[block] += 1;
            let plan = self.blocks[block];
            for pc in plan.start as usize..plan.end as usize {
                let inst = &self.insts[pc];
                let (ob, opos) = self.origins[pc];
                // a fused pair re-expands into its two source events
                // with the reference's exact ordering: no event if the
                // producer's step crosses the limit; the producer's
                // event but not the consumer's if the consumer's step
                // crosses, which beats a fused load's out-of-bounds
                let fused = step_weight(inst) == 2;
                let produced = self.produced(inst, &m);
                steps += step_weight(inst).min(1);
                if steps > limit {
                    return Err(SimError::StepLimit { limit });
                }
                let step = self.exec(inst, &mut m);
                let source = &program.blocks[ob as usize].insts;
                if fused {
                    sink.event(&TraceEvent {
                        step: steps,
                        block: asip_ir::BlockId(ob),
                        inst: &source[opos as usize],
                        wrote: produced,
                    });
                    steps += 1;
                    if steps > limit {
                        return Err(SimError::StepLimit { limit });
                    }
                }
                if let Step::Oob { decl, addr } = step {
                    return Err(self.oob(decl, addr));
                }
                sink.event(&TraceEvent {
                    step: steps,
                    block: asip_ir::BlockId(ob),
                    inst: &source[opos as usize + fused as usize],
                    wrote: self.wrote(inst, &m),
                });
                match step {
                    Step::Next => {}
                    Step::Goto(b) => {
                        block = b as usize;
                        continue 'outer;
                    }
                    Step::Halt(result) => {
                        return Ok(Execution {
                            profile: self.derive_profile(&m.block_counts, steps),
                            memory: self.materialize_memory(&m),
                            result,
                        })
                    }
                    Step::Oob { .. } => unreachable!("returned above"),
                }
            }
            unreachable!("block fell through without terminator");
        }
    }
}

/// Dynamic steps one decoded instruction accounts for: two for a fused
/// pair, zero for the unterminated-block sentinel, one otherwise.
#[inline(always)]
fn step_weight(inst: &DecodedInst) -> u64 {
    match inst {
        DecodedInst::IntBinBranch { .. }
        | DecodedInst::FloatCmpBranch { .. }
        | DecodedInst::IntBinMov { .. }
        | DecodedInst::FloatBinMov { .. }
        | DecodedInst::IntBinLoadInt { .. }
        | DecodedInst::IntBinLoadFloat { .. } => 2,
        DecodedInst::Unterminated => 0,
        _ => 1,
    }
}

/// Integer-domain binary semantics (identical to
/// [`eval_binop`](crate::machine::eval_binop) on two
/// [`Value::Int`]s).
#[inline(always)]
fn eval_int_bin(op: BinOp, a: i64, b: i64) -> i64 {
    use BinOp::*;
    match op {
        Add => a.wrapping_add(b),
        Sub => a.wrapping_sub(b),
        Mul => a.wrapping_mul(b),
        Div => {
            if b == 0 {
                0
            } else {
                a.wrapping_div(b)
            }
        }
        Rem => {
            if b == 0 {
                0
            } else {
                a.wrapping_rem(b)
            }
        }
        Shl => a.wrapping_shl((b & 63) as u32),
        Shr => a.wrapping_shr((b & 63) as u32),
        And => a & b,
        Or => a | b,
        Xor => a ^ b,
        CmpLt => (a < b) as i64,
        CmpLe => (a <= b) as i64,
        CmpGt => (a > b) as i64,
        CmpGe => (a >= b) as i64,
        CmpEq => (a == b) as i64,
        CmpNe => (a != b) as i64,
        _ => unreachable!("decode put a float op in IntBin"),
    }
}

/// Float-domain binary semantics with a float result.
#[inline(always)]
fn eval_float_bin(op: BinOp, a: f64, b: f64) -> f64 {
    use BinOp::*;
    match op {
        FAdd => a + b,
        FSub => a - b,
        FMul => a * b,
        FDiv => a / b,
        _ => unreachable!("decode put a non-arithmetic op in FloatBin"),
    }
}

/// Float comparison semantics with a 0/1 integer result.
#[inline(always)]
fn eval_float_cmp(op: BinOp, a: f64, b: f64) -> i64 {
    use BinOp::*;
    match op {
        FCmpLt => (a < b) as i64,
        FCmpLe => (a <= b) as i64,
        FCmpGt => (a > b) as i64,
        FCmpGe => (a >= b) as i64,
        FCmpEq => (a == b) as i64,
        FCmpNe => (a != b) as i64,
        _ => unreachable!("decode put a non-comparison op in FloatCmp"),
    }
}

/// Upper bound on pooled run states per engine. One state per worker
/// thread is the steady state; 64 comfortably covers any session pool
/// while bounding what an anomalous burst can pin.
const POOL_CAP: usize = 64;

/// A reusable execution engine: one program, decoded once, run many
/// times. This is what sessions cache so that every run of the same
/// program (the profile, a rewritten design's measurements, sweeps)
/// pays the decode once.
///
/// The engine also pools `RunState`s internally: [`Engine::run`],
/// [`Engine::run_profile`] and [`Engine::run_output`] check a state
/// out, run (reset is a `memcpy` from the decoded init images), and
/// return it — after warm-up, a sweep of thousands of runs performs
/// zero per-run bank allocations ([`Engine::run_state_stats`] counts
/// both sides).
///
/// [`crate::Simulator`] is the borrowing one-shot facade over the same
/// execution paths; `Engine` owns its program via `Arc` so it can
/// outlive the caller's borrow and live in caches.
#[derive(Debug)]
pub struct Engine {
    program: Arc<Program>,
    code: DecodedProgram,
    step_limit: u64,
    /// Reusable run states, checked out per run.
    pool: Mutex<Vec<RunState>>,
    checkouts: AtomicU64,
    creates: AtomicU64,
}

impl Engine {
    /// Decode `program` into a reusable engine with the default step
    /// limit (100 million ops, as [`crate::Simulator::new`]).
    ///
    /// # Panics
    ///
    /// As [`DecodedProgram::decode`]: panics on structurally invalid
    /// programs.
    pub fn new(program: Arc<Program>) -> Self {
        let code = DecodedProgram::decode(&program);
        Engine {
            program,
            code,
            step_limit: crate::machine::DEFAULT_STEP_LIMIT,
            pool: Mutex::new(Vec::new()),
            checkouts: AtomicU64::new(0),
            creates: AtomicU64::new(0),
        }
    }

    /// Override the dynamic step limit.
    pub fn with_step_limit(mut self, limit: u64) -> Self {
        self.step_limit = limit;
        self
    }

    /// The program this engine executes.
    pub fn program(&self) -> &Arc<Program> {
        &self.program
    }

    /// The decoded code (e.g. for inspecting the decoded length).
    pub fn decoded(&self) -> &DecodedProgram {
        &self.code
    }

    /// Take a run state from the pool, or allocate a fresh one. A
    /// poisoned pool lock is survivable: states are reset before every
    /// run, so whatever a panicking thread left behind is scrubbed.
    fn checkout(&self) -> RunState {
        self.checkouts.fetch_add(1, Ordering::Relaxed);
        let pooled = self
            .pool
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .pop();
        pooled.unwrap_or_else(|| {
            self.creates.fetch_add(1, Ordering::Relaxed);
            self.code.new_state()
        })
    }

    /// Return a state to the pool (dropped if the pool is full). Even
    /// a state a faulted run wrote partial results into goes back:
    /// the pre-run reset makes reuse safe.
    fn checkin(&self, state: RunState) {
        let mut pool = self.pool.lock().unwrap_or_else(PoisonError::into_inner);
        if pool.len() < POOL_CAP {
            pool.push(state);
        }
    }

    /// Run the program on the given input data.
    ///
    /// # Errors
    ///
    /// As [`crate::Simulator::run`]: data-binding mismatches, bad array
    /// accesses, and the step limit.
    pub fn run(&self, data: &DataSet) -> Result<Execution> {
        let inputs = self.code.bind(data)?;
        let mut state = self.checkout();
        let finished = self
            .code
            .run_into(&mut state, &inputs, self.step_limit)
            .map(|out| Execution {
                profile: out.profile,
                memory: self.code.materialize_memory(&state),
                result: out.result,
            });
        self.checkin(state);
        finished
    }

    /// Profile-only pooled run: binds, runs, and returns the profile
    /// and result without ever materializing `Vec<Value>` output
    /// arrays (the profile stage's path).
    ///
    /// # Errors
    ///
    /// Same conditions as [`Engine::run`].
    pub fn run_profile(&self, data: &DataSet) -> Result<RunOutcome> {
        let inputs = self.code.bind(data)?;
        let mut state = self.checkout();
        let outcome = self.code.run_into(&mut state, &inputs, self.step_limit);
        self.checkin(state);
        outcome
    }

    /// Pooled run that also captures the outputs as a typed
    /// [`OutputImage`]: one simulation yields both the profile and the
    /// outputs a rewritten program must reproduce (see
    /// [`OutputImage::same_memory`]).
    ///
    /// # Errors
    ///
    /// Same conditions as [`Engine::run`].
    pub fn run_output(&self, data: &DataSet) -> Result<(RunOutcome, OutputImage)> {
        let inputs = self.code.bind(data)?;
        let mut state = self.checkout();
        let finished = self
            .code
            .run_into(&mut state, &inputs, self.step_limit)
            .map(|out| {
                let image = self.code.output_image(&state, out.result);
                (out, image)
            });
        self.checkin(state);
        finished
    }

    /// Run with an execution-trace observer (see [`crate::trace`]).
    /// Tracing is the diagnostic slow path: it uses a fresh state, not
    /// the pool.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Engine::run`].
    pub fn run_traced(&self, data: &DataSet, sink: &mut dyn TraceSink) -> Result<Execution> {
        self.code
            .execute_traced(&self.program, data, self.step_limit, sink)
    }

    /// This engine's run-state pool counters (sessions aggregate them
    /// into their cache stats).
    pub fn run_state_stats(&self) -> RunStateStats {
        RunStateStats {
            checkouts: self.checkouts.load(Ordering::Relaxed),
            creates: self.creates.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asip_ir::{Operand, ProgramBuilder};

    fn sum_loop_program(n: i64) -> Program {
        let mut b = ProgramBuilder::new("sumsq");
        let x = b.input_array("x", Ty::Int, n as usize);
        let entry = b.entry_block();
        let header = b.new_block();
        let body = b.new_block();
        let exit = b.new_block();
        let i = b.new_reg(Ty::Int);
        let acc = b.new_reg(Ty::Int);
        b.select_block(entry);
        b.mov_to(i, Operand::imm_int(0));
        b.mov_to(acc, Operand::imm_int(0));
        b.jump(header);
        b.select_block(header);
        let c = b.binary(BinOp::CmpLt, i.into(), Operand::imm_int(n));
        b.branch(c.into(), body, exit);
        b.select_block(body);
        let v = b.load(x, i.into());
        let sq = b.binary(BinOp::Mul, v.into(), v.into());
        let na = b.binary(BinOp::Add, acc.into(), sq.into());
        b.mov_to(acc, na.into());
        let ni = b.binary(BinOp::Add, i.into(), Operand::imm_int(1));
        b.mov_to(i, ni.into());
        b.jump(header);
        b.select_block(exit);
        b.ret(Some(acc.into()));
        b.finish().expect("valid")
    }

    fn data() -> DataSet {
        let mut d = DataSet::new();
        d.bind_ints("x", vec![1, 2, 3, 4]);
        d
    }

    #[test]
    fn engine_matches_reference_on_a_loop() {
        let p = sum_loop_program(4);
        let reference = crate::reference::ReferenceSimulator::new(&p)
            .run(&data())
            .expect("runs");
        let engine = Engine::new(Arc::new(p));
        let decoded = engine.run(&data()).expect("runs");
        assert_eq!(decoded.result, Some(Value::Int(30)));
        assert_eq!(decoded.profile, reference.profile);
        assert_eq!(decoded.memory, reference.memory);
        assert_eq!(decoded.result, reference.result);
    }

    #[test]
    fn engine_is_reusable() {
        let engine = Engine::new(Arc::new(sum_loop_program(4)));
        let a = engine.run(&data()).expect("runs");
        let b = engine.run(&data()).expect("runs");
        assert_eq!(a.profile, b.profile);
        assert_eq!(a.memory, b.memory);
        assert!(!engine.decoded().is_empty());
        // compare+branch fusion makes the decoded stream denser than
        // the source (this program fuses one back edge)
        assert!(engine.decoded().len() < engine.program().inst_count());
    }

    #[test]
    fn step_limit_parity_at_every_boundary() {
        // the engine's block-granular check must error (or not) at
        // exactly the same limits as the per-instruction reference
        let p = sum_loop_program(4);
        let total = Engine::new(Arc::new(p.clone()))
            .run(&data())
            .expect("runs")
            .profile
            .total_ops();
        for limit in (total.saturating_sub(3))..(total + 3) {
            let reference = crate::reference::ReferenceSimulator::new(&p)
                .with_step_limit(limit)
                .run(&data());
            let engine = Engine::new(Arc::new(p.clone()))
                .with_step_limit(limit)
                .run(&data());
            match (reference, engine) {
                (Ok(a), Ok(b)) => assert_eq!(a.profile, b.profile),
                (Err(a), Err(b)) => assert_eq!(a, b, "at limit {limit}"),
                (a, b) => panic!("diverged at limit {limit}: {a:?} vs {b:?}"),
            }
        }
    }

    #[test]
    fn data_error_beats_step_limit_like_the_reference() {
        // OOB at step 1, limit crossing at step 2: the careful loop
        // must surface the OOB first, like the reference
        let mut b = ProgramBuilder::new("oob");
        let x = b.input_array("x", Ty::Int, 2);
        let entry = b.entry_block();
        b.select_block(entry);
        let _ = b.load(x, Operand::imm_int(5));
        let _ = b.load(x, Operand::imm_int(0));
        b.ret(None);
        let p = b.finish().expect("valid");
        let mut d = DataSet::new();
        d.bind_ints("x", vec![1, 2]);
        let engine = Engine::new(Arc::new(p)).with_step_limit(2);
        assert!(matches!(
            engine.run(&d),
            Err(SimError::OutOfBounds { index: 5, .. })
        ));
    }

    #[test]
    fn non_default_array_layout_uses_the_general_path() {
        // give the array a byte-addressed layout; decode must take the
        // general load/store variants and agree with the reference
        let mut p = sum_loop_program(4);
        p.arrays[0].base = 16;
        p.arrays[0].elem_size = 8;
        // the loop indexes elements 0..4 directly, which are no longer
        // valid addresses under the new layout — both paths must agree
        let reference = crate::reference::ReferenceSimulator::new(&p).run(&data());
        let engine = Engine::new(Arc::new(p)).run(&data());
        assert_eq!(reference, engine);
        assert!(matches!(engine, Err(SimError::OutOfBounds { .. })));
    }

    #[test]
    fn mixed_type_programs_route_through_both_banks() {
        // int loop counter, float accumulation, conversions both ways
        let mut b = ProgramBuilder::new("mixed");
        let x = b.input_array("x", Ty::Float, 4);
        let y = b.output_array("y", Ty::Int, 1);
        let entry = b.entry_block();
        b.select_block(entry);
        let v0 = b.load(x, Operand::imm_int(0));
        let v1 = b.load(x, Operand::imm_int(1));
        let s = b.binary(BinOp::FAdd, v0.into(), v1.into());
        let d = b.binary(BinOp::FMul, s.into(), Operand::imm_float(2.0));
        let c = b.binary(BinOp::FCmpGt, d.into(), Operand::imm_float(1.0));
        let i = b.unary(UnOp::FloatToInt, d.into());
        let sum = b.binary(BinOp::Add, i.into(), c.into());
        b.store(y, Operand::imm_int(0), sum.into());
        b.ret(Some(sum.into()));
        let p = b.finish().expect("valid");
        let mut data = DataSet::new();
        data.bind_floats("x", vec![1.25, 2.5, 0.0, 0.0]);
        let reference = crate::reference::ReferenceSimulator::new(&p)
            .run(&data)
            .expect("runs");
        let engine = Engine::new(Arc::new(p)).run(&data).expect("runs");
        assert_eq!(engine.result, Some(Value::Int(8)));
        assert_eq!(engine.profile, reference.profile);
        assert_eq!(engine.memory, reference.memory);
        assert_eq!(engine.result, reference.result);
    }

    #[test]
    fn constants_are_pooled_per_bank() {
        let p = sum_loop_program(4);
        let engine = Engine::new(Arc::new(p));
        let int_regs = engine
            .program()
            .reg_types
            .iter()
            .filter(|&&t| t == Ty::Int)
            .count();
        let int_array_elems: usize = engine
            .program()
            .arrays
            .iter()
            .filter(|a| a.ty == Ty::Int)
            .map(|a| a.len)
            .sum();
        // arena layout is [arrays][registers][constants]
        let consts = engine.code.image_ints.len() - int_array_elems - int_regs;
        assert!(consts >= 2, "int constant pool materialized ({consts})");
        let a = engine.run(&data()).expect("runs");
        let b = engine.run(&data()).expect("runs");
        assert_eq!(a.result, b.result, "pool state survives reuse");
    }

    #[test]
    fn pooled_run_states_are_reused() {
        let engine = Engine::new(Arc::new(sum_loop_program(4)));
        let d = data();
        let mut last = None;
        for _ in 0..8 {
            last = Some(engine.run_profile(&d).expect("runs"));
        }
        let full = engine.run(&d).expect("runs");
        let out = last.expect("ran");
        assert_eq!(out.profile, full.profile);
        assert_eq!(out.result, full.result);
        let stats = engine.run_state_stats();
        assert_eq!(stats.checkouts, 9);
        assert_eq!(stats.creates, 1, "one allocation serves the whole sweep");
    }

    #[test]
    fn two_datasets_on_one_engine_equal_fresh_engines() {
        // `y` starts from the zeroed init image and accumulates into
        // itself, so any of d1's run the pooled state carries into d2's
        // shows in d2's memory and result
        let mut b = ProgramBuilder::new("accumulate");
        let x = b.input_array("x", Ty::Int, 2);
        let y = b.output_array("y", Ty::Int, 1);
        let entry = b.entry_block();
        b.select_block(entry);
        let acc = b.load(y, Operand::imm_int(0));
        let v = b.load(x, Operand::imm_int(1));
        let sum = b.binary(BinOp::Add, acc.into(), v.into());
        b.store(y, Operand::imm_int(0), sum.into());
        b.ret(Some(sum.into()));
        let p = Arc::new(b.finish().expect("valid"));
        let engine = Engine::new(Arc::clone(&p));
        let (mut d1, mut d2) = (DataSet::new(), DataSet::new());
        d1.bind_ints("x", vec![0, 5]);
        d2.bind_ints("x", vec![0, 9]);
        for d in [&d1, &d2] {
            let pooled = engine.run(d).expect("runs");
            let fresh = Engine::new(Arc::clone(&p)).run(d).expect("runs");
            assert_eq!(pooled.profile, fresh.profile);
            assert_eq!(pooled.memory, fresh.memory);
            assert_eq!(pooled.result, fresh.result);
        }
        assert_eq!(engine.run_state_stats().creates, 1);
    }

    #[test]
    fn faulted_state_does_not_leak_into_the_next_run() {
        // an OOB mid-run leaves partial writes in the pooled state; the
        // next run of the same engine must be byte-identical to a
        // fresh engine's (reset-by-memcpy scrubs everything)
        let mut b = ProgramBuilder::new("poison");
        let x = b.input_array("x", Ty::Int, 2);
        let y = b.output_array("y", Ty::Int, 1);
        let entry = b.entry_block();
        b.select_block(entry);
        let i = b.load(x, Operand::imm_int(0));
        b.store(y, Operand::imm_int(0), Operand::imm_int(7));
        let v = b.load(x, i.into());
        b.ret(Some(v.into()));
        let p = b.finish().expect("valid");
        let mut bad = DataSet::new();
        bad.bind_ints("x", vec![5, 0]);
        let mut good = DataSet::new();
        good.bind_ints("x", vec![1, 9]);
        let engine = Engine::new(Arc::new(p.clone()));
        assert!(matches!(
            engine.run(&bad),
            Err(SimError::OutOfBounds { index: 5, .. })
        ));
        let reused = engine.run(&good).expect("runs");
        let fresh = Engine::new(Arc::new(p)).run(&good).expect("runs");
        assert_eq!(reused.profile, fresh.profile);
        assert_eq!(reused.memory, fresh.memory);
        assert_eq!(reused.result, fresh.result);
    }

    #[test]
    fn addr_arith_and_mov_fusion_match_the_reference() {
        // an add feeding a direct load fuses (IntBinLoadInt /
        // IntBinLoadFloat), as does a bin-op result mov'd onward
        // (IntBinMov / FloatBinMov), as does a compare feeding the
        // branch; everything observable, traces included, must stay
        // byte-identical to the reference interpreter
        let mut b = ProgramBuilder::new("fused");
        let x = b.input_array("x", Ty::Int, 4);
        let f = b.input_array("f", Ty::Float, 4);
        let y = b.output_array("y", Ty::Int, 1);
        let entry = b.entry_block();
        b.select_block(entry);
        let i = b.binary(BinOp::Add, Operand::imm_int(1), Operand::imm_int(2));
        let v = b.load(x, i.into()); // fuses: add + int load
        let j = b.binary(BinOp::Sub, i.into(), Operand::imm_int(3));
        let w = b.load(f, j.into()); // fuses: sub + float load
        let s = b.binary(BinOp::Mul, v.into(), Operand::imm_int(2));
        let t = b.new_reg(Ty::Int);
        b.mov_to(t, s.into()); // fuses: mul + mov
        let g = b.binary(BinOp::FAdd, w.into(), w.into());
        let h = b.new_reg(Ty::Float);
        b.mov_to(h, g.into()); // fuses: fadd + mov
        let k = b.unary(UnOp::FloatToInt, h.into());
        let sum = b.binary(BinOp::Add, t.into(), k.into());
        let r = b.binary(BinOp::Sub, i.into(), Operand::imm_int(1));
        b.binary_to(r, BinOp::Add, r.into(), Operand::imm_int(0));
        b.load_to(r, x, r.into()); // fuses, and the load overwrites r
        let sum2 = b.binary(BinOp::Add, sum.into(), r.into());
        b.store(y, Operand::imm_int(0), sum2.into());
        let c = b.binary(BinOp::CmpLt, sum2.into(), Operand::imm_int(0));
        let exit = b.new_block();
        b.branch(c.into(), exit, exit); // fuses: compare + branch
        b.select_block(exit);
        b.ret(Some(sum2.into()));
        let p = b.finish().expect("valid");
        let mut d = DataSet::new();
        d.bind_ints("x", vec![10, 20, 30, 40]);
        d.bind_floats("f", vec![0.5, 1.5, 2.5, 3.5]);
        let engine = Engine::new(Arc::new(p.clone()));
        // every fusion kind fired: six pairs collapsed
        assert_eq!(engine.decoded().len(), p.inst_count() - 6);
        let decoded = engine.run(&d).expect("runs");
        let reference = crate::reference::ReferenceSimulator::new(&p)
            .run(&d)
            .expect("runs");
        assert_eq!(decoded.profile, reference.profile);
        assert_eq!(decoded.memory, reference.memory);
        assert_eq!(decoded.result, reference.result);
        // and step-limit parity holds across every fused boundary, in
        // the plain and the traced loop, event for event
        let total = decoded.profile.total_ops();
        for limit in 0..=total {
            let mut ref_trace = crate::trace::RingTrace::new(64);
            let mut eng_trace = crate::trace::RingTrace::new(64);
            let r = crate::reference::ReferenceSimulator::new(&p)
                .with_step_limit(limit)
                .run_traced(&d, &mut ref_trace);
            let engine = Engine::new(Arc::new(p.clone())).with_step_limit(limit);
            let traced = engine.run_traced(&d, &mut eng_trace);
            for e in [engine.run(&d), traced] {
                match (&r, e) {
                    (Ok(a), Ok(b)) => assert_eq!(a.profile, b.profile),
                    (Err(a), Err(b)) => assert_eq!(*a, b, "at limit {limit}"),
                    (a, b) => panic!("diverged at limit {limit}: {a:?} vs {b:?}"),
                }
            }
            assert!(
                ref_trace.events().eq(eng_trace.events()),
                "at limit {limit}"
            );
        }
    }

    #[test]
    fn fused_oob_reports_the_reference_error() {
        // the fused address-arith+load bounds check must surface the
        // same OOB payload as the unfused reference path
        let mut b = ProgramBuilder::new("fused-oob");
        let x = b.input_array("x", Ty::Int, 2);
        let entry = b.entry_block();
        b.select_block(entry);
        let i = b.binary(BinOp::Add, Operand::imm_int(1), Operand::imm_int(4));
        let v = b.load(x, i.into()); // fuses, address 5 misses
        b.ret(Some(v.into()));
        let p = b.finish().expect("valid");
        let mut d = DataSet::new();
        d.bind_ints("x", vec![1, 2]);
        let reference = crate::reference::ReferenceSimulator::new(&p).run(&d);
        let engine = Engine::new(Arc::new(p.clone())).run(&d);
        assert_eq!(reference, engine);
        assert!(matches!(
            engine,
            Err(SimError::OutOfBounds {
                index: 5,
                len: 2,
                ..
            })
        ));
        // a step limit between the pair's halves beats the OOB, in the
        // traced loop too, after the producer's event
        for limit in 0..3 {
            let mut ref_trace = crate::trace::RingTrace::new(8);
            let mut eng_trace = crate::trace::RingTrace::new(8);
            let r = crate::reference::ReferenceSimulator::new(&p)
                .with_step_limit(limit)
                .run_traced(&d, &mut ref_trace);
            let e = Engine::new(Arc::new(p.clone()))
                .with_step_limit(limit)
                .run_traced(&d, &mut eng_trace);
            assert_eq!(r, e, "at limit {limit}");
            assert!(
                ref_trace.events().eq(eng_trace.events()),
                "at limit {limit}"
            );
        }
    }

    const INTS: [i64; 8] = [7, -3, i64::MAX, 0, 64, 65, -1, i64::MIN];
    const FLOATS: [f64; 8] = [1.5, -0.0, f64::NAN, 2.5, f64::INFINITY, -2.25, 0.0, 1e300];

    /// Chained super-ops as `ops: inputs -> dst`, where an input is
    /// `aK` (int input `a[K]`), `xK` (float input `x[K]`) or an
    /// immediate (`7`, `2.5`). Each destination type is its last op's
    /// result type, the shape the rewriter emits.
    const CHAINS: &[&str] = &[
        "mul add sub: a0 a1 a4 a6 -> int",
        "fmul fadd fdiv: x0 x3 x5 x3 -> float",
        "fcmplt add shl: x0 x3 a0 a5 -> int",
        "fcmpne xor: x2 x2 a0 -> int",
        "sub: a0 -> int",
        "fadd: x1 -> float",
        "sub add: -> int",
        ": x5 -> float",
        "div rem: a0 a3 a3 -> int",
        "div rem: a7 a6 a6 -> int",
        "shl shr shl: a0 a4 a5 127 -> int",
        "add mul: a2 1 a2 -> int",
        "fmul fadd: x4 x6 x0 -> float",
        "fmul fadd: x1 x0 x1 -> float",
        "add mul: a0 x5 x7 -> int",
        "fmul fsub: x0 a1 a2 -> float",
        "fcmpge or: a1 a6 a4 -> int",
        "sub add: x5 a1 x0 -> int",
        "fadd add: x0 x6 a0 -> int",
        "fadd fcmpgt add: 3 -2.5 -9.75 2.7 -> int",
        "add add add: a0 a1 a4 -> int",
    ];

    /// Build a one-block program that evaluates the chain `spec` over
    /// registers loaded from the int input `a` and the float input
    /// `x`, stores the result to the output `y` and returns it.
    fn chain_program(spec: &str) -> Program {
        let (ops, rest) = spec.split_once(':').expect("ops");
        let (inputs, dst) = rest.split_once("->").expect("dst");
        let dst = if dst.trim() == "float" {
            Ty::Float
        } else {
            Ty::Int
        };
        let mut b = ProgramBuilder::new("chain");
        let a = b.input_array("a", Ty::Int, INTS.len());
        let x = b.input_array("x", Ty::Float, FLOATS.len());
        let y = b.output_array("y", dst, 1);
        let entry = b.entry_block();
        b.select_block(entry);
        let mut operands = Vec::new();
        for input in inputs.split_whitespace() {
            let (array, k) = input.split_at(1);
            operands.push(match (array, k.parse()) {
                ("a", Ok(k)) => b.load(a, Operand::imm_int(k)).into(),
                ("x", Ok(k)) => b.load(x, Operand::imm_int(k)).into(),
                _ => match input.parse() {
                    Ok(v) => Operand::imm_int(v),
                    Err(_) => Operand::imm_float(input.parse().expect("immediate")),
                },
            });
        }
        let d = b.new_reg(dst);
        let placeholder = b.mov_to(d, Operand::imm_int(0));
        b.store(y, Operand::imm_int(0), d.into());
        b.ret(Some(d.into()));
        let mut p = b.finish_unchecked();
        let inst = p.blocks[0].insts.iter_mut().find(|i| i.id == placeholder);
        inst.expect("placeholder").kind = InstKind::Chained {
            ext: 0,
            dst: d,
            inputs: operands,
            ops: ops
                .split_whitespace()
                .map(|op| op.parse().expect("op"))
                .collect(),
        };
        p
    }

    fn chain_data() -> DataSet {
        let mut d = DataSet::new();
        d.bind_ints("a", INTS.to_vec());
        d.bind_floats("x", FLOATS.to_vec());
        d
    }

    /// A value's bit pattern, so NaN and `-0.0` compare exactly.
    fn bits(v: &Value) -> (bool, u64) {
        match *v {
            Value::Int(i) => (false, i as u64),
            Value::Float(f) => (true, f.to_bits()),
        }
    }

    /// Profile, memory and result, bitwise.
    type Observed = (Profile, Vec<Vec<(bool, u64)>>, Option<(bool, u64)>);

    fn observe(e: &Execution) -> Observed {
        let memory = e.memory.iter().map(|a| a.iter().map(bits).collect());
        (
            e.profile.clone(),
            memory.collect(),
            e.result.as_ref().map(bits),
        )
    }

    #[test]
    fn typed_chains_match_the_reference() {
        // int-only and float-only chains, an fcmp feeding an int tail,
        // zero-filled heads, div/rem by zero, shifts of 64 and more,
        // wrapping overflow, NaN and -0.0 outputs and every bank
        // crossing, through the plain and the traced loop
        let data = chain_data();
        for spec in CHAINS {
            let p = chain_program(spec);
            let reference = crate::reference::ReferenceSimulator::new(&p).run(&data);
            let engine = Engine::new(Arc::new(p));
            let traced = engine.run_traced(&data, &mut crate::trace::RingTrace::new(4));
            let want = observe(&reference.expect("runs"));
            assert_eq!(observe(&engine.run(&data).expect("runs")), want, "{spec}");
            assert_eq!(observe(&traced.expect("runs")), want, "{spec}");
        }
    }

    #[test]
    fn chain_results_coerce_to_the_destination_bank() {
        // a destination of the other type than the last op's result
        // takes the contract's `as_int` / `as_float` coercion
        let data = chain_data();
        for (spec, want) in [
            ("fadd: x0 x3 -> int", Value::Int(4)),
            ("fadd: x0 x6 -> int", Value::Int(1)),
            ("fmul: x2 x0 -> int", Value::Int(0)),
            ("fcmplt: x0 x3 -> float", Value::Float(1.0)),
            ("mul: a0 a1 -> float", Value::Float(-21.0)),
            (": a2 -> float", Value::Float(i64::MAX as f64)),
        ] {
            let engine = Engine::new(Arc::new(chain_program(spec)));
            assert_eq!(
                engine.run(&data).expect("runs").result,
                Some(want),
                "{spec}"
            );
        }
    }

    #[test]
    fn image_equality_is_execution_memory_equality() {
        // `same_memory` must agree with `Vec<Vec<Value>>` equality on
        // every pair of outputs, NaN and `-0.0` included
        let data = chain_data();
        let runs: Vec<(Execution, OutputImage)> = CHAINS
            .iter()
            .map(|spec| {
                let engine = Engine::new(Arc::new(chain_program(spec)));
                let (outcome, image) = engine.run_output(&data).expect("runs");
                let exec = engine.run(&data).expect("runs");
                assert_eq!(outcome.profile, exec.profile);
                assert_eq!(
                    image.result().map(|v| bits(&v)),
                    exec.result.map(|v| bits(&v))
                );
                (exec, image)
            })
            .collect();
        for (ea, ia) in &runs {
            for (eb, ib) in &runs {
                assert_eq!(ia.same_memory(ib), ea.memory == eb.memory);
            }
        }
        // an empty array equals an empty array of the other type
        let empty = |ty| {
            let mut b = ProgramBuilder::new("empty");
            let _ = b.output_array("e", ty, 0);
            let entry = b.entry_block();
            b.select_block(entry);
            b.ret(None);
            let engine = Engine::new(Arc::new(b.finish().expect("valid")));
            engine.run_output(&DataSet::new()).expect("runs").1
        };
        assert!(empty(Ty::Int).same_memory(&empty(Ty::Float)));
    }
}
