//! The bytecode ISA, stated once.
//!
//! [`Instr`] is generated from the table in this file: one row per opcode
//! with its documentation, its mnemonic, its dispatch [`Lane`], its
//! disassembly template, and every operand with its type and an annotation
//! saying what the operand *is* —
//!
//! | annotation | operand |
//! |---|---|
//! | `reg(Read \| Write \| ReadWrite)` | a register and its [`Role`] |
//! | `buf(Any \| I64 \| F64)` | a buffer and the element kind it must have ([`Elem`]) |
//! | `target(Branch \| LoopExit \| LoopBack \| LoopBody)` | a jump target and its [`Edge`] kind |
//! | `cidx` | a constant-pool index |
//! | `sidx` | a step-table index, whose [`Step`] states its own operands below |
//! | `op(class, "complaint")` | an operator that must satisfy `class` ([`is_cmp_op`], [`is_int_arith`], [`is_float_arith`]) |
//! | `reduce("complaint")` | an optional reduction that must satisfy [`is_arith_reduce`] |
//! | `guard("complaint")` | an optional comparison-with-immediate filter |
//! | `lanes` | a kernel op's unroll width |
//! | `nested` | a [`VBase`] / [`VAcc`] / [`VFill`] / [`VScale`] / [`VRhs`], which states its own operands below |
//! | `payload` | anything no analysis looks at (immediates, flags, costs, unconstrained operators) |
//!
//! From the table the `isa!` macro derives the enum itself,
//! [`Instr::opcode`], [`Instr::is_tag_free`], [`Instr::vop_loop_regs`],
//! [`Instr::disasm`] and **one operand walk**, by `&` ([`Instr::operands`])
//! and by `&mut` ([`Instr::operands_mut`]), statically dispatched on a
//! closure.  Every question of the form "which operands, in which role" is a
//! few lines over that walk: [`for_each_reg_role`], [`Instr::edge`] /
//! [`Instr::target`] / [`Instr::is_loop_edge`], the per-operand checks of
//! [`Program::validate`], the buffer range and schema check of
//! `opt::verify_bytecode`, the peephole's liveness scan and register
//! compaction.  None of them names an opcode, so none of them can miss one.
//!
//! A row's template is its line in [`Program::disasm`]: `{field}` renders
//! the field by what it is ([`Piece`]) — a register by its variable's (or a
//! `tN` temporary's) name, a buffer as `bK`, a jump target as its absolute
//! pc, a constant-pool index as the resolved literal, a float immediate as
//! [`crate::value::Value::Float`] displays it, a nested operand by its one
//! render function.  `{op:x|y}` applies the operator `op` to what the
//! sub-templates `x` and `y` render (infix, or call-style as `max(x, y)`), a
//! [`VScale`], [`VRhs`] or guard field is applied to one operand the same way,
//! `{flag?text}` is `text` where the flag is set, and `{{` / `}}` are braces.
//!
//! What stays hand-written is what gives an opcode *meaning*: its VM arm,
//! and the rules of the passes that produce or pattern-match it
//! (`typed_form`, `write_effect`, `for_each_edge`, `try_fuse`, `vectorize`,
//! `forward`, `merge_skip`).  Adding an opcode is one row here plus those
//! arms: the compiler's exhaustiveness check demands the VM's, the passes
//! default to leaving an opcode they do not know alone, and the per-opcode
//! tests (`every_opcode_*` here and in `opt::typing`) fail until the row has
//! a sample instruction in `samples` and, if it branches, an edge rule.

use crate::buffer::BufId;
use crate::bytecode::{Program, Reg};
use crate::expr::{BinOp, UnOp};
#[cfg(doc)]
use crate::stmt::Stmt;

/// How an instruction operand uses its register.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Role {
    /// The operand is read.
    Read,
    /// The operand is (unconditionally, on the relevant edge) written.
    Write,
    /// One field that is both read and written in place
    /// ([`Instr::CoerceInt`]'s register, the counter of [`Instr::ForStep`],
    /// of [`Instr::IForNext`] and of the vectorized kernel ops, the
    /// register an [`Instr::IAdvance`] advances).
    ReadWrite,
}

/// The element kind an opcode requires of a buffer operand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Elem {
    /// Any buffer: the instruction dispatches on the kind at run time.
    Any,
    /// An `i64` buffer.
    I64,
    /// An `f64` buffer.
    F64,
}

/// What kind of control edge a jump target is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Edge {
    /// A forward branch, or the back edge of a `while` (a plain jump).
    Branch,
    /// The exit of a `for` / `while` head: one past the loop's back edge.
    LoopExit,
    /// The back edge of a `for`, which must land on its loop head.
    LoopBack,
    /// The back edge of a bottom-tested loop, which re-tests the loop's
    /// condition itself and must land just past its loop head: where
    /// falling through the head arrives.
    LoopBody,
}

/// Whether dispatching an opcode touches the VM's register tags.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Lane {
    /// Reads or writes runtime register tags.
    Generic,
    /// No tag involved: a monomorphic typed form on the unboxed lanes, or
    /// control flow and bookkeeping that names no tagged register.
    TagFree,
    /// A vectorized kernel op: a whole typed loop, no tags.  Its row names
    /// the loop registers `counter` and `hi`.
    Kernel,
}

/// The reference kind an operand walk hands its operands out by.
pub(crate) trait Refs {
    /// `&'a T` or `&'a mut T`.
    type Of<'a, T: 'a>: std::ops::Deref<Target = T>;
}

/// Operands by `&` ([`Instr::operands`]).
pub(crate) struct Shared;

/// Operands by `&mut` ([`Instr::operands_mut`]).
pub(crate) struct Unique;

impl Refs for Shared {
    type Of<'a, T: 'a> = &'a T;
}

impl Refs for Unique {
    type Of<'a, T: 'a> = &'a mut T;
}

/// One operand of an instruction, as its table row annotates it.  The
/// last four variants carry encoding constraints by value; only
/// [`Program::validate`] looks at them.
pub(crate) enum Operand<'a, P: Refs> {
    /// A register and how the instruction uses it.
    Reg(P::Of<'a, Reg>, Role),
    /// A buffer and the element kind it must have.
    Buf(P::Of<'a, BufId>, Elem),
    /// A jump target (an absolute pc) and its edge kind.
    Target(P::Of<'a, u32>, Edge),
    /// An index into the constant pool.
    Const(P::Of<'a, u32>),
    /// An index into the step table ([`Program::step_of`]).
    Step(P::Of<'a, u32>),
    /// An operator, the class it must belong to, and what to call it when
    /// it does not.
    Op(BinOp, fn(BinOp) -> bool, &'static str),
    /// A kernel op's unroll width (4 or 8).
    Lanes(u8),
    /// The row stride of a [`VBase::Scaled`] index shape (at least 1).
    Stride(i64),
    /// The constant part of a kernel op's accumulator element
    /// (non-negative).
    AccIdx(i64),
}

/// The operand walk of `Self` = `&'a T` or `&'a mut T`: call `f` on every
/// operand of the value, in field order.
pub(crate) trait Walk<'a, P: Refs> {
    /// Visit every operand.
    fn walk<F: FnMut(Operand<'a, P>)>(self, f: &mut F);
}

/// Comparison operators eligible for the typed compare-branch forms.
pub(crate) fn is_cmp_op(op: BinOp) -> bool {
    matches!(op, BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge)
}

/// Integer operators the typed [`Instr::IArith`] forms support: the
/// infallible subset (wrapping arithmetic; no `Div`, which can fault).
pub(crate) fn is_int_arith(op: BinOp) -> bool {
    matches!(op, BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Min | BinOp::Max)
}

/// Float operators the typed [`Instr::FArith`] forms support (all total
/// on f64, including `Div`).
pub(crate) fn is_float_arith(op: BinOp) -> bool {
    matches!(op, BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Min | BinOp::Max)
}

/// Reductions the typed store forms support: plain assignment or an
/// arithmetic combine (the same set the VM's unboxed store fast path
/// accepts).
pub(crate) fn is_arith_reduce(reduce: Option<BinOp>) -> bool {
    reduce.is_none_or(is_float_arith)
}

/// Implement [`Walk`] for `&$ty` and for `&mut $ty` from one body.  The
/// body's `match` binds the fields of `$this` by `&` or by `&mut` alike
/// (default binding modes) and hands them to `$f`, so the two walks cannot
/// disagree on which operands there are or in which order they come.
macro_rules! walks {
    ($ty:ty, |$this:ident, $f:ident| $body:expr) => {
        impl<'a> Walk<'a, Shared> for &'a $ty {
            #[inline]
            fn walk<F: FnMut(Operand<'a, Shared>)>(self, $f: &mut F) {
                let $this = self;
                $body
            }
        }
        impl<'a> Walk<'a, Unique> for &'a mut $ty {
            #[inline]
            fn walk<F: FnMut(Operand<'a, Unique>)>(self, $f: &mut F) {
                let $this = self;
                $body
            }
        }
    };
}

/// What one annotated field `$x` of a table row hands to the walk's `$f`.
macro_rules! operand {
    ($f:ident, $x:ident, reg($role:ident)) => {
        $f(Operand::Reg($x, Role::$role))
    };
    ($f:ident, $x:ident, buf($elem:ident)) => {
        $f(Operand::Buf($x, Elem::$elem))
    };
    ($f:ident, $x:ident, target($edge:ident)) => {
        $f(Operand::Target($x, Edge::$edge))
    };
    ($f:ident, $x:ident, cidx) => {
        $f(Operand::Const($x))
    };
    ($f:ident, $x:ident, sidx) => {
        $f(Operand::Step($x))
    };
    ($f:ident, $x:ident, op($class:ident, $what:literal)) => {
        $f(Operand::Op(*$x, $class, $what))
    };
    // `is_arith_reduce`: no reduction at all is always fine.
    ($f:ident, $x:ident, reduce($what:literal)) => {
        if let Some(op) = $x {
            $f(Operand::Op(*op, is_float_arith, $what))
        }
    };
    ($f:ident, $x:ident, guard($what:literal)) => {
        if let Some((op, _)) = $x {
            $f(Operand::Op(*op, is_cmp_op, $what))
        }
    };
    ($f:ident, $x:ident, lanes) => {
        $f(Operand::Lanes(*$x))
    };
    ($f:ident, $x:ident, nested) => {
        Walk::walk($x, &mut *$f)
    };
    ($f:ident, $x:ident, payload) => {
        let _ = $x;
    };
}

/// The `(counter, hi)` fields of a `Kernel`-lane row, `None` for any other
/// lane: every kernel op must name its loop registers exactly that.
macro_rules! loop_regs {
    (Kernel, $instr:expr, $Instr:ident :: $name:ident) => {{
        let $Instr::$name { counter, hi, .. } = $instr else { unreachable!() };
        Some((*counter, *hi))
    }};
    ($lane:ident, $instr:expr, $Instr:ident :: $name:ident) => {
        None
    };
}

/// One field of a table row as its template renders it ([`Instr::disasm`]):
/// by its annotation where its type does not say (the `u32` indices), by
/// its type otherwise.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Piece {
    /// A register: its variable's name, or `tN`.
    Reg(Reg),
    /// A buffer: `bK`.
    Buf(BufId),
    /// A jump target: its absolute pc.
    Pc(u32),
    /// A constant-pool index: the resolved literal.
    Const(u32),
    /// A step-table index: the step loop's operands and what it does with a
    /// step ([`Step`]).
    Step,
    /// An operator: its symbol, or applied to two operands.
    Op(BinOp),
    /// A store's reduction: `=` or `op=`.
    Reduce(Option<BinOp>),
    /// A filter applied to one operand: nothing, or ` where x op imm`.
    Guard(Option<(BinOp, f64)>),
    /// A unary operator: its symbol.
    Un(UnOp),
    /// A flag, which selects text.
    Flag(bool),
    /// An integer immediate.
    Int(i64),
    /// A float immediate, as [`crate::value::Value::Float`] displays it.
    Float(f64),
    /// A kernel op's index shape.
    Base(VBase),
    /// A kernel op's accumulator element.
    Acc(VAcc),
    /// A fill value.
    Fill(VFill),
    /// A pre-scale, applied to one operand.
    Scale(VScale),
    /// A map's second operand, applied to its first.
    Rhs(VRhs),
    /// A field no template names: a cost, the step counts, the second finger.
    Hidden,
}

/// [`Piece`] from each field type that says how it renders.
macro_rules! pieces {
    ($($ty:ty => $make:expr),* $(,)?) => {
        $(impl From<$ty> for Piece {
            fn from(x: $ty) -> Piece {
                $make(x)
            }
        })*
    };
}

pieces! {
    Reg => Piece::Reg,
    BufId => Piece::Buf,
    BinOp => Piece::Op,
    Option<BinOp> => Piece::Reduce,
    Option<(BinOp, f64)> => Piece::Guard,
    UnOp => Piece::Un,
    bool => Piece::Flag,
    i64 => Piece::Int,
    u32 => |x| Piece::Int(i64::from(x)),
    u8 => |x| Piece::Int(i64::from(x)),
    f64 => Piece::Float,
    VBase => Piece::Base,
    VAcc => Piece::Acc,
    VFill => Piece::Fill,
    VScale => Piece::Scale,
    VRhs => Piece::Rhs,
    VCost => |_| Piece::Hidden,
    StepCounts => |_| Piece::Hidden,
    Option<(BufId, Reg)> => |_| Piece::Hidden,
}

/// The [`Piece`] of one annotated field `$x` of a table row.
macro_rules! piece {
    (target($edge:ident), $x:expr) => {
        Piece::Pc($x)
    };
    (cidx, $x:expr) => {
        Piece::Const($x)
    };
    (sidx, $x:expr) => {{
        let _ = $x;
        Piece::Step
    }};
    ($kind:ident $(($($arg:tt)*))?, $x:expr) => {
        Piece::from($x)
    };
}

/// Generate the instruction enum and everything that is a function of the
/// table alone: the operand [`Walk`]s, the mnemonic, the lane, the kernel
/// ops' loop registers and the disassembly.
macro_rules! isa {
    (
        $(#[$emeta:meta])*
        pub enum $Instr:ident {
            $(
                $(#[$vmeta:meta])*
                $name:ident = $mnemonic:literal $lane:ident $template:literal
                $({
                    $(
                        $(#[$fmeta:meta])*
                        $field:ident : $fty:ty = $kind:ident $(( $($arg:tt)* ))?
                    ),* $(,)?
                })?
            ),* $(,)?
        }
    ) => {
        $(#[$emeta])*
        pub enum $Instr {
            $(
                $(#[$vmeta])*
                $name $({
                    $( $(#[$fmeta])* $field: $fty ),*
                })?
            ),*
        }

        walks!($Instr, |instr, f| match instr {
            $(
                $Instr::$name $({ $($field),* })? => {
                    $($( operand!(f, $field, $kind $(( $($arg)* ))?); )*)?
                }
            )*
        });

        impl $Instr {
            /// A short stable mnemonic for this instruction's opcode: what
            /// `tests/isa_reach.rs` counts emitted and dispatched instructions by.
            pub fn opcode(&self) -> &'static str {
                match self {
                    $( $Instr::$name { .. } => $mnemonic ),*
                }
            }

            fn lane(&self) -> Lane {
                match self {
                    $( $Instr::$name { .. } => Lane::$lane ),*
                }
            }

            /// The `(counter, hi)` loop registers of a vectorized kernel op
            /// (`None` for every other instruction).
            pub(crate) fn vop_loop_regs(&self) -> Option<(Reg, Reg)> {
                match self {
                    $( $Instr::$name { .. } => loop_regs!($lane, self, $Instr::$name) ),*
                }
            }

            /// This instruction's line in [`Program::disasm`]: its row's
            /// template over its fields, with `program`'s register names,
            /// constant pool and step table.
            pub(crate) fn disasm(&self, program: &Program) -> String {
                match self {
                    $(
                        $Instr::$name $({ $($field),* })? => program.render($template, self, &[
                            $($( (stringify!($field), piece!($kind $(( $($arg)* ))?, *$field)) ),*)?
                        ])
                    ),*
                }
            }
        }

        /// Every opcode's mnemonic, in table order.
        #[cfg(test)]
        pub(crate) const MNEMONICS: &[&str] = &[$($mnemonic),*];
    };
}

isa! {
/// One bytecode instruction.
///
/// Jump targets are absolute instruction indices.  Every instruction either
/// falls through to the next instruction or transfers control to its target.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Instr {
    /// Count one executed statement and enforce the step budget.  Emitted
    /// once per source [`Stmt`], before the statement's own code; the
    /// `finalize` pass folds most of them into [`Program::stmt_bump`] and
    /// keeps only those a join point needs (loop heads).
    BumpStmt = "bump_stmt" TagFree "stmt",
    /// `dst = consts[cidx]`.
    Const = "const" Generic "{dst} = const {cidx}" {
        /// Destination register.
        dst: Reg = reg(Write),
        /// Index into the program's constant pool.
        cidx: u32 = cidx,
    },
    /// `dst = src`.  Reading an unset register is an error (this is how an
    /// unbound variable read surfaces).
    Mov = "mov" Generic "{dst} = {src}" {
        /// Destination register.
        dst: Reg = reg(Write),
        /// Source register.
        src: Reg = reg(Read),
    },
    /// `dst = buf[idx]`.  A missing index yields missing (the `permit`
    /// semantics); otherwise the index is coerced to an integer, bounds are
    /// checked, and one load is counted.
    Load = "load" Generic "{dst} = {buf}[{idx}]" {
        /// Destination register.
        dst: Reg = reg(Write),
        /// The buffer read from.
        buf: BufId = buf(Any),
        /// Register holding the element index.
        idx: Reg = reg(Read),
    },
    /// Coerce the register to an integer in place (the interpreter's
    /// `Value::as_int`): booleans widen, integral floats convert, anything
    /// else (including missing) is a type error.
    CoerceInt = "coerce_int" Generic "coerce_int {reg}" {
        /// The register coerced.
        reg: Reg = reg(ReadWrite),
    },
    /// `buf[idx] reduce= val` (plain store when `reduce` is `None`).  The
    /// index register must already hold an integer (the compiler emits
    /// [`Instr::CoerceInt`] first); bounds are checked and one store is
    /// counted.
    Store = "store" Generic "{buf}[{idx}] {reduce} {val}" {
        /// The destination buffer.
        buf: BufId = buf(Any),
        /// Register holding the (already integer) element index.
        idx: Reg = reg(Read),
        /// Register holding the stored value.
        val: Reg = reg(Read),
        /// Reduction operator (`Some(Add)` means `+=`).
        reduce: Option<BinOp> = payload,
    },
    /// `dst = op src`.
    Unary = "unary" Generic "{dst} = {op}({src})" {
        /// The operator.
        op: UnOp = payload,
        /// Destination register.
        dst: Reg = reg(Write),
        /// Operand register.
        src: Reg = reg(Read),
    },
    /// `dst = lhs op rhs`.  `&&`/`||` appearing here are the *non*
    /// short-circuit completion of the branchy lowering (both operands are
    /// already evaluated).
    Binary = "binary" Generic "{dst} = {op:{lhs}|{rhs}}" {
        /// The operator.
        op: BinOp = payload,
        /// Destination register.
        dst: Reg = reg(Write),
        /// Left operand register.
        lhs: Reg = reg(Read),
        /// Right operand register.
        rhs: Reg = reg(Read),
    },
    /// Unconditional jump.
    Jump = "jump" TagFree "jump -> {target}" {
        /// Absolute target instruction index.
        target: u32 = target(Branch),
    },
    /// Jump when the register is falsy.  A missing value jumps when
    /// `strict` is false (`if`/`select` semantics) and raises a type error
    /// when `strict` is true.
    JumpIfFalse = "jump_if_false" Generic "if_false {src} -> {target}{strict? (strict)}" {
        /// The register tested.
        src: Reg = reg(Read),
        /// Absolute target instruction index.
        target: u32 = target(Branch),
        /// Whether a missing condition is a type error instead of false.
        strict: bool = payload,
    },
    /// Jump when the register is truthy; a missing value falls through.
    /// Used by the short-circuit lowering of `||`.
    JumpIfTrue = "jump_if_true" Generic "if_true {src} -> {target}" {
        /// The register tested.
        src: Reg = reg(Read),
        /// Absolute target instruction index.
        target: u32 = target(Branch),
    },
    /// Jump when the register holds missing (short-circuit `&&`/`||`).
    JumpIfMissing = "jump_if_missing" Generic "if_missing {src} -> {target}" {
        /// The register tested.
        src: Reg = reg(Read),
        /// Absolute target instruction index.
        target: u32 = target(Branch),
    },
    /// Jump when the register holds a non-missing value (`coalesce`).
    JumpIfNotMissing = "jump_if_not_missing" Generic "if_not_missing {src} -> {target}" {
        /// The register tested.
        src: Reg = reg(Read),
        /// Absolute target instruction index.
        target: u32 = target(Branch),
    },
    /// `while` loop head: test the (strictly boolean-coercible) condition;
    /// when true count one loop iteration and fall through into the body,
    /// otherwise jump to `end`.
    WhileTest = "while_test" Generic "while {cond} else -> {end}" {
        /// Register holding the just-evaluated condition.
        cond: Reg = reg(Read),
        /// Absolute index of the first instruction after the loop.
        end: u32 = target(LoopExit),
    },
    /// `for` loop head: when `counter <= hi` (both already integers) count
    /// one loop iteration, publish the counter into the loop variable's
    /// register, and fall through; otherwise jump to `end`.
    ForTest = "for_test" Generic "for {var} = {counter} while <= {hi} else -> {end}" {
        /// Register holding the hidden loop counter.
        counter: Reg = reg(Read),
        /// Register holding the inclusive upper bound.
        hi: Reg = reg(Read),
        /// The loop variable's register, set to the counter each iteration.
        var: Reg = reg(Write),
        /// Absolute index of the first instruction after the loop.
        end: u32 = target(LoopExit),
    },
    /// `for` loop back-edge: increment the counter and jump to `test`.
    ForStep = "for_step" TagFree "step {counter} -> {test}" {
        /// Register holding the hidden loop counter.
        counter: Reg = reg(ReadWrite),
        /// Absolute index of the loop's [`Instr::ForTest`].
        test: u32 = target(LoopBack),
    },
    /// `buf.push(val)`: append one element at the end of a growable buffer
    /// (sparse output assembly).  Counts one store, like [`Instr::Store`].
    Append = "append" Generic "{buf}.push({val})" {
        /// The buffer appended to.
        buf: BufId = buf(Any),
        /// Register holding the appended value.
        val: Reg = reg(Read),
    },
    /// `pos.push(len(data))`: close one fiber of a sparse output level by
    /// recording the current length of its entry array.  Counts one store.
    FiberEnd = "fiber_end" TagFree "{pos}.push(len({data}))" {
        /// The `pos` (fiber boundary) buffer appended to.
        pos: BufId = buf(I64),
        /// The entry array whose current length is recorded.
        data: BufId = buf(Any),
    },
    /// The looplet `seek`: lower-bound binary search for `key` over
    /// `buf[lo..=hi]` (bounds and key already integers), writing the first
    /// position with `buf[p] >= key` (or `hi + 1`) into `dst`.  Counts one
    /// search plus one load per probe, exactly like the tree-walker.
    Seek = "seek" Generic "{dst} = seek{on_abs?_abs}({buf}, {lo}, {hi}, {key})" {
        /// Destination register for the found position.
        dst: Reg = reg(Write),
        /// The sorted coordinate buffer searched.
        buf: BufId = buf(Any),
        /// Register holding the inclusive lower candidate position.
        lo: Reg = reg(Read),
        /// Register holding the inclusive upper candidate position.
        hi: Reg = reg(Read),
        /// Register holding the key searched for.
        key: Reg = reg(Read),
        /// Compare against `abs(buf[p])` (PackBits stores negated markers).
        on_abs: bool = payload,
    },
    /// Superinstruction: `dst = lhs op consts[cidx]` — the peephole fusion
    /// of a [`Instr::Const`] feeding the right operand of a
    /// [`Instr::Binary`].  Semantics (promotion, missing propagation,
    /// errors) and [`crate::interp::ExecStats`] are exactly those of the
    /// unfused pair.
    BinaryImm = "binary_imm" Generic "{dst} = {op:{lhs}|const {cidx}}" {
        /// The operator.
        op: BinOp = payload,
        /// Destination register.
        dst: Reg = reg(Write),
        /// Left operand register.
        lhs: Reg = reg(Read),
        /// Constant-pool index of the right operand.
        cidx: u32 = cidx,
    },
    /// Superinstruction: `dst = lhs op buf[idx]` — the peephole fusion of a
    /// [`Instr::Load`] feeding the right operand of a [`Instr::Binary`].
    /// The load half keeps its exact semantics (missing index yields a
    /// missing operand, bounds are checked, one load is counted) before the
    /// operator is applied.
    LoadBinary = "load_binary" Generic "{dst} = {op:{lhs}|{buf}[{idx}]}" {
        /// The operator.
        op: BinOp = payload,
        /// Destination register.
        dst: Reg = reg(Write),
        /// Left operand register.
        lhs: Reg = reg(Read),
        /// The buffer the right operand is loaded from.
        buf: BufId = buf(Any),
        /// Register holding the element index of the load.
        idx: Reg = reg(Read),
    },
    /// Superinstruction: fused compare-and-branch — a comparison
    /// [`Instr::Binary`] feeding a [`Instr::JumpIfFalse`].  Jumps when the
    /// comparison is false; a missing comparison (a missing operand) jumps
    /// when `strict` is false and raises a type error when `strict` is
    /// true, exactly like the unfused pair.
    CmpBranch = "cmp_branch" Generic "if_false {op:{lhs}|{rhs}} -> {target}{strict? (strict)}" {
        /// The comparison operator (`Eq`/`Ne`/`Lt`/`Le`/`Gt`/`Ge`).
        op: BinOp = op(is_cmp_op, "non-comparison branch op"),
        /// Left operand register.
        lhs: Reg = reg(Read),
        /// Right operand register.
        rhs: Reg = reg(Read),
        /// Absolute target instruction index when the comparison fails.
        target: u32 = target(Branch),
        /// Whether a missing comparison is a type error instead of false.
        strict: bool = payload,
    },
    /// Superinstruction: fused compare-immediate-and-branch — a
    /// [`Instr::BinaryImm`] comparison feeding a [`Instr::JumpIfFalse`].
    CmpBranchImm = "cmp_branch_imm" Generic
        "if_false {op:{lhs}|const {cidx}} -> {target}{strict? (strict)}" {
        /// The comparison operator (`Eq`/`Ne`/`Lt`/`Le`/`Gt`/`Ge`).
        op: BinOp = op(is_cmp_op, "non-comparison branch op"),
        /// Left operand register.
        lhs: Reg = reg(Read),
        /// Constant-pool index of the right operand.
        cidx: u32 = cidx,
        /// Absolute target instruction index when the comparison fails.
        target: u32 = target(Branch),
        /// Whether a missing comparison is a type error instead of false.
        strict: bool = payload,
    },
    /// Superinstruction: fused `while` head — a comparison
    /// [`Instr::Binary`] feeding a [`Instr::WhileTest`].  When the
    /// comparison holds, counts one loop iteration and falls through;
    /// otherwise jumps to `end`.  A missing comparison is a type error,
    /// like [`Instr::WhileTest`] on a missing condition.
    WhileCmp = "while_cmp" Generic "while {op:{lhs}|{rhs}} else -> {end}" {
        /// The comparison operator (`Eq`/`Ne`/`Lt`/`Le`/`Gt`/`Ge`).
        op: BinOp = op(is_cmp_op, "non-comparison while op"),
        /// Left operand register.
        lhs: Reg = reg(Read),
        /// Right operand register.
        rhs: Reg = reg(Read),
        /// Absolute index of the first instruction after the loop.
        end: u32 = target(LoopExit),
    },
    /// Superinstruction: fused `while` head with an immediate right
    /// operand — a [`Instr::BinaryImm`] comparison feeding a
    /// [`Instr::WhileTest`].
    WhileCmpImm = "while_cmp_imm" Generic "while {op:{lhs}|const {cidx}} else -> {end}" {
        /// The comparison operator (`Eq`/`Ne`/`Lt`/`Le`/`Gt`/`Ge`).
        op: BinOp = op(is_cmp_op, "non-comparison while op"),
        /// Left operand register.
        lhs: Reg = reg(Read),
        /// Constant-pool index of the right operand.
        cidx: u32 = cidx,
        /// Absolute index of the first instruction after the loop.
        end: u32 = target(LoopExit),
    },

    // -----------------------------------------------------------------
    // Monomorphic typed instructions, produced by the register-type
    // inference pass in `crate::opt::typing`.  Each is the exact
    // semantics of its generic counterpart restricted to operands whose
    // runtime tag is statically proven, so the VM executes it directly
    // on the unboxed `ints`/`floats` lanes with no tag reads or writes.
    // They maintain `crate::interp::ExecStats` identically to their
    // generic forms, and every register written by one is listed in
    // [`Program::pretags`] so generic instructions can still read it.
    // -----------------------------------------------------------------
    /// No operation (a statically-discharged [`Instr::CoerceInt`], kept
    /// so jump targets stay stable — the typing pass rewrites 1:1; the
    /// `finalize` pass deletes them).
    Nop = "nop" TagFree "nop",
    /// `ints[dst] = imm` — a typed [`Instr::Const`] with the integer
    /// inlined (no constant-pool read).
    ConstI = "const_i" TagFree "{dst} = const.i {imm}" {
        /// Destination register (statically `Int`).
        dst: Reg = reg(Write),
        /// The inlined integer literal.
        imm: i64 = payload,
    },
    /// `floats[dst] = imm` — a typed [`Instr::Const`] with the float
    /// inlined bit-exactly.
    ConstF = "const_f" TagFree "{dst} = const.f {imm}" {
        /// Destination register (statically `Float`).
        dst: Reg = reg(Write),
        /// The inlined float literal.
        imm: f64 = payload,
    },
    /// `ints[dst] = ints[src]` — a typed [`Instr::Mov`].
    IMov = "i_mov" TagFree "{dst} = {src} (i64)" {
        /// Destination register (statically `Int`).
        dst: Reg = reg(Write),
        /// Source register (proven `Int` and assigned here).
        src: Reg = reg(Read),
    },
    /// `ints[dst] = i64buf[ints[idx]]` — a typed [`Instr::Load`] from an
    /// I64 buffer.  Bounds are checked and one load is counted, exactly
    /// like the generic form on an integer index.
    LoadI64 = "load_i64" TagFree "{dst} = {buf}[{idx}] (i64)" {
        /// Destination register (statically `Int`).
        dst: Reg = reg(Write),
        /// The I64 buffer read from.
        buf: BufId = buf(I64),
        /// Register holding the element index (proven `Int`).
        idx: Reg = reg(Read),
    },
    /// `floats[dst] = f64buf[ints[idx]]` — a typed [`Instr::Load`] from
    /// an F64 buffer.
    LoadF64 = "load_f64" TagFree "{dst} = {buf}[{idx}] (f64)" {
        /// Destination register (statically `Float`).
        dst: Reg = reg(Write),
        /// The F64 buffer read from.
        buf: BufId = buf(F64),
        /// Register holding the element index (proven `Int`).
        idx: Reg = reg(Read),
    },
    /// `floats[dst] = floats[lhs] * f64buf[ints[idx]]` — a typed
    /// [`Instr::LoadBinary`] with a multiply (the inner-product hot
    /// path).  One load is counted.
    FMulLoad = "f_mul_load" TagFree "{dst} = {lhs} * {buf}[{idx}] (f64)" {
        /// Destination register (statically `Float`).
        dst: Reg = reg(Write),
        /// Left operand register (proven `Float`).
        lhs: Reg = reg(Read),
        /// The F64 buffer the right operand is loaded from.
        buf: BufId = buf(F64),
        /// Register holding the element index (proven `Int`).
        idx: Reg = reg(Read),
    },
    /// `f64buf[ints[idx]] reduce= floats[val]` — a typed [`Instr::Store`]
    /// into an F64 buffer under an arithmetic (infallible) reduction.
    StoreF64 = "store_f64" TagFree "{buf}[{idx}] {reduce} {val} (f64)" {
        /// The F64 destination buffer.
        buf: BufId = buf(F64),
        /// Register holding the (already integer) element index.
        idx: Reg = reg(Read),
        /// Register holding the stored value (proven `Float`).
        val: Reg = reg(Read),
        /// Reduction operator (restricted to `Add`/`Sub`/`Mul`/`Div`/
        /// `Min`/`Max` or plain assignment).
        reduce: Option<BinOp> = reduce("non-arithmetic typed store reduce"),
    },
    /// `i64buf.push(ints[val])` — a typed [`Instr::Append`] (sparse
    /// coordinate assembly).  Counts one store.
    IAppend = "i_append" TagFree "{buf}.push({val}) (i64)" {
        /// The I64 buffer appended to.
        buf: BufId = buf(I64),
        /// Register holding the appended value (proven `Int`).
        val: Reg = reg(Read),
    },
    /// `f64buf.push(floats[val])` — a typed [`Instr::Append`] (sparse
    /// value assembly).  Counts one store.
    FAppend = "f_append" TagFree "{buf}.push({val}) (f64)" {
        /// The F64 buffer appended to.
        buf: BufId = buf(F64),
        /// Register holding the appended value (proven `Float`).
        val: Reg = reg(Read),
    },
    /// `ints[dst] = ints[lhs] op ints[rhs]` for an infallible integer
    /// arithmetic operator (wrapping `Add`/`Sub`/`Mul`, `Min`, `Max`) —
    /// a typed [`Instr::Binary`].
    IArith = "i_arith" TagFree "{dst} = {op:{lhs}|{rhs}} (i64)" {
        /// The operator (`Add`/`Sub`/`Mul`/`Min`/`Max`).
        op: BinOp = op(is_int_arith, "unsupported IArith op"),
        /// Destination register (statically `Int`).
        dst: Reg = reg(Write),
        /// Left operand register (proven `Int`).
        lhs: Reg = reg(Read),
        /// Right operand register (proven `Int`).
        rhs: Reg = reg(Read),
    },
    /// `floats[dst] = floats[lhs] op floats[rhs]` for a float arithmetic
    /// operator (`Add`/`Sub`/`Mul`/`Div`/`Min`/`Max`) — a typed
    /// [`Instr::Binary`].
    FArith = "f_arith" TagFree "{dst} = {op:{lhs}|{rhs}} (f64)" {
        /// The operator (`Add`/`Sub`/`Mul`/`Div`/`Min`/`Max`).
        op: BinOp = op(is_float_arith, "unsupported FArith op"),
        /// Destination register (statically `Float`).
        dst: Reg = reg(Write),
        /// Left operand register (proven `Float`).
        lhs: Reg = reg(Read),
        /// Right operand register (proven `Float`).
        rhs: Reg = reg(Read),
    },
    /// `ints[dst] = ints[lhs] op imm` — a typed [`Instr::BinaryImm`]
    /// with the integer immediate inlined.
    IArithImm = "i_arith_imm" TagFree "{dst} = {op:{lhs}|{imm}} (i64)" {
        /// The operator (`Add`/`Sub`/`Mul`/`Min`/`Max`).
        op: BinOp = op(is_int_arith, "unsupported IArithImm op"),
        /// Destination register (statically `Int`).
        dst: Reg = reg(Write),
        /// Left operand register (proven `Int`).
        lhs: Reg = reg(Read),
        /// The inlined integer immediate.
        imm: i64 = payload,
    },
    /// `floats[dst] = floats[lhs] op imm` — a typed [`Instr::BinaryImm`]
    /// with the float immediate inlined bit-exactly.
    FArithImm = "f_arith_imm" TagFree "{dst} = {op:{lhs}|{imm}} (f64)" {
        /// The operator (`Add`/`Sub`/`Mul`/`Div`/`Min`/`Max`).
        op: BinOp = op(is_float_arith, "unsupported FArithImm op"),
        /// Destination register (statically `Float`).
        dst: Reg = reg(Write),
        /// Left operand register (proven `Float`).
        lhs: Reg = reg(Read),
        /// The inlined float immediate.
        imm: f64 = payload,
    },
    /// `floats[dst] = round(floats[src]).clamp(0, 255)` — a typed
    /// [`Instr::Unary`] for `round_u8` (the alpha-blend hot path).
    FRound = "f_round" TagFree "{dst} = round_u8({src}) (f64)" {
        /// Destination register (statically `Float`).
        dst: Reg = reg(Write),
        /// Operand register (proven `Float`).
        src: Reg = reg(Read),
    },
    /// Typed [`Instr::CmpBranch`] on two integer registers: equality on
    /// the integers, ordering through f64 (exactly the generic int/int
    /// fast path).  The comparison cannot be missing, so there is no
    /// strictness flag.
    ICmpBranch = "i_cmp_branch" TagFree "if_false {op:{lhs}|{rhs}} (i64) -> {target}" {
        /// The comparison operator (`Eq`/`Ne`/`Lt`/`Le`/`Gt`/`Ge`).
        op: BinOp = op(is_cmp_op, "non-comparison typed branch op"),
        /// Left operand register (proven `Int`).
        lhs: Reg = reg(Read),
        /// Right operand register (proven `Int`).
        rhs: Reg = reg(Read),
        /// Absolute target instruction index when the comparison fails.
        target: u32 = target(Branch),
    },
    /// Typed [`Instr::CmpBranchImm`] with an inlined integer immediate.
    ICmpBranchImm = "i_cmp_branch_imm" TagFree "if_false {op:{lhs}|{imm}} (i64) -> {target}" {
        /// The comparison operator (`Eq`/`Ne`/`Lt`/`Le`/`Gt`/`Ge`).
        op: BinOp = op(is_cmp_op, "non-comparison typed branch op"),
        /// Left operand register (proven `Int`).
        lhs: Reg = reg(Read),
        /// The inlined integer immediate.
        imm: i64 = payload,
        /// Absolute target instruction index when the comparison fails.
        target: u32 = target(Branch),
    },
    /// Typed [`Instr::CmpBranch`] on two float registers.
    FCmpBranch = "f_cmp_branch" TagFree "if_false {op:{lhs}|{rhs}} (f64) -> {target}" {
        /// The comparison operator (`Eq`/`Ne`/`Lt`/`Le`/`Gt`/`Ge`).
        op: BinOp = op(is_cmp_op, "non-comparison typed branch op"),
        /// Left operand register (proven `Float`).
        lhs: Reg = reg(Read),
        /// Right operand register (proven `Float`).
        rhs: Reg = reg(Read),
        /// Absolute target instruction index when the comparison fails.
        target: u32 = target(Branch),
    },
    /// Typed [`Instr::CmpBranchImm`] with an inlined float immediate.
    FCmpBranchImm = "f_cmp_branch_imm" TagFree "if_false {op:{lhs}|{imm}} (f64) -> {target}" {
        /// The comparison operator (`Eq`/`Ne`/`Lt`/`Le`/`Gt`/`Ge`).
        op: BinOp = op(is_cmp_op, "non-comparison typed branch op"),
        /// Left operand register (proven `Float`).
        lhs: Reg = reg(Read),
        /// The inlined float immediate.
        imm: f64 = payload,
        /// Absolute target instruction index when the comparison fails.
        target: u32 = target(Branch),
    },
    /// Typed [`Instr::WhileCmp`] on two integer registers: when the
    /// comparison holds, count one loop iteration and fall through;
    /// otherwise jump to `end`.
    IWhileCmp = "i_while_cmp" TagFree "while {op:{lhs}|{rhs}} (i64) else -> {end}" {
        /// The comparison operator (`Eq`/`Ne`/`Lt`/`Le`/`Gt`/`Ge`).
        op: BinOp = op(is_cmp_op, "non-comparison typed while op"),
        /// Left operand register (proven `Int`).
        lhs: Reg = reg(Read),
        /// Right operand register (proven `Int`).
        rhs: Reg = reg(Read),
        /// Absolute index of the first instruction after the loop.
        end: u32 = target(LoopExit),
    },
    /// Typed [`Instr::WhileCmpImm`] with an inlined integer immediate.
    IWhileCmpImm = "i_while_cmp_imm" TagFree "while {op:{lhs}|{imm}} (i64) else -> {end}" {
        /// The comparison operator (`Eq`/`Ne`/`Lt`/`Le`/`Gt`/`Ge`).
        op: BinOp = op(is_cmp_op, "non-comparison typed while op"),
        /// Left operand register (proven `Int`).
        lhs: Reg = reg(Read),
        /// The inlined integer immediate.
        imm: i64 = payload,
        /// Absolute index of the first instruction after the loop.
        end: u32 = target(LoopExit),
    },
    /// Typed [`Instr::ForTest`]: the loop variable is statically `Int`,
    /// so publishing the counter writes only the int lane (no tag).
    IForTest = "i_for_test" TagFree "for {var} = {counter} while <= {hi} (i64) else -> {end}" {
        /// Register holding the hidden loop counter (proven `Int`).
        counter: Reg = reg(Read),
        /// Register holding the inclusive upper bound (proven `Int`).
        hi: Reg = reg(Read),
        /// The loop variable's register (statically `Int`).
        var: Reg = reg(Write),
        /// Absolute index of the first instruction after the loop.
        end: u32 = target(LoopExit),
    },
    /// Typed [`Instr::Seek`] over an I64 coordinate buffer, writing the
    /// found position to the int lane only.  Counts one search plus one
    /// load per probe, exactly like the generic form.
    ISeek = "i_seek" TagFree "{dst} = seek{on_abs?_abs}.i({buf}, {lo}, {hi}, {key})" {
        /// Destination register (statically `Int`).
        dst: Reg = reg(Write),
        /// The sorted I64 coordinate buffer searched.
        buf: BufId = buf(I64),
        /// Register holding the inclusive lower candidate position.
        lo: Reg = reg(Read),
        /// Register holding the inclusive upper candidate position.
        hi: Reg = reg(Read),
        /// Register holding the key searched for.
        key: Reg = reg(Read),
        /// Compare against `abs(buf[p])` (PackBits stores negated markers).
        on_abs: bool = payload,
    },
    /// Predicated finger advance: `ints[reg] += by · (ints[lhs] op
    /// ints[rhs])` — the `forward` pass's fusion of an
    /// [`Instr::ICmpBranch`] that guards nothing but one `reg = reg + by`
    /// [`Instr::IArithImm`] (the looplet stepper's `if idx[p] == step_stop
    /// { p += 1 }`), executed without a guest branch.  The guarded
    /// assignment's `stmts` statements are counted only when the
    /// comparison holds, before the register is written, so a step budget
    /// or an injected fault trips on the statement it would have tripped
    /// on in the unfused pair.
    IAdvance = "i_advance" TagFree "if {op:{lhs}|{rhs}} (i64) {{ {reg} += {by} ; +{stmts} stmt }}" {
        /// The comparison operator (`Eq`/`Ne`/`Lt`/`Le`/`Gt`/`Ge`).
        op: BinOp = op(is_cmp_op, "non-comparison advance op"),
        /// Left operand register (proven `Int`).
        lhs: Reg = reg(Read),
        /// Right operand register (proven `Int`).
        rhs: Reg = reg(Read),
        /// The register advanced in place (proven `Int`).
        reg: Reg = reg(ReadWrite),
        /// How far the register advances when the comparison holds.
        by: i64 = payload,
        /// Statements the guarded assignment accounts when it runs.
        stmts: u32 = payload,
    },
    /// Bottom test of a typed `while`: the `forward` pass's replacement
    /// for the back edge `Jump` to an [`Instr::IWhileCmp`] /
    /// [`Instr::IWhileCmpImm`] head (an immediate is read from a pinned
    /// literal register).  When the comparison holds, counts one loop
    /// iteration and jumps to `body`, the instruction after the head;
    /// otherwise falls through to the loop's exit.  The head stays as the
    /// loop's entry test.
    IWhileNext = "i_while_next" TagFree "next while {op:{lhs}|{rhs}} (i64) -> {body}" {
        /// The comparison operator (`Eq`/`Ne`/`Lt`/`Le`/`Gt`/`Ge`).
        op: BinOp = op(is_cmp_op, "non-comparison typed while op"),
        /// Left operand register (proven `Int`).
        lhs: Reg = reg(Read),
        /// Right operand register (proven `Int`).
        rhs: Reg = reg(Read),
        /// Absolute index of the first instruction of the loop body.
        body: u32 = target(LoopBody),
    },
    /// Bottom test of a typed `for`: the `forward` pass's replacement for
    /// an [`Instr::ForStep`] whose head is an [`Instr::IForTest`] — step
    /// and re-test in one dispatch.  Increments the counter; when it is
    /// still `<= hi`, counts one loop iteration, publishes the counter
    /// into the loop variable and jumps to `body`, the instruction after
    /// the head; otherwise falls through to the loop's exit, leaving the
    /// counter and the variable exactly as the step and the failing head
    /// test would.  The one opcode that writes two registers.
    IForNext = "i_for_next" TagFree "next {var} = {counter} + 1 while <= {hi} (i64) -> {body}" {
        /// Register holding the hidden loop counter (proven `Int`).
        counter: Reg = reg(ReadWrite),
        /// Register holding the inclusive upper bound (proven `Int`).
        hi: Reg = reg(Read),
        /// The loop variable's register (statically `Int`).
        var: Reg = reg(Write),
        /// Absolute index of the first instruction of the loop body.
        body: u32 = target(LoopBody),
    },

    // -----------------------------------------------------------------
    // Vectorized kernel ops, produced by the vectorize pass in
    // `crate::opt::vectorize`.  Each one sits immediately *before* a
    // typed counted loop (an [`Instr::IForTest`] head) and executes all
    // but the last of the loop's iterations over whole buffer slices —
    // unrolled, with no per-element dispatch — then advances the loop
    // counter so the untouched scalar loop runs exactly the final
    // iteration (which doubles as the remainder handler and restores
    // every temporary register bit-for-bit).  When any precondition
    // fails at runtime (rebound buffer kind, an out-of-range access
    // anywhere in the slice, aliasing between source and destination,
    // or a step budget that the bulk could overrun), the kernel op does
    // *nothing* and the scalar loop runs all iterations — the fallback
    // is the original code.  Each op bumps `ExecStats` by its
    // scalar-equivalent `cost` per bulk iteration, so work counters are
    // identical with and without vectorization.
    // -----------------------------------------------------------------
    /// Fill: `f64buf[base + v] = val` for each bulk iteration `v` (the
    /// dense-output initialisation loop, and a run-length region's
    /// broadcast of its run value).
    VFillStoreF64 = "v_fill_store_f64" Kernel
        "vfill.f64 {buf}[{base}] = {val} for v in [{counter}, {hi}) (x{lanes})" {
        /// The F64 destination buffer.
        buf: BufId = buf(F64),
        /// Per-iteration element index shape.
        base: VBase = nested,
        /// The fill value: an immediate or a loop-invariant float register.
        val: VFill = nested,
        /// Register holding the loop counter (read, then set to the hi
        /// bound, leaving one iteration for the scalar loop).
        counter: Reg = reg(ReadWrite),
        /// Register holding the inclusive upper bound.
        hi: Reg = reg(Read),
        /// Scalar-equivalent work per bulk iteration.
        cost: VCost = payload,
        /// Unroll width (4 or 8).
        lanes: u8 = lanes,
    },
    /// Elementwise map: `f64dst[..] reduce= post(pre(a[..]) rhs)` for
    /// each bulk iteration (the axpy / elementwise-multiply / alpha-blend
    /// hot paths).  Evaluation order and operand orientation reproduce
    /// the scalar body bit-for-bit.
    VMapF64 = "v_map_f64" Kernel
        "vmap.f64 {dst}[{dst_base}] {reduce} {round?round_u8(}{rhs:{a_pre:{a}[{a_base}]}}{round?)} \
         for v in [{counter}, {hi}) (x{lanes})" {
        /// The F64 destination buffer (must not alias the sources).
        dst: BufId = buf(F64),
        /// Destination index shape.
        dst_base: VBase = nested,
        /// Store reduction (`Some(Add)` is `+=`).
        reduce: Option<BinOp> = reduce("non-arithmetic vector store reduce"),
        /// Apply `round_u8` clamping to the value before the store.
        round: bool = payload,
        /// The first F64 source buffer.
        a: BufId = buf(F64),
        /// First source index shape.
        a_base: VBase = nested,
        /// Pre-scale applied to the first loaded operand.
        a_pre: VScale = nested,
        /// The second operand (absent, immediate, or a second load).
        rhs: VRhs = nested,
        /// Register holding the loop counter.
        counter: Reg = reg(ReadWrite),
        /// Register holding the inclusive upper bound.
        hi: Reg = reg(Read),
        /// Scalar-equivalent work per bulk iteration.
        cost: VCost = payload,
        /// Unroll width (4 or 8).
        lanes: u8 = lanes,
    },
    /// Inner product: `f64acc[acc_idx] op= a[..] * b[..]` for each bulk
    /// iteration, folded strictly in order (FP reassociation would break
    /// bit-exactness with the scalar loop).  `a` and `b` may be the same
    /// buffer; neither may alias `acc`.  (Fig. 9's window dot, a dense
    /// row norm, a dense dot.)
    VMulAddF64 = "v_mul_add_f64" Kernel
        "vmuladd.f64 {acc}[{acc_idx}] {op}= {a}[{a_base}] * {b}[{b_base}] \
         for v in [{counter}, {hi}) (x{lanes})" {
        /// The F64 accumulator buffer.
        acc: BufId = buf(F64),
        /// The accumulator's element, fixed for the whole loop.
        acc_idx: VAcc = nested,
        /// The first F64 source buffer.
        a: BufId = buf(F64),
        /// First source index shape.
        a_base: VBase = nested,
        /// The second F64 source buffer.
        b: BufId = buf(F64),
        /// Second source index shape.
        b_base: VBase = nested,
        /// The reduction operator combining into the accumulator.
        op: BinOp = op(is_float_arith, "unsupported vector reduce op"),
        /// Register holding the loop counter.
        counter: Reg = reg(ReadWrite),
        /// Register holding the inclusive upper bound.
        hi: Reg = reg(Read),
        /// Scalar-equivalent work per bulk iteration.
        cost: VCost = payload,
        /// Unroll width (4 or 8).
        lanes: u8 = lanes,
    },
    /// Reduction: `f64acc[acc_idx] op= pre(src[..])` for each bulk
    /// iteration, folded strictly in order.
    VReduceF64 = "v_reduce_f64" Kernel
        "vreduce.f64 {acc}[{acc_idx}] {op}= {pre:{src}[{base}]} \
         for v in [{counter}, {hi}) (x{lanes})" {
        /// The F64 accumulator buffer.
        acc: BufId = buf(F64),
        /// The accumulator's element, fixed for the whole loop.
        acc_idx: VAcc = nested,
        /// The F64 source buffer (must not alias `acc`).
        src: BufId = buf(F64),
        /// Source index shape.
        base: VBase = nested,
        /// Pre-scale applied to the loaded operand.
        pre: VScale = nested,
        /// The reduction operator (`Add`/`Max`/`Min`/...).
        op: BinOp = op(is_float_arith, "unsupported vector reduce op"),
        /// Register holding the loop counter.
        counter: Reg = reg(ReadWrite),
        /// Register holding the inclusive upper bound.
        hi: Reg = reg(Read),
        /// Scalar-equivalent work per bulk iteration.
        cost: VCost = payload,
        /// Unroll width (4 or 8).
        lanes: u8 = lanes,
    },
    /// Sparse-output assembly stream: `i64idx_out.push(v)` and
    /// `f64val_out.push(src[..v])` for each bulk iteration, optionally
    /// only where `src[..v] cmp guard_imm` holds (the threshold sieve).
    VAppendRangeF64 = "v_append_range_f64" Kernel
        "vappend.f64 {idx_out}.push(v), {val_out}.push({src}[{base}]){guard:{src}[{base}]} \
         for v in [{counter}, {hi}) (x{lanes})" {
        /// The I64 coordinate output buffer.
        idx_out: BufId = buf(I64),
        /// The F64 value output buffer.
        val_out: BufId = buf(F64),
        /// The F64 source buffer.
        src: BufId = buf(F64),
        /// Source index shape.
        base: VBase = nested,
        /// Optional filter: append only where `src[..] op imm`.
        guard: Option<(BinOp, f64)> = guard("non-comparison vector guard op"),
        /// Register holding the loop counter.
        counter: Reg = reg(ReadWrite),
        /// Register holding the inclusive upper bound.
        hi: Reg = reg(Read),
        /// Scalar-equivalent work per bulk iteration (always incurred).
        cost: VCost = payload,
        /// Additional scalar-equivalent work per *passing* iteration.
        pass_cost: VCost = payload,
        /// Unroll width (4 or 8).
        lanes: u8 = lanes,
    },

    // -----------------------------------------------------------------
    // The step loop's kernel op, produced by `crate::opt::merge_skip`.
    // Unlike the vectorized ops above it sits *inside* its loop, as the
    // body's first instruction — where the loop's bottom test lands — so it
    // is dispatched at the top of every iteration the scalar loop is about
    // to run.
    // -----------------------------------------------------------------
    /// The step loop (paper §6.1), run ahead: at the top of an iteration of
    ///
    /// ```text
    /// while start <= stop {
    ///     s1 = a[p] ; s2 = b[q] ; ss = min(min(s1, s2), stop)
    ///     ..                                        // the step's body
    ///     if s1 == ss { p += 1 } ; if s2 == ss { q += 1 }
    ///     start = ss + 1
    /// }
    /// ```
    ///
    /// — or over a lone stepper `p`, whose step `ss = min(s1, stop)` the op
    /// takes where it ends at the stride — execute, in one native loop over
    /// the `i64` lanes, the iterations that are not the loop's last (`ss + 1
    /// <= stop`) and that the [`Step`] takes: those whose guarded body
    /// does not run, up to the first that matches ([`Step::Skip`]), or every
    /// one, body and all ([`Step::Perform`]).  Each advances the fingers
    /// whose stride ends its step; `start` is set, and
    /// [`crate::interp::ExecStats`] grow by exactly what the scalar
    /// iterations count: one loop iteration each, the `counts` of every step
    /// and of each finger on the steps it ends, and the `pass` of a
    /// [`Step::Perform`] on the steps its guard selects — in place of the
    /// fingers' where the guard is [`Guard::Both`], whose steps both end.
    ///
    /// The op stops, with the fingers and `start` as the scalar loop has
    /// them at that iteration's top, in front of the loop's last iteration
    /// (but for the jumper form's empty last step), a read past a buffer or
    /// of a buffer of another kind, and an iteration one of whose
    /// statements would trip a check (the step budget, an injected fault,
    /// the watch's cancellation flag or clock; it goes on past a check that
    /// passes, as a V-op's bulk does) — so the scalar loop under it, which
    /// is left as it was, still runs every iteration that matches, ends the
    /// loop, faults or trips, and rewrites every temporary that a later
    /// iteration or the loop's exit reads.
    IStepLoop = "i_step_loop" TagFree "step_loop {step}" {
        /// The first finger's sorted I64 coordinates.
        a: BufId = buf(I64),
        /// The first finger: a position in `a` (proven `Int`).
        p: Reg = reg(ReadWrite),
        /// The second finger, if there is one: its sorted I64 coordinates,
        /// and a position in them (proven `Int`).
        q: Option<(BufId, Reg)> = nested,
        /// What the op does with a step: an index into the program's step
        /// table ([`Program::step_of`]), at an entry no other op shares.
        step: u32 = sidx,
        /// The loop's `step_start`, set to one past the last performed step.
        start: Reg = reg(ReadWrite),
        /// The loop's inclusive bound (proven `Int`): a register, or the
        /// pinned register of a literal bound.
        stop: Reg = reg(Read),
        /// What a performed step counts.
        counts: StepCounts = payload,
    },
}
}

/// The dispatch loop strides over `[Instr]`, so the instruction's size is
/// its cache footprint.  It is 112 bytes because the vectorized kernel ops
/// carry their payloads inline; moving them out of line is ROADMAP's
/// parked "compact `Instr`", and until then the size must not grow
/// unnoticed.
const _: () = assert!(std::mem::size_of::<Instr>() == 112);

/// The step loop op's operands, whose payload was the largest: it must
/// leave [`Instr`] eight bytes for a tag of its own.  At 112 bytes the tag
/// moves into a niche of the payload, and every `match` on an instruction
/// pays to decode it — the VM's dispatch and every pass (measured:
/// `compile_cold` +6.5 %, `run_merge` +7 %).  What the op does with a step
/// — a skip's form, or a guard × product × output — is held out of line in
/// the program's step table ([`Program::step_of`]) behind a `u32`, so that
/// a new guard, factor or output costs the instruction nothing.
const _: () = assert!(
    std::mem::size_of::<(BufId, Reg, Option<(BufId, Reg)>, u32, Reg, Reg, StepCounts)>() <= 104
);

/// Per-iteration element index shape of a vectorized kernel op: the loop
/// counter `v` plus a loop-invariant offset read from registers the loop
/// body must never write — none (a dense 1-D walk), a row base
/// `ints[reg] * stride` (a row-major inner loop), or `ints[add] - ints[sub]`
/// (a window: Fig. 9's `offset` shifts the filter's coordinate by the
/// output's, `add` being the row base of a 2-D window and absent in 1-D).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum VBase {
    /// The element index is the bulk iteration counter `v` itself.
    Var,
    /// The element index is `ints[reg] * stride + v` with `stride >= 1`.
    Scaled {
        /// Register holding the loop-invariant row coordinate.
        reg: Reg,
        /// The row stride (elements per row), at least 1.
        stride: i64,
    },
    /// The element index is `ints[add] + (v - ints[sub])`, or `v - ints[sub]`
    /// without `add`.
    Offset {
        /// Register holding the loop-invariant base, if any.
        add: Option<Reg>,
        /// Register holding the loop-invariant shift subtracted from `v`.
        sub: Reg,
    },
}

walks!(VBase, |base, f| match base {
    VBase::Var => {}
    VBase::Scaled { reg, stride } => {
        f(Operand::Reg(reg, Role::Read));
        f(Operand::Stride(*stride));
    }
    VBase::Offset { add, sub } => {
        if let Some(add) = add {
            f(Operand::Reg(add, Role::Read));
        }
        f(Operand::Reg(sub, Role::Read));
    }
});

/// The accumulator element of a [`Instr::VMulAddF64`] /
/// [`Instr::VReduceF64`]: `imm`, plus `ints[reg]` when there is a register
/// (a row norm's `acc[k]`, which the enclosing loop walks; the loop body
/// must never write the register).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VAcc {
    /// The constant part (non-negative).
    pub imm: i64,
    /// The loop-invariant integer register added to it, if any.
    pub reg: Option<Reg>,
}

walks!(VAcc, |acc, f| {
    let VAcc { imm, reg } = acc;
    f(Operand::AccIdx(*imm));
    if let Some(reg) = reg {
        f(Operand::Reg(reg, Role::Read));
    }
});

/// The value a [`Instr::VFillStoreF64`] stores into every element.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum VFill {
    /// A literal, inlined bit-exactly (the dense-output initialisation).
    Imm(f64),
    /// A loop-invariant float register, read from the float lane once per
    /// fill (a run value broadcast over its region).  The loop body must
    /// not write the register, and must store it through a typed
    /// [`Instr::StoreF64`] — which is what proves the lane holds it.
    Reg(Reg),
}

walks!(VFill, |fill, f| match fill {
    VFill::Imm(_) => {}
    VFill::Reg(reg) => f(Operand::Reg(reg, Role::Read)),
});

// An [`Instr::IStepLoop`]'s second finger, if it has one: its list and the
// finger itself, which the op steps.
walks!(Option<(BufId, Reg)>, |second, f| if let Some((list, finger)) = second {
    f(Operand::Buf(list, Elem::I64));
    f(Operand::Reg(finger, Role::ReadWrite));
});

/// What an [`Instr::IStepLoop`] does with a step of its loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Step {
    /// Skip it: two fingers' step that one of them ends alone, whose body
    /// the form's guard keeps from running.  The op stops in front of the
    /// first step whose body runs, which the scalar loop runs; two steppers
    /// whose matched body is a product get a [`Step::Perform`] under
    /// [`Guard::Both`] instead, which performs it.
    Skip(MergeForm),
    /// Perform it, body and all: on a step the [`Guard`] selects, form the
    /// [`Product`] and put it where the [`Out`] says; on another, do nothing
    /// but advance.  The op stops in front of a step whose loads would
    /// fault.  Which guard × product × output combinations exist is
    /// `opt::merge_skip::supported`'s to say: a reduction on every step (any
    /// second factor, the extent or not), a lone stepper's append on every
    /// step or under a comparison, a lone stepper's gathered product stored
    /// into a dense output on every step, and a match's reduction or append
    /// of a value at each finger, led or not.
    Perform {
        /// Which steps run the body.
        guard: Guard,
        /// What the body forms.
        product: Product,
        /// Where it goes.
        out: Out,
        /// The statements and loads of a step the guard selects on top of
        /// every step's `counts`: the code between a comparison and its join
        /// (none for [`Guard::Every`], whose body every step counts) — or,
        /// for [`Guard::Both`], counted in place of the fingers' `counts` (a
        /// match is ended by both): the whole step's.  Here rather than in
        /// [`StepCounts`], so that the instruction's payload leaves [`Instr`]
        /// room for a tag of its own.
        pass: [u32; 2],
    },
}

walks!(Step, |step, f| match step {
    Step::Skip(form) => Walk::walk(form, &mut *f),
    Step::Perform { guard, product, out, .. } => {
        Walk::walk(guard, &mut *f);
        Walk::walk(product, &mut *f);
        Walk::walk(out, &mut *f);
    }
});

/// Which steps a [`Step::Perform`] runs its body on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Guard {
    /// Every step: the body is unguarded (Fig. 11's run × run loop) or, on a
    /// lone stepper, guarded by `ss == s1`, which every step the op takes
    /// passes — it ends at the stride, which is below the bound (Fig. 1's
    /// list × band).
    Every,
    /// A lone stepper's steps whose value passes `val[p] op imm` (Fig. S's
    /// threshold filter): the scalar [`Instr::FCmpBranchImm`]'s comparison,
    /// NaN and ±0 alike.
    Cmp(BinOp, f64),
    /// Two steppers' steps under a `min` leader ([`MergeForm::Steps`]'s
    /// loop) that both strides end (`s1 == s2`) — a match.  A step one
    /// finger ends alone is skipped, as [`Step::Skip`] skips it (Fig. 7's
    /// two-finger SpMSpV and Fig. 8's triangle count reduce, the
    /// sparse-output product appends).
    Both,
}

walks!(Guard, |guard, f| if let Guard::Cmp(op, _) = guard {
    f(Operand::Op(*op, is_cmp_op, "non-comparison step loop guard op"));
});

/// What the body of a [`Step::Perform`] forms: `[lead *] val[p] * second [*
/// extent]`, multiplied in that order, as the scalar code does — the extent
/// in `f64` as the generic `*` of [`crate::value::Value::binop`] converts
/// it, with the scalar code's wrapping `i64` arithmetic.  The loop-invariant
/// operands (the lead, a gather's terms) are read once per dispatch; if one
/// of their loads is out of bounds, the op does nothing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Product {
    /// The first factor `lead[at]`, if there is one: an F64 buffer and a
    /// register the loop does not write.
    pub lead: Option<(BufId, Reg)>,
    /// The first finger's F64 values (the guard's operand).
    pub val: BufId,
    /// The second factor.
    pub second: Gather,
    /// Whether the step's extent `max(ss - start + 1, 0)` is the last
    /// factor.
    pub extent: bool,
}

walks!(Product, |product, f| {
    let Product { lead, val, second, .. } = product;
    if let Some((buf, at)) = lead {
        f(Operand::Buf(buf, Elem::F64));
        f(Operand::Reg(at, Role::Read));
    }
    f(Operand::Buf(val, Elem::F64));
    Walk::walk(second, &mut *f);
});

/// Where a [`Step::Perform`] puts the product of a step its guard selects.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Out {
    /// `acc[k] op= product`: the op folds the products into a local
    /// strictly in order, as the scalar stores do, stores `acc[k]` once if a
    /// step was selected, and counts one store per selected step.  `k` is
    /// read once per dispatch; if it is out of bounds, the op does nothing.
    Fold {
        /// The F64 accumulator, distinct from every source.
        acc: BufId,
        /// The accumulator's element (proven `Int`; the loop does not write
        /// it).
        k: Reg,
        /// The reduction operator combining into the accumulator.
        op: BinOp,
    },
    /// `crd.push(ss) ; vals.push(product)`: a sparse output's append, each
    /// push counting a store and an allocated element as the scalar
    /// [`Instr::IAppend`] / [`Instr::FAppend`] do.  The op stops in front of
    /// a step whose pushes the allocation budget would not hold.
    Push {
        /// The I64 output the step's end is pushed onto.
        crd: BufId,
        /// The F64 output the product is pushed onto.
        vals: BufId,
    },
    /// `dst[ss] op= product` (`=` without an `op`): a dense output's store at
    /// the step's end, counting one store per step — with a [`Gap`], after
    /// the step has set the run in front of its end to the gap's fill (the
    /// paper's `Run` in front of a `Spike`).  The op checks once per dispatch
    /// that `[start, stop]` lies inside `dst`; if not, it does nothing.
    Store {
        /// The F64 output, distinct from every source.
        dst: BufId,
        /// The reduction operator combining into `dst[ss]`, or none: `=`.
        op: Option<BinOp>,
        /// The run the step fills in front of its end, if it fills one.
        gap: Option<Gap>,
    },
}

/// The run an [`Out::Store`] fills in front of a step's end:
/// `if start <= ss - 1 { for v in start..=ss - 1 { dst[v] = fill } }`.  A
/// step whose run is empty counts nothing for it; one whose run is not
/// counts the run's statements, and each element of the run its own, a loop
/// iteration and a store.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Gap {
    /// The F64 register every element is set to (the loop does not write
    /// it, and stores it through a typed [`Instr::StoreF64`] — which is what
    /// proves the lane holds it).
    pub fill: Reg,
    /// The statements of a run that is not empty, and of each element of it.
    pub stmts: [u32; 2],
}

walks!(Out, |out, f| match out {
    Out::Fold { acc, k, op } => {
        f(Operand::Buf(acc, Elem::F64));
        f(Operand::Reg(k, Role::Read));
        f(Operand::Op(*op, is_float_arith, "unsupported step loop reduce op"));
    }
    Out::Push { crd, vals } => {
        f(Operand::Buf(crd, Elem::I64));
        f(Operand::Buf(vals, Elem::F64));
    }
    Out::Store { dst, op, gap } => {
        f(Operand::Buf(dst, Elem::F64));
        if let Some(op) = op {
            f(Operand::Op(*op, is_float_arith, "unsupported step loop store op"));
        }
        if let Some(Gap { fill, .. }) = gap {
            f(Operand::Reg(fill, Role::Read));
        }
    }
});

/// What a step of an [`Instr::IStepLoop`]'s loop counts, statements and
/// loads alike, indexed `[each, p, q]`: every step counts `each`, and a step
/// a finger's stride ends — where the finger advances — that finger's
/// count.  A skipped step is ended by its leader alone; a performed step
/// may be ended by both fingers, and a lone finger ends every step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepCounts {
    /// Statements.
    pub stmts: [u32; 3],
    /// Loads (a seek's probes aside).
    pub loads: [u32; 3],
}

/// How a [`Step::Skip`] loop steps: what the finger that does not lead an
/// iteration — the trailer — reads besides its list.  The leader is the
/// finger whose stride ends the step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MergeForm {
    /// Two steppers: the step ends at the earlier stride, the trailer reads
    /// nothing, and a step is skipped where the strides differ.  A match —
    /// equal strides — stops the skip, unless its body is one that a
    /// [`Step::Perform`] under [`Guard::Both`] performs.
    Steps,
    /// VBL (Fig. 3b): `a`'s stride is a block's last coordinate, the block
    /// is `len = ofs[p + 1] - ofs[p]` coordinates long, and a match is `s1 -
    /// len < s2 <= s1`.  Both kinds of empty step are skipped: `s1 < s2` (the
    /// block ends first; `p` leads) and `s2 <= s1 - len` (`b`'s coordinate is
    /// in the zero gap in front of the block; `q` leads, and its gap test's
    /// statements and loads are in `q`'s counts).
    Blocks {
        /// `a`'s I64 block offsets, distinct from `a` and `b`.
        ofs: BufId,
    },
    /// Two jumpers: the step ends at the *later* stride, `ss = min(max(s1,
    /// s2), stop)`; the leader advances, and the trailer seeks to `ss` in its
    /// own list (up to its row's `end[row] - 1`) and runs a one-step stepper
    /// there, whose body runs where the seek lands on `ss`.  A step is
    /// skipped where one finger ends it and the seek lands past `ss`,
    /// counting two loop iterations, one search and the seek's probes as
    /// loads besides the leader's counts — the loop's last such step too,
    /// one loop iteration fewer, after which the op leaves the loop by the
    /// exit of the head in front of it.
    Gallop {
        /// `a`'s I64 row ends, distinct from `a` and `b`.
        a_end: BufId,
        /// `a`'s row (proven `Int`; the loop does not write it).
        a_row: Reg,
        /// `b`'s I64 row ends, distinct from `a` and `b`.
        b_end: BufId,
        /// `b`'s row (proven `Int`; the loop does not write it).
        b_row: Reg,
    },
}

walks!(MergeForm, |form, f| match form {
    MergeForm::Steps => {}
    MergeForm::Blocks { ofs } => f(Operand::Buf(ofs, Elem::I64)),
    MergeForm::Gallop { a_end, a_row, b_end, b_row } => {
        f(Operand::Buf(a_end, Elem::I64));
        f(Operand::Reg(a_row, Role::Read));
        f(Operand::Buf(b_end, Elem::I64));
        f(Operand::Reg(b_row, Role::Read));
    }
});

/// The second factor of a [`Product`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Gather {
    /// None: the product is `[lead *] val[p]` (times the extent).
    None,
    /// `x[at]`, a value at a finger: `at` is `p` or the second finger.
    At {
        /// The F64 buffer read from.
        x: BufId,
        /// The finger.
        at: Reg,
    },
    /// `x[ss + ofs]`, where `ss` is the step's end and `ofs` the wrapping
    /// sum of the terms.
    Load {
        /// The F64 buffer gathered from.
        x: BufId,
        /// The offset's loop-invariant terms.
        ofs: [Term; 2],
    },
}

walks!(Gather, |gather, f| match gather {
    Gather::None => {}
    Gather::At { x, at } => {
        f(Operand::Buf(x, Elem::F64));
        f(Operand::Reg(at, Role::Read));
    }
    Gather::Load { x, ofs } => {
        f(Operand::Buf(x, Elem::F64));
        for term in ofs {
            Walk::walk(term, &mut *f);
        }
    }
});

/// One loop-invariant term of a gather's offset: a load the loop does not
/// write, at a register the loop does not write.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Term {
    /// No term.
    Zero,
    /// `+ buf[at]`.
    Plus {
        /// The I64 buffer.
        buf: BufId,
        /// The register holding the position.
        at: Reg,
    },
    /// `- buf[at]`.
    Minus {
        /// The I64 buffer.
        buf: BufId,
        /// The register holding the position.
        at: Reg,
    },
}

walks!(Term, |term, f| match term {
    Term::Zero => {}
    Term::Plus { buf, at } | Term::Minus { buf, at } => {
        f(Operand::Buf(buf, Elem::I64));
        f(Operand::Reg(at, Role::Read));
    }
});

/// Pre-scale applied to a loaded operand of a vectorized kernel op,
/// preserving the scalar body's operand orientation bit-for-bit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum VScale {
    /// The operand is used as loaded.
    None,
    /// `imm op x` — the [`Instr::FMulLoad`]-shaped `const * load`.
    Left {
        /// The operator.
        op: BinOp,
        /// The left immediate, inlined bit-exactly.
        imm: f64,
    },
    /// `x op imm` — the [`Instr::FArithImm`]-shaped `load * const`.
    Right {
        /// The operator.
        op: BinOp,
        /// The right immediate, inlined bit-exactly.
        imm: f64,
    },
}

walks!(VScale, |pre, f| match pre {
    VScale::None => {}
    VScale::Left { op, .. } | VScale::Right { op, .. } => {
        f(Operand::Op(*op, is_float_arith, "unsupported vector pre-scale op"))
    }
});

/// The second operand of a [`Instr::VMapF64`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum VRhs {
    /// No second operand: the map stores the (pre-scaled) first load.
    None,
    /// `x op imm` with an inlined immediate.
    Imm {
        /// The operator.
        op: BinOp,
        /// The immediate, inlined bit-exactly.
        imm: f64,
    },
    /// `x op pre(b[..])` — a second load, with its own index shape and
    /// pre-scale.
    Buf {
        /// The operator combining the two operands.
        op: BinOp,
        /// The second F64 source buffer.
        buf: BufId,
        /// Second source index shape.
        base: VBase,
        /// Pre-scale applied to the second loaded operand.
        pre: VScale,
    },
}

walks!(VRhs, |rhs, f| match rhs {
    VRhs::None => {}
    VRhs::Imm { op, .. } => f(Operand::Op(*op, is_float_arith, "unsupported vector map op")),
    VRhs::Buf { op, buf, base, pre } => {
        f(Operand::Op(*op, is_float_arith, "unsupported vector map op"));
        f(Operand::Buf(buf, Elem::F64));
        Walk::walk(base, &mut *f);
        Walk::walk(pre, &mut *f);
    }
});

/// Scalar-equivalent [`crate::interp::ExecStats`] deltas one bulk
/// iteration of a vectorized kernel op accounts for — exactly what the
/// replaced scalar loop body would have counted, so work counters stay
/// bit-identical with vectorization on or off.  (`loop_iters` is always
/// one per bulk iteration and is not encoded.)
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VCost {
    /// Executed statements ([`Instr::BumpStmt`]s) per iteration.
    pub stmts: u8,
    /// Counted loads per iteration.
    pub loads: u8,
    /// Counted stores per iteration.
    pub stores: u8,
}

impl Instr {
    /// Call `f` on every operand of the instruction, in field order.
    #[inline]
    pub(crate) fn operands<'a>(&'a self, mut f: impl FnMut(Operand<'a, Shared>)) {
        Walk::walk(self, &mut f)
    }

    /// [`Instr::operands`] by `&mut`: the same operands in the same order.
    #[inline]
    pub(crate) fn operands_mut<'a>(&'a mut self, mut f: impl FnMut(Operand<'a, Unique>)) {
        Walk::walk(self, &mut f)
    }

    /// The register this instruction writes, if any.  No opcode the passes
    /// before `forward` see writes two; [`Instr::IForNext`], which steps its
    /// counter and publishes its variable, answers with the variable —
    /// whoever runs after `forward` walks the roles instead.
    #[inline]
    pub(crate) fn written_reg(&self) -> Option<Reg> {
        let mut written = None;
        for_each_reg_role(self, |r, role| {
            if role != Role::Read {
                written = Some(r);
            }
        });
        written
    }

    /// The control-transfer target of this instruction and its edge kind,
    /// if it has one (no instruction has two).
    #[inline]
    pub(crate) fn edge(&self) -> Option<(u32, Edge)> {
        let mut found = None;
        self.operands(|o| {
            if let Operand::Target(target, edge) = o {
                found = Some((*target, edge));
            }
        });
        found
    }

    /// The control-transfer target of this instruction, if it has one —
    /// shared by every pass that moves instructions (peephole, vectorize,
    /// finalize) or reasons about join points (typing).
    #[inline]
    pub(crate) fn target(&self) -> Option<u32> {
        self.edge().map(|(target, _)| target)
    }

    /// Mutable view of [`Instr::target`].
    pub(crate) fn target_mut(&mut self) -> Option<&mut u32> {
        let mut found = None;
        self.operands_mut(|o| {
            if let Operand::Target(target, _) = o {
                found = Some(target);
            }
        });
        found
    }

    /// Whether control can reach the next instruction from this one:
    /// everything but the two unconditional transfers.
    #[inline]
    pub(crate) fn falls_through(&self) -> bool {
        !matches!(self, Instr::Jump { .. } | Instr::ForStep { .. })
    }

    /// Whether the instruction starts or closes a loop: a `for`/`while`
    /// head (whose target is the loop's exit, one past its back edge), a
    /// `for` back edge, or the bottom test of a rotated loop.
    #[inline]
    pub(crate) fn is_loop_edge(&self) -> bool {
        matches!(self.edge(), Some((_, Edge::LoopExit | Edge::LoopBack | Edge::LoopBody)))
    }

    /// Whether executing this instruction touches the VM's tag array at
    /// all — `true` for the monomorphic typed forms, the vectorized kernel
    /// ops *and* the tag-neutral control instructions (`BumpStmt`, `Jump`,
    /// `ForStep`, `FiberEnd`), `false` for every generic instruction that
    /// reads or writes a runtime tag.  The benchmark harness uses this to
    /// compute the executed-typed-instruction fraction.
    pub fn is_tag_free(&self) -> bool {
        self.lane() != Lane::Generic
    }
}

/// Visit every register operand together with its [`Role`].  Every analysis
/// that asks "which registers does this instruction read or write" —
/// register typing, the peephole's liveness scan, `verify_bytecode`'s
/// kernel-op placement rule — goes through here.
#[inline]
pub(crate) fn for_each_reg_role(instr: &Instr, mut f: impl FnMut(Reg, Role)) {
    instr.operands(|o| {
        if let Operand::Reg(r, role) = o {
            f(*r, role);
        }
    })
}

/// The buffers and the registers among the operands of `walk`, in field
/// order: what a step-table entry, or a part of one, reads or writes.
pub(crate) fn operand_ids<'a>(walk: impl Walk<'a, Shared>) -> (Vec<BufId>, Vec<Reg>) {
    let (mut bufs, mut regs) = (Vec::new(), Vec::new());
    walk.walk(&mut |o| match o {
        Operand::Buf(&buf, _) => bufs.push(buf),
        Operand::Reg(&reg, _) => regs.push(reg),
        _ => {}
    });
    (bufs, regs)
}

/// Visit every register operand mutably together with its [`Role`]: the
/// temp split renames reads and writes of a register independently.
#[inline]
pub(crate) fn for_each_reg_role_mut(instr: &mut Instr, mut f: impl FnMut(&mut Reg, Role)) {
    instr.operands_mut(|o| {
        if let Operand::Reg(r, role) = o {
            f(r, role);
        }
    })
}

/// One well-formed instruction per opcode, in table order, each with
/// pairwise-distinct registers and buffers: what the per-opcode tests here
/// and in `opt::typing` iterate over.  Buffers `0..2` are i64, `2..5` f64
/// (see `tests::buffers`); jump targets fit `tests::around`.
#[cfg(test)]
pub(crate) fn samples() -> Vec<Instr> {
    use BinOp::*;
    let (r, b) = (Reg, BufId);
    let cost = VCost { stmts: 1, loads: 1, stores: 1 };
    let scaled = |reg| VBase::Scaled { reg: r(reg), stride: 4 };
    vec![
        Instr::BumpStmt,
        Instr::Const { dst: r(0), cidx: 0 },
        Instr::Mov { dst: r(0), src: r(1) },
        Instr::Load { dst: r(0), buf: b(2), idx: r(1) },
        Instr::CoerceInt { reg: r(0) },
        Instr::Store { buf: b(2), idx: r(0), val: r(1), reduce: Some(Add) },
        Instr::Unary { op: UnOp::Neg, dst: r(0), src: r(1) },
        Instr::Binary { op: Add, dst: r(0), lhs: r(1), rhs: r(2) },
        Instr::Jump { target: 3 },
        Instr::JumpIfFalse { src: r(0), target: 3, strict: false },
        Instr::JumpIfTrue { src: r(0), target: 3 },
        Instr::JumpIfMissing { src: r(0), target: 3 },
        Instr::JumpIfNotMissing { src: r(0), target: 3 },
        Instr::WhileTest { cond: r(0), end: 3 },
        Instr::ForTest { counter: r(0), hi: r(1), var: r(2), end: 3 },
        Instr::ForStep { counter: r(0), test: 0 },
        Instr::Append { buf: b(0), val: r(0) },
        Instr::FiberEnd { pos: b(0), data: b(2) },
        Instr::Seek { dst: r(0), buf: b(0), lo: r(1), hi: r(2), key: r(3), on_abs: false },
        Instr::BinaryImm { op: Add, dst: r(0), lhs: r(1), cidx: 0 },
        Instr::LoadBinary { op: Mul, dst: r(0), lhs: r(1), buf: b(2), idx: r(2) },
        Instr::CmpBranch { op: Lt, lhs: r(0), rhs: r(1), target: 3, strict: false },
        Instr::CmpBranchImm { op: Lt, lhs: r(0), cidx: 0, target: 3, strict: true },
        Instr::WhileCmp { op: Lt, lhs: r(0), rhs: r(1), end: 3 },
        Instr::WhileCmpImm { op: Lt, lhs: r(0), cidx: 0, end: 3 },
        Instr::Nop,
        Instr::ConstI { dst: r(0), imm: 7 },
        Instr::ConstF { dst: r(0), imm: 1.5 },
        Instr::IMov { dst: r(0), src: r(1) },
        Instr::LoadI64 { dst: r(0), buf: b(0), idx: r(1) },
        Instr::LoadF64 { dst: r(0), buf: b(2), idx: r(1) },
        Instr::FMulLoad { dst: r(0), lhs: r(1), buf: b(2), idx: r(2) },
        Instr::StoreF64 { buf: b(2), idx: r(0), val: r(1), reduce: Some(Add) },
        Instr::IAppend { buf: b(0), val: r(0) },
        Instr::FAppend { buf: b(2), val: r(0) },
        Instr::IArith { op: Add, dst: r(0), lhs: r(1), rhs: r(2) },
        Instr::FArith { op: Div, dst: r(0), lhs: r(1), rhs: r(2) },
        Instr::IArithImm { op: Add, dst: r(0), lhs: r(1), imm: 1 },
        Instr::FArithImm { op: Mul, dst: r(0), lhs: r(1), imm: 0.5 },
        Instr::FRound { dst: r(0), src: r(1) },
        Instr::ICmpBranch { op: Lt, lhs: r(0), rhs: r(1), target: 3 },
        Instr::ICmpBranchImm { op: Eq, lhs: r(0), imm: 3, target: 3 },
        Instr::FCmpBranch { op: Ne, lhs: r(0), rhs: r(1), target: 3 },
        Instr::FCmpBranchImm { op: Ne, lhs: r(0), imm: 0.0, target: 3 },
        Instr::IWhileCmp { op: Lt, lhs: r(0), rhs: r(1), end: 3 },
        Instr::IWhileCmpImm { op: Le, lhs: r(0), imm: 9, end: 3 },
        Instr::IForTest { counter: r(0), hi: r(1), var: r(2), end: 3 },
        Instr::ISeek { dst: r(0), buf: b(0), lo: r(1), hi: r(2), key: r(3), on_abs: true },
        Instr::IAdvance { op: Eq, lhs: r(0), rhs: r(1), reg: r(2), by: 1, stmts: 1 },
        Instr::IWhileNext { op: Le, lhs: r(0), rhs: r(1), body: 1 },
        Instr::IForNext { counter: r(0), hi: r(1), var: r(2), body: 1 },
        Instr::VFillStoreF64 {
            buf: b(2),
            base: scaled(2),
            val: VFill::Reg(r(3)),
            counter: r(0),
            hi: r(1),
            cost,
            lanes: 8,
        },
        Instr::VMapF64 {
            dst: b(2),
            dst_base: scaled(2),
            reduce: Some(Add),
            round: true,
            a: b(3),
            a_base: scaled(3),
            a_pre: VScale::Left { op: Mul, imm: 0.6 },
            rhs: VRhs::Buf {
                op: Add,
                buf: b(4),
                base: scaled(4),
                pre: VScale::Right { op: Mul, imm: 0.4 },
            },
            counter: r(0),
            hi: r(1),
            cost,
            lanes: 8,
        },
        Instr::VMulAddF64 {
            acc: b(2),
            acc_idx: VAcc { imm: 1, reg: Some(r(4)) },
            a: b(3),
            a_base: scaled(2),
            b: b(4),
            b_base: VBase::Offset { add: Some(r(3)), sub: r(5) },
            op: Add,
            counter: r(0),
            hi: r(1),
            cost,
            lanes: 4,
        },
        Instr::VReduceF64 {
            acc: b(2),
            acc_idx: VAcc { imm: 1, reg: Some(r(4)) },
            src: b(3),
            base: scaled(2),
            pre: VScale::Right { op: Mul, imm: 2.0 },
            op: Max,
            counter: r(0),
            hi: r(1),
            cost,
            lanes: 8,
        },
        Instr::VAppendRangeF64 {
            idx_out: b(0),
            val_out: b(2),
            src: b(3),
            base: scaled(2),
            guard: Some((Gt, 0.3)),
            counter: r(0),
            hi: r(1),
            cost,
            pass_cost: cost,
            lanes: 4,
        },
        Instr::IStepLoop {
            a: b(0),
            p: r(0),
            q: Some((b(1), r(6))),
            step: 0,
            start: r(2),
            stop: r(3),
            counts: StepCounts { stmts: [7, 1, 2], loads: [5, 0, 0] },
        },
    ]
}

/// The step-table entry of the [`Instr::IStepLoop`] sample: a reduction on
/// every step, whose operands are distinct from the op's.
#[cfg(test)]
pub(crate) fn sample_step() -> Step {
    let (r, b) = (Reg, BufId);
    Step::Perform {
        guard: Guard::Every,
        product: Product {
            lead: None,
            val: b(2),
            second: Gather::Load {
                x: b(3),
                ofs: [Term::Plus { buf: b(5), at: r(4) }, Term::Minus { buf: b(6), at: r(5) }],
            },
            extent: true,
        },
        out: Out::Fold { acc: b(4), k: r(1), op: BinOp::Add },
        pass: [0, 0],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::{Buffer, BufferSet};
    use crate::bytecode::Program;
    use crate::opt::verify_bytecode;
    use crate::value::Value;

    const NUM_REGS: usize = 8;

    /// The buffer set [`samples`] is written against.
    fn buffers() -> BufferSet {
        let mut bufs = BufferSet::new();
        for name in ["i0", "i1"] {
            bufs.add(name, Buffer::I64(vec![0; 4].into()));
        }
        for name in ["f0", "f1", "f2"] {
            bufs.add(name, Buffer::F64(vec![0.0; 4].into()));
        }
        // A reduction's offset terms.
        bufs.add("i5", Buffer::I64(vec![0; 4].into()));
        bufs.add("i6", Buffer::I64(vec![0; 4].into()));
        bufs
    }

    /// The smallest well-formed program around `sample`, and the sample's
    /// pc in it.  A kernel op sits in front of the counted loop it drives
    /// (whose body stores the register a register-valued fill reads); a
    /// bottom test sits right behind the head it re-tests, closing an empty
    /// loop; the step loop op sits right behind the head of a loop that
    /// steps its fingers and its start; any other instruction sits inside a
    /// loop whose head is pc 0, for `ForStep` to jump back to, and whose
    /// exit is pc 3.
    fn around(sample: Instr) -> (Program, usize) {
        let (r, var) = (Reg, Reg(7));
        let (code, pc) = match (sample.vop_loop_regs(), sample) {
            (_, Instr::IStepLoop { p, q: Some((_, q)), start, stop, .. }) => {
                let (op, ss) = (BinOp::Le, r(7));
                let step =
                    |reg| Instr::IAdvance { op: BinOp::Eq, lhs: ss, rhs: ss, reg, by: 1, stmts: 1 };
                let code = vec![
                    Instr::IWhileCmp { op, lhs: start, rhs: stop, end: 6 },
                    sample,
                    step(p),
                    step(q),
                    Instr::IArithImm { op: BinOp::Add, dst: start, lhs: ss, imm: 1 },
                    Instr::IWhileNext { op, lhs: start, rhs: stop, body: 1 },
                ];
                (code, 1)
            }
            (_, Instr::IWhileNext { op, lhs, rhs, .. }) => {
                (vec![Instr::IWhileCmp { op, lhs, rhs, end: 2 }, sample], 1)
            }
            (_, Instr::IForNext { counter, hi, var, .. }) => {
                (vec![Instr::IForTest { counter, hi, var, end: 2 }, sample], 1)
            }
            (Some((counter, hi)), _) => {
                let body = match sample {
                    Instr::VFillStoreF64 { buf, val: VFill::Reg(val), .. } => {
                        Instr::StoreF64 { buf, idx: var, val, reduce: None }
                    }
                    _ => Instr::Nop,
                };
                let head = Instr::IForTest { counter, hi, var, end: 4 };
                (vec![sample, head, body, Instr::ForStep { counter, test: 1 }], 0)
            }
            (None, _) => {
                let head = Instr::IForTest { counter: r(5), hi: r(6), var, end: 3 };
                (vec![head, sample, Instr::ForStep { counter: r(5), test: 0 }], 1)
            }
        };
        let steps = matches!(sample, Instr::IStepLoop { .. }).then(sample_step).into_iter();
        let program = Program {
            stmt_bump: vec![0; code.len()],
            code,
            consts: vec![Value::Int(1)],
            steps: steps.collect(),
            var_names: vec!["a".into(), "b".into()].into(),
            num_regs: NUM_REGS,
            pretags: Vec::new(),
        };
        (program, pc)
    }

    /// Call `f` on every operand of `program.code[pc]` and of its step-table
    /// entry, by `&mut`.
    fn operands_at_mut<'a>(
        program: &'a mut Program,
        pc: usize,
        mut f: impl FnMut(Operand<'a, Unique>),
    ) {
        let Program { code, steps, .. } = program;
        let entry = match code[pc] {
            Instr::IStepLoop { step, .. } => steps.get_mut(step as usize),
            _ => None,
        };
        code[pc].operands_mut(&mut f);
        if let Some(entry) = entry {
            Walk::walk(entry, &mut f);
        }
    }

    /// One operand flattened to text, so that a walk by `&` and a walk by
    /// `&mut` compare.
    fn shape<P: Refs>(operand: &Operand<'_, P>) -> String {
        match operand {
            Operand::Reg(r, role) => format!("{} {role:?}", **r),
            Operand::Buf(b, elem) => format!("b{} {elem:?}", b.index()),
            Operand::Target(t, edge) => format!("-> {} {edge:?}", **t),
            Operand::Const(c) => format!("const #{}", **c),
            Operand::Step(c) => format!("step #{}", **c),
            Operand::Op(op, _, what) => format!("{op:?}, else {what}"),
            Operand::Lanes(n) => format!("x{n}"),
            Operand::Stride(n) => format!("stride {n}"),
            Operand::AccIdx(n) => format!("acc[{n}]"),
        }
    }

    fn shapes(instr: &Instr) -> Vec<String> {
        let mut out = Vec::new();
        instr.operands(|o| out.push(shape(&o)));
        out
    }

    #[test]
    fn every_opcode_has_a_sample_that_verifies_and_disassembles() {
        let opcodes: Vec<&str> = samples().iter().map(Instr::opcode).collect();
        assert_eq!(opcodes, MNEMONICS, "one sample per table row, in table order");
        let bufs = buffers();
        for sample in samples() {
            let (program, pc) = around(sample);
            verify_bytecode(&program, &bufs)
                .unwrap_or_else(|e| panic!("{}: {e}\n{}", sample.opcode(), program.disasm()));
            let text = program.disasm();
            assert_eq!(text.lines().count(), program.code().len());
            assert!(text.lines().nth(pc).is_some_and(|line| line.len() > "   0: ".len()));
            // Distinct operands are what make the order checks below mean
            // something.
            let (mut regs, mut bufs) = (Vec::new(), Vec::new());
            let _ = program.try_operands_at(pc, |o| {
                match o {
                    Operand::Reg(r, _) => regs.push(*r),
                    Operand::Buf(b, ..) => bufs.push(*b),
                    _ => {}
                }
                Ok::<_, ()>(())
            });
            for (k, r) in regs.iter().enumerate() {
                assert!(!regs[..k].contains(r), "{} names {r} twice", sample.opcode());
            }
            for (k, b) in bufs.iter().enumerate() {
                assert!(!bufs[..k].contains(b), "{} names {b:?} twice", sample.opcode());
            }
        }
    }

    #[test]
    fn every_opcode_walks_alike_by_ref_and_by_mut_and_renumbers_back() {
        for sample in samples() {
            let mut copy = sample;
            let mut by_mut = Vec::new();
            copy.operands_mut(|o| by_mut.push(shape(&o)));
            assert_eq!(shapes(&sample), by_mut, "{}", sample.opcode());

            // Shift everything a walk hands out by `&mut`, and back.
            let shift = |instr: &mut Instr, by: i64| {
                let mut touched = 0;
                instr.operands_mut(|o| {
                    touched += 1;
                    match o {
                        Operand::Reg(r, _) => r.0 = (r.0 as i64 + by) as u32,
                        Operand::Buf(b, ..) => b.0 = (b.0 as i64 + by) as u32,
                        Operand::Target(t, _) | Operand::Const(t) | Operand::Step(t) => {
                            *t = (*t as i64 + by) as u32
                        }
                        _ => touched -= 1,
                    }
                });
                touched
            };
            let touched = shift(&mut copy, 100);
            assert_eq!(copy == sample, touched == 0, "{}", sample.opcode());
            assert_eq!(shapes(&copy).len(), by_mut.len());
            shift(&mut copy, -100);
            assert_eq!(copy, sample, "{}: there and back is the identity", sample.opcode());
        }
    }

    /// Corrupt the `k`-th operand of the sample with `corrupt`, which says
    /// what the verifier must then complain about (`None`: leave it).
    fn corrupt_each_operand(
        corrupt: impl Fn(Operand<'_, Unique>) -> Option<&'static str>,
    ) -> usize {
        let bufs = buffers();
        let mut corrupted = 0;
        for sample in samples() {
            let (program, pc) = around(sample);
            let mut operands = 0;
            let _ = program.try_operands_at(pc, |_| {
                operands += 1;
                Ok::<_, ()>(())
            });
            for k in 0..operands {
                let (mut program, pc) = around(sample);
                let (mut at, mut expect) = (0, None);
                operands_at_mut(&mut program, pc, |o| {
                    if at == k {
                        expect = corrupt(o);
                    }
                    at += 1;
                });
                let Some(expect) = expect else { continue };
                corrupted += 1;
                let err = verify_bytecode(&program, &bufs).expect_err(sample.opcode());
                assert!(
                    err.contains(expect) && err.contains(&format!("pc {pc}")),
                    "{} operand {k}: `{err}` should mention `{expect}` at pc {pc}",
                    sample.opcode()
                );
                // Anything that needs no buffer set is `validate`'s to find.
                let structural = !matches!(expect, "outside the set" | "expects buffer");
                assert_eq!(program.validate().is_err(), structural, "{err}");
            }
        }
        corrupted
    }

    #[test]
    fn every_operand_pushed_out_of_range_is_rejected_naming_the_pc() {
        let corrupted = corrupt_each_operand(|o| match o {
            Operand::Reg(r, _) => {
                *r = Reg(NUM_REGS as u32 + 7);
                Some("outside the file")
            }
            Operand::Buf(b, ..) => {
                *b = BufId(99);
                Some("outside the set")
            }
            Operand::Target(t, _) => {
                *t = 9;
                Some("past the end")
            }
            Operand::Const(c) => {
                *c = 5;
                Some("outside the pool")
            }
            Operand::Step(c) => {
                *c = 5;
                Some("outside the table")
            }
            _ => None,
        });
        assert!(corrupted >= 160, "{corrupted} operands");
    }

    #[test]
    fn every_buffer_of_the_wrong_kind_is_rejected_naming_the_pc() {
        let corrupted = corrupt_each_operand(|o| match o {
            Operand::Buf(_, Elem::Any) => None,
            // Buffer 3 is f64, buffer 1 is i64.
            Operand::Buf(b, elem) => {
                *b = BufId(if elem == Elem::I64 { 3 } else { 1 });
                Some("expects buffer")
            }
            _ => None,
        });
        assert!(corrupted >= 22, "{corrupted} typed buffer operands");
    }
}
