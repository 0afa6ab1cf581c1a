//! Static verifiers run after every optimisation pass.
//!
//! Two layers, one per program representation:
//!
//! * [`verify_ir`] checks the statement tree: def-before-use over a
//!   dominance-respecting walk (a definition inside an `if` branch or a
//!   loop body does not dominate the code after it), loop/scope
//!   well-formedness (loop binders are immutable inside their own body),
//!   `Append`/`FiberEnd` effect-ordering legality for sparse output
//!   assembly, and — when the buffer set is available — buffer-id range
//!   and schema consistency.
//! * [`verify_bytecode`] extends [`Program::validate`] (jump alignment,
//!   const-pool bounds, register limits, the folded statement table) with
//!   the kernel-op placement rules and buffer-aware checks: every
//!   buffer id is in range and every monomorphic typed opcode agrees with
//!   the element type of the buffer it touches, reusing the same
//!   buffer-schema seeding the typing pass inferred from.
//!
//! Both verifiers return a human-readable description of the *first*
//! violated invariant; the pass manager attributes it to the pass that
//! produced the representation.

use std::collections::{HashMap, HashSet};

use crate::buffer::{BufId, Buffer, BufferSet};
use crate::bytecode::{
    for_each_reg_role, holds_literal, operand_ids, Elem, Gather, Instr, LaneTag, MergeForm,
    Operand, Out, Program, Reg, Role, Step, VFill,
};
use crate::expr::{BinOp, Expr};
use crate::stmt::Stmt;
use crate::var::{Names, Var};

/// Verify the statement-tree invariants of a lowered (and possibly
/// optimised) IR program.
///
/// `bufs` is optional: the def-before-use and effect-ordering checks are
/// purely structural, while the buffer-range and schema checks need the
/// buffer set and are skipped without one.
///
/// # Errors
///
/// Returns a description of the first violated invariant.
pub fn verify_ir(stmts: &[Stmt], names: &Names, bufs: Option<&BufferSet>) -> Result<(), String> {
    let mut v = IrVerifier { names, bufs, binders: Vec::new(), fibers: HashMap::new() };
    let mut defined = HashSet::new();
    v.check_seq(stmts, &mut defined)?;
    v.check_effect_order(stmts)?;
    Ok(())
}

struct IrVerifier<'a> {
    names: &'a Names,
    bufs: Option<&'a BufferSet>,
    /// `for` binders currently in scope (they may be read, never written).
    binders: Vec<Var>,
    /// `pos -> data` pairing of every `FiberEnd` seen so far.
    fibers: HashMap<BufId, BufId>,
}

impl IrVerifier<'_> {
    fn describe(&self, var: Var) -> String {
        if var.index() < self.names.len() {
            format!("`{}`", self.names.name(var))
        } else {
            format!("variable #{}", var.index())
        }
    }

    fn check_var(&self, var: Var) -> Result<(), String> {
        if var.index() >= self.names.len() {
            return Err(format!(
                "variable #{} is outside the name table of {}",
                var.index(),
                self.names.len()
            ));
        }
        Ok(())
    }

    fn check_buf(&self, buf: BufId, what: &str) -> Result<(), String> {
        if let Some(bufs) = self.bufs {
            if buf.index() >= bufs.len() {
                return Err(format!(
                    "{what} references buffer #{} outside the set of {}",
                    buf.index(),
                    bufs.len()
                ));
            }
        }
        Ok(())
    }

    /// Check that every variable the expression reads is must-defined, and
    /// that every buffer it loads from is in range.
    fn check_expr(&self, expr: &Expr, defined: &HashSet<Var>) -> Result<(), String> {
        let mut used = Vec::new();
        expr.collect_vars(&mut used);
        for var in used {
            self.check_var(var)?;
            if !defined.contains(&var) {
                return Err(format!(
                    "{} is read before any dominating definition",
                    self.describe(var)
                ));
            }
        }
        let mut buf_err = None;
        expr.visit(&mut |e| {
            if buf_err.is_some() {
                return;
            }
            match e {
                Expr::Load { buf, .. } => buf_err = self.check_buf(*buf, "load").err(),
                Expr::Search { buf, .. } => buf_err = self.check_buf(*buf, "search").err(),
                _ => {}
            }
        });
        match buf_err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    fn check_write_target(&self, var: Var) -> Result<(), String> {
        if self.binders.contains(&var) {
            return Err(format!(
                "loop binder {} is written inside its own loop body",
                self.describe(var)
            ));
        }
        Ok(())
    }

    /// Walk one statement sequence, threading the must-defined set through
    /// it.  Definitions inside `if` branches survive only when both
    /// branches make them; definitions inside loop bodies do not survive
    /// the loop (the body may run zero times).
    fn check_seq(&mut self, stmts: &[Stmt], defined: &mut HashSet<Var>) -> Result<(), String> {
        for stmt in stmts {
            match stmt {
                Stmt::Comment(_) => {}
                Stmt::Let { var, init } => {
                    self.check_var(*var)?;
                    self.check_write_target(*var)?;
                    self.check_expr(init, defined)?;
                    defined.insert(*var);
                }
                Stmt::Assign { var, value } => {
                    self.check_var(*var)?;
                    self.check_write_target(*var)?;
                    self.check_expr(value, defined)?;
                    defined.insert(*var);
                }
                Stmt::Store { buf, index, value, .. } => {
                    self.check_buf(*buf, "store")?;
                    self.check_expr(index, defined)?;
                    self.check_expr(value, defined)?;
                }
                Stmt::Append { buf, value } => {
                    self.check_buf(*buf, "append")?;
                    self.check_expr(value, defined)?;
                }
                Stmt::FiberEnd { pos, data } => {
                    self.check_buf(*pos, "fiber end")?;
                    self.check_buf(*data, "fiber end")?;
                    if let Some(bufs) = self.bufs {
                        if !matches!(bufs.get(*pos), Buffer::I64(_)) {
                            return Err(format!(
                                "fiber end writes pos buffer `{}`, which is not an i64 buffer",
                                bufs.name(*pos)
                            ));
                        }
                    }
                    match self.fibers.get(pos) {
                        Some(prev) if prev != data => {
                            return Err(format!(
                                "pos buffer #{} closes two different data buffers (#{} and #{})",
                                pos.index(),
                                prev.index(),
                                data.index()
                            ));
                        }
                        _ => {
                            self.fibers.insert(*pos, *data);
                        }
                    }
                }
                Stmt::If { cond, then_branch, else_branch } => {
                    self.check_expr(cond, defined)?;
                    let mut then_defs = defined.clone();
                    self.check_seq(then_branch, &mut then_defs)?;
                    let mut else_defs = defined.clone();
                    self.check_seq(else_branch, &mut else_defs)?;
                    // Only definitions made on *both* paths dominate the
                    // code after the `if`.
                    defined.extend(then_defs.intersection(&else_defs).copied());
                }
                Stmt::While { cond, body } => {
                    self.check_expr(cond, defined)?;
                    let mut body_defs = defined.clone();
                    self.check_seq(body, &mut body_defs)?;
                }
                Stmt::For { var, lo, hi, body } => {
                    self.check_var(*var)?;
                    self.check_expr(lo, defined)?;
                    self.check_expr(hi, defined)?;
                    let mut body_defs = defined.clone();
                    body_defs.insert(*var);
                    self.binders.push(*var);
                    let r = self.check_seq(body, &mut body_defs);
                    self.binders.pop();
                    r?;
                }
                Stmt::Block(body) => self.check_seq(body, defined)?,
            }
        }
        Ok(())
    }

    /// Sparse-assembly effect ordering.  Two global invariants plus one
    /// per-sequence one:
    ///
    /// * a `pos` buffer is written only by `FiberEnd` (never `Append` or
    ///   `Store`), and
    /// * within any one statement sequence, once a `FiberEnd` closes a
    ///   data buffer, no later statement of that sequence (however deeply
    ///   nested) may append to it — appends belong *before* the fiber is
    ///   closed.  (A `FiberEnd` nested in a sibling loop body is one fiber
    ///   per iteration and is checked within that body's own sequence.)
    fn check_effect_order(&self, stmts: &[Stmt]) -> Result<(), String> {
        let mut pos_bufs = HashSet::new();
        for s in stmts {
            s.visit(&mut |node| {
                if let Stmt::FiberEnd { pos, .. } = node {
                    pos_bufs.insert(*pos);
                }
            });
        }
        for s in stmts {
            let mut err = None;
            s.visit(&mut |node| {
                if err.is_some() {
                    return;
                }
                match node {
                    Stmt::Append { buf, .. } if pos_bufs.contains(buf) => {
                        err = Some(format!("append targets pos buffer #{}", buf.index()));
                    }
                    Stmt::Store { buf, .. } if pos_bufs.contains(buf) => {
                        err = Some(format!("store targets pos buffer #{}", buf.index()));
                    }
                    _ => {}
                }
            });
            if let Some(e) = err {
                return Err(e);
            }
        }
        self.check_append_order(stmts)
    }

    fn check_append_order(&self, stmts: &[Stmt]) -> Result<(), String> {
        let mut closed: HashSet<BufId> = HashSet::new();
        for stmt in stmts {
            // Appends anywhere inside this statement to an already-closed
            // data buffer are out of order.
            let mut err = None;
            stmt.visit(&mut |node| {
                if err.is_some() {
                    return;
                }
                if let Stmt::Append { buf, .. } = node {
                    if closed.contains(buf) {
                        err = Some(format!(
                            "append to data buffer #{} after its fiber was closed",
                            buf.index()
                        ));
                    }
                }
            });
            if let Some(e) = err {
                return Err(e);
            }
            // Recurse: nested sequences carry their own ordering.
            match stmt {
                Stmt::If { then_branch, else_branch, .. } => {
                    self.check_append_order(then_branch)?;
                    self.check_append_order(else_branch)?;
                }
                Stmt::While { body, .. } | Stmt::For { body, .. } | Stmt::Block(body) => {
                    self.check_append_order(body)?;
                }
                Stmt::FiberEnd { data, .. } => {
                    closed.insert(*data);
                }
                _ => {}
            }
        }
        Ok(())
    }
}

/// Verify a compiled (and possibly fused/typed) bytecode program against
/// its buffer set: the structural invariants of [`Program::validate`] plus
/// buffer-id range checks, typed-opcode/buffer-schema agreement, and
/// pretag consistency.
///
/// # Errors
///
/// Returns a description of the first violated invariant.
pub fn verify_bytecode(program: &Program, bufs: &BufferSet) -> Result<(), String> {
    program.validate()?;
    let code = program.code();
    for (pc, instr) in code.iter().enumerate() {
        // Every buffer operand is in range and has the element kind its
        // opcode's table row requires.
        program.try_operands_at(pc, |operand| {
            let Operand::Buf(&buf, elem) = operand else { return Ok(()) };
            if buf.index() >= bufs.len() {
                return Err(format!(
                    "instruction at pc {pc} references buffer #{} outside the set of {}",
                    buf.index(),
                    bufs.len()
                ));
            }
            let (want, ok) = match (elem, bufs.get(buf)) {
                (Elem::Any, _) => return Ok(()),
                (Elem::I64, kind) => ("i64", matches!(kind, Buffer::I64(_))),
                (Elem::F64, kind) => ("f64", matches!(kind, Buffer::F64(_))),
            };
            if !ok {
                return Err(format!(
                    "typed opcode at pc {pc} expects buffer `{}` to be {want}",
                    bufs.name(buf)
                ));
            }
            Ok(())
        })?;
        check_step_loop(program, pc)?;
        // A kernel op runs the bulk of the counted loop that follows it:
        // anything in between (or a different loop) would run in the
        // wrong place or not at all.
        let Some((counter, hi)) = instr.vop_loop_regs() else { continue };
        let end = match code.get(pc + 1) {
            Some(&Instr::IForTest { counter: c, hi: h, end, .. }) if c == counter && h == hi => {
                end as usize
            }
            _ => {
                return Err(format!(
                    "vector op at pc {pc} does not immediately precede its loop head"
                ));
            }
        };
        // The op reads its bound, its row bases and a register-valued fill
        // once, for all the iterations it runs: the body may not change them.
        let body = code.get(pc + 2..end).unwrap_or_default();
        let mut clobbered = None;
        for_each_reg_role(instr, |reg, role| {
            if role == Role::Read && body.iter().any(|i| i.written_reg() == Some(reg)) {
                clobbered = Some(reg);
            }
        });
        if let Some(reg) = clobbered {
            return Err(format!(
                "vector op at pc {pc} reads register {reg}, which its loop body writes"
            ));
        }
        // A register-valued fill stands for the loop's own typed store of
        // that register — the proof that the float lane holds the value.
        if let Instr::VFillStoreF64 { buf, val: VFill::Reg(reg), .. } = *instr {
            let stores_it = body.iter().any(|i| match *i {
                Instr::StoreF64 { buf: b, val, .. } => b == buf && val == reg,
                _ => false,
            });
            if !stores_it {
                return Err(format!(
                    "vector fill at pc {pc} reads register {reg}, which its loop never \
                     stores as an f64"
                ));
            }
        }
    }
    let mut tags: HashMap<crate::bytecode::Reg, LaneTag> = HashMap::new();
    for &(reg, tag) in program.pretags() {
        if let Some(prev) = tags.insert(reg, tag) {
            if prev != tag {
                return Err(format!("register {reg} is pretagged both {prev:?} and {tag:?}"));
            }
        }
    }
    Ok(())
}

/// The placement rule of a step loop op at `pc`: it is the first
/// instruction of the body of a `while start <= stop` loop closed by a
/// bottom test on the same registers, which lands on it.  What the op reads
/// once per dispatch, the loop may not change: it writes none of the op's
/// other registers — the bound, a jumper's rows, the lead, an accumulator
/// element, a gather's offset terms and a store's fill — and stores into
/// none of the op's sources.  Two fingers walk two lists; a skip has two, and its block
/// offsets or row ends are neither list (their `i64` kind is the operand
/// walk's to check); a performed step's guard × product × output is one
/// that `merge_skip::supported` says exists, its outputs are none of its
/// sources and not one buffer twice, and a value at a finger is at one of
/// its fingers.  The rest of the body steps the start in
/// exactly one place, by one past the step, and each finger — a stepper's in
/// exactly one place, by one, as the op does; a jumper's by one, by a seek
/// from itself in its own list or by a nested op over that list, the last
/// write the loop's own step by one.  (That the op's counts are the loop's,
/// and a product's factors the body's, is the exact-stats witness's to
/// find.)
fn check_step_loop(program: &Program, pc: usize) -> Result<(), String> {
    let code = program.code();
    let Instr::IStepLoop { a, p, q, start, stop, .. } = code[pc] else { return Ok(()) };
    // An entry outside the table is `Program::validate`'s to reject.
    let Some(&step) = program.step_of(&code[pc]) else { return Ok(()) };
    let bottom = step_loop_bottom(code, pc, (start, stop))?;
    let fail = |what: String| Err(format!("step loop op at pc {pc}: {what}"));
    let fingers: Vec<(Reg, BufId)> = [(p, a)].into_iter().chain(q.map(|(b, q)| (q, b))).collect();
    let (mut invariant, mut sources) = (vec![stop], vec![a]);
    sources.extend(q.map(|(b, _)| b));
    if q.is_some_and(|(b, _)| b == a) {
        return fail("walks one list with two fingers".into());
    }
    match step {
        Step::Skip(form) => {
            let Some((b, _)) = q else {
                return fail("does not walk two lists with two fingers".into());
            };
            let (aux, rows) = operand_ids(&form);
            if aux.iter().any(|&buf| buf == a || buf == b) {
                let what = match form {
                    MergeForm::Blocks { .. } => "block offsets",
                    _ => "row ends",
                };
                return fail(format!("reads its {what} from a finger's list"));
            }
            sources.extend(aux);
            invariant.extend(rows);
        }
        Step::Perform { guard, product, out, .. } => {
            if !super::merge_skip::supported(guard, &product, out, q.map(|(_, q)| q)) {
                return fail(format!("performs {guard:?} into {out:?}, which no loop does"));
            }
            let ((read, mut regs), (outs, k)) = (operand_ids(&product), operand_ids(&out));
            // A value at a finger, the walk's last register, reads the finger
            // as the op steps it; every other register is read once.
            if let Gather::At { at, .. } = product.second {
                regs.pop();
                if !fingers.iter().any(|&(finger, _)| finger == at) {
                    return fail(format!("reads a value at {at}, which is not a finger"));
                }
            }
            sources.extend(read);
            invariant.extend(regs.into_iter().chain(k));
            if outs.iter().any(|buf| sources.contains(buf)) || outs.first() == outs.get(1) {
                return fail("puts its product into one of its sources, or twice".into());
            }
        }
    }
    let body = &code[pc + 1..bottom];
    if let Some(reg) = invariant.into_iter().find(|&reg| body.iter().any(|i| writes(i, reg))) {
        return fail(format!("reads register {reg}, which its loop writes"));
    }
    let stores = |i: &Instr, buf| stores_into(program, i, buf);
    if let Some(buf) = sources.into_iter().find(|&buf| body.iter().any(|i| stores(i, buf))) {
        return fail(format!("reads buffer b{}, which its loop stores into", buf.index()));
    }
    let gallop = matches!(step, Step::Skip(MergeForm::Gallop { .. }));
    let stepped = fingers.into_iter().map(|(reg, list)| (reg, Some(list)));
    for (reg, list) in stepped.chain([(start, None)]) {
        let steps = |instr: &Instr| steps(instr, reg, list.is_some());
        // A jumper's fall-backs seek it, and step it in a nested merge,
        // which may carry its own op over the same list.
        let moves = |instr: &Instr| match *instr {
            Instr::ISeek { dst, buf, lo, on_abs: false, .. } => {
                (dst, lo) == (reg, reg) && Some(buf) == list
            }
            Instr::IStepLoop { a, p, q: Some((b, q)), .. } => {
                (Some(a), p) == (list, reg) || (Some(b), q) == (list, reg)
            }
            _ => steps(instr),
        };
        let writers: Vec<&Instr> = body.iter().filter(|i| writes(i, reg)).collect();
        let placed = match writers[..] {
            [only] => steps(only),
            [.., last] if gallop && list.is_some() => {
                steps(last) && writers.iter().all(|instr| moves(instr))
            }
            _ => false,
        };
        if !placed {
            let (what, how) = match list {
                None => ("start", "by one, in one place"),
                Some(_) if gallop => {
                    ("finger", "by one or by a seek in its own list, the loop's own step last")
                }
                Some(_) => ("finger", "by one, in one place"),
            };
            return fail(format!("the loop does not step its {what} {reg} {how}"));
        }
    }
    Ok(())
}

/// The bottom test of the `while start <= stop` loop whose body's first
/// instruction is the step loop op at `pc`, or why it has none.  A literal
/// bound's head inlines it, and `stop` is its pinned register.
fn step_loop_bottom(code: &[Instr], pc: usize, (start, stop): (Reg, Reg)) -> Result<usize, String> {
    let head = pc.checked_sub(1).map(|head| code[head]);
    let bottom = match head {
        Some(Instr::IWhileCmp { op: BinOp::Le, lhs, rhs, end }) if (lhs, rhs) == (start, stop) => {
            end as usize - 1
        }
        Some(Instr::IWhileCmpImm { op: BinOp::Le, lhs, imm, end })
            if lhs == start && holds_literal(code, stop, imm) =>
        {
            end as usize - 1
        }
        _ => {
            return Err(format!(
                "step loop op at pc {pc} is not the first instruction of a \
                 `while start <= stop` loop on its registers"
            ))
        }
    };
    let closes = Instr::IWhileNext { op: BinOp::Le, lhs: start, rhs: stop, body: pc as u32 };
    if bottom <= pc || code[bottom] != closes {
        return Err(format!(
            "step loop op at pc {pc} sits in a loop that its own bottom test does not close"
        ));
    }
    Ok(bottom)
}

/// Whether `instr` writes `reg`.
fn writes(instr: &Instr, reg: Reg) -> bool {
    let mut writes = false;
    for_each_reg_role(instr, |r, role| writes |= r == reg && role != Role::Read);
    writes
}

/// Whether `instr` steps `reg` by one: a finger's predicated advance, or the
/// start set one past the step.
fn steps(instr: &Instr, reg: Reg, finger: bool) -> bool {
    match *instr {
        Instr::IAdvance { reg: stepped, by: 1, .. } => finger && stepped == reg,
        Instr::IArithImm { op: BinOp::Add, dst, imm: 1, .. } => !finger && dst == reg,
        _ => false,
    }
}

/// Whether `instr`, an instruction of `program`, stores into, or appends
/// to, `buf`.
fn stores_into(program: &Program, instr: &Instr, buf: BufId) -> bool {
    match *instr {
        Instr::Store { buf: to, .. }
        | Instr::StoreF64 { buf: to, .. }
        | Instr::Append { buf: to, .. }
        | Instr::IAppend { buf: to, .. }
        | Instr::FAppend { buf: to, .. }
        | Instr::FiberEnd { pos: to, .. }
        | Instr::VFillStoreF64 { buf: to, .. }
        | Instr::VMapF64 { dst: to, .. }
        | Instr::VMulAddF64 { acc: to, .. }
        | Instr::VReduceF64 { acc: to, .. } => to == buf,
        Instr::VAppendRangeF64 { idx_out, val_out, .. } => idx_out == buf || val_out == buf,
        Instr::IStepLoop { .. } => match program.step_of(instr) {
            Some(&Step::Perform { out: Out::Fold { acc, .. }, .. }) => acc == buf,
            Some(&Step::Perform { out: Out::Push { crd, vals }, .. }) => crd == buf || vals == buf,
            Some(&Step::Perform { out: Out::Store { dst, .. }, .. }) => dst == buf,
            _ => false,
        },
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::BufferSet;
    use crate::expr::Expr;

    fn setup() -> (Names, BufferSet, BufId, BufId) {
        let mut names = Names::new();
        let _ = names.fresh("seed");
        let mut bufs = BufferSet::new();
        let x = bufs.add("x", Buffer::F64(vec![1.0, 2.0, 3.0].into()));
        let out = bufs.add("out", Buffer::F64(vec![0.0].into()));
        (names, bufs, x, out)
    }

    #[test]
    fn straight_line_defs_verify() {
        let (mut names, bufs, x, out) = setup();
        let a = names.fresh("a");
        let prog = vec![
            Stmt::Let { var: a, init: Expr::load(x, Expr::int(0)) },
            Stmt::Store { buf: out, index: Expr::int(0), value: Expr::Var(a), reduce: None },
        ];
        verify_ir(&prog, &names, Some(&bufs)).expect("well-formed program verifies");
    }

    #[test]
    fn use_before_def_is_flagged() {
        let (mut names, bufs, _x, out) = setup();
        let a = names.fresh("a");
        let prog = vec![
            Stmt::Store { buf: out, index: Expr::int(0), value: Expr::Var(a), reduce: None },
            Stmt::Let { var: a, init: Expr::int(1) },
        ];
        let err = verify_ir(&prog, &names, Some(&bufs)).unwrap_err();
        assert!(err.contains("before any dominating definition"), "{err}");
    }

    #[test]
    fn loop_body_defs_do_not_dominate_after_the_loop() {
        let (mut names, bufs, x, out) = setup();
        let i = names.fresh("i");
        let a = names.fresh("a");
        let prog = vec![
            Stmt::For {
                var: i,
                lo: Expr::int(0),
                hi: Expr::int(2),
                body: vec![Stmt::Let { var: a, init: Expr::load(x, Expr::Var(i)) }],
            },
            Stmt::Store { buf: out, index: Expr::int(0), value: Expr::Var(a), reduce: None },
        ];
        let err = verify_ir(&prog, &names, Some(&bufs)).unwrap_err();
        assert!(err.contains("`a`"), "{err}");
    }

    #[test]
    fn if_defs_dominate_only_when_on_both_paths() {
        let (mut names, bufs, _x, out) = setup();
        let a = names.fresh("a");
        let both = vec![
            Stmt::If {
                cond: Expr::bool(true),
                then_branch: vec![Stmt::Let { var: a, init: Expr::int(1) }],
                else_branch: vec![Stmt::Let { var: a, init: Expr::int(2) }],
            },
            Stmt::Store { buf: out, index: Expr::int(0), value: Expr::Var(a), reduce: None },
        ];
        verify_ir(&both, &names, Some(&bufs)).expect("both-path definition dominates");
        let one = vec![
            Stmt::If {
                cond: Expr::bool(true),
                then_branch: vec![Stmt::Let { var: a, init: Expr::int(1) }],
                else_branch: vec![],
            },
            Stmt::Store { buf: out, index: Expr::int(0), value: Expr::Var(a), reduce: None },
        ];
        assert!(verify_ir(&one, &names, Some(&bufs)).is_err());
    }

    #[test]
    fn loop_binder_writes_are_flagged() {
        let (mut names, bufs, _x, _out) = setup();
        let i = names.fresh("i");
        let prog = vec![Stmt::For {
            var: i,
            lo: Expr::int(0),
            hi: Expr::int(2),
            body: vec![Stmt::Assign { var: i, value: Expr::int(0) }],
        }];
        let err = verify_ir(&prog, &names, Some(&bufs)).unwrap_err();
        assert!(err.contains("loop binder"), "{err}");
    }

    #[test]
    fn buffer_ids_out_of_range_are_flagged() {
        let (names, bufs, _x, _out) = setup();
        let bogus = BufId(99);
        let prog = vec![Stmt::Store {
            buf: bogus,
            index: Expr::int(0),
            value: Expr::int(1),
            reduce: None,
        }];
        let err = verify_ir(&prog, &names, Some(&bufs)).unwrap_err();
        assert!(err.contains("outside the set"), "{err}");
        // Without a buffer set the structural checks still pass.
        verify_ir(&prog, &names, None).expect("no buffer set, no buffer check");
    }

    #[test]
    fn append_after_fiber_end_is_flagged() {
        let names = Names::new();
        let mut bufs = BufferSet::new();
        let pos = bufs.add("pos", Buffer::I64(vec![0].into()));
        let idx = bufs.add("idx", Buffer::I64(Vec::new().into()));
        let good =
            vec![Stmt::Append { buf: idx, value: Expr::int(3) }, Stmt::FiberEnd { pos, data: idx }];
        verify_ir(&good, &names, Some(&bufs)).expect("append-then-close verifies");
        let bad =
            vec![Stmt::FiberEnd { pos, data: idx }, Stmt::Append { buf: idx, value: Expr::int(3) }];
        let err = verify_ir(&bad, &names, Some(&bufs)).unwrap_err();
        assert!(err.contains("after its fiber was closed"), "{err}");
    }

    #[test]
    fn appends_in_a_sibling_loop_iteration_are_legal() {
        // The canonical lowering: for i { for j { append }; fiberend }.
        // Program-order appends after a *previous iteration's* fiber end
        // must not be flagged.
        let mut names = Names::new();
        let mut bufs = BufferSet::new();
        let pos = bufs.add("pos", Buffer::I64(vec![0].into()));
        let idx = bufs.add("idx", Buffer::I64(Vec::new().into()));
        let (i, j) = (names.fresh("i"), names.fresh("j"));
        let prog = vec![Stmt::For {
            var: i,
            lo: Expr::int(0),
            hi: Expr::int(2),
            body: vec![
                Stmt::For {
                    var: j,
                    lo: Expr::int(0),
                    hi: Expr::int(1),
                    body: vec![Stmt::Append { buf: idx, value: Expr::Var(j) }],
                },
                Stmt::FiberEnd { pos, data: idx },
            ],
        }];
        verify_ir(&prog, &names, Some(&bufs)).expect("per-iteration fibers verify");
    }

    #[test]
    fn stores_into_pos_buffers_are_flagged() {
        let names = Names::new();
        let mut bufs = BufferSet::new();
        let pos = bufs.add("pos", Buffer::I64(vec![0].into()));
        let idx = bufs.add("idx", Buffer::I64(Vec::new().into()));
        let prog =
            vec![Stmt::Append { buf: pos, value: Expr::int(0) }, Stmt::FiberEnd { pos, data: idx }];
        let err = verify_ir(&prog, &names, Some(&bufs)).unwrap_err();
        assert!(err.contains("pos buffer"), "{err}");
    }

    #[test]
    fn inconsistent_fiber_pairing_is_flagged() {
        let names = Names::new();
        let mut bufs = BufferSet::new();
        let pos = bufs.add("pos", Buffer::I64(vec![0].into()));
        let idx = bufs.add("idx", Buffer::I64(Vec::new().into()));
        let val = bufs.add("val", Buffer::F64(Vec::new().into()));
        let prog = vec![Stmt::FiberEnd { pos, data: idx }, Stmt::FiberEnd { pos, data: val }];
        let err = verify_ir(&prog, &names, Some(&bufs)).unwrap_err();
        assert!(err.contains("two different data buffers"), "{err}");
    }

    #[test]
    fn fiber_end_into_non_i64_pos_is_flagged() {
        let names = Names::new();
        let mut bufs = BufferSet::new();
        let posf = bufs.add("posf", Buffer::F64(vec![0.0].into()));
        let idx = bufs.add("idx", Buffer::I64(Vec::new().into()));
        let prog = vec![Stmt::FiberEnd { pos: posf, data: idx }];
        let err = verify_ir(&prog, &names, Some(&bufs)).unwrap_err();
        assert!(err.contains("not an i64 buffer"), "{err}");
    }

    #[test]
    fn typed_opcode_schema_mismatch_is_flagged() {
        use crate::var::Names;
        let mut names = Names::new();
        let mut bufs = BufferSet::new();
        let x = bufs.add("x", Buffer::F64(vec![1.0].into()));
        let a = names.fresh("a");
        let i = names.fresh("i");
        let prog = vec![
            Stmt::Let { var: i, init: Expr::int(0) },
            Stmt::Let { var: a, init: Expr::load(x, Expr::Var(i)) },
        ];
        let mut program = Program::compile(&prog, &names);
        verify_bytecode(&program, &bufs).expect("generic program verifies");
        // Mistype the load: an I64 load from an F64 buffer.
        for instr in &mut program.code {
            if let Instr::Load { dst, buf, idx } = *instr {
                *instr = Instr::LoadI64 { dst, buf, idx };
            }
        }
        let err = verify_bytecode(&program, &bufs).unwrap_err();
        assert!(err.contains("to be i64"), "{err}");
    }

    #[test]
    fn a_kernel_op_away_from_its_loop_head_is_flagged() {
        let (program, _names, bufs) = crate::opt::mutation_tests::known_good_typed_kernel();
        let fused = crate::opt::vectorize(&program, &mut crate::opt::OptStats::default());
        verify_bytecode(&fused, &bufs).expect("the vectorized program verifies");
        let vop =
            fused.code().iter().position(|i| i.vop_loop_regs().is_some()).expect("a kernel op");
        // Something slipped in between the op and the loop it drives.
        let mut code = fused.code().to_vec();
        code.insert(vop + 1, Instr::Nop);
        for target in code.iter_mut().filter_map(Instr::target_mut) {
            *target += u32::from(*target as usize > vop);
        }
        let err = verify_bytecode(&fused.with_code(code), &bufs).unwrap_err();
        assert!(err.contains("does not immediately precede its loop head"), "{err}");
    }

    #[test]
    fn bytecode_buffer_out_of_range_is_flagged() {
        let names = Names::new();
        let bufs = BufferSet::new();
        let program = Program {
            code: vec![Instr::FiberEnd { pos: BufId(7), data: BufId(8) }],
            consts: Vec::new(),
            steps: Vec::new(),
            var_names: Vec::new().into(),
            num_regs: 0,
            pretags: Vec::new(),
            stmt_bump: vec![0],
        };
        let _ = names;
        let err = verify_bytecode(&program, &bufs).unwrap_err();
        assert!(err.contains("outside the set"), "{err}");
    }
}
