//! The user-facing compiler API: bind tensors, compile a CIN program, run
//! the generated code.

use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

use finch_cin::CinStmt;
use finch_formats::{Array, BoundTensor, LevelSpec, OutputBuilder, Tensor};
use finch_ir::opt::{Lowered, PassReport};
use finch_ir::pretty::Printer;
use finch_ir::{
    Buffer, BufferSet, Engine, ExecConfig, ExecStats, Interpreter, Names, OptLevel, OptStats,
    Program, RuntimeError, Stmt, Vm, Watch,
};
use finch_rewrite::Rewriter;

use crate::error::CompileError;
use crate::lower::statements::{init_output, lower_stmt};
use crate::lower::{Binding, LowerCtx, OutputBinding, OutputSink};

/// Copy one of a tensor's arrays into its bound buffer in place, reusing the
/// buffer's capacity (the rebind fast path; replaces the buffer only if a
/// kind mismatch somehow slipped past binding).
fn refill(buf: &mut Buffer, src: Array<&Vec<i64>, &Vec<bool>>) {
    match (buf, src) {
        (Buffer::I64(d), Array::I64(s)) => {
            d.clear();
            d.extend_from_slice(s);
        }
        (Buffer::Bool(d), Array::Bool(s)) => {
            d.clear();
            d.extend_from_slice(s);
        }
        (buf, src) => *buf = src.to_buffer(),
    }
}

/// A kernel under construction: tensors are bound to it, then a CIN program
/// is compiled against those bindings.
///
/// [`Kernel::compile`] produces both the lowered IR tree and its flat
/// register bytecode; the resulting [`CompiledKernel`] runs on the bytecode
/// VM by default (see [`Engine`] for selecting the tree-walking oracle).
///
/// ```
/// use finch::build::*;
/// use finch::{Kernel, Tensor};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let a = Tensor::sparse_list_vector("A", &[0.0, 1.5, 0.0, 2.0]);
/// let b = Tensor::dense_vector("B", &[1.0, 10.0, 100.0, 1000.0]);
///
/// let mut kernel = Kernel::new();
/// kernel.bind_input(&a).bind_input(&b).bind_output_scalar("C");
///
/// let i = idx("i");
/// let program = forall(i.clone(), add_assign(scalar("C"), mul(access("A", [i.clone()]), access("B", [i]))));
/// let mut compiled = kernel.compile(&program)?;
/// compiled.run()?;   // executes on the bytecode VM
/// assert_eq!(compiled.output_scalar("C")?, 2015.0);
/// // Non-scalar and unknown names are typed errors, not silent `None`s:
/// assert!(compiled.output_scalar("missing").is_err());
/// # Ok(()) }
/// ```
///
/// Outputs are format-polymorphic: [`Kernel::bind_output_format`] selects a
/// sparse list assembled by appending, and
/// [`CompiledKernel::output_tensor`] finalizes it into a [`Tensor`] that can
/// be re-bound as the input of a follow-up kernel:
///
/// ```
/// use finch::build::*;
/// use finch::{Kernel, LevelSpec, Tensor};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let a = Tensor::sparse_list_vector("A", &[0.0, 1.5, 0.0, 2.0]);
/// let b = Tensor::sparse_list_vector("B", &[0.0, 10.0, 5.0, 3.0]);
/// let mut kernel = Kernel::new();
/// kernel
///     .bind_input(&a)
///     .bind_input(&b)
///     .bind_output_format("C", &[LevelSpec::SparseList { size: 4 }]);
/// let i = idx("i");
/// let program = forall(i.clone(), assign(access("C", [i.clone()]), mul(access("A", [i.clone()]), access("B", [i]))));
/// let mut compiled = kernel.compile(&program)?;
/// compiled.run()?;   // does work proportional to the stored entries
/// let c = compiled.output_tensor("C")?;
/// assert_eq!(c.to_dense(), vec![0.0, 15.0, 0.0, 6.0]);
/// assert_eq!(c.stored(), 2);   // only the intersection was materialised
/// # Ok(()) }
/// ```
#[derive(Debug)]
pub struct Kernel {
    names: Names,
    bufs: BufferSet,
    bindings: HashMap<String, Binding>,
    rewriter: Rewriter,
    config: ExecConfig,
}

impl Default for Kernel {
    fn default() -> Self {
        Kernel::new()
    }
}

impl Kernel {
    /// An empty kernel with the default rewrite rule set and the default
    /// [`ExecConfig`].
    pub fn new() -> Self {
        Kernel::with_config(ExecConfig::default())
    }

    /// An empty kernel that compiles, and whose compiled kernel runs, under
    /// `config`.
    pub fn with_config(config: ExecConfig) -> Self {
        Kernel {
            names: Names::new(),
            bufs: BufferSet::new(),
            bindings: HashMap::new(),
            rewriter: Rewriter::with_default_rules(),
            config,
        }
    }

    /// The configuration [`Kernel::compile`] applies.
    pub fn config(&self) -> ExecConfig {
        self.config
    }

    /// Bind a structured input tensor under its own name.
    pub fn bind_input(&mut self, tensor: &Tensor) -> &mut Self {
        let bound = BoundTensor::bind(tensor, &mut self.bufs);
        self.bindings.insert(tensor.name().to_string(), Binding::Input(bound));
        self
    }

    /// Bind a dense output tensor of the given shape, initialised to `init`
    /// by the generated code at the start of every run.
    pub fn bind_output(&mut self, name: &str, shape: &[usize], init: f64) -> &mut Self {
        let len = shape.iter().product::<usize>();
        let buf = self.bufs.add(&format!("{name}_val"), Buffer::F64(vec![init; len].into()));
        let specs = shape.iter().map(|&size| LevelSpec::Dense { size }).collect();
        self.bindings.insert(
            name.to_string(),
            Binding::Output(OutputBinding {
                builder: OutputBuilder::new(name, specs),
                init,
                sink: OutputSink::Dense { buf },
            }),
        );
        self
    }

    /// Bind a scalar output, re-initialised to zero before every run.
    pub fn bind_output_scalar(&mut self, name: &str) -> &mut Self {
        self.bind_output(name, &[], 0.0)
    }

    /// Bind an output tensor with an explicit level stack (outermost
    /// first), choosing how the generated code assembles the result.
    ///
    /// * An all-[`LevelSpec::Dense`] stack behaves exactly like
    ///   [`Kernel::bind_output`] with `init = 0.0`.
    /// * A stack whose **innermost** level is [`LevelSpec::SparseList`]
    ///   (any dense levels above it) is assembled by appending: each
    ///   executed store appends the coordinate and value, each fiber is
    ///   closed with its `pos` boundary, and the result does work
    ///   proportional to the number of stored entries instead of the dense
    ///   size.  Only overwriting (`=`) assignments can target it, and the
    ///   assembled result is read back with
    ///   [`CompiledKernel::output_tensor`].
    ///
    /// # Panics
    ///
    /// Panics when a [`LevelSpec::SparseList`] appears anywhere but the
    /// innermost position (sparse-over-sparse output assembly is not
    /// implemented).
    pub fn bind_output_format(&mut self, name: &str, specs: &[LevelSpec]) -> &mut Self {
        match specs.split_last() {
            Some((LevelSpec::SparseList { .. }, outer)) => {
                assert!(
                    outer.iter().all(|s| matches!(s, LevelSpec::Dense { .. })),
                    "sparse output levels are only supported in the innermost position \
                     (output `{name}`)"
                );
                let pos = self.bufs.add(&format!("{name}_pos"), Buffer::I64(vec![0].into()));
                let idx = self.bufs.add(&format!("{name}_idx"), Buffer::I64(Vec::new().into()));
                let val = self.bufs.add(&format!("{name}_val"), Buffer::F64(Vec::new().into()));
                self.bindings.insert(
                    name.to_string(),
                    Binding::Output(OutputBinding {
                        builder: OutputBuilder::new(name, specs.to_vec()),
                        init: 0.0,
                        sink: OutputSink::SparseList { pos, idx, val },
                    }),
                );
                self
            }
            _ => {
                assert!(
                    specs.iter().all(|s| matches!(s, LevelSpec::Dense { .. })),
                    "sparse output levels are only supported in the innermost position \
                     (output `{name}`)"
                );
                let shape: Vec<usize> = specs.iter().map(|s| s.size()).collect();
                self.bind_output(name, &shape, 0.0)
            }
        }
    }

    /// Access the rewrite engine to register domain-specific rules before
    /// compiling (paper §6.1: "users can add custom rules").
    pub fn rewriter_mut(&mut self) -> &mut Rewriter {
        &mut self.rewriter
    }

    /// Compile a CIN program against the bound tensors.
    ///
    /// # Errors
    ///
    /// Returns a [`CompileError`] when the program references unbound
    /// tensors, is not concordant with the tensors' level orders, or uses
    /// unsupported features.
    pub fn compile(self, program: &CinStmt) -> Result<CompiledKernel, CompileError> {
        let Kernel { names, bufs, bindings, rewriter, config } = self;
        let outputs: HashMap<String, OutputBinding> = bindings
            .iter()
            .filter_map(|(name, b)| match b {
                Binding::Output(o) => Some((name.clone(), o.clone())),
                Binding::Input(_) => None,
            })
            .collect();
        let inputs: HashMap<String, BoundTensor> = bindings
            .iter()
            .filter_map(|(name, b)| match b {
                Binding::Input(t) => Some((name.clone(), t.clone())),
                Binding::Output(_) => None,
            })
            .collect();
        let mut ctx = LowerCtx::new(names, bufs, bindings, rewriter);
        // Result arrays are initialised as soon as they enter scope (paper
        // §5.1): dense outputs get initialisation code at the top of the
        // generated program, counted like every other store — so a
        // dense-output kernel honestly pays its O(n) write traffic where a
        // sparse-output kernel pays O(stored).  Sparse outputs start empty
        // and are reset host-side before each run instead.  `where`
        // producers enter scope at their `where`, which emits their
        // (per-iteration) initialisation itself — initialising them here
        // too would double-count the store traffic.
        let mut where_results = std::collections::HashSet::new();
        program.visit(&mut |s| {
            if let CinStmt::Where { producer, .. } = s {
                for r in producer.results() {
                    where_results.insert(r.name().to_string());
                }
            }
        });
        let mut code = Vec::new();
        let mut sorted: Vec<(&String, &OutputBinding)> = outputs.iter().collect();
        sorted.sort_by_key(|(name, _)| name.as_str());
        for (name, ob) in sorted {
            if where_results.contains(name) {
                continue;
            }
            if let OutputSink::Dense { buf } = ob.sink {
                code.extend(init_output(buf, ob.len(), ob.init, &mut ctx));
            }
        }
        code.extend(lower_stmt(program, &mut ctx)?);
        // Finch relies on Julia to clean up the lowered straight-line code
        // (constant folding, copy propagation, invariant-load hoisting);
        // our engines execute the IR as given, so the same clean-up runs
        // here as an explicit staged pipeline, gated by the opt level.
        let raw_code = code;
        let raw_names = ctx.names.clone();
        let Lowered { code, program: bytecode, stats: opt_stats, reports: pass_reports } =
            optimize_kernel(&raw_code, &mut ctx.names, &ctx.bufs, &config)?;
        let vm = Vm::new(&bytecode);
        Ok(CompiledKernel {
            image: Arc::new(KernelImage {
                code,
                raw_code,
                raw_names,
                bytecode,
                names: ctx.names,
                blank: ctx.bufs.blank(),
                outputs,
                inputs,
                source: OnceLock::new(),
                program: format!("{program}"),
                config,
                opt_stats,
                pass_reports,
            }),
            vm,
            bufs: ctx.bufs,
            config,
            watch: None,
        })
    }
}

/// Run the full optimise-and-lower pipeline — the IR passes, the bytecode
/// lowering, the peephole and (when enabled) the register-type inference
/// stage — through the translation-validated pass manager, producing the
/// artifacts both engines execute.  Used by [`Kernel::compile`] and
/// [`CompiledKernel::reconfigured`].  The typing stage needs the buffer
/// set: buffer element types seed the inference; at
/// [`finch_ir::opt::ValidationLevel::Full`] the same buffers synthesize the
/// witness inputs every pass is differentially checked on.
fn optimize_kernel(
    raw_code: &[Stmt],
    names: &mut Names,
    bufs: &finch_ir::BufferSet,
    config: &ExecConfig,
) -> Result<Lowered, CompileError> {
    finch_ir::opt::optimize_and_lower(raw_code, names, bufs, config)
        .map_err(|e| CompileError::ValidationFailed { pass: e.pass.to_string(), detail: e.detail })
}

/// A compiled kernel: generated code (both the IR tree and its bytecode)
/// plus the buffers it runs against.
///
/// [`CompiledKernel::run`] executes under the kernel's [`ExecConfig`] — by
/// default on the flat register bytecode VM; select the tree-walking oracle
/// with [`CompiledKernel::reconfigured`] or a one-off
/// [`CompiledKernel::run_with`]:
///
/// ```
/// use finch::build::*;
/// use finch::{Engine, ExecConfig, Kernel, Tensor};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let a = Tensor::sparse_list_vector("A", &[0.0, 1.5, 0.0, 2.0]);
/// let b = Tensor::dense_vector("B", &[1.0, 10.0, 100.0, 1000.0]);
/// let mut kernel = Kernel::new();
/// kernel.bind_input(&a).bind_input(&b).bind_output_scalar("C");
/// let i = idx("i");
/// let program = forall(i.clone(), add_assign(scalar("C"), mul(access("A", [i.clone()]), access("B", [i]))));
///
/// let compiled = kernel.compile(&program)?;
/// assert_eq!(compiled.config().engine, Engine::Bytecode); // the default
/// // A run-side change shares the compiled image; a compile-side one recompiles.
/// let budgeted = ExecConfig { step_budget: Some(1_000_000), ..compiled.config() };
/// let mut compiled = compiled.reconfigured(&budgeted)?;
/// let fast = compiled.run()?;                           // bytecode VM
/// let oracle = compiled.run_with(Engine::TreeWalk)?;    // semantics oracle
/// assert_eq!(fast, oracle);                             // identical work counters
/// # Ok(()) }
/// ```
///
/// # Image and run state
///
/// A compiled kernel is two things.  The **image** is everything
/// compilation produced and nothing ever changes afterwards: the IR, the
/// name tables, the bytecode [`Program`], the input and output bindings,
/// the pass reports and the configuration it was compiled under.  It sits
/// behind an `Arc` and is shared by every kernel derived from this one by
/// [`Clone`], or by [`CompiledKernel::reconfigured`] when only a run-side
/// field changes.  The **run state** is what a run writes — the persistent
/// [`Vm`] and the [`BufferSet`] — with the configuration it runs under and
/// the watch.  `clone()` copies
/// the run state only, so two clones can run at the same time on two
/// threads over one image — which is how `KernelService` serves
/// concurrent hits on one cached structure.
#[derive(Debug, Clone)]
pub struct CompiledKernel {
    image: Arc<KernelImage>,
    /// The persistent register VM: re-runs reset it in place instead of
    /// allocating a fresh register file per execution.
    vm: Vm,
    bufs: BufferSet,
    /// What [`CompiledKernel::run`] runs under.  Its compile-side fields are
    /// those of the image's configuration.
    config: ExecConfig,
    /// Cooperative deadline / cancellation applied to every run on either
    /// engine.
    watch: Option<Watch>,
}

/// The immutable half of a [`CompiledKernel`]: what compilation produced.
#[derive(Debug)]
struct KernelImage {
    /// The optimised IR; `None` at [`OptLevel::None`], where `raw_code` is
    /// what executes (read both through [`CompiledKernel::stmts`]).
    code: Option<Vec<Stmt>>,
    /// The lowered IR before any optimisation pass ran, kept so the same
    /// kernel can be re-derived under any configuration (see
    /// [`CompiledKernel::reconfigured`]).
    raw_code: Vec<Stmt>,
    /// The name table as it stood before optimisation (LICM creates fresh
    /// variables, so re-optimising must start from the pristine table).
    raw_names: Names,
    bytecode: Program,
    names: Names,
    /// The buffer set's schema: every buffer under its name and element
    /// kind, with no elements.  A new run state starts from it
    /// ([`CompiledKernel::fork`]), and the code printer reads the names.
    blank: BufferSet,
    outputs: HashMap<String, OutputBinding>,
    /// The bound input tensors, kept so later runs can swap in fresh data
    /// of the same structure without recompiling (and so the rebind can be
    /// validated against the structure the code was generated for).
    inputs: HashMap<String, BoundTensor>,
    /// The generated code as text, rendered on the first
    /// [`CompiledKernel::code`] call: the service compiles in-request and
    /// never reads it.
    source: OnceLock<String>,
    program: String,
    /// The configuration this image was compiled under, as it was asked
    /// for.
    config: ExecConfig,
    opt_stats: OptStats,
    /// One report per optimisation pass that ran: transform, verifier and
    /// translation-validation wall-clock in nanoseconds.
    pass_reports: Vec<PassReport>,
}

impl CompiledKernel {
    /// The generated code, rendered as pseudo-Rust (the reproduction of the
    /// paper's Figure 1b listings).
    pub fn code(&self) -> &str {
        // Buffer names and the name table are fixed at compile time, so the
        // text does not depend on when — or through which run state — it
        // is first asked for.
        let image = &*self.image;
        image.source.get_or_init(|| Printer::new(&image.names, &image.blank).program(self.stmts()))
    }

    /// The CIN program this kernel was compiled from.
    pub fn program(&self) -> &str {
        &self.image.program
    }

    /// The generated statements (for structural assertions in tests).
    pub fn stmts(&self) -> &[Stmt] {
        self.image.code.as_deref().unwrap_or(&self.image.raw_code)
    }

    /// The compiled bytecode (for structural assertions and debugging).
    pub fn bytecode(&self) -> &Program {
        &self.image.bytecode
    }

    /// The optimisation level this kernel was compiled at
    /// (`config().opt`).
    pub fn opt_level(&self) -> OptLevel {
        self.image.config.opt
    }

    /// Per-pass optimisation counters from this kernel's compilation (IR
    /// folds, hoisted loads and expressions, fused bytecode pairs, ...).
    pub fn opt_stats(&self) -> OptStats {
        self.image.opt_stats
    }

    /// The configuration this kernel was compiled under and runs under, as
    /// it was asked for; `config().effective()` says which stages that
    /// comes to.
    pub fn config(&self) -> ExecConfig {
        self.config
    }

    /// This kernel under `config`.  When `config` asks for the same
    /// compilation ([`ExecConfig::compiles_like`]) the result shares this
    /// kernel's compiled image and differs in its run state alone;
    /// otherwise it is recompiled from the kept pre-optimisation IR.
    /// Buffers and the watch carry over either way, so the result is
    /// directly comparable against `self`.
    ///
    /// # Errors
    ///
    /// Returns [`CompileError::ValidationFailed`] when a recompilation's
    /// pass output fails the requested checks — which would be a compiler
    /// bug, not a user error.
    pub fn reconfigured(&self, config: &ExecConfig) -> Result<CompiledKernel, CompileError> {
        if self.image.config.compiles_like(config) {
            Ok(CompiledKernel { config: *config, ..self.clone() })
        } else {
            self.recompiled(config)
        }
    }

    /// This kernel recompiled at `level` from the kept pre-optimisation IR
    /// — always a new compilation, also at the level it already has: the
    /// benchmark harness times this call as the pass pipeline alone, and
    /// `OptLevel::None` against `OptLevel::Default` on identical kernels.
    pub fn reoptimized(&self, level: OptLevel) -> CompiledKernel {
        self.reoptimized_simd(level, self.config.typed, self.config.simd)
    }

    /// [`CompiledKernel::reoptimized`] with the typed-dispatch stage on or
    /// off.
    pub fn reoptimized_typed(&self, level: OptLevel, typed: bool) -> CompiledKernel {
        self.reoptimized_simd(level, typed, self.config.simd)
    }

    /// [`CompiledKernel::reoptimized_typed`] with the vectorize stage on or
    /// off as well.
    pub fn reoptimized_simd(&self, level: OptLevel, typed: bool, simd: bool) -> CompiledKernel {
        self.recompiled(&ExecConfig { opt: level, typed, simd, ..self.config })
            .expect("re-optimisation of already-validated code must validate")
    }

    /// Nothing shards, so threads have no effect: returns the receiver.
    /// Kept only because the frozen `benchmark/` calls it; goes with
    /// [`CompiledKernel::sharded`] once ROADMAP's "The `[benchmark]` PR"
    /// drops the call.
    #[doc(hidden)]
    pub fn with_threads(self, _threads: usize) -> Self {
        self
    }

    /// Compile the kept pre-optimisation IR again under `config`, whether
    /// or not it differs from the current one (the `reoptimized` family is
    /// timed as a compilation; the service's quarantine wants a new image).
    pub(crate) fn recompiled(&self, config: &ExecConfig) -> Result<CompiledKernel, CompileError> {
        let image = &*self.image;
        let mut names = image.raw_names.clone();
        let Lowered { code, program: bytecode, stats: opt_stats, reports: pass_reports } =
            optimize_kernel(&image.raw_code, &mut names, &self.bufs, config)?;
        let vm = Vm::new(&bytecode);
        Ok(CompiledKernel {
            image: Arc::new(KernelImage {
                code,
                raw_code: image.raw_code.clone(),
                raw_names: image.raw_names.clone(),
                bytecode,
                names,
                blank: image.blank.clone(),
                outputs: image.outputs.clone(),
                inputs: image.inputs.clone(),
                source: OnceLock::new(),
                program: image.program.clone(),
                config: *config,
                opt_stats,
                pass_reports,
            }),
            vm,
            bufs: self.bufs.clone(),
            config: *config,
            watch: self.watch.clone(),
        })
    }

    /// A new run state over this kernel's image, built from the image
    /// alone: its own [`Vm`] and its own buffers — outputs as a fresh
    /// compile leaves them, input buffers empty until
    /// [`CompiledKernel::rebind_input`] fills them — with this kernel's
    /// configuration and no watch.  Unlike `clone()` it reads none of `self`'s buffers, so it also works on a kernel
    /// whose run state is out on loan ([`CompiledKernel::stand_in`]).
    pub(crate) fn fork(&self) -> CompiledKernel {
        let image = &*self.image;
        let mut bufs = image.blank.clone();
        for out in image.outputs.values() {
            match out.sink {
                OutputSink::Dense { buf } => {
                    bufs.replace(buf, Buffer::F64(vec![out.init; out.len()].into()));
                }
                OutputSink::SparseList { pos, .. } => {
                    bufs.replace(pos, Buffer::I64(vec![0].into()));
                }
            }
        }
        CompiledKernel { bufs, ..self.stand_in() }
    }

    /// A kernel over this image with an empty buffer set: the placeholder
    /// the service leaves in a cache entry while the entry's run state is
    /// lent to a request.  It can be forked, re-derived and asked about its
    /// image; it must not be run.
    pub(crate) fn stand_in(&self) -> CompiledKernel {
        CompiledKernel {
            image: Arc::clone(&self.image),
            vm: Vm::new(&self.image.bytecode),
            bufs: BufferSet::new(),
            config: self.config,
            watch: None,
        }
    }

    /// Whether `other` runs the same compiled image as `self` (it is a
    /// clone, fork or stand-in of it).
    pub(crate) fn shares_image(&self, other: &CompiledKernel) -> bool {
        Arc::ptr_eq(&self.image, &other.image)
    }

    /// Per-pass timing and validation reports from this kernel's
    /// compilation, in the order the passes ran.
    pub fn pass_reports(&self) -> &[PassReport] {
        &self.image.pass_reports
    }

    /// How many scalar inner-loop body instructions the vectorize stage
    /// replaced with SIMD kernel ops, over how many it examined in
    /// innermost typed counted loops — the vectorized fraction reported
    /// by the benchmark harness.
    pub fn instrs_vectorized(&self) -> (u64, u64) {
        (self.image.opt_stats.instrs_vectorized, self.image.opt_stats.instrs_vectorizable)
    }

    /// Always `false`: no kernel is split across threads.  Kept only
    /// because the frozen `benchmark/` calls it (ROADMAP's "The
    /// `[benchmark]` PR").
    #[doc(hidden)]
    pub fn sharded(&self) -> bool {
        false
    }

    /// Set or clear a cooperative [`Watch`] applied to every run on either
    /// engine: a run whose deadline expires (or whose cancellation flag is
    /// raised) aborts with [`RuntimeError::Deadline`], checked on the same
    /// statement path as the step budget.  Buffers stay reusable — the
    /// next run resets them in place exactly as after a budget abort.
    pub fn set_watch(&mut self, watch: Option<Watch>) -> &mut Self {
        self.watch = watch;
        self
    }

    /// Replace the data of a bound input tensor in place, without
    /// recompiling: the tensor's arrays are copied into the kernel's
    /// existing buffers (reusing their capacity, so steady-state rebinds
    /// of same-sized instances allocate nothing).
    ///
    /// The new tensor must match the structure the kernel was compiled
    /// against — same name, same level kinds and dimension sizes, same
    /// fill value (the fill is baked into the generated code) — but its
    /// stored entries (coordinates and values) are free to differ.  This
    /// is what lets a kernel cache serve many tensor instances of one
    /// structural shape from a single compilation.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::BadInputRebind`] (and leaves every buffer
    /// untouched) when the structure does not match.
    pub fn rebind_input(&mut self, tensor: &Tensor) -> Result<(), RuntimeError> {
        let mismatch = |detail: String| RuntimeError::BadInputRebind {
            name: tensor.name().to_string(),
            detail,
        };
        // Resolve the binding once: the image is shared and immutable, so
        // the borrow lives beside the buffer writes below.
        let bound = self.image.inputs.get(tensor.name()).ok_or_else(|| {
            mismatch("no input tensor was bound under this name at compile time".into())
        })?;
        if tensor.fill().to_bits() != bound.fill().to_bits() {
            return Err(mismatch(format!(
                "fill value {} differs from the compiled fill {}",
                tensor.fill(),
                bound.fill()
            )));
        }
        if tensor.ndim() != bound.ndim() {
            return Err(mismatch(format!(
                "rank {} differs from the compiled rank {}",
                tensor.ndim(),
                bound.ndim()
            )));
        }
        // Check every level before touching any buffer, so a failed rebind
        // is atomic.
        let levels = || tensor.levels().iter().zip(bound.levels());
        if let Some((k, (level, blevel))) =
            levels().enumerate().find(|(_, (l, b))| !l.same_shape(b))
        {
            return Err(mismatch(format!(
                "level {k} is {} of size {}, but the kernel was compiled for {} of size {}",
                level.format_name(),
                level.size(),
                blevel.format_name(),
                blevel.size()
            )));
        }
        // Copy the arrays into the existing buffers in place, so the
        // cache-hit rebind path performs no allocation of its own.
        for (level, blevel) in levels() {
            for (src, id) in level.arrays().zip(blevel.arrays()) {
                refill(self.bufs.get_mut(*id.into_inner()), src);
            }
        }
        match self.bufs.get_mut(bound.values()) {
            Buffer::F64(d) => {
                d.clear();
                d.extend_from_slice(tensor.values());
            }
            other => *other = Buffer::F64(tensor.values().to_vec().into()),
        }
        Ok(())
    }

    /// The kernel's buffer set (crate-internal: the service's tests probe
    /// pointer stability of cache-hit reruns through this).
    #[cfg(test)]
    pub(crate) fn buffers(&self) -> &BufferSet {
        &self.bufs
    }

    /// Re-initialise the outputs and execute the kernel on the configured
    /// engine (the bytecode VM by default), returning the engine's work
    /// counters.
    ///
    /// # Errors
    ///
    /// Returns a [`RuntimeError`] if the generated code faults (which the
    /// test suite treats as a compiler bug) or exceeds the step budget.
    pub fn run(&mut self) -> Result<ExecStats, RuntimeError> {
        self.run_with(self.config.engine)
    }

    /// Re-initialise the outputs and execute the kernel on an explicitly
    /// chosen engine, leaving the configured default untouched.
    ///
    /// # Errors
    ///
    /// Returns a [`RuntimeError`] under the same conditions as
    /// [`CompiledKernel::run`].
    pub fn run_with(&mut self, engine: Engine) -> Result<ExecStats, RuntimeError> {
        let watch = self.watch.clone();
        self.execute(engine, watch, self.config.step_budget)
    }

    /// [`CompiledKernel::run_with`] under a one-off `watch` that is *moved*
    /// into the engine instead of cloned from the configured one, and a
    /// one-off step budget (this run ignores the configured ones).  The
    /// service arms a fresh watch per request; moving it saves two
    /// reference-count round trips on the cancellation flag every client
    /// shares.
    pub(crate) fn run_watched(
        &mut self,
        watch: Watch,
        step_budget: Option<u64>,
        engine: Engine,
    ) -> Result<ExecStats, RuntimeError> {
        self.execute(engine, Some(watch), step_budget)
    }

    fn execute(
        &mut self,
        engine: Engine,
        watch: Option<Watch>,
        step_budget: Option<u64>,
    ) -> Result<ExecStats, RuntimeError> {
        self.reset_outputs();
        let image = &*self.image;
        let alloc_budget = self.config.alloc_budget;
        match engine {
            Engine::Bytecode => {
                // The persistent VM resets in place: re-runs allocate
                // nothing (no register file, no stats, no output vecs).
                self.vm.reset();
                self.vm.set_step_budget(step_budget);
                self.vm.set_watch(watch);
                self.vm.set_alloc_budget(alloc_budget);
                self.vm.run(&image.bytecode, &mut self.bufs)?;
                Ok(self.vm.stats())
            }
            Engine::TreeWalk => {
                let mut interp = Interpreter::new(&image.names);
                if let Some(budget) = step_budget {
                    interp = interp.with_step_budget(budget);
                }
                interp.set_watch(watch);
                interp.set_alloc_budget(alloc_budget);
                let code = image.code.as_deref().unwrap_or(&image.raw_code);
                interp.run(code, &mut self.bufs)?;
                Ok(interp.stats())
            }
        }
    }

    /// Re-initialise the outputs and execute once on the bytecode VM
    /// while collecting per-pc dispatch counts (untimed instrumentation;
    /// semantics and [`ExecStats`] identical to [`CompiledKernel::run`]).
    /// The benchmark harness derives the executed-typed-instruction
    /// fraction from the counts, `tests/isa_reach.rs` the dispatches per
    /// opcode.
    ///
    /// # Errors
    ///
    /// Returns a [`RuntimeError`] under the same conditions as
    /// [`CompiledKernel::run`].
    pub fn profile(&mut self) -> Result<(ExecStats, Vec<u64>), RuntimeError> {
        self.reset_outputs();
        self.vm.reset();
        self.vm.set_step_budget(self.config.step_budget);
        self.vm.set_watch(self.watch.clone());
        self.vm.set_alloc_budget(self.config.alloc_budget);
        let counts = self.vm.run_profiled(&self.image.bytecode, &mut self.bufs)?;
        Ok((self.vm.stats(), counts))
    }

    /// Reset sparse outputs to their empty state so re-runs assemble from
    /// scratch.  Dense outputs are initialised by the generated code
    /// itself.  The growable arrays are truncated in place — their
    /// capacity (grown by earlier runs) is reused, so steady-state reruns
    /// perform no output allocation.
    fn reset_outputs(&mut self) {
        for out in self.image.outputs.values() {
            if let OutputSink::SparseList { pos, idx, val } = out.sink {
                match self.bufs.get_mut(pos) {
                    Buffer::I64(v) => {
                        v.clear();
                        v.push(0);
                    }
                    other => *other = Buffer::I64(vec![0].into()),
                }
                self.bufs.get_mut(idx).clear();
                self.bufs.get_mut(val).clear();
            }
        }
    }

    fn output_binding(&self, name: &str) -> Result<&OutputBinding, RuntimeError> {
        self.image.outputs.get(name).ok_or_else(|| RuntimeError::BadOutputQuery {
            name: name.to_string(),
            detail: "no output was bound under this name".into(),
        })
    }

    /// The dense (row-major) contents of a named output after the last run;
    /// sparse outputs are materialised through their fill value.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::BadOutputQuery`] when no output was bound
    /// under `name`, or when a sparse output's assembly is incomplete (the
    /// kernel has not run).
    pub fn output(&self, name: &str) -> Result<Vec<f64>, RuntimeError> {
        let ob = self.output_binding(name)?;
        match ob.sink {
            OutputSink::Dense { buf } => Ok(self.bufs.get(buf).to_f64_vec()),
            OutputSink::SparseList { .. } => Ok(self.output_tensor(name)?.to_dense()),
        }
    }

    /// The value of a scalar output after the last run.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::BadOutputQuery`] when no output was bound
    /// under `name` or when the binding is not a scalar (use
    /// [`CompiledKernel::output`] or [`CompiledKernel::output_tensor`] for
    /// tensor outputs).
    pub fn output_scalar(&self, name: &str) -> Result<f64, RuntimeError> {
        let ob = self.output_binding(name)?;
        match ob.sink {
            // Read the scalar lane directly — no intermediate vec, so the
            // cache-hit request path performs no read-back allocation.
            OutputSink::Dense { buf } if ob.specs().is_empty() => match self.bufs.get(buf) {
                Buffer::F64(v) => Ok(v[0]),
                other => Ok(other.to_f64_vec()[0]),
            },
            _ => Err(RuntimeError::BadOutputQuery {
                name: name.to_string(),
                detail: format!(
                    "bound as a rank-{} {} output, not a scalar; read it with `output` \
                     or `output_tensor`",
                    ob.specs().len(),
                    ob.specs().last().map_or("dense", |s| s.format_name()),
                ),
            }),
        }
    }

    /// Finalize a named output into a first-class [`Tensor`] (named after
    /// the output), so the result of one kernel can be re-bound as an input
    /// of the next — kernel chaining.
    ///
    /// Dense outputs materialise as dense tensors; sparse outputs keep
    /// their assembled `pos`/`idx`/`val` arrays, validated on the way out.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::BadOutputQuery`] when no output was bound
    /// under `name`, or when a sparse output's assembly is structurally
    /// invalid — in particular before the kernel has run.
    pub fn output_tensor(&self, name: &str) -> Result<Tensor, RuntimeError> {
        let ob = self.output_binding(name)?;
        let builder = &ob.builder;
        let bad = |e: finch_formats::TensorError| RuntimeError::BadOutputQuery {
            name: name.to_string(),
            detail: format!("assembled output is not a valid tensor: {e}"),
        };
        match ob.sink {
            OutputSink::Dense { buf } => {
                builder.finalize_dense(self.bufs.get(buf).to_f64_vec(), ob.init).map_err(bad)
            }
            OutputSink::SparseList { pos, idx, val } => {
                let pos = self.bufs.get(pos).as_i64().expect("pos is an i64 buffer").to_vec();
                let idx = self.bufs.get(idx).as_i64().expect("idx is an i64 buffer").to_vec();
                let val = self.bufs.get(val).as_f64().expect("val is an f64 buffer").to_vec();
                builder.finalize_sparse_list(pos, idx, val, ob.init).map_err(bad)
            }
        }
    }

    /// Names of all outputs.
    pub fn output_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.image.outputs.keys().cloned().collect();
        names.sort();
        names
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use finch_cin::build::*;
    use finch_formats::Level;
    use finch_ir::opt::ValidationLevel;

    fn dot_product(a: &Tensor, b: &Tensor) -> CompiledKernel {
        dot_product_under(ExecConfig::default(), a, b)
    }

    fn dot_product_under(config: ExecConfig, a: &Tensor, b: &Tensor) -> CompiledKernel {
        let mut kernel = Kernel::with_config(config);
        kernel.bind_input(a).bind_input(b).bind_output_scalar("C");
        let i = idx("i");
        let program = forall(
            i.clone(),
            add_assign(scalar("C"), mul(access(a.name(), [i.clone()]), access(b.name(), [i]))),
        );
        kernel.compile(&program).expect("dot product compiles")
    }

    fn reference_dot(a: &[f64], b: &[f64]) -> f64 {
        a.iter().zip(b).map(|(x, y)| x * y).sum()
    }

    #[test]
    fn dense_dot_product_matches_reference() {
        let av = vec![1.0, 2.0, 3.0, 4.0];
        let bv = vec![0.5, 0.0, 2.0, 10.0];
        let a = Tensor::dense_vector("A", &av);
        let b = Tensor::dense_vector("B", &bv);
        let mut k = dot_product(&a, &b);
        k.run().unwrap();
        assert_eq!(k.output_scalar("C").unwrap(), reference_dot(&av, &bv));
    }

    #[test]
    fn sparse_times_dense_dot_product() {
        let av = vec![0.0, 1.9, 0.0, 3.0, 0.0, 0.0, 2.7, 0.0, 5.5, 0.0, 0.0];
        let bv: Vec<f64> = (0..11).map(|x| x as f64 * 0.5).collect();
        let a = Tensor::sparse_list_vector("A", &av);
        let b = Tensor::dense_vector("B", &bv);
        let mut k = dot_product(&a, &b);
        k.run().unwrap();
        let got = k.output_scalar("C").unwrap();
        assert!((got - reference_dot(&av, &bv)).abs() < 1e-9, "got {got}");
    }

    #[test]
    fn sparse_times_sparse_dot_product_is_a_two_finger_merge() {
        let av = vec![0.0, 1.9, 0.0, 3.0, 0.0, 0.0, 2.7, 0.0, 5.5, 0.0, 0.0];
        let bv = vec![0.0, 0.0, 0.0, 3.7, 4.7, 9.2, 1.5, 8.7, 0.0, 0.0, 0.0];
        let a = Tensor::sparse_list_vector("A", &av);
        let b = Tensor::sparse_list_vector("B", &bv);
        let mut k = dot_product(&a, &b);
        k.run().unwrap();
        let got = k.output_scalar("C").unwrap();
        assert!((got - reference_dot(&av, &bv)).abs() < 1e-9, "got {got}");
        // The generated code contains a while loop (the merge) rather than a
        // dense for loop over the whole dimension.
        assert!(k.code().contains("while"), "generated code:\n{}", k.code());
    }

    #[test]
    fn sparse_list_times_band_reproduces_figure_1() {
        let av = vec![0.0, 1.9, 0.0, 3.0, 0.0, 0.0, 2.7, 0.0, 5.5, 0.0, 0.0];
        let bv = vec![0.0, 0.0, 0.0, 3.7, 4.7, 9.2, 1.5, 8.7, 0.0, 0.0, 0.0];
        let a = Tensor::sparse_list_vector("A", &av);
        let b = Tensor::band_vector("B", &bv);
        let mut k = dot_product(&a, &b);
        let stats = k.run().unwrap();
        let got = k.output_scalar("C").unwrap();
        assert!((got - reference_dot(&av, &bv)).abs() < 1e-9, "got {got}");
        // The looplet code skips to the band: the number of loop iterations
        // should be far below the dense dimension times nonzeros.
        assert!(stats.loop_iters < 64, "stats {stats:?}\ncode:\n{}", k.code());
    }

    #[test]
    fn gallop_protocol_compiles_and_matches() {
        let av = vec![0.0, 1.9, 0.0, 3.0, 0.0, 0.0, 2.7, 0.0, 5.5, 0.0, 0.0];
        let bv = vec![0.0, 0.0, 0.0, 3.7, 0.0, 9.2, 0.0, 8.7, 0.0, 0.0, 5.0];
        let a = Tensor::sparse_list_vector("A", &av);
        let b = Tensor::sparse_list_vector("B", &bv);
        let mut kernel = Kernel::new();
        kernel.bind_input(&a).bind_input(&b).bind_output_scalar("C");
        let i = idx("i");
        let program = forall(
            i.clone(),
            add_assign(scalar("C"), mul(access("A", [i.gallop()]), access("B", [i.gallop()]))),
        );
        let mut k = kernel.compile(&program).expect("gallop dot compiles");
        k.run().unwrap();
        let got = k.output_scalar("C").unwrap();
        assert!((got - reference_dot(&av, &bv)).abs() < 1e-9, "got {got}\ncode:\n{}", k.code());
        assert!(k.code().contains("search"), "galloping should binary search:\n{}", k.code());
    }

    #[test]
    fn spmv_over_csr_matches_reference() {
        let nrows = 5;
        let ncols = 7;
        let data: Vec<f64> =
            (0..nrows * ncols).map(|k| if k % 3 == 0 { (k % 11) as f64 } else { 0.0 }).collect();
        let xv: Vec<f64> = (0..ncols).map(|k| (k as f64) - 2.5).collect();
        let a = Tensor::csr_matrix("A", nrows, ncols, &data);
        let x = Tensor::dense_vector("x", &xv);

        let mut kernel = Kernel::new();
        kernel.bind_input(&a).bind_input(&x).bind_output("y", &[nrows], 0.0);
        let (i, j) = (idx("i"), idx("j"));
        let program = forall(
            i.clone(),
            forall(
                j.clone(),
                add_assign(
                    access("y", [i.clone()]),
                    mul(access("A", [i, j.clone()]), access("x", [j])),
                ),
            ),
        );
        let mut k = kernel.compile(&program).expect("spmv compiles");
        k.run().unwrap();
        let y = k.output("y").unwrap();
        for r in 0..nrows {
            let expect: f64 = (0..ncols).map(|c| data[r * ncols + c] * xv[c]).sum();
            assert!((y[r] - expect).abs() < 1e-9, "row {r}: {} vs {expect}", y[r]);
        }
    }

    #[test]
    fn unknown_tensor_is_reported() {
        let kernel = Kernel::new();
        let i = idx("i");
        let program = forall(i.clone(), add_assign(scalar("C"), access("A", [i])));
        let err = kernel.compile(&program).unwrap_err();
        assert!(matches!(err, CompileError::UnknownTensor { .. }));
    }

    #[test]
    fn writing_to_an_input_is_reported() {
        let a = Tensor::dense_vector("A", &[1.0]);
        let mut kernel = Kernel::new();
        kernel.bind_input(&a);
        let i = idx("i");
        let program = forall(i.clone(), add_assign(access("A", [i]), lit(1.0)));
        let err = kernel.compile(&program).unwrap_err();
        assert!(matches!(
            err,
            CompileError::UnsupportedWrite { .. } | CompileError::UnknownTensor { .. }
        ));
    }

    #[test]
    fn non_concordant_access_is_reported() {
        // forall i forall j C[] += A[j, i] cannot be driven concordantly.
        let a = Tensor::csr_matrix("A", 3, 3, &[1.0; 9]);
        let mut kernel = Kernel::new();
        kernel.bind_input(&a).bind_output_scalar("C");
        let (i, j) = (idx("i"), idx("j"));
        let program =
            forall(i.clone(), forall(j.clone(), add_assign(scalar("C"), access("A", [j, i]))));
        let err = kernel.compile(&program).unwrap_err();
        assert!(
            matches!(
                err,
                CompileError::NonConcordantAccess { .. } | CompileError::CannotInferExtent { .. }
            ),
            "got {err:?}"
        );
    }

    #[test]
    fn bytecode_engine_is_the_default() {
        let a = Tensor::dense_vector("A", &[1.0, 2.0]);
        let b = Tensor::dense_vector("B", &[3.0, 4.0]);
        let k = dot_product(&a, &b);
        assert_eq!(k.config().engine, Engine::Bytecode);
        assert!(k.bytecode().validate().is_ok(), "compiled bytecode validates");
    }

    #[test]
    fn engines_agree_on_outputs_and_stats() {
        let av = vec![0.0, 1.9, 0.0, 3.0, 0.0, 0.0, 2.7, 0.0, 5.5, 0.0, 0.0];
        let bv = vec![0.0, 0.0, 0.0, 3.7, 4.7, 9.2, 1.5, 8.7, 0.0, 0.0, 0.0];
        let a = Tensor::sparse_list_vector("A", &av);
        let b = Tensor::band_vector("B", &bv);
        let mut k = dot_product(&a, &b);
        let fast = k.run_with(Engine::Bytecode).unwrap();
        let fast_out = k.output_scalar("C").unwrap();
        let oracle = k.run_with(Engine::TreeWalk).unwrap();
        let oracle_out = k.output_scalar("C").unwrap();
        assert_eq!(fast, oracle, "work counters must be identical");
        assert_eq!(fast_out.to_bits(), oracle_out.to_bits(), "outputs must be bit-identical");
    }

    #[test]
    fn a_run_side_reconfiguration_shares_the_image_and_changes_no_result() {
        let av = vec![0.0, 1.9, 0.0, 3.0, 0.0, 0.0, 2.7, 0.0, 5.5, 0.0, 0.0];
        let a = Tensor::sparse_list_vector("A", &av);
        let b = Tensor::dense_vector("B", &[0.5; 11]);
        let mut k = dot_product(&a, &b);
        let stats = k.run().unwrap();
        let out = k.output_scalar("C").unwrap();
        let base = k.config();
        let run_side = [
            ExecConfig { engine: Engine::TreeWalk, ..base },
            ExecConfig { step_budget: Some(1_000_000), alloc_budget: Some(64), ..base },
        ];
        for config in run_side {
            let mut re = k.reconfigured(&config).unwrap();
            assert!(re.shares_image(&k), "{}", config.label());
            assert_eq!(re.config(), config);
            assert_eq!(re.run().unwrap(), stats, "{}", config.label());
            assert_eq!(re.output_scalar("C").unwrap().to_bits(), out.to_bits());
            // The run side carries through a recompilation.
            let none = re.reoptimized(OptLevel::None);
            assert_eq!(none.config(), ExecConfig { opt: OptLevel::None, ..config });
        }
    }

    #[test]
    fn a_compile_side_reconfiguration_is_a_fresh_compile_under_that_configuration() {
        let a = Tensor::dense_vector("A", &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0]);
        let b = Tensor::sparse_list_vector("B", &[0.0, 2.0, 0.0, 0.5, 0.0, 0.0, 1.0, 0.0, 3.0]);
        let k = dot_product(&a, &b);
        let base = k.config();
        let other_validation = match base.validation {
            ValidationLevel::Off => ValidationLevel::Full,
            _ => ValidationLevel::Off,
        };
        let compile_side = [
            ExecConfig { opt: OptLevel::None, ..base },
            ExecConfig { typed: false, ..base },
            ExecConfig { simd: false, ..base },
            ExecConfig { validation: other_validation, ..base },
        ];
        for config in compile_side {
            let re = k.reconfigured(&config).unwrap();
            assert!(!re.shares_image(&k), "{}", config.label());
            assert_eq!(re.config(), config);
            let fresh = dot_product_under(config, &a, &b);
            assert_eq!(re.bytecode().disasm(), fresh.bytecode().disasm(), "{}", config.label());
            assert_eq!(re.pass_reports().len(), fresh.pass_reports().len());
        }
    }

    #[test]
    fn step_budget_applies_to_both_engines() {
        let a = Tensor::dense_vector("A", &[1.0; 64]);
        let b = Tensor::dense_vector("B", &[2.0; 64]);
        let unbounded = dot_product(&a, &b);
        let bounded = ExecConfig { step_budget: Some(3), ..unbounded.config() };
        let mut k = unbounded.reconfigured(&bounded).unwrap();
        for engine in [Engine::Bytecode, Engine::TreeWalk] {
            let err = k.run_with(engine).unwrap_err();
            assert!(
                matches!(err, RuntimeError::StepBudgetExceeded { budget: 3 }),
                "{engine:?}: got {err:?}"
            );
        }
        k.reconfigured(&unbounded.config()).unwrap().run().unwrap();
    }

    fn sparse_mul_kernel(av: &[f64], bv: &[f64]) -> CompiledKernel {
        let a = Tensor::sparse_list_vector("A", av);
        let b = Tensor::sparse_list_vector("B", bv);
        let mut kernel = Kernel::new();
        kernel
            .bind_input(&a)
            .bind_input(&b)
            .bind_output_format("C", &[LevelSpec::SparseList { size: av.len() }]);
        let i = idx("i");
        let program = forall(
            i.clone(),
            assign(access("C", [i.clone()]), mul(access("A", [i.clone()]), access("B", [i]))),
        );
        kernel.compile(&program).expect("sparse multiply compiles")
    }

    #[test]
    fn sparse_output_assembles_only_the_intersection() {
        let av = vec![0.0, 1.9, 0.0, 3.0, 0.0, 0.0, 2.7, 0.0, 5.5, 0.0, 0.0];
        let bv = vec![0.0, 2.0, 0.0, 3.7, 4.7, 9.2, 1.5, 8.7, 0.0, 0.0, 0.0];
        let mut k = sparse_mul_kernel(&av, &bv);
        k.run().unwrap();
        let c = k.output_tensor("C").unwrap();
        let expect: Vec<f64> = av.iter().zip(&bv).map(|(x, y)| x * y).collect();
        assert_eq!(c.to_dense(), expect);
        // Coordinates 1, 3 and 6 are stored in both inputs.
        assert_eq!(c.stored(), 3);
        match &c.levels()[0] {
            Level::SparseList { pos, idx, .. } => {
                assert_eq!(pos, &vec![0, 3]);
                assert_eq!(idx, &vec![1, 3, 6]);
            }
            other => panic!("expected a sparse list level, got {other:?}"),
        }
    }

    #[test]
    fn sparse_output_is_bit_identical_across_engines() {
        let av = vec![0.0, 1.9, 0.0, 3.0, 0.0, 0.0, 2.7, 0.0, 5.5, 0.0, 0.0];
        let bv = vec![0.0, 2.0, 0.0, 3.7, 4.7, 9.2, 1.5, 8.7, 0.0, 0.0, 0.0];
        let mut k = sparse_mul_kernel(&av, &bv);
        let fast = k.run_with(Engine::Bytecode).unwrap();
        let fast_out = k.output_tensor("C").unwrap();
        let oracle = k.run_with(Engine::TreeWalk).unwrap();
        let oracle_out = k.output_tensor("C").unwrap();
        assert_eq!(fast, oracle, "work counters must be identical");
        assert_eq!(fast_out, oracle_out, "pos/idx/val arrays must be identical");
        let bits = |t: &Tensor| -> Vec<u64> { t.values().iter().map(|v| v.to_bits()).collect() };
        assert_eq!(bits(&fast_out), bits(&oracle_out), "values must be bit-identical");
    }

    #[test]
    fn sparse_output_stores_strictly_less_than_the_dense_variant() {
        let n = 1000;
        let mut av = vec![0.0; n];
        let mut bv = vec![0.0; n];
        for k in (0..n).step_by(97) {
            av[k] = 1.0 + k as f64;
            bv[k] = 2.0;
        }
        let sparse_stats = {
            let mut k = sparse_mul_kernel(&av, &bv);
            k.run().unwrap()
        };
        let dense_stats = {
            let a = Tensor::sparse_list_vector("A", &av);
            let b = Tensor::sparse_list_vector("B", &bv);
            let mut kernel = Kernel::new();
            kernel.bind_input(&a).bind_input(&b).bind_output("C", &[n], 0.0);
            let i = idx("i");
            let program = forall(
                i.clone(),
                assign(access("C", [i.clone()]), mul(access("A", [i.clone()]), access("B", [i]))),
            );
            kernel.compile(&program).expect("dense multiply compiles").run().unwrap()
        };
        // The dense output pays O(n) initialisation; the sparse output pays
        // O(stored) appends.
        assert!(
            sparse_stats.stores < dense_stats.stores,
            "sparse assembly must store less: {} vs {}",
            sparse_stats.stores,
            dense_stats.stores
        );
    }

    #[test]
    fn sparse_output_chains_into_a_follow_up_kernel() {
        let av = vec![0.0, 1.5, 0.0, 2.0, 0.0];
        let bv = vec![1.0, 2.0, 3.0, 4.0, 5.0];
        let mut k = sparse_mul_kernel(&av, &[0.0, 1.0, 1.0, 1.0, 0.0]);
        k.run().unwrap();
        let c = k.output_tensor("C").unwrap();
        // Re-bind the assembled sparse result as an input of a dot product.
        let b = Tensor::dense_vector("B", &bv);
        let mut kernel = Kernel::new();
        kernel.bind_input(&c).bind_input(&b).bind_output_scalar("D");
        let i = idx("i");
        let program = forall(
            i.clone(),
            add_assign(scalar("D"), mul(access("C", [i.clone()]), access("B", [i]))),
        );
        let mut chained = kernel.compile(&program).expect("chained kernel compiles");
        chained.run().unwrap();
        let expect: f64 = c.to_dense().iter().zip(&bv).map(|(x, y)| x * y).sum();
        assert_eq!(chained.output_scalar("D").unwrap(), expect);
    }

    #[test]
    fn threshold_filter_assembles_only_passing_entries() {
        let av = vec![0.0, 5.0, 0.0, 1.0, 7.0, 0.0, 2.0];
        let a = Tensor::sparse_list_vector("A", &av);
        let mut kernel = Kernel::new();
        kernel.bind_input(&a).bind_output_format("C", &[LevelSpec::SparseList { size: av.len() }]);
        let i = idx("i");
        let program = forall(
            i.clone(),
            sieve(
                gt(access("A", [i.clone()]), lit(3.0)),
                assign(access("C", [i.clone()]), access("A", [i])),
            ),
        );
        let mut k = kernel.compile(&program).expect("filter compiles");
        k.run().unwrap();
        let c = k.output_tensor("C").unwrap();
        assert_eq!(c.to_dense(), vec![0.0, 5.0, 0.0, 0.0, 7.0, 0.0, 0.0]);
        assert_eq!(c.stored(), 2);
    }

    #[test]
    fn matrix_sparse_output_closes_one_fiber_per_row() {
        let data = vec![
            0.0, 1.0, 0.0, 2.0, //
            0.0, 0.0, 0.0, 0.0, //
            3.0, 0.0, 4.0, 0.0,
        ];
        let a = Tensor::csr_matrix("A", 3, 4, &data);
        let mut kernel = Kernel::new();
        kernel.bind_input(&a).bind_output_format(
            "C",
            &[LevelSpec::Dense { size: 3 }, LevelSpec::SparseList { size: 4 }],
        );
        let (i, j) = (idx("i"), idx("j"));
        let program = forall(
            i.clone(),
            forall(j.clone(), assign(access("C", [i.clone(), j.clone()]), access("A", [i, j]))),
        );
        let mut k = kernel.compile(&program).expect("copy compiles");
        k.run().unwrap();
        let c = k.output_tensor("C").unwrap();
        assert_eq!(c.to_dense(), data);
        match &c.levels()[1] {
            Level::SparseList { pos, idx, .. } => {
                assert_eq!(pos, &vec![0, 2, 2, 4], "one fiber per row, middle row empty");
                assert_eq!(idx, &vec![1, 3, 0, 2]);
            }
            other => panic!("expected a sparse list level, got {other:?}"),
        }
    }

    #[test]
    fn output_queries_report_typed_errors() {
        let a = Tensor::dense_vector("A", &[1.0, 2.0]);
        let b = Tensor::dense_vector("B", &[3.0, 4.0]);
        let k = dot_product(&a, &b);
        let err = k.output_scalar("nope").unwrap_err();
        assert!(matches!(err, RuntimeError::BadOutputQuery { .. }), "got {err:?}");
        assert!(k.output("nope").is_err());
        assert!(k.output_tensor("nope").is_err());

        let x = Tensor::dense_vector("x", &[1.0, 2.0, 3.0]);
        let mut kernel = Kernel::new();
        kernel.bind_input(&x).bind_output("y", &[3], 0.0);
        let i = idx("i");
        let program = forall(i.clone(), assign(access("y", [i.clone()]), access("x", [i])));
        let k = kernel.compile(&program).expect("copy compiles");
        let err = k.output_scalar("y").unwrap_err();
        match err {
            RuntimeError::BadOutputQuery { name, detail } => {
                assert_eq!(name, "y");
                assert!(detail.contains("rank-1"), "{detail}");
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn sparse_output_before_any_run_is_a_typed_error() {
        let k = sparse_mul_kernel(&[0.0, 1.0], &[1.0, 1.0]);
        let err = k.output_tensor("C").unwrap_err();
        assert!(matches!(err, RuntimeError::BadOutputQuery { .. }), "got {err:?}");
    }

    #[test]
    fn sparse_output_written_by_a_non_innermost_loop_is_rejected_at_compile_time() {
        // forall i forall j C[i] = A[j] would append the same coordinate
        // once per j; it must be a CompileError, not a late validity error.
        let a = Tensor::dense_vector("A", &[1.0, 2.0, 3.0]);
        let mut kernel = Kernel::new();
        kernel.bind_input(&a).bind_output_format("C", &[LevelSpec::SparseList { size: 3 }]);
        let (i, j) = (idx("i"), idx("j"));
        let program = forall_in(
            i.clone(),
            lit_int(0),
            lit_int(2),
            forall(j.clone(), assign(access("C", [i]), access("A", [j]))),
        );
        let err = kernel.compile(&program).unwrap_err();
        match err {
            CompileError::Unsupported { detail } => {
                assert!(detail.contains("innermost"), "{detail}");
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn where_producers_are_not_double_initialised() {
        // The `where` lowering initialises its producer at scope entry; the
        // top-of-program init must skip it or the store traffic is counted
        // twice.
        let a = Tensor::dense_vector("A", &[1.0, 2.0, 3.0]);
        let mut kernel = Kernel::new();
        kernel.bind_input(&a).bind_output_scalar("t").bind_output_scalar("S");
        let i = idx("i");
        let program = where_(
            assign(scalar("S"), mul(lit(2.0), finch_cin::CinExpr::Access(scalar("t")))),
            forall(i.clone(), add_assign(scalar("t"), access("A", [i]))),
        );
        let k = kernel.compile(&program).expect("where compiles");
        // Exactly one init store for S and one (where-emitted) for t: the
        // code must contain exactly two literal stores of 0 into the two
        // scalar buffers before the loop.
        let init_stores = Stmt::count_matching(k.stmts(), &|s| {
            matches!(s, Stmt::Store { value: finch_ir::Expr::Lit(v), reduce: None, .. }
                     if *v == finch_ir::Value::Float(0.0))
        });
        assert_eq!(init_stores, 2, "one init per scalar, no double init:\n{}", k.code());
    }

    #[test]
    fn a_fork_is_a_run_state_of_its_own_built_from_the_image_alone() {
        // Sparse inputs, a dense and a sparse output: every kind of buffer.
        let compile = |av: &[f64], bv: &[f64]| {
            let a = Tensor::sparse_list_vector("A", av);
            let b = Tensor::sparse_list_vector("B", bv);
            let mut kernel = Kernel::new();
            kernel
                .bind_input(&a)
                .bind_input(&b)
                .bind_output("D", &[6], 0.0)
                .bind_output_format("S", &[LevelSpec::SparseList { size: 6 }]);
            let i = idx("i");
            let product = || mul(access("A", [i.clone()]), access("B", [i.clone()]));
            let program = multi(vec![
                forall(i.clone(), assign(access("D", [i.clone()]), product())),
                forall(i.clone(), assign(access("S", [i.clone()]), product())),
            ]);
            (kernel.compile(&program).expect("products compile"), a, b)
        };
        let read = |k: &CompiledKernel| {
            (k.output("D").unwrap(), format!("{:?}", k.output_tensor("S").unwrap()))
        };
        let (mut original, _, _) = compile(&[0.0, 1.5, 0.0, 2.0, 3.0, 0.0], &[1.0; 6]);
        let original_stats = original.run().unwrap();
        let before = read(&original);

        // Forked off a stand-in: nothing of the original's buffers is read.
        let mut fork = original.stand_in().fork();
        assert!(fork.shares_image(&original));
        assert_eq!(fork.bufs.len(), original.bufs.len());
        assert!(fork.bufs.get(fork.bufs.lookup("A_val").unwrap()).is_empty());

        // Bound to other data, it runs like a fresh compile on that data ...
        let (mut fresh, a2, b2) = compile(&[4.0, 0.0, 0.0, 0.5, 0.0, 7.0], &[2.0; 6]);
        fork.rebind_input(&a2).unwrap();
        fork.rebind_input(&b2).unwrap();
        assert_eq!(fork.run().unwrap(), fresh.run().unwrap());
        assert_eq!(read(&fork), read(&fresh));
        // ... and leaves the original's run state alone.
        assert_eq!(read(&original), before);
        assert_eq!(original.run().unwrap(), original_stats);
        assert_eq!(read(&original), before);
    }

    #[test]
    fn reductions_into_sparse_outputs_are_rejected() {
        let a = Tensor::sparse_list_vector("A", &[0.0, 1.0]);
        let mut kernel = Kernel::new();
        kernel.bind_input(&a).bind_output_format("C", &[LevelSpec::SparseList { size: 2 }]);
        let i = idx("i");
        let program = forall(i.clone(), add_assign(access("C", [i.clone()]), access("A", [i])));
        let err = kernel.compile(&program).unwrap_err();
        assert!(matches!(err, CompileError::Unsupported { .. }), "got {err:?}");
    }

    #[test]
    fn bind_output_format_with_dense_specs_matches_bind_output() {
        let x = Tensor::dense_vector("x", &[1.0, 2.0, 3.0]);
        let mut kernel = Kernel::new();
        kernel.bind_input(&x).bind_output_format("y", &[LevelSpec::Dense { size: 3 }]);
        let i = idx("i");
        let program = forall(i.clone(), assign(access("y", [i.clone()]), access("x", [i])));
        let mut k = kernel.compile(&program).expect("copy compiles");
        k.run().unwrap();
        assert_eq!(k.output("y").unwrap(), vec![1.0, 2.0, 3.0]);
        let t = k.output_tensor("y").unwrap();
        assert_eq!(t.to_dense(), vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn typed_dispatch_is_on_by_default_and_specializes_the_inner_loop() {
        let a = Tensor::dense_vector("A", &[1.0, 2.0, 3.0, 4.0]);
        let b = Tensor::dense_vector("B", &[0.5, 0.0, 2.0, 10.0]);
        let k = dot_product(&a, &b);
        assert!(k.config().effective().typed);
        let stats = k.opt_stats();
        assert!(stats.instrs_typed > 0, "typing ran: {stats:?}");
        assert!(stats.regs_pretagged > 0, "registers pinned: {stats:?}");
        assert!(!k.bytecode().pretags().is_empty());
        // The stage is gated off at OptLevel::None.
        let none = k.reoptimized(OptLevel::None);
        assert_eq!(none.opt_stats().instrs_typed, 0);
        assert!(none.bytecode().pretags().is_empty());
    }

    #[test]
    fn an_unoptimised_kernel_keeps_its_request_and_reports_that_no_stage_ran() {
        let a = Tensor::dense_vector("A", &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0]);
        let b = Tensor::dense_vector("B", &[0.5; 9]);
        let mut none = dot_product(&a, &b).reoptimized(OptLevel::None);
        let (asked, effective) = (none.config(), none.config().effective());
        assert!(asked.typed && asked.simd, "the request is kept as asked");
        assert!(!effective.typed && !effective.simd, "neither stage runs at OptLevel::None");
        // Nothing typed and no kernel op is dispatched: what is tag-free in
        // an unoptimised program is control flow and bookkeeping.
        const TAG_NEUTRAL: [&str; 5] = ["bump_stmt", "jump", "for_step", "fiber_end", "nop"];
        let (_, counts) = none.profile().unwrap();
        for (count, instr) in counts.iter().zip(none.bytecode().code()) {
            if *count > 0 && instr.is_tag_free() {
                assert!(TAG_NEUTRAL.contains(&instr.opcode()), "dispatched {}", instr.opcode());
            }
        }
        // Because the request is kept, going back up is typed again.
        let back = none.reoptimized(OptLevel::Default);
        assert!(back.config().effective().simd && back.opt_stats().instrs_typed > 0);
    }

    #[test]
    fn typed_and_generic_dispatch_agree_bit_for_bit() {
        let av = vec![0.0, 1.9, 0.0, 3.0, 0.0, 0.0, 2.7, 0.0, 5.5, 0.0, 0.0];
        let bv = vec![0.0, 0.0, 0.0, 3.7, 4.7, 9.2, 1.5, 8.7, 0.0, 0.0, 0.0];
        let a = Tensor::sparse_list_vector("A", &av);
        let b = Tensor::band_vector("B", &bv);
        let typed = dot_product(&a, &b);
        let mut generic = typed.reoptimized_typed(OptLevel::Default, false);
        let mut typed = typed;
        assert!(!generic.config().typed);
        assert_eq!(generic.opt_stats().instrs_typed, 0);
        let st = typed.run().unwrap();
        let sg = generic.run().unwrap();
        assert_eq!(st, sg, "typed dispatch must not change the work counters");
        let (t, g) = (typed.output_scalar("C").unwrap(), generic.output_scalar("C").unwrap());
        assert_eq!(t.to_bits(), g.to_bits(), "outputs must be bit-identical");
    }

    #[test]
    fn reruns_reuse_sparse_output_capacity() {
        let av = vec![0.0, 1.9, 0.0, 3.0, 0.0, 2.7, 0.0, 5.5];
        let bv = vec![1.0, 2.0, 0.0, 3.7, 4.7, 1.5, 8.7, 2.0];
        let mut k = sparse_mul_kernel(&av, &bv);
        k.run().unwrap();
        let val = k.bufs.lookup("C_val").expect("val buffer exists");
        let ptr_before = k.bufs.get(val).as_f64().unwrap().as_ptr();
        assert_eq!(
            ptr_before as usize % finch_ir::buffer::LANE_ALIGN,
            0,
            "f64 lanes must start on a {}-byte boundary",
            finch_ir::buffer::LANE_ALIGN
        );
        for _ in 0..3 {
            k.run().unwrap();
            let ptr_after = k.bufs.get(val).as_f64().unwrap().as_ptr();
            assert_eq!(ptr_before, ptr_after, "rerun must reuse the val allocation");
        }
        // The assembled result stays correct across the reuse.
        let c = k.output_tensor("C").unwrap();
        let expect: Vec<f64> = av.iter().zip(&bv).map(|(x, y)| x * y).collect();
        assert_eq!(c.to_dense(), expect);
    }

    #[test]
    fn profile_counts_match_run_semantics() {
        let a = Tensor::dense_vector("A", &[1.0, 2.0, 3.0, 4.0]);
        let b = Tensor::dense_vector("B", &[0.5, 0.0, 2.0, 10.0]);
        let mut k = dot_product(&a, &b);
        let run_stats = k.run().unwrap();
        let (profile_stats, counts) = k.profile().unwrap();
        assert_eq!(run_stats, profile_stats, "profiling must not change semantics");
        assert_eq!(counts.len(), k.bytecode().code().len());
        let executed: u64 = counts.iter().sum();
        assert!(executed > 0);
        // The dense dot inner loop is fully typed: the executed
        // tag-free fraction must be overwhelming.
        let typed_executed: u64 = counts
            .iter()
            .zip(k.bytecode().code())
            .filter(|(_, i)| i.is_tag_free())
            .map(|(c, _)| *c)
            .sum();
        let fraction = typed_executed as f64 / executed as f64;
        assert!(fraction > 0.9, "dense loop should be ~fully typed, got {fraction}");
    }

    #[test]
    fn compiled_kernels_cross_thread_boundaries() {
        // The service lends one image's run states to concurrent client
        // threads; the public types must stay Send + Sync.
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Kernel>();
        assert_send_sync::<CompiledKernel>();
        assert_send_sync::<finch_ir::Program>();
        assert_send_sync::<finch_ir::BufferSet>();
    }

    #[test]
    fn an_index_named_like_a_gensym_still_gets_a_loop_name_of_its_own() {
        // An index called `x_2` used to make the next loop over `x` print
        // `x_2` too: two loops under one name in the code and the disasm.
        let a = Tensor::dense_vector("A", &[1.5, 2.5, 3.5, 4.5]);
        let mut kernel = Kernel::new();
        kernel.bind_input(&a).bind_output("y", &[4], 0.0).bind_output("z", &[4], 0.0);
        let copy = |index: &str, out: &str| {
            forall(idx(index), assign(access(out, [idx(index)]), access("A", [idx(index)])))
        };
        let mut k = kernel.compile(&multi(vec![copy("x_2", "y"), copy("x", "z")])).unwrap();
        let code = k.code().to_string();
        assert!(code.contains("for x_2 in 0..=3") && code.contains("for x_3 in 0..=3"), "{code}");
        assert_eq!(code.matches("for x_2 in").count(), 1, "{code}");
        k.run().unwrap();
        for out in ["y", "z"] {
            assert_eq!(k.output(out).unwrap(), [1.5, 2.5, 3.5, 4.5]);
        }
    }

    #[test]
    fn the_thread_shims_kept_for_the_benchmark_change_nothing() {
        // `benchmark/` still calls `sharded()` and `with_threads(2)`; the
        // day it stops, both go.  Until then: nothing shards, and asking
        // for threads leaves configuration, outputs and counters as they are.
        let av = vec![0.0, 1.9, 0.0, 3.0, 0.0, 0.0, 2.7, 0.0, 5.5, 0.0, 0.0];
        let bv = vec![0.0, 0.0, 0.0, 3.7, 4.7, 9.2, 1.5, 8.7, 0.0, 0.0, 0.0];
        let a = Tensor::sparse_list_vector("A", &av);
        let b = Tensor::sparse_list_vector("B", &bv);
        let mut serial = dot_product(&a, &b);
        let s_stats = serial.run().unwrap();
        let s_out = serial.output_scalar("C").unwrap();
        let mut wide = serial.clone().with_threads(4);
        assert!(!serial.sharded() && !wide.sharded());
        assert!(wide.shares_image(&serial));
        assert_eq!(wide.config(), serial.config());
        assert_eq!(wide.run().unwrap(), s_stats);
        assert_eq!(wide.output_scalar("C").unwrap().to_bits(), s_out.to_bits());
    }

    #[test]
    fn generated_code_renders_on_demand_and_identically_for_clones_and_rederivations() {
        let a = Tensor::sparse_list_vector("A", &[0.0, 1.0, 0.0, 2.0]);
        let b = Tensor::dense_vector("B", &[1.0; 4]);
        let mut k = dot_product(&a, &b);
        // Cloned before the text exists, read after a run, cloned after.
        let early = k.clone();
        k.run().unwrap();
        let text = k.code().to_string();
        assert_eq!(text, Printer::new(&k.image.names, &k.bufs).program(k.stmts()));
        assert_eq!(early.code(), text);
        assert_eq!(k.clone().code(), text);
        assert_eq!(k.reoptimized(k.opt_level()).code(), text);
        assert_ne!(k.reoptimized(OptLevel::None).code(), text, "the text follows the code");
    }

    #[test]
    fn generated_code_is_printable_and_mentions_buffers() {
        let a = Tensor::sparse_list_vector("A", &[0.0, 1.0, 0.0, 2.0]);
        let b = Tensor::dense_vector("B", &[1.0; 4]);
        let k = dot_product(&a, &b);
        let code = k.code();
        assert!(code.contains("A_idx"), "{code}");
        assert!(code.contains("C_val"), "{code}");
        assert!(!k.program().is_empty());
    }
}
