// Package lfi is the public API of this Lightweight Fault Isolation (LFI)
// implementation — a software-based fault isolation system for ARM64 that
// packs tens of thousands of 4GiB sandboxes into one address space with
// full isolation of loads, stores, and jumps (Yedidia, ASPLOS 2024).
//
// The pipeline mirrors the paper's three components:
//
//	asm text ──Rewrite──▶ guarded asm ──Compile──▶ ELF ──Runtime.Load──▶ sandbox
//	                                      ▲
//	                                   Verify (machine code, one linear pass)
//
// Compile wraps the assembly rewriter, assembler, and ELF writer (the
// paper's lfi-clang); Verify is the static verifier (lfi-verify); Runtime
// is the sandbox runtime (lfi-run). See the examples directory for
// complete programs.
//
// # Errors
//
// Failures are classified by sentinel values and types usable with
// errors.Is / errors.As:
//
//   - ErrVerify (errors.Is): the program failed static verification —
//     from Verify, image builds, and sandbox loads.
//   - *ErrDeadline (errors.As): a job exceeded its instruction budget
//     and was killed from the host side.
//   - ErrCanceled (errors.Is): a job's context was canceled or its
//     deadline expired; the error also matches the context's own error
//     (context.Canceled or context.DeadlineExceeded).
//   - ErrQueueFull (errors.Is): pool admission control rejected a job
//     because QueueDepth callers were already waiting for a worker; back
//     off or shed load.
//   - ErrPoolClosed (errors.Is): a job raced pool shutdown.
//
// # Observability
//
// Pools always carry a metrics registry and a ring of per-job spans;
// Pool.Metrics returns a point-in-time snapshot and Pool.Spans the
// recent per-job latency decompositions (queue wait, snapshot restore,
// run, warm-pool refill). A standalone Runtime records the same
// runtime-level counters when RuntimeConfig.Metrics is set;
// instrumentation is disabled (and near-free) otherwise.
package lfi

import (
	"context"
	"fmt"
	"io"

	"lfi/internal/arm64"
	"lfi/internal/core"
	"lfi/internal/elfobj"
	"lfi/internal/emu"
	"lfi/internal/lfirt"
	"lfi/internal/obs"
	"lfi/internal/pool"
	"lfi/internal/progs"
	"lfi/internal/rewrite"
	"lfi/internal/verifier"
	"lfi/internal/wasmfront"
)

// OptLevel selects the rewriter optimization level (§6.1).
type OptLevel int

const (
	// O0 uses only the basic two-cycle add guard.
	O0 OptLevel = OptLevel(core.O0)
	// O1 adds zero-instruction guards via the guarded addressing mode.
	O1 OptLevel = OptLevel(core.O1)
	// O2 adds redundant guard elimination (the default).
	O2 OptLevel = OptLevel(core.O2)
)

// CompileOptions configures Compile and Rewrite.
type CompileOptions struct {
	// Opt is the optimization level; the zero value is O0, so most
	// callers want O2.
	Opt OptLevel
	// NoLoads disables load sandboxing ("fault isolation" of stores and
	// jumps only, ~1% overhead).
	NoLoads bool
	// DisableSPOpts turns off the §4.2 stack-pointer guard elisions
	// (ablation use only).
	DisableSPOpts bool
}

func (o CompileOptions) internal() core.Options {
	return core.Options{Opt: core.OptLevel(o.Opt), NoLoads: o.NoLoads, DisableSPOpts: o.DisableSPOpts}
}

// RewriteStats reports what the rewriter did.
type RewriteStats = rewrite.Stats

// Rewrite inserts LFI guards into GNU-syntax ARM64 assembly and returns
// the transformed assembly text (the paper's assembly-to-assembly tool,
// §5.1). Input may come from any compiler that emits GNU assembly.
func Rewrite(asmSource string, opts CompileOptions) (string, RewriteStats, error) {
	f, err := arm64.ParseFile(asmSource)
	if err != nil {
		return "", RewriteStats{}, err
	}
	nf, stats, err := rewrite.Rewrite(f, opts.internal())
	if err != nil {
		return "", stats, err
	}
	return nf.String(), stats, nil
}

// CompileResult is a built sandbox executable: the ELF image accepted by
// Runtime.Load, TextSize and FileSize for code-size comparisons (§6.3),
// and the rewriter's Stats. It carries no assembly text; Rewrite returns
// the guarded assembly for callers who want to read it.
type CompileResult = progs.BuildResult

// Compile rewrites, assembles, and packages assembly source into a
// sandbox ELF executable.
func Compile(asmSource string, opts CompileOptions) (*CompileResult, error) {
	return progs.Build(asmSource, opts.internal())
}

// CompileWasm translates a WebAssembly module (MVP integer subset)
// through the wasmfront pipeline — validate → decode → translate to
// guarded assembly → rewrite → assemble — into a sandbox ELF executable.
// The module's linear memory, funcref table, and traps are lowered to
// the same guarded-access discipline Compile enforces on hand-written
// assembly.
func CompileWasm(wasm []byte, opts CompileOptions) (*CompileResult, error) {
	asm, _, err := wasmfront.Translate(wasm)
	if err != nil {
		return nil, err
	}
	return Compile(asm, opts)
}

// CompileNative assembles source without guards. The result does not pass
// verification; it exists for baseline measurements.
func CompileNative(asmSource string) (*CompileResult, error) {
	return progs.BuildNative(asmSource)
}

// VerifyStats summarizes a successful verification.
type VerifyStats = verifier.Stats

// Verify checks an ELF executable's text segment against the LFI
// invariants (§5.2). A nil error means the program cannot escape its
// sandbox.
func Verify(elfBytes []byte) (VerifyStats, error) {
	exe, err := elfobj.Unmarshal(elfBytes)
	if err != nil {
		return VerifyStats{}, err
	}
	text, err := exe.TextSegment()
	if err != nil {
		return VerifyStats{}, err
	}
	cfg := verifier.DefaultConfig()
	cfg.TextOff = text.Vaddr
	stats, err := verifier.Verify(text.Data, cfg)
	if err != nil {
		return stats, fmt.Errorf("lfi: %w: %w", ErrVerify, err)
	}
	return stats, nil
}

// Machine selects a timing model for measured runs.
type Machine int

const (
	// MachineNone disables timing (fastest execution).
	MachineNone Machine = iota
	// MachineM1 models an Apple M1 class core at 3.2 GHz.
	MachineM1
	// MachineT2A models a GCP Tau T2A (Neoverse N1 class) core at 3 GHz.
	MachineT2A
)

func (m Machine) model() *emu.CoreModel {
	switch m {
	case MachineM1:
		return emu.ModelM1()
	case MachineT2A:
		return emu.ModelT2A()
	}
	return nil
}

// RuntimeConfig configures a Runtime.
type RuntimeConfig struct {
	// MaxSandboxes bounds concurrent sandboxes (0 = 64; the architecture
	// supports up to 65534 application slots).
	MaxSandboxes int
	// Timeslice is the preemption budget in instructions (0 = 200k).
	Timeslice uint64
	// Machine enables the cycle-accurate timing model.
	Machine Machine
	// DisableVerification loads binaries without verifying them
	// (baseline measurements only — never for untrusted code).
	DisableVerification bool
	// NoLoads verifies under the weaker store/jump-only policy matching
	// CompileOptions.NoLoads.
	NoLoads bool
	// StackSize per sandbox in bytes (0 = 8MiB).
	StackSize uint64
	// SpectreMitigations charges the §7.1 SCXTNUM_EL0 software-context
	// switch cost on every isolation-domain change.
	SpectreMitigations bool
	// Metrics enables the observability registry on this runtime: the
	// rt.* scheduler and IPC counters and the per-slice instruction
	// histogram, read with Runtime.Metrics. Off by default:
	// instrumentation then costs one nil check per recording site.
	Metrics bool
}

// Runtime hosts sandboxes in a single simulated address space and
// provides them a small Unix-like system interface (§5.3).
type Runtime struct {
	rt *lfirt.Runtime
	o  *obs.Obs // nil unless RuntimeConfig.Metrics
}

// Process is one sandboxed process.
type Process = lfirt.Proc

// NewRuntime creates a runtime.
func NewRuntime(cfg RuntimeConfig) *Runtime {
	ic := lfirt.DefaultConfig()
	ic.MaxSlots = cfg.MaxSandboxes
	ic.Timeslice = cfg.Timeslice
	ic.Model = cfg.Machine.model()
	ic.Verify = !cfg.DisableVerification
	ic.VerifierCfg.NoLoads = cfg.NoLoads
	ic.StackSize = cfg.StackSize
	ic.SpectreMitigations = cfg.SpectreMitigations
	var o *obs.Obs
	if cfg.Metrics {
		o = &obs.Obs{Reg: obs.NewRegistry()} // a runtime records no spans
		ic.Obs = o
	}
	return &Runtime{rt: lfirt.New(ic), o: o}
}

// Load verifies and loads an ELF executable into a fresh sandbox.
func (r *Runtime) Load(elfBytes []byte) (*Process, error) {
	return r.rt.Load(elfBytes)
}

// Run schedules all loaded sandboxes until they exit.
func (r *Runtime) Run() error { return r.rt.Run() }

// RunProcess runs until the given process exits and returns its status.
func (r *Runtime) RunProcess(p *Process) (int, error) { return r.rt.RunProc(p) }

// Stdout returns everything the sandboxes wrote to fd 1.
func (r *Runtime) Stdout() []byte { return r.rt.Stdout() }

// Stderr returns everything the sandboxes wrote to fd 2.
func (r *Runtime) Stderr() []byte { return r.rt.Stderr() }

// WriteFile installs a file in the runtime's filesystem for sandboxes to
// open.
func (r *Runtime) WriteFile(path string, data []byte) { r.rt.FS().WriteFile(path, data) }

// ReadFile fetches a file that sandboxes wrote.
func (r *Runtime) ReadFile(path string) ([]byte, bool) { return r.rt.FS().ReadFile(path) }

// Cycles returns the elapsed virtual cycles (0 without a Machine).
func (r *Runtime) Cycles() float64 {
	if r.rt.Tim == nil {
		return 0
	}
	return r.rt.Tim.Cycles()
}

// Nanoseconds converts Cycles to wall time on the machine model.
func (r *Runtime) Nanoseconds() float64 {
	if r.rt.Tim == nil {
		return 0
	}
	return r.rt.Tim.Nanoseconds()
}

// Instructions returns the retired instruction count.
func (r *Runtime) Instructions() uint64 { return r.rt.CPU.Instrs }

// RuntimeStats are cumulative runtime counters: scheduler activity
// (host calls, preemptions, context switches, fatal traps), retired
// instructions, and the emulator's cache/dispatch statistics.
type RuntimeStats = lfirt.RuntimeStats

// EmuStats are the emulator's cache and dispatch counters (part of
// RuntimeStats).
type EmuStats = emu.Stats

// Stats returns cumulative runtime counters. These are always
// maintained; RuntimeConfig.Metrics is not required.
func (r *Runtime) Stats() RuntimeStats { return r.rt.Stats() }

// Metrics returns a snapshot of the runtime's metrics registry, or an
// empty snapshot unless RuntimeConfig.Metrics was set.
func (r *Runtime) Metrics() *MetricsSnapshot { return r.o.Registry().Snapshot() }

// RuntimeCall identifies an entry in the runtime-call table.
type RuntimeCall = core.RuntimeCall

// Runtime call numbers, in call-table order.
const (
	CallExit   = core.RTExit
	CallWrite  = core.RTWrite
	CallRead   = core.RTRead
	CallOpen   = core.RTOpen
	CallClose  = core.RTClose
	CallBrk    = core.RTBrk
	CallMmap   = core.RTMmap
	CallMunmap = core.RTMunmap
	CallFork   = core.RTFork
	CallWait   = core.RTWait
	CallYield  = core.RTYield
	CallGetPID = core.RTGetPID
	CallPipe   = core.RTPipe
	CallKill   = core.RTKill
	CallUsleep = core.RTUsleep

	// Cross-sandbox IPC calls (§5.3): sockets and shared-memory ring
	// channels between sandboxes of one runtime.
	CallSocket  = core.RTSocket
	CallBind    = core.RTBind
	CallConnect = core.RTConnect
	CallAccept  = core.RTAccept
	CallSend    = core.RTSend
	CallRecv    = core.RTRecv

	// CallVSubmit is the vectored runtime call: a batch of I/O and IPC
	// operations described in an in-sandbox submission ring, executed in
	// one trap with per-op status words written back.
	CallVSubmit = core.RTVSubmit
)

// CallSequence returns the two-instruction assembly sequence that invokes
// a runtime call (§4.4): a load from the call table followed by blr x30.
func CallSequence(rc RuntimeCall) string {
	return fmt.Sprintf("\tldr x30, [x21, #%d]\n\tblr x30\n", rc.TableOffset())
}

// PoolConfig configures a sandbox serving pool (NewPool).
type PoolConfig struct {
	// Workers is the number of concurrent runtimes serving jobs (0 = 4).
	// Each job runs on its caller's goroutine, on a runtime leased for
	// the job's duration.
	Workers int
	// QueueDepth bounds the callers waiting for a free runtime; beyond it
	// Execute rejects with ErrQueueFull (0 = 4×Workers).
	QueueDepth int
	// Budget is the default per-job instruction budget; jobs exceeding it
	// are killed with *ErrDeadline (0 = 50M instructions).
	Budget uint64
	// WarmPerImage is how many pre-restored sandboxes each worker keeps
	// per image (0 = 1).
	WarmPerImage int
	// MaxWarm caps total parked sandboxes per worker; beyond it the
	// least-recently-served image's clones are evicted (0 = 8).
	MaxWarm int
	// StackSize per sandbox (0 = 1MiB; serving workloads rarely need the
	// 8MiB interactive default).
	StackSize uint64
	// Machine enables the cycle-accurate timing model on the workers.
	Machine Machine
	// DisableVerification skips verification of image builds and cold
	// loads (baseline measurements only — never for untrusted code).
	DisableVerification bool
	// NoLoads verifies under the weaker store/jump-only policy.
	NoLoads bool
}

// Image is a program prepared for serving: compiled, verified, loaded,
// and snapshotted once; restored per request.
type Image = pool.Image

// Job is one execution request against a pool.
type Job = pool.Job

// JobResult is the outcome of one pool job, including the job's own
// captured stdout/stderr.
type JobResult = pool.Result

// JobStage is one pipeline stage's outcome within a JobResult.
type JobStage = pool.StageResult

// PoolStats are cumulative pool counters, including per-worker
// breakdowns sourced from the metrics registry.
type PoolStats = pool.Stats

// WorkerStats is one worker's share of PoolStats.
type WorkerStats = pool.WorkerStats

// MetricsSnapshot is a point-in-time export of a metrics registry:
// counters, gauges, and histograms keyed by name. It marshals directly
// to JSON (the /metrics wire format of lfi-serve).
type MetricsSnapshot = obs.Snapshot

// TraceSpan is one job's latency decomposition: queue wait, snapshot
// restore, run, and total, plus warm/cold provenance.
type TraceSpan = obs.Span

// ErrDeadline reports a job killed for exceeding its instruction budget
// (errors.As target for JobResult.Err).
type ErrDeadline = lfirt.ErrDeadline

// Error taxonomy (see the package comment).
var (
	// ErrVerify marks static-verification failures (errors.Is target).
	ErrVerify = lfirt.ErrVerify
	// ErrCanceled marks jobs stopped by their context, whether while
	// waiting for a runtime or mid-run; the wrapped chain also matches
	// the context's own error.
	ErrCanceled = pool.ErrCanceled
	// ErrQueueFull rejects a job because the bounded wait queue is full;
	// back off or shed load.
	ErrQueueFull = pool.ErrQueueFull
	// ErrPoolClosed rejects a job to a closed pool.
	ErrPoolClosed = pool.ErrClosed
)

// Pool serves sandbox executions across a fleet of worker runtimes: an
// image cache deduplicates program builds, each worker keeps warm
// pre-restored sandboxes (snapshot restore instead of a full ELF load
// per request), and a bounded wait queue provides admission control.
type Pool struct {
	p *pool.Pool
}

// NewPool creates a serving pool and its worker runtimes. Close it when
// done.
func NewPool(cfg PoolConfig) *Pool {
	return &Pool{p: pool.New(pool.Config{
		Workers:             cfg.Workers,
		QueueDepth:          cfg.QueueDepth,
		Budget:              cfg.Budget,
		WarmPerImage:        cfg.WarmPerImage,
		MaxWarm:             cfg.MaxWarm,
		StackSize:           cfg.StackSize,
		Machine:             cfg.Machine.model(),
		DisableVerification: cfg.DisableVerification,
		NoLoads:             cfg.NoLoads,
	})}
}

// BuildImage compiles assembly through the full LFI pipeline (rewrite →
// assemble → verify → load → snapshot) and caches the result; repeated
// builds of the same source return the cached image.
func (p *Pool) BuildImage(asmSource string, opts CompileOptions) (*Image, error) {
	return p.p.BuildImage(asmSource, opts.internal())
}

// ImageFromELF prepares an already-compiled executable for serving,
// verifying it first.
func (p *Pool) ImageFromELF(elfBytes []byte) (*Image, error) {
	return p.p.ImageFromELF(elfBytes)
}

// BuildWasmImage translates a WebAssembly module through the cached
// wasmfront pipeline; repeated builds of the same module bytes return
// the cached image.
func (p *Pool) BuildWasmImage(wasm []byte, opts CompileOptions) (*Image, error) {
	return p.p.BuildWasmImage(wasm, opts.internal())
}

// Execute runs a job on the calling goroutine and returns its result.
func (p *Pool) Execute(j Job) (*JobResult, error) { return p.p.Do(j) }

// ExecuteCtx runs a job bound to ctx. If ctx is done while the job waits
// for a runtime it never runs; if it fires mid-run the sandbox is killed
// promptly. Either way the returned error matches both ErrCanceled and
// ctx.Err().
func (p *Pool) ExecuteCtx(ctx context.Context, j Job) (*JobResult, error) {
	return p.p.DoCtx(ctx, j)
}

// Stats returns cumulative serving counters.
func (p *Pool) Stats() PoolStats { return p.p.Stats() }

// Metrics returns a snapshot of the pool's metrics registry: job,
// warm-pool, and image-cache counters, queue/parked gauges, latency
// histograms, and the worker runtimes' counters.
func (p *Pool) Metrics() *MetricsSnapshot { return p.p.Metrics() }

// Spans returns the most recent completed job spans, oldest first.
func (p *Pool) Spans() []TraceSpan { return p.p.Spans() }

// Close fails waiting jobs with ErrPoolClosed and waits for running
// ones to finish.
func (p *Pool) Close() { p.p.Close() }

// TraceInstructions streams every executed instruction (up to limit) to w
// as "pc: disassembly" lines — the lfi-run -trace debugging aid.
func (r *Runtime) TraceInstructions(w io.Writer, limit uint64) {
	var n uint64
	r.rt.CPU.Trace = func(pc uint64, inst *arm64.Inst) {
		if n >= limit {
			r.rt.CPU.Trace = nil
			return
		}
		n++
		fmt.Fprintf(w, "%12x:\t%s\n", pc, inst.String())
	}
}

// EnableProfile turns on per-instruction cycle attribution; it requires a
// Machine timing model.
func (r *Runtime) EnableProfile() error {
	if r.rt.Tim == nil {
		return fmt.Errorf("lfi: profiling requires a timing model (set RuntimeConfig.Machine)")
	}
	r.rt.Tim.EnableProfile()
	return nil
}

// Profile returns the n most expensive instructions as formatted
// "pc cycles disassembly" lines, hottest first.
func (r *Runtime) Profile(n int) []string {
	if r.rt.Tim == nil {
		return nil
	}
	var out []string
	for _, pcCost := range r.rt.Tim.TopPCs(n) {
		dis := "<unmapped>"
		if w, f := r.rt.AS.Fetch32(pcCost.PC); f == nil {
			if inst, err := arm64.Decode(w); err == nil {
				dis = inst.String()
			}
		}
		out = append(out, fmt.Sprintf("%12x %12.0f  %s", pcCost.PC, pcCost.Cycles, dis))
	}
	return out
}
