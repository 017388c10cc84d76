// Package lfirt is the LFI runtime (§5.3): a single "process" that loads
// verified ELF executables into 4GiB sandbox slots of one shared address
// space, provides mediated runtime calls (a small Unix: files, pipes,
// fork, wait), schedules sandboxes preemptively, and implements the fast
// direct yield used for microkernel-style IPC.
package lfirt

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"

	"debug/elf"

	"lfi/internal/core"
	"lfi/internal/elfobj"
	"lfi/internal/emu"
	"lfi/internal/mem"
	"lfi/internal/obs"
	"lfi/internal/verifier"
)

// ErrVerify marks load-time verification failures: errors.Is(err,
// ErrVerify) holds for any binary the verifier rejected. The verifier's
// own diagnosis stays wrapped inside.
var ErrVerify = errors.New("rejected by verifier")

// Config parameterizes a runtime instance.
type Config struct {
	// PageSize of the underlying address space (0 = 16KiB).
	PageSize uint64
	// MaxSlots bounds how many sandbox slots may be used (0 = a small
	// default suitable for tests; core.MaxSandboxes is the architectural
	// limit).
	MaxSlots int
	// Timeslice is the preemption budget in instructions (0 = 200k).
	// It models the setitimer alarm of §5.3.
	Timeslice uint64
	// Verify controls load-time verification. Disabling it reproduces the
	// paper's "native in the LFI environment" baseline configuration.
	Verify bool
	// Verifier configuration (TextOff is filled per binary).
	VerifierCfg verifier.Config
	// Model selects the timing model; nil disables timing.
	Model *emu.CoreModel
	// StackSize per sandbox (0 = 8MiB).
	StackSize uint64
	// SpectreMitigations models the §7.1 cross-sandbox/host poisoning
	// defense: the runtime writes SCXTNUM_EL0 on every isolation-domain
	// change so branch-predictor state is not shared, at a per-switch
	// cost charged to the timing model.
	SpectreMitigations bool
	// LocalOutput captures console output only in each process's own
	// buffers, not in the runtime-wide Stdout/Stderr. Serving pools set
	// it so long-lived runtimes don't accumulate every request's output.
	LocalOutput bool
	// Obs enables observability: scheduler counters, per-slice
	// instruction histograms, and trace events flow into it. Nil (the
	// default) disables recording; the plain Runtime counters still work.
	Obs *obs.Obs
	// ObsTag is the worker id stamped on trace events (serving pools set
	// it so events are attributable to a worker).
	ObsTag int
}

// DefaultConfig returns a runtime configuration with verification on.
func DefaultConfig() Config {
	return Config{Verify: true, VerifierCfg: verifier.DefaultConfig()}
}

// Host-call dispatch: call-table entries point into the reserved runtime
// slot (the last 4GiB slot of the 48-bit space; §3 footnote 2). Entry i
// lives at hostCallStride*i past the base. The stride is part of the
// shared layout model so the fuzz watchdog and the soundness prover see
// the same call-table shape.
const hostCallStride = core.HostCallStride

// ProcState is a process's scheduler state.
type ProcState uint8

const (
	ProcReady ProcState = iota
	ProcRunning
	ProcBlocked
	ProcZombie
)

func (s ProcState) String() string {
	return [...]string{"ready", "running", "blocked", "zombie"}[s]
}

// blockKind says what a ProcBlocked process is waiting for, so
// wakeBlocked knows which operation to retry and snapshot/restore can
// give a restored process defined resume semantics.
type blockKind uint8

const (
	blockNone    blockKind = iota
	blockRead              // RTRead on an empty pipe with live writers
	blockRecv              // RTRecv on an empty channel with a live peer
	blockAccept            // RTAccept with no pending connection
	blockChild             // RTWait for a child to exit
	blockVSubmit           // RTVSubmit parked mid-batch on a blocking op
)

// Regs is the saved architectural state of a descheduled process.
type Regs struct {
	X     [31]uint64
	SP    uint64
	PC    uint64
	V     [32][2]uint64
	N, Z  bool
	C, Vf bool
}

// Proc is one sandboxed process.
type Proc struct {
	PID    int
	Slot   int
	Base   uint64
	State  ProcState
	Regs   Regs
	Exit   int
	parent *Proc

	fds  *fdTable
	brk  uint64 // current heap end (sandbox-relative)
	mmap uint64 // next mmap address (sandbox-relative)

	// Blocking state.
	block      blockKind // what a ProcBlocked process waits for
	waitingFD  int       // fd the proc blocks on (blockRead/Recv/Accept)
	waitStatus uint64    // status pointer of a blocked wait()

	children []*Proc // in PID order, so wait() reaps the lowest-PID zombie

	// Segments recorded for fork.
	segHi uint64 // highest mapped sandbox-relative offset (exclusive)

	// Per-process console capture (fd 1 and 2). Forked children share
	// the parent's descriptions, so their output lands in the parent's
	// buffers — the same aliasing as inherited Unix descriptors.
	stdout, stderr bytes.Buffer

	// parked marks a restored process that is not yet scheduled; see
	// Runtime.Restore and Runtime.Start.
	parked bool
}

// Stdout returns everything written to this process's fd 1.
func (p *Proc) Stdout() []byte { return p.stdout.Bytes() }

// Stderr returns everything written to this process's fd 2.
func (p *Proc) Stderr() []byte { return p.stderr.Bytes() }

// Runtime is the host process managing all sandboxes.
type Runtime struct {
	cfg Config

	AS  *mem.AddrSpace
	CPU *emu.CPU
	Tim *emu.Timing

	hostBase uint64

	// procs is the process table in PID order (nextPID only rises, so
	// appending keeps it sorted). Every scheduler scan walks it front to
	// back, which makes wake order a function of the PIDs alone.
	procs   []*Proc
	nextPID int
	slots   map[int]bool // allocated slots
	maxSlot int

	ready        []*Proc
	cur          *Proc
	switchTarget *Proc // direct-yield destination

	// handoff is the direct hand-back slot: a ProcReady process parked
	// outside the ready queue because it just handed control to a peer
	// (sender → receiver). When the peer blocks, control switches straight
	// back at yield cost instead of taking a scheduler pass. Invariant:
	// the occupant is ProcReady and not in rt.ready; reclaimHandoff
	// requeues it whenever the scheduler proper takes over.
	handoff *Proc

	// wakeHint coalesces readiness wakeups: wakeBlocked scans the process
	// table only after some state change could have unblocked a process
	// (a deposit, a close, a connect, a kill). N completions between
	// dispatches cost one scheduler pass instead of N.
	wakeHint bool

	// deadline is the absolute CPU.Instrs value at which the current
	// RunProcDeadline budget expires (0 = none). The dispatcher clamps
	// every emulator run — including re-entries after inline host calls —
	// to it, so a sandbox spinning on runtime calls cannot outrun its
	// budget.
	deadline uint64

	fs     *FS
	ipc    *ipcState
	stdout bytes.Buffer
	stderr bytes.Buffer

	// iobuf stages the bytes of one write or read between guest memory
	// and a descriptor; see scratch.
	iobuf []byte

	// Statistics.
	Switches  uint64 // context switches
	HostCalls uint64
	Preempts  uint64
	Traps     uint64 // fatal sandbox traps (mem fault, brk, svc/undefined)
	WakeScans uint64 // wakeBlocked passes over the process table

	// Observability handles, created once at New from cfg.Obs. All of
	// them are nil-safe no-ops when observability is disabled, so the
	// scheduler records unconditionally.
	tracer       *obs.Tracer
	mHostCalls   *obs.Counter
	mPreempts    *obs.Counter
	mSwitches    *obs.Counter
	mTraps       *obs.Counter
	mVerifies    *obs.Counter
	mSliceInstrs *obs.Histogram

	// Host-side cycle costs charged to the timing model, calibrated so
	// that the Table 5 microbenchmarks land in the right regime.
	CostHostCall float64 // trap + dispatch + resume (no mode switch)
	CostYield    float64 // direct yield (callee-saved swap only)
	CostSwitch   float64 // scheduler-driven context switch
	// CostSCXTNUM is the cost of one software-context-number change
	// (two system register writes around each domain crossing, §7.1).
	CostSCXTNUM float64
	// CostVOp is the per-operation cost inside a vectored submission:
	// a table dispatch plus ring access, with no trap of its own.
	CostVOp float64
}

// New creates a runtime with an empty address space.
func New(cfg Config) *Runtime {
	if cfg.PageSize == 0 {
		cfg.PageSize = core.DefaultPageSize
	}
	if cfg.Timeslice == 0 {
		cfg.Timeslice = 200_000
	}
	if cfg.MaxSlots == 0 {
		cfg.MaxSlots = 64
	}
	if cfg.StackSize == 0 {
		cfg.StackSize = 8 << 20
	}
	as := mem.NewAddrSpace(cfg.PageSize)
	cpu := emu.New(as)
	rt := &Runtime{
		cfg:          cfg,
		AS:           as,
		CPU:          cpu,
		hostBase:     core.SlotBase(core.MaxSandboxes - 1),
		nextPID:      1,
		slots:        make(map[int]bool),
		maxSlot:      cfg.MaxSlots,
		fs:           NewFS(),
		CostHostCall: 55,
		CostYield:    46,
		CostSwitch:   60,
		CostSCXTNUM:  25,
		CostVOp:      6,
		wakeHint:     true,
	}
	if cfg.Model != nil {
		rt.Tim = emu.NewTiming(cfg.Model)
		cpu.Timing = rt.Tim
	}
	reg := cfg.Obs.Registry()
	rt.ipc = newIPCState(reg, cfg.ObsTag)
	rt.tracer = cfg.Obs.Trace()
	rt.mHostCalls = reg.Counter("rt.host_calls")
	rt.mPreempts = reg.Counter("rt.preempts")
	rt.mSwitches = reg.Counter("rt.switches")
	rt.mTraps = reg.Counter("rt.traps")
	rt.mVerifies = reg.Counter("rt.verifies")
	rt.mSliceInstrs = reg.Histogram("rt.slice_instrs", obs.InstrBounds())
	cpu.SetHostCallRegion(rt.hostBase, core.HostCallRegionSize)
	return rt
}

// RuntimeStats are a runtime's cumulative scheduler and emulator
// counters, structured so new fields can be added without breaking
// callers (the API-stable replacement for the old three-value tuple).
type RuntimeStats struct {
	HostCalls uint64    `json:"host_calls"` // mediated runtime calls
	Preempts  uint64    `json:"preempts"`   // timeslice preemptions
	Switches  uint64    `json:"switches"`   // context switches
	Traps     uint64    `json:"traps"`      // fatal sandbox traps
	WakeScans uint64    `json:"wake_scans"` // coalesced wakeup passes
	Instrs    uint64    `json:"instrs"`     // retired instructions
	Emu       emu.Stats `json:"emu"`        // emulator cache/dispatch counters
}

// Stats returns the runtime's counters. Call it between runs — the
// emulator counters are owned by the executing goroutine.
func (rt *Runtime) Stats() RuntimeStats {
	return RuntimeStats{
		HostCalls: rt.HostCalls,
		Preempts:  rt.Preempts,
		Switches:  rt.Switches,
		Traps:     rt.Traps,
		WakeScans: rt.WakeScans,
		Instrs:    rt.CPU.Instrs,
		Emu:       rt.CPU.Stat,
	}
}

// FS exposes the in-memory filesystem for host-side setup.
func (rt *Runtime) FS() *FS { return rt.fs }

// Stdout returns everything sandboxes wrote to fd 1.
func (rt *Runtime) Stdout() []byte { return rt.stdout.Bytes() }

// Stderr returns everything sandboxes wrote to fd 2.
func (rt *Runtime) Stderr() []byte { return rt.stderr.Bytes() }

// console builds the writer behind a process's fd 1 or 2: the per-process
// buffer, teed into the runtime-wide one unless LocalOutput is set.
func (rt *Runtime) console(per, global *bytes.Buffer) io.Writer {
	if rt.cfg.LocalOutput {
		return per
	}
	return io.MultiWriter(per, global)
}

// Procs returns the live process table in PID order (for inspection).
func (rt *Runtime) Procs() []*Proc { return rt.procs }

// proc returns the live process with the given PID, or nil.
func (rt *Runtime) proc(pid int) *Proc {
	i, ok := slices.BinarySearchFunc(rt.procs, pid, func(p *Proc, pid int) int { return p.PID - pid })
	if !ok {
		return nil
	}
	return rt.procs[i]
}

// removeProc drops p from the process table. The table is rebuilt, not
// shifted in place, so a scan walking the old one still sees every entry
// once; the dead entry it sees is a zombie, which every scan skips.
func (rt *Runtime) removeProc(p *Proc) {
	if i := slices.Index(rt.procs, p); i >= 0 {
		rt.procs = append(rt.procs[:i:i], rt.procs[i+1:]...)
	}
}

// allocSlot reserves a free sandbox slot. Slot 0 stays unmapped (null
// pages must not alias a sandbox) and the final slot belongs to the
// runtime.
func (rt *Runtime) allocSlot() (int, error) {
	for i := 1; i <= rt.maxSlot && i < core.MaxSandboxes-1; i++ {
		if !rt.slots[i] {
			rt.slots[i] = true
			return i, nil
		}
	}
	return 0, fmt.Errorf("lfirt: out of sandbox slots (max %d)", rt.maxSlot)
}

func (rt *Runtime) freeSlot(i int) { delete(rt.slots, i) }

func (rt *Runtime) pageUp(v uint64) uint64 {
	return (v + rt.cfg.PageSize - 1) &^ (rt.cfg.PageSize - 1)
}

func (rt *Runtime) pageDown(v uint64) uint64 {
	return v &^ (rt.cfg.PageSize - 1)
}

// Load verifies and loads an ELF executable into a fresh sandbox,
// returning the new (ready) process.
func (rt *Runtime) Load(elfBytes []byte) (*Proc, error) {
	exe, err := elfobj.Unmarshal(elfBytes)
	if err != nil {
		return nil, err
	}
	return rt.LoadExecutable(exe)
}

// LoadExecutable loads an already-parsed executable.
func (rt *Runtime) LoadExecutable(exe *elfobj.Executable) (*Proc, error) {
	text, err := exe.TextSegment()
	if err != nil {
		return nil, err
	}
	if rt.cfg.Verify {
		cfg := rt.cfg.VerifierCfg
		cfg.TextOff = text.Vaddr
		rt.mVerifies.Inc()
		rt.tracer.Record(obs.Event{Kind: obs.EvVerify, Worker: rt.cfg.ObsTag, Arg: uint64(len(text.Data))})
		if _, err := verifier.Verify(text.Data, cfg); err != nil {
			return nil, fmt.Errorf("lfirt: %w: %w", ErrVerify, err)
		}
	}

	slot, err := rt.allocSlot()
	if err != nil {
		return nil, err
	}
	base := core.SlotBase(slot)

	// Call-table page: read-only, entries point at the host-call region.
	if err := rt.AS.Map(base, core.CallTableSize, mem.PermRead); err != nil {
		rt.freeSlot(slot)
		return nil, err
	}
	var entry [8]byte
	for rc := core.RuntimeCall(0); rc < core.NumRuntimeCalls; rc++ {
		binary.LittleEndian.PutUint64(entry[:], rt.hostBase+uint64(rc)*hostCallStride)
		if f := rt.AS.WriteForce(entry[:], base+uint64(rc.TableOffset())); f != nil {
			return nil, fmt.Errorf("lfirt: writing call table: %v", f)
		}
	}
	// Context words used by the Wasm-baseline instrumentation (no secrets:
	// the sandbox base and a type tag; see internal/wasmbase).
	binary.LittleEndian.PutUint64(entry[:], base)
	rt.AS.WriteForce(entry[:], base+core.CtxHeapBaseOff)
	binary.LittleEndian.PutUint64(entry[:], core.CtxTypeTag)
	rt.AS.WriteForce(entry[:], base+core.CtxTypeTagOff)

	segHi := uint64(0)
	for _, s := range exe.Segments {
		if s.Vaddr < core.MinCodeOffset {
			return nil, fmt.Errorf("lfirt: segment at %#x below the code region", s.Vaddr)
		}
		if s.Vaddr+s.MemSize > core.SandboxSize-core.GuardSize {
			return nil, fmt.Errorf("lfirt: segment at %#x overflows the sandbox", s.Vaddr)
		}
		perm := mem.PermRead
		if s.Flags&elf.PF_W != 0 {
			perm |= mem.PermWrite
		}
		if s.Flags&elf.PF_X != 0 {
			perm = mem.PermRX // W^X: never writable and executable
		}
		start := rt.pageDown(base + s.Vaddr)
		end := rt.pageUp(base + s.Vaddr + s.MemSize)
		if err := rt.AS.Map(start, end-start, perm); err != nil {
			return nil, fmt.Errorf("lfirt: mapping segment: %w", err)
		}
		if f := rt.AS.WriteForce(s.Data, base+s.Vaddr); f != nil {
			return nil, fmt.Errorf("lfirt: writing segment: %v", f)
		}
		if s.Vaddr+s.MemSize > segHi {
			segHi = s.Vaddr + s.MemSize
		}
	}

	// Stack: below the trailing guard region.
	stackTop := base + core.StackTopOff
	if err := rt.AS.MapZero(stackTop-rt.cfg.StackSize, rt.cfg.StackSize, mem.PermRW); err != nil {
		return nil, fmt.Errorf("lfirt: mapping stack: %w", err)
	}

	p := &Proc{
		PID:   rt.nextPID,
		Slot:  slot,
		Base:  base,
		State: ProcReady,
		brk:   rt.pageUp(segHi),
		mmap:  core.SandboxSize / 2, // mmap arena in the upper half
		segHi: rt.pageUp(segHi),
	}
	p.fds = newFDTable(rt.console(&p.stdout, &rt.stdout), rt.console(&p.stderr, &rt.stderr))
	rt.nextPID++

	p.Regs.PC = base + exe.Entry
	p.Regs.SP = stackTop
	p.Regs.X[21] = base
	// The always-valid registers start at the entry point.
	p.Regs.X[18] = base + exe.Entry
	p.Regs.X[23] = base + exe.Entry
	p.Regs.X[24] = base + exe.Entry
	p.Regs.X[30] = base + exe.Entry

	rt.procs = append(rt.procs, p)
	rt.ready = append(rt.ready, p)
	return p, nil
}

// saveRegs/loadRegs swap a process's state with the CPU.
func (rt *Runtime) saveRegs(p *Proc) {
	c := rt.CPU
	copy(p.Regs.X[:], c.X[:])
	p.Regs.SP = c.SP
	p.Regs.PC = c.PC
	p.Regs.V = c.V
	p.Regs.N, p.Regs.Z, p.Regs.C, p.Regs.Vf = c.FlagN, c.FlagZ, c.FlagC, c.FlagV
}

func (rt *Runtime) loadRegs(p *Proc) {
	c := rt.CPU
	copy(c.X[:], p.Regs.X[:])
	c.SP = p.Regs.SP
	c.PC = p.Regs.PC
	c.V = p.Regs.V
	c.FlagN, c.FlagZ, c.FlagC, c.FlagV = p.Regs.N, p.Regs.Z, p.Regs.C, p.Regs.Vf
}

// KillProcess forcibly terminates p from the host side with the given
// exit status, releasing its slot and memory. It must not be called while
// p is actively executing (i.e. from inside a dispatch); between
// scheduler dispatches — the position of RunProcDeadline's budget check —
// is always safe. Killing an already-dead process is a no-op, so a hung
// sandbox can be reclaimed without tearing down the runtime.
func (rt *Runtime) KillProcess(p *Proc, status int) { rt.kill(p, status) }

// Kill terminates a process with the given exit status.
func (rt *Runtime) kill(p *Proc, status int) {
	if p.State == ProcZombie {
		return
	}
	p.State = ProcZombie
	p.Exit = status
	p.fds.closeAll()
	// Closing descriptors can deliver EOF/EPIPE to blocked peers.
	rt.markWake()
	// Unmap the sandbox except when a parent may still wait on us — the
	// memory can go either way; release it eagerly.
	rt.releaseSlot(p.Slot)
	// Wake a parent blocked in wait().
	if p.parent != nil && p.parent.State == ProcBlocked && p.parent.block == blockChild {
		rt.completeWait(p.parent)
	}
	// Reparent children to nobody; zombies among them are reaped now.
	for _, c := range p.children {
		c.parent = nil
		if c.State == ProcZombie {
			rt.removeProc(c)
		}
	}
	if p.parent == nil {
		rt.removeProc(p)
	}
}

// releaseSlot unmaps whatever the slot holds and frees its number. Unmap
// visits the slot's own pages only, so a serving loop that kills a sandbox
// per request pays for that sandbox, not for the clones parked beside it.
func (rt *Runtime) releaseSlot(slot int) {
	_ = rt.AS.Unmap(core.SlotBase(slot), core.SandboxSize)
	rt.freeSlot(slot)
}

// ExitStatus returns a finished process's status.
func (p *Proc) ExitStatus() int { return p.Exit }

// ConnectPipe wires producer's stdout (fd 1) to consumer's stdin (fd 0)
// through a fresh pipe, replacing whatever descriptions were there.
// Both processes must be quiescent (not currently executing) — the
// serving pool calls it while assembling a pipeline, before Start.
func (rt *Runtime) ConnectPipe(producer, consumer *Proc) {
	pp := &pipe{readers: 1, writers: 1}
	producer.fds.replace(1, &FD{kind: fdPipeWrite, pipe: pp})
	consumer.fds.replace(0, &FD{kind: fdPipeRead, pipe: pp})
	rt.markWake()
}

// FeedInput replaces p's stdin (fd 0) with a pipe preloaded with data
// and no writers: reads drain the data, then see EOF. The process must
// be quiescent.
func (rt *Runtime) FeedInput(p *Proc, data []byte) {
	pp := &pipe{readers: 1, writers: 0}
	pp.buf.Write(data)
	p.fds.replace(0, &FD{kind: fdPipeRead, pipe: pp})
	rt.markWake()
}
