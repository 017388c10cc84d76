// Package lfirt is the LFI runtime (§5.3): a single "process" that loads
// verified ELF executables into 4GiB sandbox slots of one shared address
// space, provides mediated runtime calls (a small Unix: files, pipes,
// fork, wait), schedules sandboxes preemptively, and implements the fast
// direct yield used for microkernel-style IPC.
package lfirt

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"slices"

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
	// Obs enables observability: the rt.* scheduler and IPC counters and
	// the per-slice instruction histogram go to its registry. The runtime
	// records no trace spans; a serving pool records one per job. Nil (the
	// default) disables recording; the plain Runtime counters still work.
	Obs *obs.Obs
	// ObsTag names this runtime's per-channel gauges,
	// rt.chan.<tag>.<id>.depth (serving pools set it to the worker id, so
	// workers sharing one registry do not collide).
	ObsTag int
}

// DefaultConfig returns a runtime configuration with verification on.
func DefaultConfig() Config {
	return Config{Verify: true, VerifierCfg: verifier.DefaultConfig()}
}

// Host-call dispatch: call-table entries point into the reserved runtime
// slot (the last 4GiB slot of the 48-bit space; §3 footnote 2). Entry i
// lives at hostCallStride*i past hostBase. The stride is part of the
// shared layout model so the fuzz watchdog and the soundness prover see
// the same call-table shape.
const (
	hostBase       = uint64(core.MaxSandboxes-1) * core.SandboxSize
	hostCallStride = core.HostCallStride
)

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

	// Statistics.
	Switches  uint64 // context switches
	HostCalls uint64
	Preempts  uint64
	Traps     uint64 // fatal sandbox traps (mem fault, brk, svc/undefined)
	WakeScans uint64 // wakeBlocked passes over the process table

	// Observability handles, created once at New from cfg.Obs. All of
	// them are nil-safe no-ops when observability is disabled, so the
	// scheduler records unconditionally.
	mHostCalls   *obs.Counter
	mPreempts    *obs.Counter
	mSwitches    *obs.Counter
	mTraps       *obs.Counter
	mSliceInstrs *obs.Histogram

	// ticks holds the costs below in ticks, converted once by New;
	// yieldDelta is costYield − costHostCall, converted as one difference.
	ticks struct{ hostCall, yieldDelta, switch_, scxtnum, vop int64 }
}

// Host-side cycle costs charged to the timing model, calibrated so that
// the Table 5 microbenchmarks land in the right regime. Each is a whole
// number of cycles, so its count of ticks is exact.
const (
	costHostCall = 55 // trap + dispatch + resume (no mode switch)
	costYield    = 46 // direct yield (callee-saved swap only)
	costSwitch   = 60 // scheduler-driven context switch
	costSCXTNUM  = 25 // one SCXTNUM_EL0 change: two system-register writes per domain crossing (§7.1)
	costVOp      = 6  // one op in a vectored submission: a table dispatch plus ring access, no trap
)

// withDefaults fills in the zero fields that have defaults.
func (cfg Config) withDefaults() Config {
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
	return cfg
}

// New creates a runtime with an empty address space.
func New(cfg Config) *Runtime {
	cfg = cfg.withDefaults()
	as := mem.NewAddrSpace(cfg.PageSize)
	cpu := emu.New(as)
	rt := &Runtime{
		cfg:      cfg,
		AS:       as,
		CPU:      cpu,
		nextPID:  1,
		slots:    make(map[int]bool),
		maxSlot:  cfg.MaxSlots,
		fs:       NewFS(),
		wakeHint: true,
	}
	if cfg.Model != nil {
		rt.Tim = emu.NewTiming(cfg.Model)
		cpu.Timing = rt.Tim
		t := rt.Tim.Ticks
		rt.ticks.hostCall, rt.ticks.yieldDelta = t(costHostCall), t(costYield-costHostCall)
		rt.ticks.switch_, rt.ticks.scxtnum, rt.ticks.vop = t(costSwitch), t(costSCXTNUM), t(costVOp)
	}
	reg := cfg.Obs.Registry()
	rt.ipc = newIPCState(reg, cfg.ObsTag)
	rt.mHostCalls = reg.Counter("rt.host_calls")
	rt.mPreempts = reg.Counter("rt.preempts")
	rt.mSwitches = reg.Counter("rt.switches")
	rt.mTraps = reg.Counter("rt.traps")
	rt.mSliceInstrs = reg.Histogram("rt.slice_instrs", obs.InstrBounds())
	cpu.SetHostCallRegion(hostBase, core.HostCallRegionSize)
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

// Load verifies an ELF executable and starts it in a fresh sandbox:
// NewSnapshot, then Restore and Start. It returns the new (ready) process.
func (rt *Runtime) Load(elfBytes []byte) (*Proc, error) {
	exe, err := elfobj.Unmarshal(elfBytes)
	if err != nil {
		return nil, err
	}
	s, err := NewSnapshot(rt.cfg, exe)
	if err != nil {
		return nil, err
	}
	p, err := rt.Restore(s)
	if err != nil {
		return nil, err
	}
	rt.Start(p)
	return p, nil
}

// saveRegs/loadRegs swap a process's state with the CPU.
func (rt *Runtime) saveRegs(p *Proc) {
	c := rt.CPU
	p.Regs.X = *c.X()
	p.Regs.SP = c.SP()
	p.Regs.PC = c.PC
	p.Regs.V = c.V
	p.Regs.N, p.Regs.Z, p.Regs.C, p.Regs.Vf = c.FlagN, c.FlagZ, c.FlagC, c.FlagV
}

func (rt *Runtime) loadRegs(p *Proc) {
	c := rt.CPU
	*c.X() = p.Regs.X
	c.SetSP(p.Regs.SP)
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
