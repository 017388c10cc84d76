// Package wasmbase models the WebAssembly engines the paper compares
// against (§6.2) as sandboxing strategies applied to the same workloads on
// the same timing model. Each engine's overhead comes from concrete,
// documented mechanisms:
//
//   - non-pinned engines reload the linear-memory base from the module
//     context before accesses (Wasm2c's struct field; the "compiler
//     barrier" forces the reload on *every* access, removing it lets the
//     compiler hoist one load per basic block);
//   - a pinned heap register removes the loads entirely (the paper's
//     Wasm2c modification);
//   - indirect calls check the table entry's type signature;
//   - the engine's compiler quality appears as a codegen factor (Cranelift
//     and the Wasm->C->machine-code pipeline lose scheduling and
//     vectorization quality relative to direct LLVM; we apply the factor
//     to computed cycles and report it in EXPERIMENTS.md).
//
// The instrumented programs run with load-time verification disabled:
// they are baselines, not LFI binaries.
package wasmbase

import (
	"fmt"

	"lfi/internal/arm64"
	"lfi/internal/core"
	"lfi/internal/rewrite"
)

// System describes one engine configuration from Figure 4.
type System struct {
	// Name as in the paper's figures.
	Name string
	// HeapReload says when the linear-memory base is loaded from the
	// context struct.
	HeapReload ReloadPolicy
	// IndirectChecks adds the type-signature check on indirect calls.
	IndirectChecks bool
	// CodegenFactor multiplies computed cycles to model compiler quality.
	CodegenFactor float64
}

// ReloadPolicy says how often the heap base is (re)loaded.
type ReloadPolicy int

const (
	// ReloadPinned: the base lives in a reserved register (x21); accesses
	// fold the guard like LFI's O1.
	ReloadPinned ReloadPolicy = iota
	// ReloadPerBlock: one context load per basic block (what LLVM achieves
	// without the compiler barrier).
	ReloadPerBlock
	// ReloadPerAccess: one context load per memory access (the strictly
	// spec-conforming Wasm2c configuration with the barrier).
	ReloadPerAccess
)

// Systems returns the five engine configurations of Figure 4 and Table 4.
func Systems() []*System {
	return []*System{
		{Name: "Wasmtime", HeapReload: ReloadPerBlock, IndirectChecks: true, CodegenFactor: 1.42},
		{Name: "Wasm2c", HeapReload: ReloadPerAccess, IndirectChecks: true, CodegenFactor: 1.12},
		{Name: "Wasm2c (no barrier)", HeapReload: ReloadPerBlock, IndirectChecks: true, CodegenFactor: 1.12},
		{Name: "Wasm2c (pinned register)", HeapReload: ReloadPinned, IndirectChecks: true, CodegenFactor: 1.08},
		{Name: "WAMR", HeapReload: ReloadPerBlock, IndirectChecks: true, CodegenFactor: 1.12},
	}
}

// Get returns the named system.
func Get(name string) (*System, bool) {
	for _, s := range Systems() {
		if s.Name == name {
			return s, true
		}
	}
	return nil, false
}

// heapReg holds the reloaded linear-memory base; scratch regs stage
// addresses. These are the LFI reserved registers, free in any program
// compiled with -ffixed flags.
var (
	heapReg    = arm64.X24
	stageReg   = arm64.X22
	addrReg    = arm64.X18
	typeReg    = arm64.X23
	trapLabel  = ".Lwasmtrap"
	ctxHeapOff = int32(core.CtxHeapBaseOff)
	ctxTypeOff = int32(core.CtxTypeTagOff)
)

// Transform instruments the file according to the system's strategy.
func (s *System) Transform(f *arm64.File) (*arm64.File, error) {
	if s.HeapReload == ReloadPinned {
		// Pinned register: identical mechanics to LFI O1 plus indirect
		// call checks.
		nf, _, err := rewrite.Rewrite(f, core.Options{Opt: core.O1})
		if err != nil {
			return nil, err
		}
		if s.IndirectChecks {
			return addIndirectChecks(nf)
		}
		return nf, nil
	}

	w := &wasmifier{sys: s}
	for idx := range f.Items {
		it := &f.Items[idx]
		switch it.Kind {
		case arm64.ItemLabel:
			// LLVM hoists the context load across loop back-edges when the
			// barrier is absent, so labels do not invalidate it; calls do
			// (the callee may clobber the register).
			w.out = append(w.out, *it)
		case arm64.ItemDirective:
			w.out = append(w.out, *it)
		case arm64.ItemInst:
			if err := w.inst(f, idx); err != nil {
				return nil, err
			}
			switch it.Inst.Op {
			case arm64.BL, arm64.BLR, arm64.RET, arm64.BR:
				w.blockLoaded = false
			}
		}
	}
	nf := &arm64.File{Items: w.out}
	if s.IndirectChecks {
		return addIndirectChecks(nf)
	}
	return nf, nil
}

type wasmifier struct {
	sys         *System
	out         []arm64.Item
	blockLoaded bool // heap base valid in heapReg for this basic block
	skipNext    bool
}

func (w *wasmifier) emit(inst arm64.Inst, line int32) {
	w.out = append(w.out, arm64.Item{Kind: arm64.ItemInst, Inst: inst, LineNo: line})
}

// loadHeapBase emits "ldr x24, [x21, #ctx]" per the reload policy.
func (w *wasmifier) loadHeapBase(line int32) {
	if w.sys.HeapReload == ReloadPerBlock && w.blockLoaded {
		return
	}
	w.emit(arm64.Inst{
		Op: arm64.LDR, Rd: heapReg,
		Rn: arm64.RegNone, Rm: arm64.RegNone, Ra: arm64.RegNone, Amount: -1,
		Mem: arm64.Mem{Mode: arm64.AddrImm, Base: core.RegBase, Imm: ctxHeapOff, Amount: -1},
	}, line)
	w.blockLoaded = true
}

func (w *wasmifier) inst(f *arm64.File, idx int) error {
	it := &f.Items[idx]
	inst := it.Inst
	line := it.LineNo
	if w.skipNext {
		w.skipNext = false
		w.emit(inst, line)
		return nil
	}

	if !inst.Op.IsMemory() {
		w.emit(inst, line)
		return nil
	}
	m := inst.Mem
	// Runtime-call idiom and literal loads pass through.
	if m.Mode == arm64.AddrLiteral || m.Base == core.RegBase {
		w.emit(inst, line)
		if m.Base == core.RegBase {
			w.skipNext = true // the following blr x30
		}
		return nil
	}
	// Stack accesses: Wasm keeps its shadow stack in linear memory, which
	// costs the same base-relative addressing; sp-based accesses with
	// immediates stay as they are (the comparison is then conservative in
	// Wasm's favour).
	base := m.Base
	switch inst.Op {
	case arm64.LDXR, arm64.LDAXR, arm64.STXR, arm64.STLXR, arm64.LDAR, arm64.STLR:
		base = inst.Rn
	}
	if base.IsSP() && !m.IsRegOffset() {
		w.emit(inst, line)
		return nil
	}

	// Rebase the access onto the reloaded heap base. Without the barrier
	// the compiler folds the index into the addressing mode ("mem[idx]"
	// becomes [base, w, uxtw]); with it every access recomputes the sum.
	w.loadHeapBase(line)
	stage, err := stageAddress(&inst, w.sys.HeapReload == ReloadPerBlock)
	if err != nil {
		return fmt.Errorf("wasmbase: line %d: %v", line, err)
	}
	for _, st := range stage.pre {
		w.emit(st, line)
	}
	w.emit(stage.access, line)
	for _, st := range stage.post {
		w.emit(st, line)
	}
	return nil
}

type staged struct {
	pre    []arm64.Inst
	access arm64.Inst
	post   []arm64.Inst
}

// stageAddress lowers any addressing mode onto the reloaded heap base.
// When folded, the access uses the [x24, w22, uxtw] addressing mode (free,
// like LFI's zero-instruction guard); otherwise an explicit add computes
// the sum into x18 first.
func stageAddress(inst *arm64.Inst, folded bool) (staged, error) {
	var s staged
	m := inst.Mem
	w22 := stageReg.W()
	none := arm64.RegNone

	movToW22 := func(src arm64.Reg) arm64.Inst {
		// mov w22, wN == orr w22, wzr, wN
		return arm64.Inst{Op: arm64.ORR, Rd: w22, Rn: arm64.WZR, Rm: src.W(), Ra: none, Amount: -1}
	}
	addImm := func(dst, src arm64.Reg, imm int64) arm64.Inst {
		op := arm64.ADD
		if imm < 0 {
			op, imm = arm64.SUB, -imm
		}
		return arm64.Inst{Op: op, Rd: dst, Rn: src, Rm: none, Ra: none, Imm: imm, Amount: -1}
	}
	sum := arm64.Inst{Op: arm64.ADD, Rd: addrReg, Rn: heapReg, Rm: stageReg, Ra: none, Amount: -1}

	access := *inst
	switch inst.Op {
	case arm64.LDXR, arm64.LDAXR, arm64.STXR, arm64.STLXR, arm64.LDAR, arm64.STLR:
		// Exclusives have no register-offset form; always compute the sum.
		s.pre = append(s.pre, movToW22(inst.Rn), sum)
		access.Rn = addrReg
		s.access = access
		return s, nil
	case arm64.LDP, arm64.STP:
		folded = false // pairs have no register-offset form either
	}
	if folded {
		foldedMem := arm64.Mem{Mode: arm64.AddrRegUXTW, Base: heapReg, Index: w22, Amount: -1}
		switch m.Mode {
		case arm64.AddrBase:
			access.Mem = arm64.Mem{Mode: arm64.AddrRegUXTW, Base: heapReg, Index: m.Base.W(), Amount: -1}
		case arm64.AddrImm:
			if m.Imm >= -4095 && m.Imm <= 4095 {
				s.pre = append(s.pre, addImm(w22, m.Base.W(), int64(m.Imm)))
				access.Mem = foldedMem
			} else {
				s.pre = append(s.pre, movToW22(m.Base), sum)
				access.Mem = arm64.Mem{Mode: arm64.AddrImm, Base: addrReg, Imm: m.Imm, Amount: -1}
			}
		case arm64.AddrPre:
			s.pre = append(s.pre, addImm(m.Base, m.Base, int64(m.Imm)))
			access.Mem = arm64.Mem{Mode: arm64.AddrRegUXTW, Base: heapReg, Index: m.Base.W(), Amount: -1}
		case arm64.AddrPost:
			access.Mem = arm64.Mem{Mode: arm64.AddrRegUXTW, Base: heapReg, Index: m.Base.W(), Amount: -1}
			s.post = append(s.post, addImm(m.Base, m.Base, int64(m.Imm)))
		case arm64.AddrReg, arm64.AddrRegUXTW, arm64.AddrRegSXTW:
			st := arm64.Inst{Op: arm64.ADD, Rd: w22, Rn: m.Base.W(), Rm: m.Index.W(), Ra: none, Amount: m.Amount}
			switch m.Mode {
			case arm64.AddrReg:
				st.Ext = arm64.ExtLSL
				if m.Amount <= 0 {
					st.Ext, st.Amount = arm64.ExtNone, -1
				}
			case arm64.AddrRegUXTW:
				st.Ext = arm64.ExtUXTW
			case arm64.AddrRegSXTW:
				st.Ext = arm64.ExtSXTW
			}
			s.pre = append(s.pre, st)
			access.Mem = foldedMem
		default:
			return s, fmt.Errorf("unsupported addressing mode %v", m.Mode)
		}
		s.access = access
		return s, nil
	}

	switch m.Mode {
	case arm64.AddrBase:
		s.pre = append(s.pre, movToW22(m.Base), sum)
	case arm64.AddrImm:
		if m.Imm >= -4095 && m.Imm <= 4095 {
			s.pre = append(s.pre, addImm(w22, m.Base.W(), int64(m.Imm)), sum)
		} else {
			s.pre = append(s.pre, movToW22(m.Base), sum)
			access.Mem = arm64.Mem{Mode: arm64.AddrImm, Base: addrReg, Imm: m.Imm, Amount: -1}
			s.access = access
			return s, nil
		}
	case arm64.AddrPre:
		s.pre = append(s.pre,
			addImm(m.Base, m.Base, int64(m.Imm)),
			movToW22(m.Base), sum)
	case arm64.AddrPost:
		s.pre = append(s.pre, movToW22(m.Base), sum)
		s.post = append(s.post, addImm(m.Base, m.Base, int64(m.Imm)))
	case arm64.AddrReg, arm64.AddrRegUXTW, arm64.AddrRegSXTW:
		st := arm64.Inst{Op: arm64.ADD, Rd: w22, Rn: m.Base.W(), Rm: m.Index.W(), Ra: none, Amount: m.Amount}
		switch m.Mode {
		case arm64.AddrReg:
			st.Ext = arm64.ExtLSL
			if m.Amount <= 0 {
				st.Ext, st.Amount = arm64.ExtNone, -1
			}
		case arm64.AddrRegUXTW:
			st.Ext = arm64.ExtUXTW
		case arm64.AddrRegSXTW:
			st.Ext = arm64.ExtSXTW
		}
		s.pre = append(s.pre, st, sum)
	default:
		return s, fmt.Errorf("unsupported addressing mode %v", m.Mode)
	}
	access.Mem = arm64.Mem{Mode: arm64.AddrImm, Base: addrReg, Imm: 0, Amount: -1}
	if m.WritesBack() {
		access.Mem.Imm = 0
	}
	s.access = access
	return s, nil
}

// addIndirectChecks inserts the Wasm call_indirect type check before every
// indirect branch (§6.2: "Wasm must ensure that the function being called
// is valid and has the correct type signature"). The check loads the type
// tag from the module context and traps on mismatch.
func addIndirectChecks(f *arm64.File) (*arm64.File, error) {
	var out []arm64.Item
	added := false
	skip := false
	for i := range f.Items {
		it := f.Items[i]
		if it.Kind == arm64.ItemInst {
			inst := &it.Inst
			if skip {
				skip = false
				out = append(out, it)
				continue
			}
			// Skip the runtime-call pair.
			if inst.Op == arm64.LDR && inst.Rd == arm64.X30 && inst.Mem.Base == core.RegBase {
				skip = true
				out = append(out, it)
				continue
			}
			if inst.Op == arm64.BR || inst.Op == arm64.BLR {
				line := it.LineNo
				none := arm64.RegNone
				// ldr x23, [x21, #ctxType] ; cmp x23, #7 ; b.ne trap
				out = append(out,
					arm64.Item{Kind: arm64.ItemInst, LineNo: line, Inst: arm64.Inst{
						Op: arm64.LDR, Rd: typeReg, Rn: none, Rm: none, Ra: none, Amount: -1,
						Mem: arm64.Mem{Mode: arm64.AddrImm, Base: core.RegBase, Imm: ctxTypeOff, Amount: -1},
					}},
					arm64.Item{Kind: arm64.ItemInst, LineNo: line, Inst: arm64.Inst{
						Op: arm64.SUBS, Rd: arm64.XZR, Rn: typeReg, Rm: none, Ra: none,
						Imm: int64(core.CtxTypeTag), Amount: -1,
					}},
					arm64.Item{Kind: arm64.ItemInst, LineNo: line, Inst: arm64.Inst{
						Op: arm64.BCOND, Rd: none, Rn: none, Rm: none, Ra: none,
						Cond: arm64.NE, Label: trapLabel, Amount: -1,
					}},
				)
				added = true
			}
		}
		out = append(out, it)
	}
	if added {
		out = append(out,
			arm64.Item{Kind: arm64.ItemDirective, Name: "text"},
			arm64.Item{Kind: arm64.ItemLabel, Name: trapLabel},
			arm64.Item{Kind: arm64.ItemInst, Inst: arm64.Inst{
				Op: arm64.BRK, Rd: arm64.RegNone, Rn: arm64.RegNone,
				Rm: arm64.RegNone, Ra: arm64.RegNone, Imm: 77, Amount: -1,
			}},
		)
	}
	return &arm64.File{Items: out}, nil
}
