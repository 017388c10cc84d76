// Package rewrite implements the LFI assembly transformer: it consumes
// GNU-syntax assembly produced by any compiler and inserts the guards that
// make the program verifiable (§5.1). The pass is purely assembly-to-
// assembly; the assembler and verifier downstream never trust it.
package rewrite

import (
	"fmt"

	"lfi/internal/arm64"
	"lfi/internal/core"
)

// Stats reports what the rewriter did, for the code-size evaluation (§6.3)
// and the optimization-effect figures.
type Stats struct {
	InputInsts    int
	OutputInsts   int
	GuardsFolded  int // accesses rewritten to the zero-cost addressing mode
	GuardsSingle  int // one-instruction staging adds (Table 3 rows 2+)
	GuardsBase    int // two-instruction base guards (ldp/atomics/O0)
	GuardsHoisted int // accesses served by a hoisting register (§4.3)
	HoistGuards   int // guard instructions writing a hoist register
	SPGuards      int // stack-pointer guard sequences
	SPElided      int // sp guards elided by the §4.2 optimizations
	RetGuards     int // x30 restore guards
	BranchGuards  int // indirect-branch guards
	RangeFixups   int // tbz/tbnz replaced by a two-instruction sequence
}

// Error wraps a rewriting failure with the source line.
type Error struct {
	LineNo int32
	Msg    string
}

func (e *Error) Error() string { return fmt.Sprintf("rewrite: line %d: %s", e.LineNo, e.Msg) }

type rewriter struct {
	opts     core.Options
	out      []arm64.Item
	stats    Stats
	skipNext bool // next instruction already emitted (runtime-call pair)

	// Hoisting state (per basic block): which base register each hoist
	// register currently guards, and round-robin eviction.
	hoistBase [2]arm64.Reg // base currently guarded by x23/x24 (RegNone if none)
	hoistNext int
}

var hoistRegs = [2]arm64.Reg{core.RegHoist1, core.RegHoist2}

// Rewrite transforms the file according to opts and returns a new file.
func Rewrite(f *arm64.File, opts core.Options) (*arm64.File, Stats, error) {
	// Guards grow the kernels' instruction count by under a fifth; a
	// quarter over the input leaves the output slice to be sized once.
	r := &rewriter{opts: opts, out: make([]arm64.Item, 0, len(f.Items)+len(f.Items)/4)}
	r.resetHoists()

	inText := true
	for idx := range f.Items {
		it := &f.Items[idx]
		switch it.Kind {
		case arm64.ItemLabel:
			r.resetHoists()
			r.out = append(r.out, *it)
		case arm64.ItemDirective:
			if sec := sectionOf(it); sec != "" {
				inText = sec == "text"
				r.resetHoists()
			}
			r.out = append(r.out, *it)
		case arm64.ItemInst:
			if !inText {
				return nil, r.stats, &Error{it.LineNo, "instruction outside .text"}
			}
			r.stats.InputInsts++
			if r.skipNext {
				r.skipNext = false
				continue
			}
			if err := r.inst(f, idx); err != nil {
				return nil, r.stats, err
			}
			if it.Inst.Op.IsBranch() {
				r.resetHoists()
			}
		}
	}

	nf := &arm64.File{Items: r.out}
	r.stats.RangeFixups = fixRanges(nf)
	r.stats.OutputInsts += r.stats.RangeFixups // a fixup makes one branch two
	return nf, r.stats, nil
}

func sectionOf(it *arm64.Item) string {
	switch it.Name {
	case "text":
		return "text"
	case "data", "bss", "rodata":
		return it.Name
	case "section":
		if len(it.Args) > 0 {
			switch {
			case len(it.Args[0]) >= 5 && it.Args[0][:5] == ".text":
				return "text"
			default:
				return "data"
			}
		}
	}
	return ""
}

func (r *rewriter) resetHoists() {
	r.hoistBase[0], r.hoistBase[1] = arm64.RegNone, arm64.RegNone
	r.hoistNext = 0
}

func (r *rewriter) emit(inst arm64.Inst, lineNo int32) {
	r.out = append(r.out, arm64.Item{Kind: arm64.ItemInst, Inst: inst, LineNo: lineNo})
	r.stats.OutputInsts++
}

// inst rewrites the instruction at f.Items[idx].
func (r *rewriter) inst(f *arm64.File, idx int) error {
	it := &f.Items[idx]
	inst := it.Inst

	// Reject programs that use reserved registers themselves. Compilers
	// are invoked with -ffixed-x18 etc., so this only fires on bad input.
	// Our own insertions never pass through here.
	if err := r.checkReserved(&inst, it.LineNo); err != nil {
		return err
	}

	// Invalidate hoists whose base this instruction redefines.
	defer func() {
		var dsts [4]arm64.Reg
		for _, d := range it.Inst.DestRegs(dsts[:0]) {
			for h := range r.hoistBase {
				if r.hoistBase[h] != arm64.RegNone && r.hoistBase[h].X() == d.X() {
					r.hoistBase[h] = arm64.RegNone
				}
			}
		}
	}()

	switch {
	case inst.Op.IsMemory():
		return r.memOp(f, idx)
	case inst.Op == arm64.BR, inst.Op == arm64.BLR, inst.Op == arm64.RET:
		return r.indirectBranch(f, idx)
	}

	// Arithmetic writes to sp or x30 need re-guarding.
	var dsts [4]arm64.Reg
	for _, d := range inst.DestRegs(dsts[:0]) {
		switch {
		case d.IsSP():
			return r.spWrite(f, idx)
		case d.X() == arm64.X30:
			r.emit(inst, it.LineNo)
			r.emit(core.GuardInto(arm64.X30, arm64.X30), it.LineNo)
			r.stats.RetGuards++
			return nil
		}
	}

	r.emit(inst, it.LineNo)
	return nil
}

// checkReserved rejects input that writes the reserved registers or uses
// them other than as the paper's conventions allow.
func (r *rewriter) checkReserved(inst *arm64.Inst, lineNo int32) error {
	var dsts [4]arm64.Reg
	for _, d := range inst.DestRegs(dsts[:0]) {
		if core.IsReserved(d) {
			// Permit the runtime-call idiom "ldr x30, [x21, #n]" (handled
			// in memOp) — x30 is not reserved, so only the five reserved
			// registers are rejected here.
			return &Error{lineNo, fmt.Sprintf("input writes reserved register %v", d)}
		}
	}
	// Reading x21 is allowed only as a load/store base (the call table).
	return nil
}

// indirectBranch sandboxes br/blr/ret (§3).
func (r *rewriter) indirectBranch(f *arm64.File, idx int) error {
	it := &f.Items[idx]
	inst := it.Inst
	tgt := inst.Rn

	// ret through x30 is always safe: x30 maintains the valid-target
	// invariant.
	if inst.Op == arm64.RET && tgt.X() == arm64.X30 {
		r.emit(inst, it.LineNo)
		return nil
	}
	// blr x30 immediately after the call-table load is the runtime-call
	// sequence; memOp emitted the pair together, so a lone blr x30 here
	// still needs no guard: x30 always holds a valid target.
	if tgt.X() == arm64.X30 || core.AlwaysValidAddr(tgt) {
		r.emit(inst, it.LineNo)
		return nil
	}

	// Guard the target into the scratch register, then branch through it.
	r.emit(core.GuardInto(core.RegScratch, tgt), it.LineNo)
	r.stats.BranchGuards++
	g := inst
	g.Rn = core.RegScratch
	if g.Op == arm64.RET {
		g.Op = arm64.BR // ret xN is just br with return hint
	}
	r.emit(g, it.LineNo)
	return nil
}

// spWrite handles instructions whose destination is the stack pointer.
func (r *rewriter) spWrite(f *arm64.File, idx int) error {
	it := &f.Items[idx]
	inst := it.Inst

	// "mov w22, wsp; add sp, x21, x22" — but first check the elision
	// conditions of §4.2.
	r.emit(inst, it.LineNo)
	if !r.opts.DisableSPOpts && spModElidable(f, idx) {
		r.stats.SPElided++
		return nil
	}
	for _, g := range core.SPGuard() {
		r.emit(g, it.LineNo)
	}
	r.stats.SPGuards++
	return nil
}

// spModElidable implements the "later access within the same basic block"
// elision (§4.2): an add/sub sp, sp, #imm with imm < 2^10 needs no guard
// if an sp-based memory access is guaranteed to execute before the next
// branch, label, or other sp modification.
func spModElidable(f *arm64.File, idx int) bool {
	inst := &f.Items[idx].Inst
	if inst.Op != arm64.ADD && inst.Op != arm64.SUB {
		return false
	}
	if inst.Rm != arm64.RegNone || !inst.Rn.IsSP() {
		return false
	}
	if inst.Imm < 0 || inst.Imm >= 1024 {
		return false
	}
	for j := idx + 1; j < len(f.Items); j++ {
		it := &f.Items[j]
		switch it.Kind {
		case arm64.ItemLabel:
			return false
		case arm64.ItemDirective:
			if sectionOf(it) != "" {
				return false
			}
			continue
		}
		in := &it.Inst
		if in.Op.IsBranch() {
			return false
		}
		if in.Op.IsMemory() && in.Mem.Base.IsSP() &&
			(in.Mem.Mode == arm64.AddrBase || in.Mem.Mode == arm64.AddrImm ||
				in.Mem.Mode == arm64.AddrPre || in.Mem.Mode == arm64.AddrPost) {
			// An immediate past spImmBound does not qualify: memOp lowers
			// it to the staged [x21, w22, uxtw] form, so the emitted code
			// has no sp-based access here and the elided add would be
			// unverifiable (and unsound — the big offset could carry the
			// drifted sp past the guard band).
			if in.Mem.Mode != arm64.AddrImm || int64(in.Mem.Imm) <= spImmBound {
				return true // this access traps if sp strayed into a guard page
			}
		}
		// Another sp write before any access: cannot elide.
		var dsts [4]arm64.Reg
		for _, d := range in.DestRegs(dsts[:0]) {
			if d.IsSP() {
				return false
			}
		}
	}
	return false
}

// roughSize is the byte size fixRanges assumes for an item.
func roughSize(it *arm64.Item) int {
	switch it.Kind {
	case arm64.ItemInst:
		return 4
	case arm64.ItemDirective:
		return 16 // conservative allowance for data/align directives
	}
	return 0
}

// fixRanges replaces tbz/tbnz whose (conservatively estimated) target is
// out of the ±32KiB encoding range with an inverted-condition trampoline
// (§5.1 "Difficulties"). It scans first and rebuilds the item slice, at
// its exact new size, only when some branch needs the fixup; most files
// have no tbz/tbnz at all and pay one scan.
func fixRanges(f *arm64.File) int {
	// Approximate byte offset of every tbz/tbnz.
	type site struct{ idx, off int }
	var sites []site
	off := 0
	for i := range f.Items {
		it := &f.Items[i]
		if it.Kind == arm64.ItemInst && (it.Inst.Op == arm64.TBZ || it.Inst.Op == arm64.TBNZ) && it.Inst.Label != "" {
			sites = append(sites, site{i, off})
		}
		off += roughSize(it)
	}
	if len(sites) == 0 {
		return 0
	}
	// The same estimate for the labels they name.
	const undefined = -1
	labelOff := make(map[string]int, len(sites))
	for _, s := range sites {
		labelOff[f.Items[s.idx].Inst.Label] = undefined
	}
	off = 0
	for i := range f.Items {
		it := &f.Items[i]
		if it.Kind == arm64.ItemLabel {
			if _, named := labelOff[it.Name]; named {
				labelOff[it.Name] = off
			}
		}
		off += roughSize(it)
	}
	const margin = 1 << 12 // safety margin under the 2^15 limit
	far := sites[:0]
	for _, s := range sites {
		tgt := labelOff[f.Items[s.idx].Inst.Label]
		if d := tgt - s.off; tgt != undefined && (d > (1<<15)-margin || d < -(1<<15)+margin) {
			far = append(far, s)
		}
	}
	if len(far) == 0 {
		return 0
	}
	out := make([]arm64.Item, 0, len(f.Items)+2*len(far))
	next := 0
	for n, s := range far {
		// tbz xN, #b, far  =>  tbnz xN, #b, near; b far; near:
		out = append(out, f.Items[next:s.idx]...)
		next = s.idx + 1
		it := &f.Items[s.idx]
		skip := fmt.Sprintf(".Llfirange%d", n+1)
		inv := it.Inst
		if inv.Op == arm64.TBZ {
			inv.Op = arm64.TBNZ
		} else {
			inv.Op = arm64.TBZ
		}
		inv.Label = skip
		out = append(out,
			arm64.Item{Kind: arm64.ItemInst, Inst: inv, LineNo: it.LineNo},
			arm64.Item{Kind: arm64.ItemInst, LineNo: it.LineNo,
				Inst: arm64.Inst{Op: arm64.B, Rd: arm64.RegNone, Rn: arm64.RegNone,
					Rm: arm64.RegNone, Ra: arm64.RegNone, Amount: -1, Label: it.Inst.Label}},
			arm64.Item{Kind: arm64.ItemLabel, Name: skip, LineNo: it.LineNo})
	}
	f.Items = append(out, f.Items[next:]...)
	return len(far)
}
