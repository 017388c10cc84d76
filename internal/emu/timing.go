package emu

import "lfi/internal/arm64"

// CoreModel parameterizes the timing model for one CPU design. Latencies
// and widths follow publicly documented microarchitectural behaviour: the
// design points that matter to LFI are that an extended-register add
// (the classic SFI guard) has 2-cycle latency and reduced throughput,
// while register-offset addressing in loads/stores is free (§4.1).
type CoreModel struct {
	Name    string
	FreqGHz float64

	IssueWidth        int     // sustained decode/issue width
	MispredictPenalty float64 // cycles to refill the front end

	ALULat      float64 // simple ALU op
	ShiftExtLat float64 // ALU op with shift or extend (the "add guard")
	LoadLat     float64 // L1 load-to-use
	MulLat      float64
	DivLat      float64
	FPLat       float64
	FDivLat     float64
	FMALat      float64
	BarrierLat  float64 // dmb/dsb/isb drain cost

	// TLB model. Walks cost TLBWalk cycles; under nested paging (the KVM
	// comparison in Fig. 5) each walk is multiplied by NestedWalkFactor.
	TLBEntries       int
	TLBWalk          float64
	NestedPaging     bool
	NestedWalkFactor float64
	PageShift        uint
}

// ModelM1 approximates an Apple M1 Firestorm core (3.2 GHz).
func ModelM1() *CoreModel {
	return &CoreModel{
		Name:              "apple-m1",
		FreqGHz:           3.2,
		IssueWidth:        8,
		MispredictPenalty: 13,
		ALULat:            1,
		ShiftExtLat:       2,
		LoadLat:           4,
		MulLat:            3,
		DivLat:            9,
		FPLat:             3,
		FDivLat:           10,
		FMALat:            4,
		BarrierLat:        8,
		TLBEntries:        160,
		TLBWalk:           16,
		NestedWalkFactor:  2,
		PageShift:         14, // 16KiB pages
	}
}

// ModelT2A approximates a Neoverse-N1-class GCP Tau T2A core (3.0 GHz).
func ModelT2A() *CoreModel {
	return &CoreModel{
		Name:              "gcp-t2a",
		FreqGHz:           3.0,
		IssueWidth:        4,
		MispredictPenalty: 11,
		ALULat:            1,
		ShiftExtLat:       2,
		LoadLat:           4,
		MulLat:            3,
		DivLat:            12,
		FPLat:             3,
		FDivLat:           12,
		FMALat:            4,
		BarrierLat:        12,
		TLBEntries:        48,
		TLBWalk:           20,
		NestedWalkFactor:  2,
		PageShift:         12, // 4KiB pages
	}
}

// Register scoreboard slots: x0..x30 (0..30), sp (31), v0..v31 (32..63),
// flags (64).
const (
	slotSP    = 31
	slotVBase = 32
	slotFlags = 64
	numSlots  = 65
)

func regSlot(r arm64.Reg) int {
	if r == arm64.RegNone || r.IsZR() {
		return -1
	}
	if r.IsSP() {
		return slotSP
	}
	if r.IsFP() {
		return slotVBase + r.Num()
	}
	return r.Num()
}

// Timing is the per-run scoreboard state.
type Timing struct {
	Model *CoreModel

	ready   [numSlots]float64
	issueAt float64 // next front-end issue slot
	horizon float64 // latest completion seen

	// 2-bit bimodal conditional predictor and a last-target BTB for
	// indirect branches.
	bimodal [1024]uint8
	btb     [512]uint64

	tlb        []uint64
	walkerFree float64 // page-table walker is not pipelined

	// Model-derived constants, precomputed by NewTiming so the per-retire
	// path does no divisions or switch dispatch. The values are the exact
	// doubles the direct expressions would produce, so cycle accounting is
	// unchanged.
	issueInc     float64                 // 1 / IssueWidth
	issueIncHalf float64                 // 0.5 / IssueWidth
	latTab       [latBarrier + 1]float64 // classLat by latClass
	sePenalize   bool                    // ShiftExtLat > ALULat

	// Statistics.
	Mispredicts uint64
	TLBMisses   uint64
	Retired     uint64

	// profile, optional: per-PC cycle attribution. Enable with
	// EnableProfile before running; read with TopPCs.
	profile map[uint64]float64

	srcbuf, dstbuf []arm64.Reg
}

// EnableProfile turns on per-PC cycle attribution.
func (t *Timing) EnableProfile() { t.profile = make(map[uint64]float64) }

// PCCost is one entry of the cycle profile.
type PCCost struct {
	PC     uint64
	Cycles float64
}

// TopPCs returns the n most expensive program counters, by attributed
// latency, most expensive first.
func (t *Timing) TopPCs(n int) []PCCost {
	out := make([]PCCost, 0, len(t.profile))
	for pc, c := range t.profile {
		out = append(out, PCCost{pc, c})
	}
	for i := 1; i < len(out); i++ { // insertion sort; profiles are small
		for j := i; j > 0 && out[j].Cycles > out[j-1].Cycles; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	if n < len(out) {
		out = out[:n]
	}
	return out
}

// NewTiming creates a fresh timing context for the model.
func NewTiming(m *CoreModel) *Timing {
	t := &Timing{Model: m}
	t.tlb = make([]uint64, m.TLBEntries)
	for i := range t.tlb {
		t.tlb[i] = ^uint64(0)
	}
	for i := range t.bimodal {
		t.bimodal[i] = 1 // weakly not-taken
	}
	t.issueInc = 1 / float64(m.IssueWidth)
	t.issueIncHalf = 0.5 / float64(m.IssueWidth)
	for cl := latClass(0); cl <= latBarrier; cl++ {
		t.latTab[cl] = t.classLat(cl)
	}
	t.sePenalize = m.ShiftExtLat > m.ALULat
	return t
}

// Cycles returns the elapsed cycle count so far.
func (t *Timing) Cycles() float64 {
	if t.issueAt > t.horizon {
		return t.issueAt
	}
	return t.horizon
}

// Nanoseconds converts the elapsed cycles to wall time on the model.
func (t *Timing) Nanoseconds() float64 { return t.Cycles() / t.Model.FreqGHz }

// AddCycles charges a flat cost (used by the runtime for host-side work).
func (t *Timing) AddCycles(c float64) {
	now := t.Cycles() + c
	t.issueAt = now
	t.horizon = now
}

// Drain waits for all in-flight results (context-switch boundary).
func (t *Timing) Drain() {
	now := t.Cycles()
	for i := range t.ready {
		if t.ready[i] > now {
			now = t.ready[i]
		}
	}
	t.issueAt, t.horizon = now, now
}

// latClass names an instruction's static latency bucket. Predecoded blocks
// cache the class rather than the cycle value, so cached metadata stays
// valid across timing models; classLat maps a class to the current model's
// latency, reproducing the per-instruction classification bit for bit.
type latClass uint8

const (
	latALU latClass = iota
	latShiftExt
	latMul
	latMulH
	latDiv
	latLoad
	latStore
	latFP
	latFDiv
	latFMA
	latBarrier
)

func (t *Timing) classLat(cl latClass) float64 {
	m := t.Model
	switch cl {
	case latShiftExt:
		return m.ShiftExtLat
	case latMul:
		return m.MulLat
	case latMulH:
		return m.MulLat + 2
	case latDiv:
		return m.DivLat
	case latLoad:
		return m.LoadLat
	case latStore:
		return 1
	case latFP:
		return m.FPLat
	case latFDiv:
		return m.FDivLat
	case latFMA:
		return m.FMALat
	case latBarrier:
		return m.BarrierLat
	}
	return m.ALULat
}

func latClassOf(i *arm64.Inst) latClass {
	switch i.Op {
	case arm64.ADD, arm64.ADDS, arm64.SUB, arm64.SUBS,
		arm64.AND, arm64.ANDS, arm64.ORR, arm64.ORN, arm64.EOR, arm64.EON,
		arm64.BIC, arm64.BICS:
		if i.Rm != arm64.RegNone && shiftExtCosts(i) {
			return latShiftExt
		}
		return latALU
	case arm64.MADD, arm64.MSUB, arm64.SMADDL, arm64.UMADDL:
		return latMul
	case arm64.SMULH, arm64.UMULH:
		return latMulH
	case arm64.UDIV, arm64.SDIV:
		return latDiv
	case arm64.LDR, arm64.LDRB, arm64.LDRH, arm64.LDRSB, arm64.LDRSH,
		arm64.LDRSW, arm64.LDP, arm64.LDXR, arm64.LDAXR, arm64.LDAR:
		return latLoad
	case arm64.STR, arm64.STRB, arm64.STRH, arm64.STP, arm64.STXR,
		arm64.STLXR, arm64.STLR:
		return latStore
	case arm64.FADD, arm64.FSUB, arm64.FMUL, arm64.FNEG, arm64.FABS,
		arm64.FCVT, arm64.SCVTF, arm64.UCVTF, arm64.FCVTZS, arm64.FCVTZU,
		arm64.FMOV, arm64.FCSEL, arm64.FCMP:
		return latFP
	case arm64.FDIV, arm64.FSQRT:
		return latFDiv
	case arm64.FMADD, arm64.FMSUB:
		return latFMA
	case arm64.DMB, arm64.DSB, arm64.ISB:
		return latBarrier
	}
	return latALU
}

// shiftExtCosts reports whether the operand-2 modifier makes the ALU op a
// 2-cycle operation. UXTX and LSL with zero amount are pure register moves
// into the adder and stay single-cycle; genuine extends and nonzero shifts
// take the slow path (per the optimization guides the paper cites).
func shiftExtCosts(i *arm64.Inst) bool {
	switch i.Ext {
	case arm64.ExtNone:
		return false
	case arm64.ExtUXTX, arm64.ExtLSL:
		return i.Amount > 0
	}
	return true
}

// Branch classes for retireMeta.
const (
	brNone uint8 = iota
	brUncond
	brCond
	brIndirect
)

// retireMeta is the static half of retiring one instruction: scoreboard
// slots, latency class, and flag/branch behaviour, all derivable from the
// instruction alone. The per-step path computes it on the fly; the
// predecoded-block fast path caches it alongside each decoded instruction
// so retiring becomes a handful of float compares. Both paths funnel into
// retireWith, so cycle attribution is bit-identical between them.
type retireMeta struct {
	src    [4]int8 // scoreboard slots of source registers
	dst    [3]int8 // scoreboard slots of destination registers
	nsrc   int8
	ndst   int8
	wbALU  uint8 // bit k set: dst[k] is a writeback address update
	class  latClass
	branch uint8
	reads  bool // reads NZCV
	sets   bool // writes NZCV
}

// buildMeta fills md from i, using (and returning) the scratch register
// buffers to stay allocation-free.
func buildMeta(i *arm64.Inst, md *retireMeta, srcbuf, dstbuf []arm64.Reg) ([]arm64.Reg, []arm64.Reg) {
	srcbuf = i.SrcRegs(srcbuf[:0])
	md.nsrc = 0
	for _, r := range srcbuf {
		if s := regSlot(r); s >= 0 {
			md.src[md.nsrc] = int8(s)
			md.nsrc++
		}
	}
	dstbuf = i.DestRegs(dstbuf[:0])
	md.ndst = 0
	md.wbALU = 0
	wbMem := i.Op.IsMemory() && i.Mem.WritesBack()
	for _, r := range dstbuf {
		if s := regSlot(r); s >= 0 {
			// Writeback address updates complete in one ALU cycle even on
			// long-latency loads.
			if wbMem && r == i.Mem.Base {
				md.wbALU |= 1 << uint(md.ndst)
			}
			md.dst[md.ndst] = int8(s)
			md.ndst++
		}
	}
	md.reads = i.Op.ReadsFlags()
	md.sets = i.Op.SetsFlags()
	md.class = latClassOf(i)
	switch {
	case !i.Op.IsBranch():
		md.branch = brNone
	case i.Op == arm64.B || i.Op == arm64.BL:
		md.branch = brUncond
	case i.Op == arm64.BR || i.Op == arm64.BLR || i.Op == arm64.RET:
		md.branch = brIndirect
	default: // b.cond, cbz, cbnz, tbz, tbnz
		md.branch = brCond
	}
	return srcbuf, dstbuf
}

// retire charges one instruction to the scoreboard (per-step path).
func (t *Timing) retire(c *CPU, i *arm64.Inst, pc uint64, eff *effects) {
	var md retireMeta
	t.srcbuf, t.dstbuf = buildMeta(i, &md, t.srcbuf, t.dstbuf)
	t.retireWith(pc, eff, &md)
}

// retireWith charges one instruction described by md to the scoreboard.
// Both executors retire through here — the per-step path (via retire),
// predecoded blocks and the fused executors in fuse.go all pass the
// instruction's real pc and predecoded metadata, so cycle accounting is
// bit-identical no matter which one executed the instruction.
func (t *Timing) retireWith(pc uint64, eff *effects, md *retireMeta) {
	m := t.Model
	t.Retired++

	// Front-end issue slot.
	start := t.issueAt
	t.issueAt += t.issueInc

	// Wait for source operands.
	for k := int8(0); k < md.nsrc; k++ {
		if r := t.ready[md.src[k]]; r > start {
			start = r
		}
	}
	if md.reads && t.ready[slotFlags] > start {
		start = t.ready[slotFlags]
	}

	lat := t.latTab[md.class]

	// TLB lookup for memory operations.
	if eff.hasMem && len(t.tlb) > 0 {
		page := eff.memAddr >> m.PageShift
		slot := int(page) % len(t.tlb)
		if slot < 0 {
			slot = -slot
		}
		if t.tlb[slot] != page {
			t.tlb[slot] = page
			t.TLBMisses++
			walk := m.TLBWalk
			if m.NestedPaging {
				walk *= m.NestedWalkFactor
			}
			// Walks serialize on the (single, non-pipelined) table walker.
			ws := start
			if t.walkerFree > ws {
				ws = t.walkerFree
			}
			t.walkerFree = ws + walk
			lat += t.walkerFree - start
		}
	}

	// Extended-register guards execute on a subset of the ALU ports
	// (reduced throughput, per the optimization guides the paper cites):
	// charge half an extra issue slot.
	if t.sePenalize && lat == m.ShiftExtLat {
		t.issueAt += t.issueIncHalf
	}

	done := start + lat

	if t.profile != nil {
		t.profile[pc] += lat
	}

	// Destinations.
	for k := int8(0); k < md.ndst; k++ {
		if md.wbALU&(1<<uint(k)) != 0 {
			t.ready[md.dst[k]] = start + m.ALULat
		} else {
			t.ready[md.dst[k]] = done
		}
	}
	if md.sets {
		t.ready[slotFlags] = done
	}
	if done > t.horizon {
		t.horizon = done
	}

	// Branch prediction.
	if md.branch != brNone {
		resolve := start + 1
		switch md.branch {
		case brUncond:
			// Unconditional direct branches are effectively free.
		case brCond:
			idx := (pc >> 2) % uint64(len(t.bimodal))
			ctr := t.bimodal[idx]
			predTaken := ctr >= 2
			if predTaken != eff.branched {
				t.Mispredicts++
				if rt := resolve + m.MispredictPenalty; rt > t.issueAt {
					t.issueAt = rt
				}
			}
			if eff.branched && ctr < 3 {
				t.bimodal[idx] = ctr + 1
			} else if !eff.branched && ctr > 0 {
				t.bimodal[idx] = ctr - 1
			}
		case brIndirect:
			idx := (pc >> 2) % uint64(len(t.btb))
			if t.btb[idx] != eff.target {
				t.Mispredicts++
				if rt := resolve + m.MispredictPenalty; rt > t.issueAt {
					t.issueAt = rt
				}
				t.btb[idx] = eff.target
			}
		}
	}
}
