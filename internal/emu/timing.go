package emu

import (
	"fmt"
	"math"

	"lfi/internal/arm64"
)

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

// maxClock caps the clock AddCycles can reach, in ticks. It is far below
// int64 overflow, so the scoreboard keeps counting after a saturated
// charge, and below 2^53, so Cycles stays exact there too.
const maxClock = 1 << 52

// Timing is the per-run scoreboard state. Every time in it is a count of
// ticks, 1/(2·IssueWidth) of a cycle: an issue slot is two ticks and the
// extended-register penalty (half a slot) one. NewTiming accepts only
// models whose parameters are whole numbers of ticks and whose tick is a
// power-of-two fraction of a cycle, so integer ticks reproduce exactly
// the float64 cycle arithmetic this scoreboard used to do, and Cycles
// converts back without rounding. exec charges each instruction it
// retires here, from the metadata lowered into its slot.
type Timing struct {
	Model *CoreModel

	ready   [256]int64 // by scoreboard slot; a uint8 index needs no bounds check
	issueAt int64      // next front-end issue slot
	horizon int64      // latest completion seen

	// 2-bit bimodal conditional predictor and a last-target BTB for
	// indirect branches.
	bimodal [1024]uint8
	btb     [512]uint64

	tlb        []uint64
	tlbRecip   uint64 // ^uint64(0) / len(tlb): the TLB set without a divide
	walkerFree int64  // page-table walker is not pipelined

	// Model-derived constants in ticks, precomputed by NewTiming so the
	// per-retire path does no divisions, conversions or switch dispatch.
	perCycle   int64      // ticks per cycle: 2·IssueWidth
	latTab     [256]int64 // classLat by latClass, sized like ready
	seLat      int64      // ShiftExtLat
	seIssue    int64      // 1 (half an issue slot) if ShiftExtLat > ALULat, else 0
	aluLat     int64      // ALULat: writeback address updates
	walk       int64      // one page-table walk, nested factor applied
	mispredict int64      // MispredictPenalty
	pageShift  uint

	// Statistics.
	Mispredicts uint64
	TLBMisses   uint64
	Retired     uint64

	// profile, optional: per-PC cycle attribution in ticks. Enable with
	// EnableProfile before running; read with TopPCs.
	profile map[uint64]int64
}

// EnableProfile turns on per-PC cycle attribution.
func (t *Timing) EnableProfile() { t.profile = make(map[uint64]int64) }

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
		out = append(out, PCCost{pc, t.toCycles(c)})
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

// tickModel returns the ticks per cycle of m, or an error if m's cycle
// arithmetic cannot be carried exactly in integer ticks.
func tickModel(m *CoreModel) (int64, error) {
	w := m.IssueWidth
	if w <= 0 || w&(w-1) != 0 {
		return 0, fmt.Errorf("emu: model %s: IssueWidth %d is not a power of two", m.Name, w)
	}
	per := float64(2 * w)
	type param struct {
		name string
		v    float64
	}
	params := []param{
		{"MispredictPenalty", m.MispredictPenalty}, {"ALULat", m.ALULat},
		{"ShiftExtLat", m.ShiftExtLat}, {"LoadLat", m.LoadLat},
		{"MulLat", m.MulLat}, {"DivLat", m.DivLat}, {"FPLat", m.FPLat},
		{"FDivLat", m.FDivLat}, {"FMALat", m.FMALat}, {"BarrierLat", m.BarrierLat},
		{"TLBWalk", m.TLBWalk},
	}
	if m.NestedPaging {
		params = append(params, param{"TLBWalk×NestedWalkFactor", m.TLBWalk * m.NestedWalkFactor})
	}
	for _, p := range params {
		// The bound keeps every sum of latencies far from int64 overflow.
		if x := p.v * per; x != math.Trunc(x) || math.Abs(x) > 1<<40 {
			return 0, fmt.Errorf("emu: model %s: %s %v is not a whole number of 1/%d-cycle ticks", m.Name, p.name, p.v, 2*w)
		}
	}
	return int64(2 * w), nil
}

// NewTiming creates a fresh timing context for the model. It panics if
// the model is not exact in ticks (see Timing); every model this package
// defines is.
func NewTiming(m *CoreModel) *Timing {
	per, err := tickModel(m)
	if err != nil {
		panic(err)
	}
	ticks := func(cycles float64) int64 { return int64(cycles * float64(per)) }
	t := &Timing{Model: m, perCycle: per}
	t.tlb = make([]uint64, m.TLBEntries)
	for i := range t.tlb {
		t.tlb[i] = ^uint64(0)
	}
	if len(t.tlb) > 0 {
		t.tlbRecip = ^uint64(0) / uint64(len(t.tlb))
	}
	for i := range t.bimodal {
		t.bimodal[i] = 1 // weakly not-taken
	}
	for cl := latClass(0); cl <= latBarrier; cl++ {
		t.latTab[cl] = ticks(classLat(m, cl))
	}
	t.seLat = ticks(m.ShiftExtLat)
	if m.ShiftExtLat > m.ALULat {
		t.seIssue = 1
	}
	t.aluLat = ticks(m.ALULat)
	walk := m.TLBWalk
	if m.NestedPaging {
		walk *= m.NestedWalkFactor
	}
	t.walk = ticks(walk)
	t.mispredict = ticks(m.MispredictPenalty)
	t.pageShift = m.PageShift
	return t
}

func (t *Timing) now() int64 { return max(t.issueAt, t.horizon) }

// toCycles converts ticks to cycles; exact, since perCycle is a power of
// two and clock values stay below 2^53.
func (t *Timing) toCycles(ticks int64) float64 { return float64(ticks) / float64(t.perCycle) }

// Cycles returns the elapsed cycle count so far.
func (t *Timing) Cycles() float64 { return t.toCycles(t.now()) }

// Nanoseconds converts the elapsed cycles to wall time on the model.
func (t *Timing) Nanoseconds() float64 { return t.Cycles() / t.Model.FreqGHz }

// Ticks converts a whole number of cycles to ticks, exactly.
func (t *Timing) Ticks(cycles int64) int64 { return cycles * t.perCycle }

// AddTicks charges a flat cost of d ticks (the runtime's host-side work;
// a refund is negative). The clock saturates at maxClock instead of
// overflowing; a charge never moves a clock already past it backwards.
func (t *Timing) AddTicks(d int64) {
	now := t.now()
	if d >= maxClock-now {
		now = max(now, maxClock)
	} else {
		now += d
	}
	t.issueAt, t.horizon = now, now
}

// AddCycles charges c cycles, rounded to the nearest tick, through
// AddTicks; a charge past the clock's range saturates it.
func (t *Timing) AddCycles(c float64) {
	t.AddTicks(int64(math.Round(min(c*float64(t.perCycle), maxClock))))
}

// Drain waits for all in-flight results (context-switch boundary).
func (t *Timing) Drain() {
	now := t.now()
	for _, r := range t.ready[:numSlots] {
		now = max(now, r)
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

func classLat(m *CoreModel, cl latClass) float64 {
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
// instruction alone. Lowering stores it in the instruction's slot, so
// retiring is a handful of integer compares on either executor. The lists
// have fixed length, so retiring takes no data-dependent loop exit.
type retireMeta struct {
	src    [4]uint8 // scoreboard slots read, flags included; padding is slotNone
	dst    [3]uint8 // scoreboard slots written, flags last; padding is slotSink
	wbALU  uint8    // bit k set: dst[k] is a writeback address update
	class  latClass
	branch uint8
}

// Scoreboard slots that pad retireMeta's fixed-length lists: slotNone is
// never written, so it is always ready; slotSink takes padded writes and
// is never read.
const (
	slotNone = 255
	slotSink = 254
)

// buildMeta fills md from i, using (and returning) the scratch register
// buffers to stay allocation-free.
func buildMeta(i *arm64.Inst, md *retireMeta, srcbuf, dstbuf []arm64.Reg) ([]arm64.Reg, []arm64.Reg) {
	md.src = [4]uint8{slotNone, slotNone, slotNone, slotNone}
	md.dst = [3]uint8{slotSink, slotSink, slotSink}
	srcbuf = i.SrcRegs(srcbuf[:0])
	n := 0
	for _, r := range srcbuf {
		if s := regSlot(r); s >= 0 {
			md.src[n] = uint8(s)
			n++
		}
	}
	if i.Op.ReadsFlags() {
		md.src[n] = slotFlags
	}
	dstbuf = i.DestRegs(dstbuf[:0])
	n = 0
	md.wbALU = 0
	wbMem := i.Op.IsMemory() && i.Mem.WritesBack()
	for _, r := range dstbuf {
		if s := regSlot(r); s >= 0 {
			// Writeback address updates complete in one ALU cycle even on
			// long-latency loads.
			if wbMem && r == i.Mem.Base {
				md.wbALU |= 1 << uint(n)
			}
			md.dst[n] = uint8(s)
			n++
		}
	}
	if i.Op.SetsFlags() {
		md.dst[n] = slotFlags
	}
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
