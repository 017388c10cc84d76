package emu

import (
	"math"
	"strings"
	"testing"

	"lfi/internal/arm64"
	"lfi/internal/mem"
)

// runTimed executes src with a fresh timing context and returns the cycles.
func runTimed(t *testing.T, model *CoreModel, src string) (*CPU, *Timing) {
	t.Helper()
	f, err := arm64.ParseFile(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	img, err := arm64.Assemble(f, arm64.Layout{TextBase: textBase, PageSize: 16384})
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	as := mem.NewAddrSpace(16384)
	if err := as.Map(textBase, 1<<20, mem.PermRX); err != nil {
		t.Fatal(err)
	}
	as.WriteForce(img.Text, textBase)
	dataBase := uint64(0x4000000)
	if err := as.Map(dataBase, 1<<22, mem.PermRW); err != nil {
		t.Fatal(err)
	}
	c := New(as)
	c.PC = img.Entry
	c.SetSP(dataBase + 1<<22)
	c.X()[1] = dataBase
	tim := NewTiming(model)
	c.Timing = tim
	tr := c.Run(10_000_000)
	if tr.Kind != TrapBRK {
		t.Fatalf("trap = %v, want brk", tr)
	}
	return c, tim
}

// loop wraps a body in a 10k-iteration countdown loop.
func loop(body string) string {
	return `
_start:
	movz x9, #10000
outer:
` + body + `
	sub x9, x9, #1
	cbnz x9, outer
	brk #0
`
}

// TestGuardLatency verifies the microarchitectural premise of §4: a
// dependent chain of extended-register adds (the classic guard) runs at 2
// cycles per op while plain adds run at 1.
func TestGuardLatency(t *testing.T) {
	plain := loop(strings.Repeat("\tadd x0, x0, x2\n", 8))
	guard := loop(strings.Repeat("\tadd x0, x0, w2, uxtw\n", 8))
	_, tp := runTimed(t, ModelM1(), plain)
	_, tg := runTimed(t, ModelM1(), guard)
	ratio := tg.Cycles() / tp.Cycles()
	if ratio < 1.7 || ratio > 2.3 {
		t.Errorf("guard/plain cycle ratio = %.2f, want ~2", ratio)
	}
}

// TestZeroCostAddressing verifies §4.1: a register-offset load with uxtw
// extension costs the same as a plain base-register load.
func TestZeroCostAddressing(t *testing.T) {
	base := loop(strings.Repeat("\tldr x0, [x1]\n\tadd x0, x0, #1\n", 4))
	guarded := loop(strings.Repeat("\tldr x0, [x1, w10, uxtw]\n\tadd x0, x0, #1\n", 4))
	_, tb := runTimed(t, ModelM1(), base)
	_, tg := runTimed(t, ModelM1(), guarded)
	ratio := tg.Cycles() / tb.Cycles()
	if ratio < 0.95 || ratio > 1.05 {
		t.Errorf("guarded-addressing/base cycle ratio = %.3f, want ~1", ratio)
	}
}

// TestO0GuardOverhead verifies that the two-instruction O0 guard sequence
// before each load costs measurably more than the folded form.
func TestO0GuardOverhead(t *testing.T) {
	folded := loop(strings.Repeat("\tldr x0, [x1, w10, uxtw]\n\tadd x3, x0, x4\n", 4))
	o0 := loop(strings.Repeat("\tadd x18, x1, w10, uxtw\n\tldr x0, [x18]\n\tadd x3, x0, x4\n", 4))
	_, tf := runTimed(t, ModelM1(), folded)
	_, to := runTimed(t, ModelM1(), o0)
	if to.Cycles() <= tf.Cycles()*1.1 {
		t.Errorf("O0 guard %.0f cycles vs folded %.0f: expected clear overhead",
			to.Cycles(), tf.Cycles())
	}
}

func TestILPIsModeled(t *testing.T) {
	// Independent adds should run near issue width, dependent adds at 1/cycle.
	indep := loop("\tadd x0, x0, #1\n\tadd x2, x2, #1\n\tadd x3, x3, #1\n\tadd x4, x4, #1\n")
	dep := loop("\tadd x0, x0, #1\n\tadd x0, x0, #1\n\tadd x0, x0, #1\n\tadd x0, x0, #1\n")
	_, ti := runTimed(t, ModelM1(), indep)
	_, td := runTimed(t, ModelM1(), dep)
	if td.Cycles() < ti.Cycles()*1.5 {
		t.Errorf("dependent chain %.0f vs independent %.0f: ILP not modeled",
			td.Cycles(), ti.Cycles())
	}
}

func TestBranchPredictorCounts(t *testing.T) {
	// A data-dependent alternating branch mispredicts often; a loop branch
	// almost never.
	alternating := loop(`
	eor x5, x5, #1
	cbz x5, skip
	add x6, x6, #1
skip:
`)
	_, ta := runTimed(t, ModelM1(), alternating)
	stable := loop("\tadd x6, x6, #1\n")
	_, ts := runTimed(t, ModelM1(), stable)
	if ts.Mispredicts > ta.Mispredicts {
		t.Errorf("stable loop mispredicts (%d) exceed alternating (%d)",
			ts.Mispredicts, ta.Mispredicts)
	}
	if ta.Mispredicts < 100 {
		t.Errorf("alternating branch mispredicts = %d, expected many", ta.Mispredicts)
	}
}

func TestTLBModel(t *testing.T) {
	// Striding across many pages must miss the TLB; hitting one page must
	// not. Under nested paging the walks cost twice as much.
	strided := loop(`
	ldr x0, [x1]
	add x1, x1, #16384
	and x1, x1, #0x3fffff
	orr x1, x1, #0x4000000
`)
	m := ModelM1()
	_, tm := runTimed(t, m, strided)
	if tm.TLBMisses < 100 {
		t.Errorf("strided loads TLB misses = %d, expected many", tm.TLBMisses)
	}
	onePage := loop("\tldr x0, [x1]\n")
	_, tp := runTimed(t, m, onePage)
	if tp.TLBMisses > 10 {
		t.Errorf("single-page loads TLB misses = %d", tp.TLBMisses)
	}
	nested := ModelM1()
	nested.NestedPaging = true
	_, tn := runTimed(t, nested, strided)
	if tn.Cycles() <= tm.Cycles()*1.05 {
		t.Errorf("nested paging %.0f cycles vs native %.0f: walk doubling not visible",
			tn.Cycles(), tm.Cycles())
	}
}

func TestTimingAccounting(t *testing.T) {
	_, tim := runTimed(t, ModelT2A(), loop("\tadd x0, x0, #1\n"))
	if tim.Retired == 0 || tim.Cycles() <= 0 {
		t.Fatal("timing not accumulating")
	}
	if tim.Nanoseconds() <= 0 {
		t.Fatal("nanoseconds conversion broken")
	}
	before := tim.Cycles()
	tim.AddCycles(100)
	if tim.Cycles() < before+100 {
		t.Error("AddCycles did not advance the clock")
	}
	tim.Drain()
	if tim.Cycles() < before+100 {
		t.Error("Drain moved the clock backwards")
	}
}

// TestTimingTicks pins the models the scoreboard accepts: every built-in
// one is a whole number of ticks, and a tick that is not a power-of-two
// fraction of a cycle, or a latency that is not a whole number of ticks,
// is refused — integer ticks could not reproduce its float64 cycles.
func TestTimingTicks(t *testing.T) {
	nested := ModelM1()
	nested.NestedPaging = true
	for _, m := range []*CoreModel{ModelM1(), ModelT2A(), nested} {
		if _, err := tickModel(m); err != nil {
			t.Errorf("%s (nested %v): %v", m.Name, m.NestedPaging, err)
		}
	}
	width3 := ModelM1()
	width3.IssueWidth = 3
	fractional := ModelT2A()
	fractional.LoadLat = 4.1
	fractionalWalk := ModelM1()
	fractionalWalk.NestedPaging = true
	fractionalWalk.NestedWalkFactor = 1.01
	for _, m := range []*CoreModel{width3, fractional, fractionalWalk} {
		if _, err := tickModel(m); err == nil {
			t.Errorf("%s: IssueWidth %d LoadLat %v walk factor %v accepted", m.Name, m.IssueWidth, m.LoadLat, m.NestedWalkFactor)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: NewTiming did not refuse the model", m.Name)
				}
			}()
			NewTiming(m)
		}()
	}
}

// TestAddCyclesExact checks the runtime's charges land exactly, a
// negative refund included, and that a charge past the cap saturates
// there.
func TestAddCyclesExact(t *testing.T) {
	tim := NewTiming(ModelM1())
	tim.AddCycles(55)
	tim.AddCycles(46 - 55)
	if got := tim.Cycles(); got != 46 {
		t.Fatalf("55 then -9 cycles = %v, want 46", got)
	}
	tim.AddCycles(0.0625) // one tick
	if got := tim.Cycles(); got != 46.0625 {
		t.Fatalf("one tick more = %v, want 46.0625", got)
	}
	tim.AddCycles(math.MaxFloat64)
	capped := tim.Cycles()
	tim.AddCycles(1e30)
	if tim.Cycles() != capped {
		t.Fatalf("second saturated charge moved the clock: %v → %v", capped, tim.Cycles())
	}
	if capped != maxClock/16 {
		t.Fatalf("saturated clock = %v cycles, want %v", capped, maxClock/16)
	}
}

// TestAddTicksExact checks that the runtime's integer charges move the
// clock exactly as the float charge they replace: for every runtime cost,
// the direct yield's refund, and charges that saturate near maxClock,
// AddTicks(Ticks(c)) and AddCycles(c) leave the issueAt and horizon that
// rounding c cycles to ticks in float64 (the reference below) leaves.
func TestAddTicksExact(t *testing.T) {
	ref := func(t *Timing, c float64) {
		now := t.now()
		d := c * float64(t.perCycle)
		if d >= float64(maxClock-now) {
			now = max(now, maxClock)
		} else {
			now += int64(math.Round(d))
		}
		t.issueAt, t.horizon = now, now
	}
	costs := []int64{55, 46, 60, 25, 2 * 25, 6, 46 - 55}
	for _, m := range []*CoreModel{ModelM1(), ModelT2A()} {
		per := NewTiming(m).perCycle
		for _, start := range []int64{0, 1, 1000, maxClock - 1000, maxClock - 144, maxClock - 1, maxClock, maxClock + 144, maxClock + 1000} {
			charges := append([]int64{(maxClock - start) / per, (maxClock-start)/per + 1, maxClock}, costs...)
			for _, c := range charges {
				for _, behind := range []int64{0, 3} { // horizon behind issueAt, or level
					a, b, want := NewTiming(m), NewTiming(m), NewTiming(m)
					for _, tim := range []*Timing{a, b, want} {
						tim.issueAt, tim.horizon = start, start-behind
					}
					a.AddTicks(a.Ticks(c))
					b.AddCycles(float64(c))
					ref(want, float64(c))
					for _, got := range []*Timing{a, b} {
						if got.issueAt != want.issueAt || got.horizon != want.horizon {
							t.Errorf("%s: %d cycles from %d: issueAt/horizon %d/%d, want %d/%d",
								m.Name, c, start, got.issueAt, got.horizon, want.issueAt, want.horizon)
						}
					}
				}
			}
		}
	}
}
