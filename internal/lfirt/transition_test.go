package lfirt

import (
	"bytes"
	"fmt"
	"testing"

	"lfi/internal/core"
	"lfi/internal/emu"
	"lfi/internal/progs"
	"lfi/internal/workloads"
)

// Tests for the host cost of a transition. The rule (DESIGN.md "Runtime
// calls"): in steady state a runtime call may not allocate, range over a
// map, or cause a block decode. TestTransitionAllocs holds the first
// clause, TestWakeOrderDeterministic and TestWaitReapsLowestPID the second
// (a map on the scheduler's path shows as an order that changes from run
// to run) and TestCrossSlotBlocks the third.

// micro is one Table 5 program: its sources (passive side first) and the
// operations Table 5 credits it with.
type micro struct {
	name string
	ops  int
	srcs []string
}

// elfs builds the program's sources.
func (m micro) elfs(t testing.TB) [][]byte {
	var out [][]byte
	for _, src := range m.srcs {
		out = append(out, build(t, src))
	}
	return out
}

// table5 returns the six Table 5 micro programs at n rounds.
func table5(n int) []micro {
	return []micro{
		{"syscall", n, []string{workloads.SyscallLoop(n)}},
		{"pipe", 2 * n, []string{workloads.PipePing(n)}},
		{"yield", 2 * n, []string{workloads.YieldPing(n, 2), workloads.YieldPing(n, 1)}},
		{"ring", 2 * n, []string{workloads.RingPingPassive(n), workloads.RingPingActive(n)}},
		{"vsubmit1", 2 * n, []string{workloads.VSubmitPing(n, 1, false), workloads.VSubmitPing(n, 1, true)}},
		{"vsubmit8", 16 * n, []string{workloads.VSubmitPing(n, 8, false), workloads.VSubmitPing(n, 8, true)}},
	}
}

// runELFs loads the ELFs in order into a fresh runtime with the M1 model
// and runs them to completion; every process must exit 0.
func runELFs(t testing.TB, elfs ...[]byte) *Runtime {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Model = emu.ModelM1()
	rt := New(cfg)
	var procs []*Proc
	for _, e := range elfs {
		p, err := rt.Load(e)
		if err != nil {
			t.Fatalf("load: %v", err)
		}
		procs = append(procs, p)
	}
	if err := rt.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, p := range procs {
		if s := p.ExitStatus(); s != 0 {
			t.Fatalf("pid %d exited %d, want 0", p.PID, s)
		}
	}
	return rt
}

// strayAllocs is how far two measurements of the same run may differ: the
// count is not quite exact (±2 in one run of 40, from the Go runtime, at
// both n and 2n), and a real per-call allocation is thousands.
const strayAllocs = 8

// TestTransitionAllocs gates the runtime-call path on allocations, which
// repeat on every machine, rather than on time, which does not. Each
// Table 5 program runs at n and at 2n rounds in fresh runtimes; what New
// and Load allocate cancels in the difference, and what is left is what n
// more rounds allocate: nothing. Before the call path stopped allocating
// the figure was 3 to 9 per operation on pipe, ring and both vsubmits (a
// buffer per write, read, send and recv, a closure per send, an escaped
// array per vectored slot and status word).
func TestTransitionAllocs(t *testing.T) {
	const n = 2000
	small, large := table5(n), table5(2*n)
	for i, m := range small {
		allocs := func(m micro) float64 {
			elfs := m.elfs(t)
			return testing.AllocsPerRun(1, func() { runELFs(t, elfs...) })
		}
		a1, a2 := allocs(m), allocs(large[i])
		t.Logf("%-8s %6.0f allocations at n=%d, %6.0f at 2n: %.4f per operation", m.name, a1, n, a2, (a2-a1)/float64(m.ops))
		if a2-a1 > strayAllocs {
			t.Errorf("%s: %.0f more allocations for %d more operations, want none in steady state", m.name, a2-a1, m.ops)
		}
	}
}

// BenchmarkTransitions runs the six Table 5 programs back to back at the
// benchmark's size, load to last exit; with -cpuprofile it is the profile
// EXPERIMENTS.md "Host cost of a transition" quotes.
func BenchmarkTransitions(b *testing.B) {
	var elfs [][][]byte
	for _, m := range table5(50000) {
		elfs = append(elfs, m.elfs(b))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, e := range elfs {
			runELFs(b, e...)
		}
	}
}

// yieldLoop yields to the scheduler n times, then exits 0. Loaded twice,
// the copies run the same code at the same in-slot offsets and alternate
// every round.
func yieldLoop(n int) string {
	return fmt.Sprintf(`
_start:
	movz x20, #%d
loop:
	mov x0, #0
%s	subs x20, x20, #1
	b.ne loop
	mov x0, #0
%s`, n, progs.RTCall(core.RTYield), progs.Exit())
}

// TestCrossSlotBlocks is the regression test for a block cache indexed by
// in-slot offset alone: two sandboxes running code at the same offsets —
// the YieldPing pair, or one image loaded twice — evicted each other's
// blocks, and with them every chain link, on every switch (two decodes a
// round). With the slot in the index the decodes are a constant and the
// loop back-edge is served by its chain link every round.
func TestCrossSlotBlocks(t *testing.T) {
	const maxMisses = 24 // measured: 9 either way, whatever n is
	for _, n := range []int{200, 2000} {
		image := build(t, yieldLoop(n))
		for _, tc := range []struct {
			name string
			elfs [][]byte
		}{
			{"yield-pair", [][]byte{build(t, workloads.YieldPing(n, 2)), build(t, workloads.YieldPing(n, 1))}},
			{"one-image-twice", [][]byte{image, image}},
		} {
			st := runELFs(t, tc.elfs...).Stats().Emu
			t.Logf("%s n=%d: %d block misses, %d hits, %d chain hits", tc.name, n, st.BlockMisses, st.BlockHits, st.ChainHits)
			if st.BlockMisses > maxMisses {
				t.Errorf("%s n=%d: %d block decodes, want <= %d whatever n is", tc.name, n, st.BlockMisses, maxMisses)
			}
			if st.ChainHits < uint64(n) {
				t.Errorf("%s n=%d: %d chain hits, want >= n", tc.name, n, st.ChainHits)
			}
		}
	}
}

// wakeOrderSrc forks three readers of one pipe; each reads a byte at a
// time and writes its own tag ('1'..'3') to stdout for every byte it
// gets. The parent deposits rounds bytes one at a time, yielding to the
// scheduler after each, then closes the pipe and reaps the readers. Which
// reader each byte wakes is the scheduler's choice: stdout records it.
func wakeOrderSrc(rounds int) string {
	rc := progs.RTCall
	fork := func(tag int) string {
		return fmt.Sprintf("\tmov x19, #%d\n", '0'+tag) + rc(core.RTFork) + "\tcbz x0, reader\n"
	}
	return `
_start:
	adrp x0, fds
	add x0, x0, :lo12:fds
` + rc(core.RTPipe) + `	adrp x25, fds
	add x25, x25, :lo12:fds
	ldr w26, [x25]          // read end
	ldr w27, [x25, #4]      // write end
` + fork(1) + fork(2) + fork(3) + `	mov x0, x26
` + rc(core.RTClose) + fmt.Sprintf("\tmov x20, #%d\n", rounds) + `wloop:
	mov x0, x27
	adrp x1, buf
	add x1, x1, :lo12:buf
	mov x2, #1
` + rc(core.RTWrite) + `	mov x0, #0
` + rc(core.RTYield) + `	subs x20, x20, #1
	b.ne wloop
	mov x0, x27
` + rc(core.RTClose) + `	mov x0, #0
` + rc(core.RTWait) + `	mov x0, #0
` + rc(core.RTWait) + `	mov x0, #0
` + rc(core.RTWait) + `	mov x0, #0
` + progs.Exit() + `
reader:
	mov x0, x27
` + rc(core.RTClose) + `	adrp x1, buf
	add x1, x1, :lo12:buf
	strb w19, [x1, #1]
rloop:
	mov x0, x26
	adrp x1, buf
	add x1, x1, :lo12:buf
	mov x2, #1
` + rc(core.RTRead) + `	cbz x0, rdone
	mov x0, #1
	adrp x1, buf
	add x1, x1, :lo12:buf
	add x1, x1, #1
	mov x2, #1
` + rc(core.RTWrite) + `	b rloop
rdone:
	mov x0, #0
` + progs.Exit() + `
.bss
fds:
	.space 8
buf:
	.space 8
`
}

// TestWakeOrderDeterministic pins the scheduler's wake order. Three
// readers block on one pipe and a writer deposits one byte at a time;
// when the wakeup scan ranged over a Go map, which reader got each byte —
// and with it stdout and every later cycle count — changed from run to
// run. The PID-ordered process table makes it the same every time.
func TestWakeOrderDeterministic(t *testing.T) {
	const rounds = 12
	elf := build(t, wakeOrderSrc(rounds))
	var wantOut []byte
	var wantCycles float64
	for i := 0; i < 20; i++ {
		rt := runELFs(t, elf)
		out, cycles := rt.Stdout(), rt.Tim.Cycles()
		if len(out) != rounds {
			t.Fatalf("run %d: %d bytes delivered (%q), want %d", i, len(out), out, rounds)
		}
		if i == 0 {
			wantOut, wantCycles = append([]byte(nil), out...), cycles
			t.Logf("wake sequence %q, %v cycles", out, cycles)
			continue
		}
		if !bytes.Equal(out, wantOut) {
			t.Errorf("run %d: wake sequence %q, first run %q", i, out, wantOut)
		}
		if cycles != wantCycles {
			t.Errorf("run %d: %v cycles, first run %v", i, cycles, wantCycles)
		}
	}
}

// TestWaitReapsLowestPID pins the other scheduler choice that used to
// follow map order: with several zombie children at once, wait() returns
// the lowest PID first. Three children exit at once; the parent yields
// until they have, then writes the digit of each PID wait() returns.
func TestWaitReapsLowestPID(t *testing.T) {
	rc := progs.RTCall
	fork := rc(core.RTFork) + "\tcbz x0, child\n"
	yield := "\tmov x0, #0\n" + rc(core.RTYield)
	wait := "\tmov x0, #0\n" + rc(core.RTWait) + `	add w0, w0, #48 // '0' + PID
	adrp x1, buf
	add x1, x1, :lo12:buf
	strb w0, [x1]
	mov x0, #1
	mov x2, #1
` + rc(core.RTWrite)
	elf := build(t, "_start:\n"+fork+fork+fork+yield+yield+yield+yield+wait+wait+wait+
		progs.ExitCode(0)+"child:\n"+progs.ExitCode(0)+".bss\nbuf:\n\t.space 8\n")
	for i := 0; i < 20; i++ {
		if out := runELFs(t, elf).Stdout(); string(out) != "234" {
			t.Fatalf("run %d: wait() returned PIDs %q, want 2, 3, 4 in order", i, out)
		}
	}
}
