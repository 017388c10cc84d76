package lfirt

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"lfi/internal/core"
	"lfi/internal/progs"
)

// servingRT is a runtime configured the way pool.Config{}.RuntimeConfig()
// configures a worker's (this package cannot import pool): a 1MiB stack
// and per-process output only.
func servingRT() *Runtime {
	cfg := DefaultConfig()
	cfg.StackSize = 1 << 20
	cfg.LocalOutput = true
	return New(cfg)
}

// handlerSrc is the benchmark's `handler` image: a short loop and a write
// in a text padded to ≈4.5k instructions, the size of a real handler's.
func handlerSrc() string {
	var pad strings.Builder
	for i := 0; i < 1500; i++ {
		fmt.Fprintf(&pad, "\tadd x9, x9, #%d\n\teor x10, x10, x9\n\tstr x10, [x25]\n", i%1024)
	}
	return `_start:
	mov x9, #0
	mov x10, #64
loop:
	add x9, x9, #1
	cmp x9, x10
	b.lt loop
	mov x0, #1
` + la("x1", "msg") + `	mov x2, #8
` + progs.RTCall(core.RTWrite) + progs.ExitCode(0) + `	b done
` + pad.String() + `done:
.rodata
msg:
	.ascii "handler\n"
`
}

// warmImages snapshots the benchmark's `tiny` and `handler` programs in a
// scratch runtime, as pool.Cache.makeImage does.
func warmImages(t testing.TB) map[string]*Snapshot {
	t.Helper()
	snaps := map[string]*Snapshot{}
	for name, src := range map[string]string{"tiny": writerSrc("tiny-job", 0), "handler": handlerSrc()} {
		rt := servingRT()
		p, err := rt.Load(build(t, src))
		if err != nil {
			t.Fatal(err)
		}
		if snaps[name], err = rt.Snapshot(p); err != nil {
			t.Fatal(err)
		}
	}
	return snaps
}

// warmCycle is what a served job costs the runtime: instantiate a clone,
// run it to exit, release it.
func warmCycle(t testing.TB, rt *Runtime, snap *Snapshot) {
	p, err := rt.Restore(snap)
	if err != nil {
		t.Fatal(err)
	}
	rt.Start(p)
	if status, err := rt.RunProc(p); err != nil || status != 0 {
		t.Fatalf("clone: status=%d err=%v", status, err)
	}
}

// TestWarmCycleAllocs is the sibling of TestTransitionAllocs for the
// instantiate–run–release path: a warm cycle allocates no page-sized
// object. Restore installs references to the snapshot's bytes, the pages a
// clone dirties come from the address space's free list, and release hands
// them back, so a cycle allocates its descriptors — a Proc, an fd table,
// one page-descriptor slab — and nothing that scales with page bytes.
// Before pages were shared the figure was ≈70KB a cycle. Not run under
// -race (the detector allocates on its own account).
func TestWarmCycleAllocs(t *testing.T) {
	const cycles, maxMean = 200, 6 << 10
	for name, snap := range warmImages(t) {
		rt := servingRT()
		for i := 0; i < 10; i++ {
			warmCycle(t, rt, snap)
		}
		var total, worst uint64
		var before, after runtime.MemStats
		for i := 0; i < cycles; i++ {
			runtime.ReadMemStats(&before)
			warmCycle(t, rt, snap)
			runtime.ReadMemStats(&after)
			d := after.TotalAlloc - before.TotalAlloc
			total += d
			worst = max(worst, d)
		}
		t.Logf("%-8s %d pages: %d bytes allocated per cycle, worst cycle %d", name, snap.Pages(), total/cycles, worst)
		if total/cycles > maxMean {
			t.Errorf("%s: %d bytes allocated per warm cycle, want <= %d", name, total/cycles, maxMean)
		}
		// No single cycle allocates a page's worth, so none allocates a page.
		if worst >= rt.cfg.PageSize {
			t.Errorf("%s: one cycle allocated %d bytes, a page (%d) or more", name, worst, rt.cfg.PageSize)
		}
	}
}

// BenchmarkWarmCycle is the profile loop behind EXPERIMENTS.md "Host cost
// of instantiating a sandbox": go test -bench WarmCycle -cpuprofile.
func BenchmarkWarmCycle(b *testing.B) {
	for name, snap := range warmImages(b) {
		b.Run(name, func(b *testing.B) {
			rt := servingRT()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				warmCycle(b, rt, snap)
			}
		})
	}
}

// BenchmarkSnapshot is the runtime half of registering an image — load,
// snapshot, release, as pool.Cache.makeImage and the benchmark's ladder do
// — with verification off, so that the profile shows the page walks.
func BenchmarkSnapshot(b *testing.B) {
	elf := build(b, handlerSrc())
	rt := servingRT()
	rt.cfg.Verify = false
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p, err := rt.Load(elf)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := rt.Snapshot(p); err != nil {
			b.Fatal(err)
		}
		rt.KillProcess(p, 0)
	}
}
