package progs_test

import (
	"testing"

	"lfi/internal/core"
	"lfi/internal/fuzz"
	"lfi/internal/progs"
)

// maxAllocsPerInst bounds what a build may allocate, per input
// instruction, on a 5 000-statement generated program at O2. Before the
// toolchain sized its buffers the figure was 4.603 (78 907 allocations
// for 17 144 instructions); it is now 0.004 (75, all of them per build or
// per tbz/tbnz rather than per instruction). The bound leaves room for
// more per-build allocations and none for a per-instruction one.
const maxAllocsPerInst = 0.02

// TestBuildAllocs gates the toolchain on allocations, which repeat
// exactly on every machine, rather than on time, which does not.
func TestBuildAllocs(t *testing.T) {
	src := fuzz.NewGen(1).Generate(5000)
	opts := core.Options{Opt: core.O2}
	res, err := progs.Build(src, opts)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := progs.Build(src, opts); err != nil {
			t.Fatal(err)
		}
	})
	perInst := allocs / float64(res.Stats.InputInsts)
	t.Logf("%.0f allocations for %d input instructions: %.4f per instruction", allocs, res.Stats.InputInsts, perInst)
	if perInst > maxAllocsPerInst {
		t.Errorf("%.4f allocations per input instruction, bound %.2f", perInst, maxAllocsPerInst)
	}
}

func BenchmarkBuild(b *testing.B) {
	src := fuzz.NewGen(1).Generate(5000)
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := progs.Build(src, core.Options{Opt: core.O2}); err != nil {
			b.Fatal(err)
		}
	}
}
