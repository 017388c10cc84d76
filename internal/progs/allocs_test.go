package progs_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"runtime"
	"testing"

	"lfi/internal/arm64"
	"lfi/internal/core"
	"lfi/internal/fuzz"
	"lfi/internal/progs"
	"lfi/internal/rewrite"
	"lfi/internal/verifier"
	"lfi/internal/workloads"
)

// maxAllocsPerInst bounds what a build may allocate, per input
// instruction, on a 5 000-statement generated program at O2. Before the
// toolchain sized its buffers the figure was 4.603 (78 907 allocations
// for 17 144 instructions); it is now 0.004 (75, all of them per build or
// per tbz/tbnz rather than per instruction). The bound leaves room for
// more per-build allocations and none for a per-instruction one.
const maxAllocsPerInst = 0.02

// TestBuildAllocs gates the toolchain on allocations, which repeat
// exactly on every machine, rather than on time, which does not. The
// second row builds and verifies a 20 000-statement program with every
// stage in four chunks: the chunks share the single pass's reservations,
// so they may allocate no more than 64 KiB beyond it, which rules out a
// copy of the item list per chunk.
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
	checkPerInst(t, "progs.Build", allocs, res.Stats.InputInsts)

	src = fuzz.NewGen(1).Generate(20000)
	var heap [2]float64
	for i, k := range []int{1, 4} {
		b, err := buildChunked(src, opts, k)
		if err != nil {
			t.Fatal(err)
		}
		allocs, heap[i] = allocated(3, func() {
			if _, err := buildChunked(src, opts, k); err != nil {
				t.Fatal(err)
			}
		})
		checkPerInst(t, fmt.Sprintf("%d chunks", k), allocs, b.rw.InputInsts)
	}
	t.Logf("%.0f bytes in one chunk, %.0f in four", heap[0], heap[1])
	if heap[1] > heap[0]+64<<10 {
		t.Errorf("four chunks allocate %.0f bytes, one %.0f: more than 64 KiB apart", heap[1], heap[0])
	}
}

func checkPerInst(t *testing.T, name string, allocs float64, insts int) {
	t.Helper()
	perInst := allocs / float64(insts)
	t.Logf("%s: %.0f allocations for %d input instructions: %.4f per instruction", name, allocs, insts, perInst)
	if perInst > maxAllocsPerInst {
		t.Errorf("%s: %.4f allocations per input instruction, bound %.2f", name, perInst, maxAllocsPerInst)
	}
}

// TestVerifyAllocs: the verifier decodes and checks each word in one
// step and carries only its open obligations from one to the next, so it
// allocates nothing to accept a kernel or, in one chunk, a 343 KB
// generated text. Cut across the cores, it allocates per chunk, not per
// instruction: a 12 MiB text (about the largest a POST /v1/images body
// carries) costs as many allocations as half of it, and at most 64 KiB.
// A rejection allocates the *Error and its strings, however long the
// text.
func TestVerifyAllocs(t *testing.T) {
	w, _ := workloads.Get("502.gcc")
	kernel, cfg := imageText(t, w.Source(1), core.Options{Opt: core.O2})
	large, _ := imageText(t, fuzz.NewGen(1).Generate(20000), core.Options{Opt: core.O2})
	huge := bytes.Repeat(large, 36)
	check := func(name string, text []byte, k int, reject bool) float64 {
		t.Helper()
		verify := func() {
			if _, err := verifyText(text, cfg, k); (err != nil) != reject {
				t.Fatalf("%s: %v", name, err)
			}
		}
		verify() // first use: goroutines, lazily sized runtime tables
		// The fewest over five calls: the count is process-wide, and a
		// longer call leaves more time for the runtime to allocate too.
		allocs, heap := allocated(1, verify)
		for range 4 {
			a, h := allocated(1, verify)
			allocs, heap = min(allocs, a), max(heap, h)
		}
		t.Logf("%s (%d bytes, k=%d): %.1f allocations, %.0f bytes", name, len(text), k, allocs, heap)
		if !reject && k == 1 && allocs != 0 {
			t.Errorf("%s: %.1f allocations to accept in one chunk, want 0", name, allocs)
		}
		if heap > 64<<10 {
			t.Errorf("%s: %.0f bytes allocated, bound 64 KiB", name, heap)
		}
		return allocs
	}
	check("kernel", kernel, 0, false)
	check("generated", large, 1, false)
	// Within one: a chunk's goroutine reuses a free descriptor or
	// allocates one.
	half := check("half of 12 MiB", huge[:len(huge)/2], 0, false)
	if all := check("12 MiB", huge, 0, false); all > half+1 {
		t.Errorf("12 MiB: %.1f allocations, half of it %.1f: the count depends on the text size", all, half)
	}

	withSVC := func(text []byte) []byte {
		return binary.LittleEndian.AppendUint32(append([]byte(nil), text...), 0xd4000001) // svc #0
	}
	small := check("kernel with svc", withSVC(kernel), 1, true)
	if big := check("12 MiB with svc", withSVC(huge), 1, true); big != small || small > 4 {
		t.Errorf("rejection: %.1f allocations on the kernel, %.1f on 12 MiB; want the same few", small, big)
	}
}

// imageText is the rewritten, assembled text of src and the
// configuration that verifies it.
func imageText(t *testing.T, src string, opts core.Options) ([]byte, verifier.Config) {
	t.Helper()
	f, err := arm64.ParseFile(src)
	if err != nil {
		t.Fatal(err)
	}
	nf, _, err := rewrite.Rewrite(f, opts)
	if err != nil {
		t.Fatal(err)
	}
	img, err := arm64.Assemble(nf, arm64.Layout{TextBase: core.MinCodeOffset, PageSize: 16 * 1024})
	if err != nil {
		t.Fatal(err)
	}
	cfg := verifier.DefaultConfig()
	cfg.TextOff = img.TextAddr
	return img.Text, cfg
}

// allocated is the mean count and size of the heap allocations of fn.
func allocated(runs int, fn func()) (allocs, bytes float64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs), float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
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
