package lfi

// One testing.B benchmark per table and figure of the paper's evaluation
// (§6), plus the simulator's raw speed. Each figure benchmark runs the
// corresponding harness and reports the headline numbers as custom
// metrics, so
//
//	go test -bench=. -benchmem
//
// regenerates the whole evaluation. Workloads run at a reduced scale to
// keep the suite fast; use cmd/lfi-bench -scale 1 for full-size runs. The
// ablations of the design choices DESIGN.md calls out are in
// internal/bench.

import (
	"encoding/binary"
	"testing"

	"lfi/internal/arm64"
	"lfi/internal/bench"
	"lfi/internal/core"
	"lfi/internal/elfobj"
	"lfi/internal/emu"
	"lfi/internal/fuzz"
	"lfi/internal/hwmodel"
	"lfi/internal/lfirt"
	"lfi/internal/progs"
	"lfi/internal/verifier"
	"lfi/internal/wasmfront"
	"lfi/internal/workloads"
)

const benchScale = 0.08

func reportOverheads(b *testing.B, rows []bench.OverheadRow, systems []string) {
	b.Helper()
	for _, sys := range systems {
		b.ReportMetric(bench.Geomean(rows, sys), "pct_"+metricName(sys))
	}
}

func metricName(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
			out = append(out, r)
		case r == ' ', r == '(', r == ')', r == ',':
		default:
			out = append(out, '_')
		}
	}
	return string(out)
}

// BenchmarkFig3M1 regenerates Figure 3 (optimization levels O0/O1/O2 and
// no-loads vs native) on the Apple M1 model.
func BenchmarkFig3M1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := &bench.Runner{Model: emu.ModelM1(), Scale: benchScale}
		rows, err := r.Fig3()
		if err != nil {
			b.Fatal(err)
		}
		reportOverheads(b, rows, bench.Fig3Systems)
	}
}

// BenchmarkFig3T2A regenerates Figure 3 on the GCP T2A model.
func BenchmarkFig3T2A(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := &bench.Runner{Model: emu.ModelT2A(), Scale: benchScale}
		rows, err := r.Fig3()
		if err != nil {
			b.Fatal(err)
		}
		reportOverheads(b, rows, bench.Fig3Systems)
	}
}

// BenchmarkFig4M1 regenerates Figure 4 (LFI vs WebAssembly engines) on
// the M1 model; the geomean row is Table 4's M1 column.
func BenchmarkFig4M1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := &bench.Runner{Model: emu.ModelM1(), Scale: benchScale}
		rows, err := r.Fig4()
		if err != nil {
			b.Fatal(err)
		}
		reportOverheads(b, rows, bench.Fig4Systems())
	}
}

// BenchmarkFig4T2A regenerates Figure 4 on the T2A model; the geomean row
// is Table 4's T2A column.
func BenchmarkFig4T2A(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := &bench.Runner{Model: emu.ModelT2A(), Scale: benchScale}
		rows, err := r.Fig4()
		if err != nil {
			b.Fatal(err)
		}
		reportOverheads(b, rows, bench.Fig4Systems())
	}
}

// BenchmarkFig5 regenerates Figure 5 (LFI vs KVM nested paging, M1).
func BenchmarkFig5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := &bench.Runner{Model: emu.ModelM1(), Scale: benchScale}
		rows, err := r.Fig5()
		if err != nil {
			b.Fatal(err)
		}
		reportOverheads(b, rows, []string{"QEMU KVM", "LFI"})
	}
}

// BenchmarkCodeSize regenerates the §6.3 code-size comparison.
func BenchmarkCodeSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.CodeSize(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		text, file, wasm := bench.GeomeanCodeSize(rows)
		b.ReportMetric(text, "pct_text")
		b.ReportMetric(file, "pct_binary")
		b.ReportMetric(wasm, "pct_wasm")
	}
}

// BenchmarkTable5M1 regenerates the Table 5 microbenchmarks on the M1
// model (ns per operation).
func BenchmarkTable5M1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.Table5(emu.ModelM1(), hwmodel.M1(), 500)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			b.ReportMetric(r.LFInS, "ns_lfi_"+r.Benchmark)
			if r.LinuxNS > 0 {
				b.ReportMetric(r.LinuxNS, "ns_linux_"+r.Benchmark)
			}
		}
	}
}

// BenchmarkTable5T2A regenerates Table 5 on the T2A model, including the
// gVisor column.
func BenchmarkTable5T2A(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.Table5(emu.ModelT2A(), hwmodel.T2A(), 500)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			b.ReportMetric(r.LFInS, "ns_lfi_"+r.Benchmark)
			if r.GVisorNS > 0 {
				b.ReportMetric(r.GVisorNS, "ns_gvisor_"+r.Benchmark)
			}
		}
	}
}

// BenchmarkVerifierThroughput measures the §5.2 verifier alone, in host
// wall clock. /large verifies the 343 KB text segment of a 20 000-statement
// generated program at O2, split across the cores as Verify splits it;
// /kernel verifies 502.gcc's few hundred bytes of text at scale 1, where
// the fixed cost of a call shows.
func BenchmarkVerifierThroughput(b *testing.B) {
	w, _ := workloads.Get("502.gcc")
	for _, c := range []struct{ name, src string }{
		{"large", fuzz.NewGen(1).Generate(20000)},
		{"kernel", w.Source(1)},
	} {
		b.Run(c.name, func(b *testing.B) {
			res, err := Compile(c.src, CompileOptions{Opt: O2})
			if err != nil {
				b.Fatal(err)
			}
			exe, err := elfobj.Unmarshal(res.ELF)
			if err != nil {
				b.Fatal(err)
			}
			text, err := exe.TextSegment()
			if err != nil {
				b.Fatal(err)
			}
			cfg := verifier.DefaultConfig()
			cfg.TextOff = text.Vaddr
			b.SetBytes(int64(len(text.Data)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := verifier.Verify(text.Data, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCodec measures the encoding table alone, per instruction word:
// /decode runs arm64.DecodeInto and /encode arm64.Encode over the text of
// a 20 000-statement generated program at O2 (85 821 words), the words the
// verifier decodes and the assembler encodes in the build benchmark.
func BenchmarkCodec(b *testing.B) {
	res, err := Compile(fuzz.NewGen(1).Generate(20000), CompileOptions{Opt: O2})
	if err != nil {
		b.Fatal(err)
	}
	exe, err := elfobj.Unmarshal(res.ELF)
	if err != nil {
		b.Fatal(err)
	}
	text, err := exe.TextSegment()
	if err != nil {
		b.Fatal(err)
	}
	words := make([]uint32, len(text.Data)/4)
	insts := make([]arm64.Inst, len(words))
	for j := range words {
		words[j] = binary.LittleEndian.Uint32(text.Data[4*j:])
		if err := arm64.DecodeInto(words[j], &insts[j]); err != nil {
			b.Fatal(err)
		}
	}
	perWord := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(words)), "ns/word")
	}
	b.Run("decode", func(b *testing.B) {
		var in arm64.Inst
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, w := range words {
				if err := arm64.DecodeInto(w, &in); err != nil {
					b.Fatal(err)
				}
			}
		}
		perWord(b)
	})
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for j := range insts {
				if w, err := arm64.Encode(&insts[j]); err != nil || w != words[j] {
					b.Fatalf("%v: %#08x, %v; want %#08x", insts[j], w, err, words[j])
				}
			}
		}
		perWord(b)
	})
}

// BenchmarkWasmValidator measures the Wasm reader, which validates as it
// builds the translator's IR, on a generated module (§5.2's WABT
// comparison).
func BenchmarkWasmValidator(b *testing.B) {
	mod := wasmfront.SampleThroughput(16, 64<<10)
	b.SetBytes(int64(len(mod)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := wasmfront.Decode(mod); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEmu measures the simulator's raw speed, emulated instructions
// per second of host time, for each executor on each kernel: "fast" is
// the predecoded-block fast path, "step" the per-step reference
// interpreter it must match bit for bit. Only RunProc is timed; building,
// loading and verifying are not. The benchmark's exec workload measures
// the fast path at its own scale; no workload runs the per-step
// interpreter, so this is where the two executors are compared.
func BenchmarkEmu(b *testing.B) {
	kernels := workloads.All()
	elfs := make([][]byte, len(kernels))
	for i, w := range kernels {
		res, err := progs.Build(w.Source(benchScale), core.Options{Opt: core.O2})
		if err != nil {
			b.Fatal(err)
		}
		elfs[i] = res.ELF
	}
	for _, ex := range []struct {
		name     string
		fastpath bool
	}{{"fast", true}, {"step", false}} {
		for i, w := range kernels {
			b.Run(ex.name+"/"+w.Name, func(b *testing.B) {
				var instrs uint64
				for n := 0; n < b.N; n++ {
					b.StopTimer()
					cfg := lfirt.DefaultConfig()
					cfg.Model = emu.ModelM1()
					rt := lfirt.New(cfg)
					rt.CPU.SetFastpath(ex.fastpath)
					p, err := rt.Load(elfs[i])
					if err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
					if status, err := rt.RunProc(p); err != nil || status != 0 {
						b.Fatalf("exit status %d, err %v", status, err)
					}
					instrs += rt.CPU.Instrs
				}
				b.ReportMetric(float64(instrs)/1e6/b.Elapsed().Seconds(), "minstr/s")
			})
		}
	}
}
