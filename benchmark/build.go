package main

import (
	"fmt"
	"time"

	"lfi"
	"lfi/internal/arm64"
	"lfi/internal/core"
	"lfi/internal/elfobj"
	"lfi/internal/fuzz"
	"lfi/internal/rewrite"
	"lfi/internal/verifier"
	"lfi/internal/workloads"
)

// buildWorkload is source → verified image, in-process, one goroutine.
// The toolchain layers do all the work; emu, lfirt, pool and serve do
// none. The large generated programs expose per-byte cost, the small
// images per-image fixed cost (what POST /v1/images pays).
//
// Work item: one byte of source. Operation: one image built at one
// optimisation level, Compile then Verify, the way a user does it.
type buildWorkload struct {
	cfg config
	sz  sizes
	inputHash

	inputs []buildInput
}

type buildInput struct {
	name string
	asm  string // assembly source, or
	wasm []byte // a Wasm module
	// nativeText is the unguarded text size, for the kernels only: they
	// carry the modelled text overhead, independent of the seed.
	nativeText int
}

func (in *buildInput) size() int { return len(in.asm) + len(in.wasm) }

func (w *buildWorkload) setup() error {
	w.reset()
	w.inputs = nil
	for _, k := range workloads.All() {
		src := k.Source(1)
		nat, err := lfi.CompileNative(src)
		if err != nil {
			return fmt.Errorf("%s native: %w", k.Name, err)
		}
		w.inputs = append(w.inputs, buildInput{name: k.Name, asm: src, nativeText: nat.TextSize})
	}
	for _, s := range wasmSamples {
		w.inputs = append(w.inputs, buildInput{name: s, wasm: testdataFile(s + ".wasm")})
	}
	for i := 0; i < w.sz.largePrograms; i++ {
		src := fuzz.NewGen(w.cfg.seed + int64(i)).Generate(w.sz.largeStmts)
		w.inputs = append(w.inputs, buildInput{name: fmt.Sprintf("generated-%d", i), asm: src})
	}
	for _, in := range w.inputs {
		w.add(in.name, in.asm, string(in.wasm))
	}
	w.round(nil) // warm-up
	return nil
}

func (w *buildWorkload) close() {}

func (w *buildWorkload) round(tr *tracer) *round {
	r := &round{sequential: true, model: map[string]float64{}, layer: map[string]float64{}}
	var guarded, native []float64
	var rw rewrite.Stats
	var textBytes, rejects int
	wholeMS := 0.0 // asm inputs only: what unattributed is a share of
	start := time.Now()
	for _, opt := range []lfi.OptLevel{lfi.O0, lfi.O2} {
		for i := range w.inputs {
			in := &w.inputs[i]
			op := r.attempted
			r.attempted++
			t0 := time.Now()
			var b built
			var err error
			if tr == nil {
				b, err = buildWhole(in, opt)
			} else {
				b, err = buildParts(tr, op, in, opt)
			}
			ms := float64(time.Since(t0).Nanoseconds()) / 1e6
			r.opsMS = append(r.opsMS, ms)
			if in.wasm == nil {
				wholeMS += ms
			}
			if err != nil {
				rejects++
				r.fail("%s at O%d: %v", in.name, opt, err)
				continue
			}
			r.work += float64(in.size())
			textBytes += b.verified
			if opt == lfi.O2 && in.nativeText != 0 {
				guarded = append(guarded, float64(b.text))
				native = append(native, float64(in.nativeText))
				addRewriteStats(&rw, b.stats)
			}
		}
	}
	r.wall = time.Since(start)
	r.model["modelled_cost"] = overheadPct(guarded, native)

	rewriteCounts(r.layer, rw)
	r.layer["arm64.src_mb"] = r.work / 1e6
	r.layer["verifier.text_mb"] = float64(textBytes) / 1e6
	r.layer["verifier.rejects"] = float64(rejects)
	if tr == nil {
		r.layer["_build.whole_ms"] = wholeMS
		return r
	}
	self := tr.selfMS()
	r.layer["arm64.parse_ms"] = self["arm64.ParseFile"]
	r.layer["arm64.assemble_ms"] = self["arm64.Assemble"]
	r.layer["rewrite.o0_ms"] = self["rewrite.Rewrite.O0"]
	r.layer["rewrite.o2_ms"] = self["rewrite.Rewrite.O2"]
	r.layer["elfobj.marshal_ms"] = self["elfobj.Marshal"]
	r.layer["elfobj.unmarshal_ms"] = self["elfobj.Unmarshal"]
	r.layer["verifier.ms"] = self["verifier.Verify"]
	r.layer["verifier.mb_per_s"] = float64(textBytes) / 1e6 / (self["verifier.Verify"] / 1e3)
	r.layer["wasmfront.compile_us"] = self["lfi.CompileWasm"] * 1e3 / float64(2*len(wasmSamples))
	r.layer["_build.parts_ms"] = self["arm64.ParseFile"] + self["rewrite.Rewrite.O0"] + self["rewrite.Rewrite.O2"] +
		self["arm64.Assemble"] + self["elfobj.Marshal"] + self["elfobj.Unmarshal"] + self["verifier.Verify"]
	return r
}

func addRewriteStats(sum *rewrite.Stats, s rewrite.Stats) {
	sum.InputInsts += s.InputInsts
	sum.OutputInsts += s.OutputInsts
	sum.GuardsFolded += s.GuardsFolded
	sum.GuardsHoisted += s.GuardsHoisted
	sum.SPElided += s.SPElided
}

// rewriteCounts reports what the rewriter did to the fourteen kernels at
// O2: the counts behind the modelled overheads.
func rewriteCounts(layer map[string]float64, s rewrite.Stats) {
	layer["rewrite.insts_in"] = float64(s.InputInsts)
	layer["rewrite.insts_out_o2"] = float64(s.OutputInsts)
	layer["rewrite.guards_folded"] = float64(s.GuardsFolded)
	layer["rewrite.guards_hoisted"] = float64(s.GuardsHoisted)
	layer["rewrite.sp_elided"] = float64(s.SPElided)
}

// finish derives the ledger remainder: the share of Compile+Verify on the
// assembly inputs that the separately timed parts do not account for.
// Compile also pretty-prints the rewritten file; that lands here.
func (w *buildWorkload) finish(layers layerSet, _ *[]string) {
	if whole := layers.get("_build.whole_ms"); whole > 0 {
		layers.set("build.unattributed_pct", (whole-layers.get("_build.parts_ms"))/whole*100)
	}
}

// built is what either build path reports about one image.
type built struct {
	text     int // text bytes emitted
	verified int // text bytes the verifier accepted
	stats    rewrite.Stats
}

// buildWhole builds the way a user does: Compile, then Verify the ELF.
func buildWhole(in *buildInput, opt lfi.OptLevel) (built, error) {
	opts := lfi.CompileOptions{Opt: opt}
	var res *lfi.CompileResult
	var err error
	if in.wasm != nil {
		res, err = lfi.CompileWasm(in.wasm, opts)
	} else {
		res, err = lfi.Compile(in.asm, opts)
	}
	if err != nil {
		return built{}, err
	}
	vs, err := lfi.Verify(res.ELF)
	if err != nil {
		return built{}, err
	}
	return built{text: res.TextSize, verified: vs.Bytes, stats: res.Stats}, nil
}

// buildParts calls the same pipeline one layer at a time, a span round
// each call. A Wasm module enters through lfi.CompileWasm as a whole —
// the front-end's own stages are not public — and rejoins at Unmarshal.
func buildParts(tr *tracer, op int, in *buildInput, opt lfi.OptLevel) (built, error) {
	root := tr.begin("build.image", op, -1)
	defer tr.end(root)
	var b built
	var elfBytes []byte
	if in.wasm != nil {
		s := tr.begin("lfi.CompileWasm", op, root)
		res, err := lfi.CompileWasm(in.wasm, lfi.CompileOptions{Opt: opt})
		tr.end(s)
		if err != nil {
			return b, err
		}
		elfBytes, b.text, b.stats = res.ELF, res.TextSize, res.Stats
	} else {
		s := tr.begin("arm64.ParseFile", op, root)
		f, err := arm64.ParseFile(in.asm)
		tr.end(s)
		if err != nil {
			return b, err
		}
		s = tr.begin(fmt.Sprintf("rewrite.Rewrite.O%d", opt), op, root)
		nf, stats, err := rewrite.Rewrite(f, core.Options{Opt: core.OptLevel(opt)})
		tr.end(s)
		if err != nil {
			return b, err
		}
		s = tr.begin("arm64.Assemble", op, root)
		img, err := arm64.Assemble(nf, arm64.Layout{TextBase: core.MinCodeOffset, PageSize: 16 * 1024})
		tr.end(s)
		if err != nil {
			return b, err
		}
		s = tr.begin("elfobj.Marshal", op, root)
		elfBytes, err = elfobj.FromImage(img).Marshal()
		tr.end(s)
		if err != nil {
			return b, err
		}
		b.text, b.stats = len(img.Text), stats
	}
	s := tr.begin("elfobj.Unmarshal", op, root)
	exe, err := elfobj.Unmarshal(elfBytes)
	var text *elfobj.Segment
	if err == nil {
		text, err = exe.TextSegment()
	}
	tr.end(s)
	if err != nil {
		return b, err
	}
	cfg := verifier.DefaultConfig()
	cfg.TextOff = text.Vaddr
	s = tr.begin("verifier.Verify", op, root)
	vs, err := verifier.Verify(text.Data, cfg)
	tr.end(s)
	if err != nil {
		return b, err
	}
	b.verified = vs.Bytes
	return b, nil
}
