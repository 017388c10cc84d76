// Package bench is the harness that regenerates every table and figure in
// the paper's evaluation (§6): it builds each workload for each system,
// runs it on the timed simulator, verifies that all systems compute the
// same results, and reports percent overheads over native code running in
// the LFI environment — exactly the paper's methodology (§6.1). Every
// number it reports is modelled cycles, a pure function of the source;
// host time is measured by ./benchmark.
package bench

import (
	"fmt"
	"math"

	"lfi/internal/arm64"
	"lfi/internal/core"
	"lfi/internal/emu"
	"lfi/internal/hwmodel"
	"lfi/internal/lfirt"
	"lfi/internal/progs"
	"lfi/internal/wasmbase"
	"lfi/internal/workloads"
)

// Runner executes built programs on a timed runtime instance.
type Runner struct {
	Model *emu.CoreModel
	// Scale multiplies workload iteration counts (1.0 = full size).
	Scale float64
	// NestedPaging doubles TLB walk costs (the KVM configuration).
	NestedPaging bool
}

// RunOutcome is one timed execution.
type RunOutcome struct {
	Cycles   float64
	Instrs   uint64
	Checksum string
}

// runELF loads and runs one binary to completion under a fresh runtime.
func (r *Runner) runELF(elf []byte, verify, noLoads bool) (*RunOutcome, error) {
	model := *r.Model
	model.NestedPaging = r.NestedPaging
	cfg := lfirt.DefaultConfig()
	cfg.Model = &model
	cfg.Verify = verify
	cfg.VerifierCfg.NoLoads = noLoads
	rt := lfirt.New(cfg)
	p, err := rt.Load(elf)
	if err != nil {
		return nil, err
	}
	status, err := rt.RunProc(p)
	if err != nil {
		return nil, err
	}
	if status != 0 {
		return nil, fmt.Errorf("bench: exit status %d", status)
	}
	return &RunOutcome{
		Cycles:   rt.Tim.Cycles(),
		Instrs:   rt.CPU.Instrs,
		Checksum: string(rt.Stdout()),
	}, nil
}

// runNative builds and runs the unguarded baseline.
func (r *Runner) runNative(src string) (*RunOutcome, error) {
	res, err := progs.BuildNative(src)
	if err != nil {
		return nil, err
	}
	return r.runELF(res.ELF, false, false)
}

// runLFI builds, verifies, and runs an LFI configuration.
func (r *Runner) runLFI(src string, opts core.Options) (*RunOutcome, error) {
	res, err := progs.Build(src, opts)
	if err != nil {
		return nil, err
	}
	return r.runELF(res.ELF, true, opts.NoLoads)
}

// buildWasm inserts a Wasm engine model's instrumentation into src and
// builds the result unguarded.
func buildWasm(src string, sys *wasmbase.System) (*progs.BuildResult, error) {
	f, err := arm64.ParseFile(src)
	if err != nil {
		return nil, err
	}
	nf, err := sys.Transform(f)
	if err != nil {
		return nil, err
	}
	return progs.BuildNative(nf.String())
}

// runWasm runs src under a Wasm engine model: the model's instrumentation
// is inserted, the result runs unguarded, and its cycle count is
// multiplied by the engine's codegen factor.
func (r *Runner) runWasm(src string, sys *wasmbase.System) (*RunOutcome, error) {
	res, err := buildWasm(src, sys)
	if err != nil {
		return nil, err
	}
	out, err := r.runELF(res.ELF, false, false)
	if err != nil {
		return nil, err
	}
	out.Cycles *= sys.CodegenFactor
	return out, nil
}

// OverheadRow is one benchmark's percent-over-native numbers, keyed by
// system name.
type OverheadRow struct {
	Workload  string
	Overheads map[string]float64
}

func pct(sys, native float64) float64 { return (sys/native - 1) * 100 }

// Geomean computes the geometric mean of the named column across rows.
func Geomean(rows []OverheadRow, system string) float64 {
	prod := 1.0
	n := 0
	for _, row := range rows {
		if v, ok := row.Overheads[system]; ok {
			prod *= 1 + v/100
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return (math.Pow(prod, 1/float64(n)) - 1) * 100
}

// Fig3Systems are the configurations of Figure 3, in legend order.
var Fig3Systems = []string{"LFI O0", "LFI O1", "LFI O2", "LFI O2, no loads"}

// fig3Row runs src natively and under each Figure 3 configuration, checks
// that every configuration prints what native does, and reports each
// configuration's overhead over native.
func (r *Runner) fig3Row(name, src string) (OverheadRow, error) {
	row := OverheadRow{Workload: name, Overheads: map[string]float64{}}
	native, err := r.runNative(src)
	if err != nil {
		return row, fmt.Errorf("%s native: %w", name, err)
	}
	for i, opts := range []core.Options{
		{Opt: core.O0},
		{Opt: core.O1},
		{Opt: core.O2},
		{Opt: core.O2, NoLoads: true},
	} {
		sys := Fig3Systems[i]
		out, err := r.runLFI(src, opts)
		if err != nil {
			return row, fmt.Errorf("%s %s: %w", name, sys, err)
		}
		if out.Checksum != native.Checksum {
			return row, fmt.Errorf("%s %s: checksum mismatch", name, sys)
		}
		row.Overheads[sys] = pct(out.Cycles, native.Cycles)
	}
	return row, nil
}

// Fig3 measures the optimization-level overheads of Figure 3 on the
// runner's machine model, for every workload.
func (r *Runner) Fig3() ([]OverheadRow, error) {
	var rows []OverheadRow
	for _, w := range workloads.All() {
		row, err := r.fig3Row(w.Name, w.Source(r.Scale))
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// Fig4Systems are the configurations of Figure 4, in legend order.
func Fig4Systems() []string {
	var names []string
	for _, s := range wasmbase.Systems() {
		names = append(names, s.Name)
	}
	return append(names, "LFI")
}

// Fig4 measures the WebAssembly comparison of Figure 4 (and Table 4) on
// the 7 Wasm-compatible workloads.
func (r *Runner) Fig4() ([]OverheadRow, error) {
	var rows []OverheadRow
	for _, w := range workloads.WasmSubset() {
		src := w.Source(r.Scale)
		native, err := r.runNative(src)
		if err != nil {
			return nil, fmt.Errorf("%s native: %w", w.Name, err)
		}
		row := OverheadRow{Workload: w.Name, Overheads: map[string]float64{}}
		for _, sys := range wasmbase.Systems() {
			out, err := r.runWasm(src, sys)
			if err != nil {
				return nil, fmt.Errorf("%s %s: %w", w.Name, sys.Name, err)
			}
			if out.Checksum != native.Checksum {
				return nil, fmt.Errorf("%s %s: checksum mismatch", w.Name, sys.Name)
			}
			row.Overheads[sys.Name] = pct(out.Cycles, native.Cycles)
		}
		lfi, err := r.runLFI(src, core.Options{Opt: core.O2})
		if err != nil {
			return nil, err
		}
		if lfi.Checksum != native.Checksum {
			return nil, fmt.Errorf("%s LFI: checksum mismatch", w.Name)
		}
		row.Overheads["LFI"] = pct(lfi.Cycles, native.Cycles)
		rows = append(rows, row)
	}
	return rows, nil
}

// CoreMark measures the artifact's SPEC-free fallback kernel (Appendix
// A.6.3) under the Figure 3 configurations.
func (r *Runner) CoreMark() ([]OverheadRow, error) {
	row, err := r.fig3Row("coremark", workloads.CoreMark(r.Scale))
	if err != nil {
		return nil, err
	}
	return []OverheadRow{row}, nil
}

// Fig5 compares LFI O2 against KVM-style nested paging (§6.4, Figure 5):
// the virtualized configuration runs native code with doubled TLB walks.
func (r *Runner) Fig5() ([]OverheadRow, error) {
	var rows []OverheadRow
	for _, w := range workloads.All() {
		src := w.Source(r.Scale)
		native, err := r.runNative(src)
		if err != nil {
			return nil, err
		}
		kvmRunner := &Runner{Model: r.Model, Scale: r.Scale, NestedPaging: true}
		kvm, err := kvmRunner.runNative(src)
		if err != nil {
			return nil, err
		}
		lfi, err := r.runLFI(src, core.Options{Opt: core.O2})
		if err != nil {
			return nil, err
		}
		rows = append(rows, OverheadRow{
			Workload: w.Name,
			Overheads: map[string]float64{
				"QEMU KVM": pct(kvm.Cycles, native.Cycles),
				"LFI":      pct(lfi.Cycles, native.Cycles),
			},
		})
	}
	return rows, nil
}

// CodeSizeRow reports §6.3's code size overheads for one workload.
type CodeSizeRow struct {
	Workload    string
	TextPct     float64 // text segment growth, LFI O2 over native
	FilePct     float64 // whole-binary growth
	WasmFilePct float64 // WAMR-style AOT artifact growth (modeled)
}

// CodeSize measures the §6.3 code-size overheads.
func CodeSize(scale float64) ([]CodeSizeRow, error) {
	var rows []CodeSizeRow
	for _, w := range workloads.All() {
		src := w.Source(scale)
		nat, err := progs.BuildNative(src)
		if err != nil {
			return nil, err
		}
		lfi, err := progs.Build(src, core.Options{Opt: core.O2})
		if err != nil {
			return nil, err
		}
		// WAMR AOT artifacts carry Wasm-level metadata plus expanded
		// machine code; model as the per-access instrumentation growth.
		sys, _ := wasmbase.Get("WAMR")
		wamr, err := buildWasm(src, sys)
		if err != nil {
			return nil, err
		}
		rows = append(rows, CodeSizeRow{
			Workload:    w.Name,
			TextPct:     pct(float64(lfi.TextSize), float64(nat.TextSize)),
			FilePct:     pct(float64(lfi.FileSize), float64(nat.FileSize)),
			WasmFilePct: pct(float64(wamr.FileSize)*1.08, float64(nat.FileSize)),
		})
	}
	return rows, nil
}

// GeomeanCodeSize averages the code-size columns.
func GeomeanCodeSize(rows []CodeSizeRow) (text, file, wasm float64) {
	pt, pf, pw := 1.0, 1.0, 1.0
	for _, r := range rows {
		pt *= 1 + r.TextPct/100
		pf *= 1 + r.FilePct/100
		pw *= 1 + r.WasmFilePct/100
	}
	n := float64(len(rows))
	return (math.Pow(pt, 1/n) - 1) * 100,
		(math.Pow(pf, 1/n) - 1) * 100,
		(math.Pow(pw, 1/n) - 1) * 100
}

// MicroRow is one Table 5 line.
type MicroRow struct {
	Benchmark string
	LFInS     float64
	LinuxNS   float64
	GVisorNS  float64 // 0 when unsupported
}

// perOp builds srcs at O2, loads them into one runtime in order (passive
// side first), runs them all to exit and reports modelled ns per op.
// Every loaded process must exit 0: Runtime.Run returns nil after a trap
// or a non-zero exit, and a fault, a failed handshake or a short batch
// would otherwise still print a plausible number.
func perOp(model *emu.CoreModel, ops float64, srcs ...string) (float64, error) {
	m := *model
	cfg := lfirt.DefaultConfig()
	cfg.Model = &m
	rt := lfirt.New(cfg)
	procs := make([]*lfirt.Proc, len(srcs))
	for i, src := range srcs {
		res, err := progs.Build(src, core.Options{Opt: core.O2})
		if err != nil {
			return 0, err
		}
		if procs[i], err = rt.Load(res.ELF); err != nil {
			return 0, err
		}
	}
	if err := rt.Run(); err != nil {
		return 0, err
	}
	for i, p := range procs {
		if s := p.ExitStatus(); s != 0 {
			return 0, fmt.Errorf("program %d of %d exited %d, want 0", i+1, len(procs), s)
		}
	}
	return rt.Tim.Cycles() / ops / model.FreqGHz, nil
}

// Table5 measures the LFI microbenchmarks in simulation and fills the
// hardware columns from the calibrated cost models.
func Table5(model *emu.CoreModel, hw *hwmodel.Machine, n int) ([]MicroRow, error) {
	if n <= 0 {
		n = 2000
	}
	const vbatch = 8
	micro := []struct {
		name  string
		ops   int
		srcs  []string
		linux float64
	}{
		{"syscall", n, []string{workloads.SyscallLoop(n)}, hw.LinuxSyscallNS()},
		// Pipe: one parent round trip = one write+read pair on each side.
		{"pipe", 2 * n, []string{workloads.PipePing(n)}, hw.LinuxPipeNS()},
		// Yield: two sandboxes ping-ponging directly.
		{"yield", 2 * n, []string{workloads.YieldPing(n, 2), workloads.YieldPing(n, 1)}, 0},
		// IPC: a ring-channel ping-pong between two sandboxes. Each of
		// the 2n hops is a send handed directly to the blocked receiver,
		// so the delta over the yield row is the channel bookkeeping per
		// message.
		{"ipc", 2 * n, []string{workloads.RingPingPassive(n), workloads.RingPingActive(n)}, hw.LinuxPipeNS()},
		// Direct handoff: the same ping-pong through RTVSubmit at batch
		// 1 — one trap per message instead of one per send plus one per
		// recv, with the send→recv handoff and blocked-side hand-back
		// replacing every scheduler pass.
		{"direct handoff", 2 * n, []string{workloads.VSubmitPing(n, 1, false), workloads.VSubmitPing(n, 1, true)}, 0},
		// Vectored IPC: batch 8 — 16 messages per trap, amortizing the
		// transition cost across the batch. The denominator counts
		// messages (a send plus its matching recv), like the scalar ipc
		// row.
		{"vectored ipc", 2 * vbatch * n, []string{workloads.VSubmitPing(n, vbatch, false), workloads.VSubmitPing(n, vbatch, true)}, 0},
	}
	rows := make([]MicroRow, len(micro))
	for i, p := range micro {
		ns, err := perOp(model, float64(p.ops), p.srcs...)
		if err != nil {
			return nil, fmt.Errorf("%s bench: %w", p.name, err)
		}
		rows[i] = MicroRow{Benchmark: p.name, LFInS: ns, LinuxNS: p.linux}
	}
	if g, ok := hw.GVisorSyscallNS(); ok {
		rows[0].GVisorNS = g
		rows[1].GVisorNS, _ = hw.GVisorPipeNS()
	}
	return rows, nil
}
