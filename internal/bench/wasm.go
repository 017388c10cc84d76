package bench

import (
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"

	"lfi/internal/core"
	"lfi/internal/wasmbase"
	"lfi/internal/wasmfront"
)

// WasmSystemRow is one engine's cost running one Wasm workload.
type WasmSystemRow struct {
	System string `json:"system"`
	// Cycles includes the engine's codegen factor for wasmbase models.
	Cycles      float64 `json:"cycles"`
	Instrs      uint64  `json:"instrs"`
	OverheadPct float64 `json:"overhead_pct"`
}

// WasmWorkloadRow is one workload's results across all engines.
type WasmWorkloadRow struct {
	Workload string `json:"workload"`
	Iters    uint32 `json:"iters"`
	// Checksum is the hex of the 8-byte little-endian result every engine
	// (including the reference interpreter) must produce.
	Checksum     string          `json:"checksum"`
	NativeCycles float64         `json:"native_cycles"`
	Systems      []WasmSystemRow `json:"systems"`
}

// WasmReport is the BENCH_wasm.json document: identical Wasm programs
// run through wasmfront-on-LFI and through the wasmbase engine models,
// all checked against the reference interpreter's result.
type WasmReport struct {
	Machine   string            `json:"machine"`
	Scale     float64           `json:"scale"`
	Workloads []WasmWorkloadRow `json:"workloads"`
	// Geomean maps each system to its geometric-mean overhead over the
	// unguarded translated baseline, in percent.
	Geomean map[string]float64 `json:"geomean_overhead_pct"`
}

// WasmSystems lists the compared engines in report order.
func WasmSystems() []string {
	names := []string{"LFI O0", "LFI O2"}
	for _, s := range wasmbase.Systems() {
		names = append(names, s.Name)
	}
	return names
}

// WasmCompare builds each sample Wasm module once with wasmfront, then
// runs the translated program unguarded (baseline), under LFI at O0 and
// O2, and under each wasmbase engine model. Every run's 8-byte stdout
// checksum must equal the reference interpreter's result.
func (r *Runner) WasmCompare(machine string) (*WasmReport, error) {
	rep := &WasmReport{Machine: machine, Scale: r.Scale, Geomean: map[string]float64{}}
	var rows []OverheadRow
	for _, w := range wasmfront.SampleWorkloads() {
		iters := uint32(float64(w.Iters) * r.Scale)
		if iters < 16 {
			iters = 16
		}
		wasm := w.Build(iters)

		m, err := wasmfront.Decode(wasm)
		if err != nil {
			return nil, fmt.Errorf("%s decode: %w", w.Name, err)
		}
		ref, trap, err := wasmfront.NewInterp(m).Run()
		if err != nil || trap != wasmfront.TrapNone {
			return nil, fmt.Errorf("%s interp: trap=%v err=%v", w.Name, trap, err)
		}
		want := make([]byte, 8)
		binary.LittleEndian.PutUint64(want, ref)

		asm, _, err := wasmfront.Translate(wasm)
		if err != nil {
			return nil, fmt.Errorf("%s translate: %w", w.Name, err)
		}
		check := func(sys string, out *RunOutcome) error {
			if out.Checksum != string(want) {
				return fmt.Errorf("%s %s: checksum %x, want %x (interp)",
					w.Name, sys, out.Checksum, want)
			}
			return nil
		}

		native, err := r.runNative(asm)
		if err != nil {
			return nil, fmt.Errorf("%s native: %w", w.Name, err)
		}
		if err := check("native", native); err != nil {
			return nil, err
		}

		row := WasmWorkloadRow{
			Workload:     w.Name,
			Iters:        iters,
			Checksum:     hex.EncodeToString(want),
			NativeCycles: native.Cycles,
		}
		orow := OverheadRow{Workload: w.Name, Overheads: map[string]float64{}}
		add := func(sys string, out *RunOutcome) {
			ov := pct(out.Cycles, native.Cycles)
			row.Systems = append(row.Systems, WasmSystemRow{
				System: sys, Cycles: out.Cycles, Instrs: out.Instrs, OverheadPct: ov,
			})
			orow.Overheads[sys] = ov
		}

		for _, cfg := range []struct {
			name string
			opts core.Options
		}{
			{"LFI O0", core.Options{Opt: core.O0}},
			{"LFI O2", core.Options{Opt: core.O2}},
		} {
			out, err := r.runLFI(asm, cfg.opts)
			if err != nil {
				return nil, fmt.Errorf("%s %s: %w", w.Name, cfg.name, err)
			}
			if err := check(cfg.name, out); err != nil {
				return nil, err
			}
			add(cfg.name, out)
		}
		for _, sys := range wasmbase.Systems() {
			out, err := r.runWasm(asm, sys)
			if err != nil {
				return nil, fmt.Errorf("%s %s: %w", w.Name, sys.Name, err)
			}
			if err := check(sys.Name, out); err != nil {
				return nil, err
			}
			add(sys.Name, out)
		}
		rep.Workloads = append(rep.Workloads, row)
		rows = append(rows, orow)
	}
	for _, sys := range WasmSystems() {
		rep.Geomean[sys] = Geomean(rows, sys)
	}
	return rep, nil
}

// Rows converts the report to OverheadRow form for the shared printer.
func (rep *WasmReport) Rows() []OverheadRow {
	var rows []OverheadRow
	for _, w := range rep.Workloads {
		row := OverheadRow{Workload: w.Workload, Overheads: map[string]float64{}}
		for _, s := range w.Systems {
			row.Overheads[s.System] = s.OverheadPct
		}
		rows = append(rows, row)
	}
	return rows
}

// WriteJSON writes the report to path.
func (rep *WasmReport) WriteJSON(path string) error {
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
