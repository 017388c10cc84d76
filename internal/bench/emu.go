package bench

import (
	"encoding/json"
	"os"
	"time"

	"lfi/internal/core"
	"lfi/internal/emu"
	"lfi/internal/lfirt"
	"lfi/internal/progs"
	"lfi/internal/workloads"
)

// EmuRow is one workload's raw simulator throughput — how fast the host
// executes emulated instructions, which bounds every downstream result.
type EmuRow struct {
	Workload     string  `json:"workload"`
	Instrs       uint64  `json:"instrs"`
	Cycles       float64 `json:"cycles"`
	WallNS       int64   `json:"wall_ns"`
	InstrsPerSec float64 `json:"instrs_per_sec"`
	CyclesPerSec float64 `json:"cycles_per_sec"`
	NSPerInstr   float64 `json:"ns_per_instr"`
}

// EmuReport is the BENCH_emu.json document.
type EmuReport struct {
	Machine   string   `json:"machine"`
	Scale     float64  `json:"scale"`
	Fastpath  bool     `json:"fastpath"`
	Workloads []EmuRow `json:"workloads"`
	Total     EmuRow   `json:"total"`
	// Emu aggregates the emulator's cache/dispatch counters across all
	// workloads (block-cache and translation-cache hit rates, chain and
	// fusion activity, fastpath vs slowpath dispatches).
	Emu emu.Stats `json:"emu"`
}

func emuRow(name string, instrs uint64, cycles float64, wall time.Duration) EmuRow {
	sec := wall.Seconds()
	r := EmuRow{
		Workload: name,
		Instrs:   instrs,
		Cycles:   cycles,
		WallNS:   wall.Nanoseconds(),
	}
	if sec > 0 {
		r.InstrsPerSec = float64(instrs) / sec
		r.CyclesPerSec = cycles / sec
	}
	if instrs > 0 {
		r.NSPerInstr = float64(wall.Nanoseconds()) / float64(instrs)
	}
	return r
}

// emuReps is how many times each workload runs per measurement; the
// fastest repetition is reported.
const emuReps = 5

// EmuThroughput runs every workload once under a timed runtime and
// measures the simulator's own execution rate. fastpath selects the
// predecoded-block fast path or the per-step reference interpreter.
func EmuThroughput(machine string, model *emu.CoreModel, scale float64, fastpath bool) (*EmuReport, error) {
	rep := &EmuReport{Machine: machine, Scale: scale, Fastpath: fastpath}
	var totInstrs uint64
	var totCycles float64
	var totWall time.Duration
	for _, w := range workloads.All() {
		res, err := progs.Build(w.Source(scale), core.Options{Opt: core.O2})
		if err != nil {
			return nil, err
		}
		// Each workload runs emuReps times in a fresh runtime and the
		// fastest run is reported. Workloads are deterministic — instrs
		// and cycles are identical across repetitions — so only wall time
		// varies, and the minimum is the measurement least polluted by
		// host noise (GC, scheduling, cold caches on shared CI machines).
		var instrs uint64
		var cycles float64
		var wall time.Duration
		for r := 0; r < emuReps; r++ {
			cfg := lfirt.DefaultConfig()
			cfg.Model = model
			rt := lfirt.New(cfg)
			rt.CPU.SetFastpath(fastpath)
			p, err := rt.Load(res.ELF)
			if err != nil {
				return nil, err
			}
			start := time.Now()
			if _, err := rt.RunProc(p); err != nil {
				return nil, err
			}
			w := time.Since(start)
			if r == 0 {
				instrs, cycles, wall = rt.CPU.Instrs, rt.CPU.Timing.Cycles(), w
				rep.Emu.Add(rt.CPU.Stat)
			} else if w < wall {
				wall = w
			}
		}
		rep.Workloads = append(rep.Workloads, emuRow(w.Name, instrs, cycles, wall))
		totInstrs += instrs
		totCycles += cycles
		totWall += wall
	}
	rep.Total = emuRow("total", totInstrs, totCycles, totWall)
	return rep, nil
}

// WriteJSON writes the report to path.
func (r *EmuReport) WriteJSON(path string) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
