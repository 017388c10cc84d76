package main

import (
	"bytes"
	"fmt"
	"time"

	"lfi"
	"lfi/internal/progs"
	"lfi/internal/rewrite"
	"lfi/internal/workloads"
)

// execWorkload runs the fourteen kernels and the three Wasm samples to
// completion, each in a fresh runtime with the M1 timing model and
// verification on. emu does nearly all the work in long uninterrupted
// runs; the toolchain and serve do none. One pass yields the host figure
// (guest instructions per second) and the modelled one (cycles against
// the unguarded build), so a simulator speed-up that changes a simulated
// statistic is caught in the same run.
//
// Work item: one guest instruction retired. Operation: one program,
// NewRuntime → Load → RunProcess to exit.
type execWorkload struct {
	cfg config
	sz  sizes
	inputHash

	progs []execProg
	rw    rewrite.Stats // over the kernels at O2, from the set-up builds
}

type execProg struct {
	name         string
	wasm         bool
	elf          []byte
	wantOut      []byte // the reference stdout: never from the guarded build
	nativeCycles float64
}

// guestRun is one program run to exit in a fresh runtime.
type guestRun struct {
	status int
	stdout []byte
	instrs uint64
	cycles float64
	stats  lfi.RuntimeStats
	runMS  float64 // RunProcess alone
}

// runGuest loads the ELFs (passive side first) into a fresh M1-timed
// runtime and runs until every process has exited. status is the worst
// exit status among the loaded processes.
func runGuest(tr *tracer, op int, verify bool, elfs ...[]byte) (*guestRun, error) {
	root := tr.begin("guest", op, -1)
	defer tr.end(root)
	s := tr.begin("lfi.NewRuntime", op, root)
	rt := lfi.NewRuntime(lfi.RuntimeConfig{Machine: lfi.MachineM1, DisableVerification: !verify})
	tr.end(s)
	var procs []*lfi.Process
	for _, elf := range elfs {
		s = tr.begin("Runtime.Load", op, root)
		p, err := rt.Load(elf)
		tr.end(s)
		if err != nil {
			return nil, err
		}
		procs = append(procs, p)
	}
	s = tr.begin("Runtime.Run", op, root)
	t0 := time.Now()
	err := rt.Run()
	runMS := float64(time.Since(t0).Nanoseconds()) / 1e6
	tr.end(s)
	if err != nil {
		return nil, err
	}
	g := &guestRun{stdout: rt.Stdout(), instrs: rt.Instructions(), cycles: rt.Cycles(), stats: rt.Stats(), runMS: runMS}
	for _, p := range procs {
		if st := p.ExitStatus(); st != 0 {
			g.status = st
		}
	}
	return g, nil
}

func (w *execWorkload) setup() error {
	w.reset()
	w.progs = nil
	w.rw = rewrite.Stats{}
	reference := func(name string, nativeELF []byte) (*guestRun, error) {
		g, err := runGuest(nil, 0, false, nativeELF)
		if err != nil {
			return nil, fmt.Errorf("%s native run: %w", name, err)
		}
		if g.status != 0 {
			return nil, fmt.Errorf("%s native run: exit status %d", name, g.status)
		}
		return g, nil
	}
	for _, k := range workloads.All() {
		src := k.Source(w.sz.kernelScale)
		w.add(k.Name, src)
		guarded, err := progs.Build(src, o2)
		if err != nil {
			return fmt.Errorf("%s: %w", k.Name, err)
		}
		native, err := progs.BuildNative(src)
		if err != nil {
			return fmt.Errorf("%s native: %w", k.Name, err)
		}
		ref, err := reference(k.Name, native.ELF)
		if err != nil {
			return err
		}
		w.progs = append(w.progs, execProg{name: k.Name, elf: guarded.ELF, wantOut: ref.stdout, nativeCycles: ref.cycles})
		addRewriteStats(&w.rw, guarded.Stats)
	}
	for _, s := range wasmSamples {
		mod := testdataFile(s + ".wasm")
		w.add(s, string(mod))
		want, err := wasmChecksum(s)
		if err != nil {
			return err
		}
		guarded, err := lfi.CompileWasm(mod, lfi.CompileOptions{Opt: lfi.O2})
		if err != nil {
			return fmt.Errorf("%s: %w", s, err)
		}
		native, err := progs.BuildNative(string(testdataFile(s + ".native.s")))
		if err != nil {
			return fmt.Errorf("%s native: %w", s, err)
		}
		ref, err := reference(s, native.ELF)
		if err != nil {
			return err
		}
		if !bytes.Equal(ref.stdout, want) {
			return fmt.Errorf("%s: committed unguarded translation prints %x, reference interpreter %x", s, ref.stdout, want)
		}
		w.progs = append(w.progs, execProg{name: s, wasm: true, elf: guarded.ELF, wantOut: want, nativeCycles: ref.cycles})
	}
	w.round(nil) // warm-up
	return nil
}

func (w *execWorkload) close() {}

func (w *execWorkload) round(tr *tracer) *round {
	r := &round{sequential: true, model: map[string]float64{}, layer: map[string]float64{}}
	var kGuard, kNative, wGuard, wNative []float64
	var instrs, wasmInstrs uint64
	var cycles, runMS, wasmRunMS float64
	start := time.Now()
	for i := range w.progs {
		p := &w.progs[i]
		r.attempted++
		t0 := time.Now()
		g, err := runGuest(tr, i, true, p.elf)
		r.opsMS = append(r.opsMS, float64(time.Since(t0).Nanoseconds())/1e6)
		switch {
		case err != nil:
			r.fail("%s: %v", p.name, err)
			continue
		case g.status != 0:
			r.fail("%s: exit status %d, reference 0", p.name, g.status)
			continue
		case !bytes.Equal(g.stdout, p.wantOut):
			r.fail("%s: stdout %x, reference %x", p.name, g.stdout, p.wantOut)
			continue
		}
		r.work += float64(g.instrs)
		instrs += g.instrs
		cycles += g.cycles
		runMS += g.runMS
		r.model["cycles."+p.name] = g.cycles
		r.model["instrs."+p.name] = float64(g.instrs)
		if p.wasm {
			wGuard, wNative = append(wGuard, g.cycles), append(wNative, p.nativeCycles)
			wasmInstrs += g.instrs
			wasmRunMS += g.runMS
		} else {
			kGuard, kNative = append(kGuard, g.cycles), append(kNative, p.nativeCycles)
			r.layer["emu.minstr_per_s."+p.name] = float64(g.instrs) / 1e6 / (g.runMS / 1e3)
		}
	}
	r.wall = time.Since(start)
	r.model["modelled_cost"] = overheadPct(kGuard, kNative)

	rewriteCounts(r.layer, w.rw)
	r.layer["emu.run_ms"] = runMS
	r.layer["emu.guest_minstr"] = float64(instrs) / 1e6
	r.layer["emu.guest_mcycles"] = cycles / 1e6
	r.layer["emu.ipc"] = float64(instrs) / cycles
	r.layer["wasmfront.overhead_pct"] = overheadPct(wGuard, wNative)
	r.layer["wasmfront.minstr_per_s"] = float64(wasmInstrs) / 1e6 / (wasmRunMS / 1e3)
	return r
}

func (w *execWorkload) finish(layerSet, *[]string) {}
