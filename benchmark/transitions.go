package main

import (
	"bytes"
	"fmt"
	"time"

	"lfi/internal/progs"
	"lfi/internal/workloads"
)

// transitionsWorkload runs the six Table 5 micro programs. It uses emu
// and lfirt the other way from exec: a trap every five to ten guest
// instructions, so runtime-call dispatch, the scheduler hand-off paths
// and block entry/exit dominate and steady-state dispatch does not. An
// emulator change that helps long runs but taxes block exit shows here
// as a loss.
//
// Work item: one runtime-call operation, counted as Table 5 counts them.
// Operation (for latency): one micro program, load to last exit.
type transitionsWorkload struct {
	cfg config
	sz  sizes
	inputHash

	micros []micro
}

type micro struct {
	name    string
	ops     float64
	elfs    [][]byte // passive side first
	wantOut []byte   // the unguarded build's stdout
}

func (w *transitionsWorkload) setup() error {
	w.reset()
	n := w.sz.microN
	specs := []struct {
		name string
		ops  int
		srcs []string
	}{
		{"syscall", n, []string{workloads.SyscallLoop(n)}},
		{"pipe", 2 * n, []string{workloads.PipePing(n)}},
		{"yield", 2 * n, []string{workloads.YieldPing(n, 2), workloads.YieldPing(n, 1)}},
		{"ring", 2 * n, []string{workloads.RingPingPassive(n), workloads.RingPingActive(n)}},
		{"vsubmit1", 2 * n, []string{workloads.VSubmitPing(n, 1, false), workloads.VSubmitPing(n, 1, true)}},
		{"vsubmit8", 16 * n, []string{workloads.VSubmitPing(n, 8, false), workloads.VSubmitPing(n, 8, true)}},
	}
	w.micros = nil
	for _, s := range specs {
		m := micro{name: s.name, ops: float64(s.ops)}
		var native [][]byte
		for _, src := range s.srcs {
			w.add(s.name, src)
			g, err := progs.Build(src, o2)
			if err != nil {
				return fmt.Errorf("%s: %w", s.name, err)
			}
			nb, err := progs.BuildNative(src)
			if err != nil {
				return fmt.Errorf("%s native: %w", s.name, err)
			}
			m.elfs = append(m.elfs, g.ELF)
			native = append(native, nb.ELF)
		}
		ref, err := runGuest(nil, 0, false, native...)
		if err != nil {
			return fmt.Errorf("%s native run: %w", s.name, err)
		}
		if ref.status != 0 {
			return fmt.Errorf("%s native run: exit status %d", s.name, ref.status)
		}
		m.wantOut = ref.stdout
		w.micros = append(w.micros, m)
	}
	w.round(nil) // warm-up
	return nil
}

func (w *transitionsWorkload) close() {}

func (w *transitionsWorkload) round(tr *tracer) *round {
	r := &round{sequential: true, model: map[string]float64{}, layer: map[string]float64{}}
	var ops, cycles float64
	var instrs, hostCalls, switches, preempts uint64
	start := time.Now()
	for i := range w.micros {
		m := &w.micros[i]
		r.attempted++
		t0 := time.Now()
		g, err := runGuest(tr, i, true, m.elfs...)
		r.opsMS = append(r.opsMS, float64(time.Since(t0).Nanoseconds())/1e6)
		switch {
		case err != nil:
			r.fail("%s: %v", m.name, err)
			continue
		case g.status != 0:
			r.fail("%s: exit status %d, reference 0", m.name, g.status)
			continue
		case !bytes.Equal(g.stdout, m.wantOut):
			r.fail("%s: stdout %x, reference %x", m.name, g.stdout, m.wantOut)
			continue
		}
		r.work += m.ops
		ops += m.ops
		cycles += g.cycles
		instrs += g.instrs
		hostCalls += g.stats.HostCalls
		switches += g.stats.Switches
		preempts += g.stats.Preempts
		r.model["cycles."+m.name] = g.cycles
		r.layer["lfirt.ns_per_op."+m.name] = g.runMS * 1e6 / m.ops
		r.layer["lfirt.cycles_per_op."+m.name] = g.cycles / m.ops
	}
	r.wall = time.Since(start)
	r.model["modelled_cost"] = cycles / ops

	r.layer["emu.instrs_per_call"] = float64(instrs) / ops
	r.layer["lfirt.host_calls"] = float64(hostCalls)
	r.layer["lfirt.switches"] = float64(switches)
	r.layer["lfirt.preempts"] = float64(preempts)
	return r
}

func (w *transitionsWorkload) finish(layerSet, *[]string) {}
