package lfirt

import (
	"testing"

	"lfi/internal/core"
	"lfi/internal/progs"
)

// TestLayoutSync pins the runtime's sandbox layout to the shared model in
// internal/core. The fuzzing watchdog and the soundness prover check the
// verifier against core's layout constants, so a runtime that laid
// sandboxes out differently would silently void both oracles.
func TestLayoutSync(t *testing.T) {
	rt := newRT(t)
	p, err := rt.Load(build(t, "_start:\n"+progs.ExitCode(0)))
	if err != nil {
		t.Fatal(err)
	}

	// Call-table entries: entry rc holds hostBase + rc*HostCallStride.
	for rc := core.RuntimeCall(0); rc < core.NumRuntimeCalls; rc++ {
		got, f := rt.AS.Read(p.Base+uint64(rc.TableOffset()), 8)
		if f != nil {
			t.Fatalf("reading call-table entry %v: %v", rc, f)
		}
		want := hostBase + uint64(rc)*core.HostCallStride
		if got != want {
			t.Errorf("call-table entry %v = %#x, want %#x", rc, got, want)
		}
	}

	// Initial stack pointer: top of the slot, below the trailing guard.
	if want := p.Base + core.StackTopOff; p.Regs.SP != want {
		t.Errorf("initial SP = %#x, want base+StackTopOff = %#x", p.Regs.SP, want)
	}

	// Page granularity matches the layout model's default.
	if rt.cfg.PageSize != core.DefaultPageSize {
		t.Errorf("PageSize = %d, want core.DefaultPageSize = %d", rt.cfg.PageSize, core.DefaultPageSize)
	}
	if rt.AS.PageSize() != core.DefaultPageSize {
		t.Errorf("address-space page size = %d, want %d", rt.AS.PageSize(), core.DefaultPageSize)
	}
}
