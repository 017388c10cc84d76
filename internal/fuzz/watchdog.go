package fuzz

import (
	"encoding/binary"
	"fmt"
	"reflect"

	"lfi/internal/arm64"
	"lfi/internal/core"
	"lfi/internal/emu"
	"lfi/internal/mem"
)

const (
	pageSize = core.DefaultPageSize
	// hostBase is where the watchdog pretends the runtime's host-call
	// region lives. Any out-of-slot address works (the watchdog never
	// executes host code); the entry stride and region size are the
	// runtime's real ones so the call-table contents match in shape.
	hostBase = uint64(0x7000_0000_0000)
)

// watchdog is one sandboxed machine whose memory layout mirrors the
// runtime's: call table (read-only, host pointers), text, data/bss, and a
// stack near slot+512MiB, all inside a 4GiB slot. It is the execution
// environment for the verifier-soundness oracle: any verifier-accepted
// text runs here and every fault is checked against the containment
// windows.
type watchdog struct {
	cpu  *emu.CPU
	slot uint64
}

func pageUp(v uint64) uint64 { return (v + pageSize - 1) &^ (pageSize - 1) }

// newWatchdog builds a machine around text placed per img's layout. The
// text may differ from img.Text (mutants); only its placement is reused.
// fastpath selects the emulator's fast path or, when false, the per-step
// reference interpreter.
func newWatchdog(img *arm64.Image, text []byte, slot uint64, fastpath bool) (*watchdog, error) {
	as := mem.NewAddrSpace(pageSize)
	if err := as.Map(slot, core.CallTableSize, mem.PermRead); err != nil {
		return nil, err
	}
	for rc := core.RuntimeCall(0); rc < core.NumRuntimeCalls; rc++ {
		b := make([]byte, 8)
		binary.LittleEndian.PutUint64(b, hostBase+uint64(rc)*core.HostCallStride)
		as.WriteForce(b, slot+uint64(rc.TableOffset()))
	}
	if err := as.Map(img.TextAddr, pageUp(uint64(len(text))), mem.PermRX); err != nil {
		return nil, err
	}
	as.WriteForce(text, img.TextAddr)
	if len(img.ROData) > 0 {
		if err := as.Map(img.RODataAddr, pageUp(uint64(len(img.ROData))), mem.PermRead); err != nil {
			return nil, err
		}
		as.WriteForce(img.ROData, img.RODataAddr)
	}
	dataEnd := pageUp(img.BSSAddr + img.BSSSize)
	if dataEnd > img.DataAddr {
		if err := as.Map(img.DataAddr, dataEnd-img.DataAddr, mem.PermRW); err != nil {
			return nil, err
		}
		as.WriteForce(img.Data, img.DataAddr)
	}
	stackTop := slot + 512*1024*1024
	if err := as.Map(stackTop-1024*1024, 1024*1024, mem.PermRW); err != nil {
		return nil, err
	}

	c := emu.New(as)
	c.SetFastpath(fastpath)
	c.SetHostCallRegion(hostBase, core.HostCallRegionSize)
	c.Timing = emu.NewTiming(emu.ModelM1())
	c.PC = img.Entry
	c.SP = stackTop
	c.X[21] = slot
	c.X[18] = slot + core.MinCodeOffset
	c.X[23] = slot + core.MinCodeOffset
	c.X[24] = slot + core.MinCodeOffset
	c.X[30] = slot + core.MinCodeOffset
	return &watchdog{cpu: c, slot: slot}, nil
}

// contain checks one trap against the containment windows. Data accesses
// may reach the slot's 4GiB plus the guard bands on either side (signed
// immediate offsets from a base at the slot edge land there; the bands
// are unmapped, so the access faults harmlessly). Instruction fetches may
// additionally reach up to 128MiB below the slot, where the code margin
// guarantees nothing executable lives. Returns a violation description,
// or "" if contained.
func (w *watchdog) contain(tr *emu.Trap) string {
	switch tr.Kind {
	case emu.TrapSVC:
		return fmt.Sprintf("svc executed in verified code at pc=%#x", tr.PC)
	case emu.TrapMemFault:
		if tr.Fault == nil {
			return "memory fault with no fault record"
		}
		if tr.Fault.Access == mem.AccessExec {
			lo, hi := core.ExecWindow(w.slot)
			if tr.Fault.Addr < lo || tr.Fault.Addr >= hi {
				return fmt.Sprintf("pc escaped sandbox: fetch at %#x", tr.Fault.Addr)
			}
		} else {
			lo, hi := core.DataWindow(w.slot)
			if tr.Fault.Addr < lo || tr.Fault.Addr >= hi {
				return fmt.Sprintf("data access escaped sandbox: %v at %#x", tr.Fault.Access, tr.Fault.Addr)
			}
		}
	}
	return ""
}

// invariants checks the register invariants that must hold at every
// instruction boundary of verified code: x21 is never written, and the
// always-valid registers only ever hold in-slot addresses.
func (w *watchdog) invariants() string {
	c := w.cpu
	if c.X[21] != w.slot {
		return fmt.Sprintf("x21 clobbered: %#x", c.X[21])
	}
	for _, r := range []int{18, 23, 24} {
		if c.X[r]>>32 != w.slot>>32 {
			return fmt.Sprintf("x%d outside sandbox: %#x", r, c.X[r])
		}
	}
	return ""
}

// diverged compares the complete architectural state of the slow and fast
// machines and returns a description of the first difference, or "".
func diverged(slow, fast *emu.CPU) string {
	if slow.X != fast.X {
		return fmt.Sprintf("X registers diverge:\nslow=%#x\nfast=%#x", slow.X, fast.X)
	}
	if slow.SP != fast.SP {
		return fmt.Sprintf("SP diverges: slow=%#x fast=%#x", slow.SP, fast.SP)
	}
	if slow.V != fast.V {
		return "V registers diverge"
	}
	if slow.FlagN != fast.FlagN || slow.FlagZ != fast.FlagZ ||
		slow.FlagC != fast.FlagC || slow.FlagV != fast.FlagV {
		return "flags diverge"
	}
	if slow.PC != fast.PC {
		return fmt.Sprintf("PC diverges: slow=%#x fast=%#x", slow.PC, fast.PC)
	}
	if slow.Instrs != fast.Instrs {
		return fmt.Sprintf("Instrs diverge: slow=%d fast=%d", slow.Instrs, fast.Instrs)
	}
	if sc, fc := slow.Timing.Cycles(), fast.Timing.Cycles(); sc != fc {
		return fmt.Sprintf("cycles diverge: slow=%v fast=%v", sc, fc)
	}
	return ""
}

func trapsDiffer(slow, fast *emu.Trap) string {
	if (slow == nil) != (fast == nil) {
		return fmt.Sprintf("trap presence diverges: slow=%v fast=%v", slow, fast)
	}
	if slow == nil {
		return ""
	}
	if slow.Kind != fast.Kind || slow.PC != fast.PC || slow.Imm != fast.Imm {
		return fmt.Sprintf("traps diverge: slow=%v fast=%v", slow, fast)
	}
	if (slow.Fault == nil) != (fast.Fault == nil) ||
		(slow.Fault != nil && *slow.Fault != *fast.Fault) {
		return fmt.Sprintf("faults diverge: slow=%v fast=%v", slow.Fault, fast.Fault)
	}
	return ""
}

// lockstepSlices defeats any alignment between budget expiry and block
// boundaries in the fast path.
var lockstepSlices = []uint64{1, 2, 3, 5, 7, 11, 13, 17, 23, 97, 251, 1021, 4099}

// runLockstep executes text on two watchdog machines — the per-step
// reference and the fast path — comparing complete state (registers,
// memory, flags, Instrs, cycles) after every slice, checking containment
// and register invariants on every trap, and comparing the final memory
// images. It serves oracles 2 and 3 in a single run: any escape,
// invariant break, or divergence between the executors is a violation.
func runLockstep(img *arm64.Image, text []byte, slot, budget uint64) []string {
	slow, err := newWatchdog(img, text, slot, false)
	if err != nil {
		return []string{fmt.Sprintf("watchdog setup: %v", err)}
	}
	fast, err := newWatchdog(img, text, slot, true)
	if err != nil {
		return []string{fmt.Sprintf("watchdog setup: %v", err)}
	}

	var violations []string
	report := func(msg string) {
		violations = append(violations, msg)
	}

	spent := uint64(0)
	for i := 0; spent < budget; i++ {
		n := lockstepSlices[i%len(lockstepSlices)]
		spent += n
		str := slow.cpu.Run(n)
		ftr := fast.cpu.Run(n)
		if d := trapsDiffer(str, ftr); d != "" {
			report("fastpath: " + d)
			return violations
		}
		if d := diverged(slow.cpu, fast.cpu); d != "" {
			report("fastpath: " + d)
			return violations
		}
		if str == nil {
			report("run returned nil trap")
			return violations
		}
		if v := slow.contain(str); v != "" {
			report("containment: " + v)
		}
		if v := slow.invariants(); v != "" {
			report("invariant: " + v)
		}
		switch str.Kind {
		case emu.TrapBudget:
			continue
		case emu.TrapHostCall:
			// The runtime would service the call and return to x30; the
			// verifier guarantees x30 holds an in-sandbox address here.
			if slow.cpu.X[30]>>32 != slot>>32 {
				report(fmt.Sprintf("containment: runtime call with x30 outside sandbox: %#x", slow.cpu.X[30]))
				return violations
			}
			slow.cpu.PC = slow.cpu.X[30]
			fast.cpu.PC = fast.cpu.X[30]
			continue
		}
		// Terminal trap (brk, fault, undefined, svc): compare memory.
		sm, err1 := slow.cpu.Mem.SnapshotRange(slot, slot+512*1024*1024)
		fm, err2 := fast.cpu.Mem.SnapshotRange(slot, slot+512*1024*1024)
		if err1 != nil || err2 != nil {
			report(fmt.Sprintf("memory snapshot: %v / %v", err1, err2))
		} else if !reflect.DeepEqual(sm, fm) {
			report("fastpath: final memory snapshots diverge")
		}
		return violations
	}
	// Budget exhausted without a terminal trap: fine for mutants (they
	// may loop); the per-slice comparisons above already did the work.
	return violations
}
