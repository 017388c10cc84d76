package core

// Shared runtime memory-layout model. The runtime (internal/lfirt) lays
// sandboxes out with these constants, the fuzzing watchdog
// (internal/fuzz) builds its containment oracle from them, and the
// soundness prover (internal/prove) checks the verifier's acceptance
// conditions against them. Keeping one definition means the oracles
// cannot silently drift from the real layout.

import "lfi/internal/arm64"

const (
	// DefaultPageSize is the page granularity the runtime and watchdog
	// map memory at: the 16KiB Apple page size the paper targets.
	DefaultPageSize = uint64(16 * 1024)

	// HostCallStride is the byte stride between entries in the runtime's
	// host-call region. Call-table entry n holds hostBase + n*stride.
	HostCallStride = uint64(16)

	// StackTopOff is the sandbox offset of the initial stack pointer:
	// the top of the addressable slot, just below the trailing guard.
	StackTopOff = SandboxSize - GuardSize

	// SPMaxDrift is the headroom the verifier reserves on sp-based
	// immediate offsets: sp-based accesses are bounded by
	// GuardSize-16-SPMaxDrift above and GuardSize-SPMaxDrift below,
	// where plain always-valid bases (x18/x23/x24/x30, confined to
	// [slot, slot+SandboxSize)) get the full GuardSize-16 / GuardSize.
	//
	// The headroom is needed because sp is not confined to the slot:
	// the §4.2 elisions let one un-reguarded `add/sub sp, sp, #imm`
	// (imm < 1024) be outstanding, and index writeback moves sp by up
	// to ±1024 more. Chains of elided adjustments interleaved with
	// mapped accesses give the asymmetric at-access envelope
	//
	//	sp ∈ [slot - (offMax + 1023), slot + SandboxSize-1 + 2047]
	//
	// where offMax is the largest accepted positive sp offset: an
	// access only retires (letting the chain continue) if sp+offset is
	// mapped, which bounds sp below by -offset and above by the slot
	// top plus the widest encodable negative offset (1024). With
	// offMax = GuardSize-16-SPMaxDrift both envelope ends plus the
	// offset bounds stay inside the guard bands; internal/prove
	// recomputes this fixpoint from the swept encodings and
	// TestSPDriftFixpoint pins the arithmetic.
	SPMaxDrift = uint64(2048)
)

// The assembler's per-section cap is the code margin. internal/arm64
// cannot import this package, so it spells the value out; each difference
// below is a uint64 constant only if it is not negative, so this compiles
// only while the two are equal.
const (
	_ = CodeMargin - arm64.MaxSectionSize
	_ = arm64.MaxSectionSize - CodeMargin
)

// HostCallRegionSize is the size of the runtime's host-call landing
// region: one stride per runtime call.
const HostCallRegionSize = uint64(NumRuntimeCalls) * HostCallStride

// DataWindow returns the half-open address window [lo, hi) that a data
// access issued by verified code in the slot based at base may touch.
// Signed immediates from a base at a slot edge land in the unmapped
// guard bands, so the window is the slot plus one guard band each side.
func DataWindow(base uint64) (lo, hi uint64) {
	return base - GuardSize, base + SandboxSize + GuardSize
}

// ExecWindow returns the half-open address window [lo, hi) that an
// instruction fetch in the slot based at base may touch. Direct
// branches reach at most ±128MiB, and code stops CodeMargin before the
// slot end, so fetches stay within one code margin below the slot.
func ExecWindow(base uint64) (lo, hi uint64) {
	return base - CodeMargin, base + SandboxSize
}
