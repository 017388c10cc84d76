package bench

import (
	"testing"

	"lfi/internal/emu"
	"lfi/internal/hwmodel"
	"lfi/internal/progs"
)

const testScale = 0.05

func TestFig3Shape(t *testing.T) {
	r := &Runner{Model: emu.ModelM1(), Scale: testScale}
	rows, err := r.Fig3()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 14 {
		t.Fatalf("rows = %d, want 14", len(rows))
	}
	o0 := Geomean(rows, "LFI O0")
	o1 := Geomean(rows, "LFI O1")
	o2 := Geomean(rows, "LFI O2")
	nl := Geomean(rows, "LFI O2, no loads")
	t.Logf("geomeans: O0=%.1f%% O1=%.1f%% O2=%.1f%% no-loads=%.1f%%", o0, o1, o2, nl)
	// The paper's shape: O0 >> O1 >= O2 > no-loads; O2 in the mid-single
	// digits; no-loads around 1%.
	if !(o0 > o1 && o1 >= o2 && o2 > nl) {
		t.Errorf("optimization ordering violated: O0=%.1f O1=%.1f O2=%.1f nl=%.1f", o0, o1, o2, nl)
	}
	if o2 < 2 || o2 > 15 {
		t.Errorf("O2 geomean %.1f%% outside the plausible 2-15%% band", o2)
	}
	if nl > 5 {
		t.Errorf("no-loads geomean %.1f%% too high", nl)
	}
	if o0 < 2*o2 {
		t.Errorf("O0 (%.1f%%) should far exceed O2 (%.1f%%)", o0, o2)
	}
}

func TestFig4Shape(t *testing.T) {
	r := &Runner{Model: emu.ModelM1(), Scale: testScale}
	rows, err := r.Fig4()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 7 {
		t.Fatalf("rows = %d, want 7", len(rows))
	}
	g := map[string]float64{}
	for _, sys := range Fig4Systems() {
		g[sys] = Geomean(rows, sys)
		t.Logf("%-26s %.1f%%", sys, g[sys])
	}
	// Table 4's ordering: LFI beats every Wasm configuration; Wasmtime is
	// the slowest; the pinned-register Wasm2c is the best Wasm entry.
	if g["LFI"] >= g["Wasm2c (pinned register)"] {
		t.Errorf("LFI (%.1f%%) not below pinned Wasm2c (%.1f%%)",
			g["LFI"], g["Wasm2c (pinned register)"])
	}
	if g["Wasmtime"] <= g["Wasm2c (no barrier)"] {
		t.Errorf("Wasmtime (%.1f%%) not above no-barrier Wasm2c (%.1f%%)",
			g["Wasmtime"], g["Wasm2c (no barrier)"])
	}
	if g["Wasm2c"] <= g["Wasm2c (no barrier)"] {
		t.Errorf("barrier (%.1f%%) not above no-barrier (%.1f%%)",
			g["Wasm2c"], g["Wasm2c (no barrier)"])
	}
	// LFI should have less than half the overhead of the best mainline
	// Wasm engine (paper: "less than half the overhead of Wasm").
	if g["LFI"]*2 > g["WAMR"] {
		t.Errorf("LFI (%.1f%%) not under half of WAMR (%.1f%%)", g["LFI"], g["WAMR"])
	}
}

func TestFig5Shape(t *testing.T) {
	r := &Runner{Model: emu.ModelM1(), Scale: testScale}
	rows, err := r.Fig5()
	if err != nil {
		t.Fatal(err)
	}
	kvm := Geomean(rows, "QEMU KVM")
	lfi := Geomean(rows, "LFI")
	t.Logf("KVM=%.1f%% LFI=%.1f%%", kvm, lfi)
	if kvm <= 0 {
		t.Errorf("KVM overhead %.1f%% should be positive", kvm)
	}
	// mcf (TLB-heavy) must show the largest KVM overhead of all rows.
	var mcfKVM, maxOther float64
	for _, row := range rows {
		if row.Workload == "505.mcf" {
			mcfKVM = row.Overheads["QEMU KVM"]
		} else if v := row.Overheads["QEMU KVM"]; v > maxOther {
			maxOther = v
		}
	}
	if mcfKVM < maxOther {
		t.Errorf("mcf KVM overhead %.1f%% not the largest (max other %.1f%%)", mcfKVM, maxOther)
	}
}

func TestCodeSizeShape(t *testing.T) {
	rows, err := CodeSize(testScale)
	if err != nil {
		t.Fatal(err)
	}
	text, file, wasm := GeomeanCodeSize(rows)
	t.Logf("text=%.1f%% file=%.1f%% wasm=%.1f%%", text, file, wasm)
	// §6.3: text +12.9%, binary +8.3%, WAMR +22% — check bands.
	if text < 3 || text > 30 {
		t.Errorf("text growth %.1f%% outside band", text)
	}
	if file > text {
		t.Errorf("file growth %.1f%% should be below text growth %.1f%%", file, text)
	}
	if wasm <= file {
		t.Errorf("wasm artifact growth %.1f%% should exceed LFI growth %.1f%%", wasm, file)
	}
}

func TestTable5Shape(t *testing.T) {
	rows, err := Table5(emu.ModelM1(), hwmodel.M1(), 400)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]MicroRow{}
	for _, r := range rows {
		byName[r.Benchmark] = r
		t.Logf("%-8s LFI=%.0fns Linux=%.0fns gVisor=%.0fns", r.Benchmark, r.LFInS, r.LinuxNS, r.GVisorNS)
	}
	sys := byName["syscall"]
	if sys.LFInS <= 0 || sys.LFInS >= sys.LinuxNS/3 {
		t.Errorf("LFI syscall %.0fns not well below Linux %.0fns", sys.LFInS, sys.LinuxNS)
	}
	pipe := byName["pipe"]
	if pipe.LFInS >= pipe.LinuxNS/5 {
		t.Errorf("LFI pipe %.0fns not far below Linux %.0fns", pipe.LFInS, pipe.LinuxNS)
	}
	y := byName["yield"]
	if y.LFInS <= 0 || y.LFInS > sys.LFInS*2 {
		t.Errorf("yield %.0fns should be in the syscall regime (%.0fns)", y.LFInS, sys.LFInS)
	}
	ipc := byName["ipc"]
	if ipc.LFInS <= y.LFInS {
		t.Errorf("ipc %.0fns should cost more than a bare yield %.0fns", ipc.LFInS, y.LFInS)
	}
	if ipc.LFInS >= ipc.LinuxNS/3 {
		t.Errorf("LFI ipc %.0fns not well below a Linux pipe round trip %.0fns", ipc.LFInS, ipc.LinuxNS)
	}
}

// TestPerOpRequiresCleanExit: Runtime.Run returns nil after a trap or a
// non-zero exit, so a Table 5 program that fails must be caught by its
// exit status, or it would still print a plausible ns/op.
func TestPerOpRequiresCleanExit(t *testing.T) {
	const fault = `
_start:
	mov x1, #0x100000
	movk x1, #0x4000, lsl #16   // far into the unmapped middle of the slot
	ldr x0, [x1]
`
	exit0 := "_start:\n" + progs.ExitCode(0)
	for _, tc := range []struct {
		name string
		srcs []string
	}{
		{"exit 1", []string{"_start:\n" + progs.ExitCode(1)}},
		{"fault", []string{fault + progs.Exit()}},
		{"fault in the second of two", []string{exit0, fault + progs.Exit()}},
	} {
		if ns, err := perOp(emu.ModelM1(), 1, tc.srcs...); err == nil {
			t.Errorf("%s: perOp = %.1f ns, want an error", tc.name, ns)
		}
	}
	if _, err := perOp(emu.ModelM1(), 1, exit0, exit0); err != nil {
		t.Errorf("two clean exits: %v", err)
	}
}

func TestGeomeanMath(t *testing.T) {
	rows := []OverheadRow{
		{Workload: "a", Overheads: map[string]float64{"s": 10}},
		{Workload: "b", Overheads: map[string]float64{"s": 21}},
	}
	g := Geomean(rows, "s")
	// sqrt(1.10*1.21) - 1 = 15.36%
	if g < 15.3 || g > 15.5 {
		t.Errorf("geomean = %.2f, want ~15.4", g)
	}
	if Geomean(rows, "missing") != 0 {
		t.Error("missing system should give 0")
	}
}

func TestCoreMarkShape(t *testing.T) {
	r := &Runner{Model: emu.ModelM1(), Scale: 0.3}
	rows, err := r.CoreMark()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("rows = %d", len(rows))
	}
	o0 := rows[0].Overheads["LFI O0"]
	o2 := rows[0].Overheads["LFI O2"]
	t.Logf("coremark O0=%.1f%% O2=%.1f%%", o0, o2)
	if !(o0 > o2 && o2 >= 0) {
		t.Errorf("coremark ordering broken: O0=%.1f O2=%.1f", o0, o2)
	}
}
