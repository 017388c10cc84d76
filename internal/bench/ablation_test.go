package bench

// Ablation benches for the design choices DESIGN.md calls out, each the
// Figure 3 geomean over native under one rewriter configuration on the M1
// model:
//
//	go test -run '^$' -bench Ablation ./internal/bench

import (
	"testing"

	"lfi/internal/core"
	"lfi/internal/emu"
	"lfi/internal/workloads"
)

// ablationScale is the scale of the root package's figure benchmarks.
const ablationScale = 0.08

// ablationGeomean is the geomean percent over native of every Figure 3
// workload built with opts.
func ablationGeomean(b *testing.B, opts core.Options) float64 {
	b.Helper()
	r := &Runner{Model: emu.ModelM1(), Scale: ablationScale}
	var rows []OverheadRow
	for _, w := range workloads.All() {
		src := w.Source(r.Scale)
		native, err := r.runNative(src)
		if err != nil {
			b.Fatalf("%s native: %v", w.Name, err)
		}
		out, err := r.runLFI(src, opts)
		if err != nil {
			b.Fatalf("%s: %v", w.Name, err)
		}
		if out.Checksum != native.Checksum {
			b.Fatalf("%s: checksum mismatch", w.Name)
		}
		rows = append(rows, OverheadRow{
			Workload:  w.Name,
			Overheads: map[string]float64{"x": pct(out.Cycles, native.Cycles)},
		})
	}
	return Geomean(rows, "x")
}

// BenchmarkAblationZeroInstGuard quantifies §4.1's headline optimization:
// the O0 -> O1 jump from folding guards into addressing modes.
func BenchmarkAblationZeroInstGuard(b *testing.B) {
	for i := 0; i < b.N; i++ {
		o0 := ablationGeomean(b, core.Options{Opt: core.O0})
		o1 := ablationGeomean(b, core.Options{Opt: core.O1})
		b.ReportMetric(o0, "pct_O0")
		b.ReportMetric(o1, "pct_O1")
		b.ReportMetric(o0-o1, "pct_saved")
	}
}

// BenchmarkAblationHoisting quantifies §4.3's redundant guard elimination
// (O1 vs O2; the paper reports ~1.5%).
func BenchmarkAblationHoisting(b *testing.B) {
	for i := 0; i < b.N; i++ {
		o1 := ablationGeomean(b, core.Options{Opt: core.O1})
		o2 := ablationGeomean(b, core.Options{Opt: core.O2})
		b.ReportMetric(o1-o2, "pct_saved")
	}
}

// BenchmarkAblationSPOpts quantifies the §4.2 stack-pointer guard
// elisions by disabling them.
func BenchmarkAblationSPOpts(b *testing.B) {
	for i := 0; i < b.N; i++ {
		on := ablationGeomean(b, core.Options{Opt: core.O2})
		off := ablationGeomean(b, core.Options{Opt: core.O2, DisableSPOpts: true})
		b.ReportMetric(off-on, "pct_saved")
	}
}

// BenchmarkAblationNoLoads quantifies store/jump-only isolation (§6.1's
// "pure fault isolation", ~1%).
func BenchmarkAblationNoLoads(b *testing.B) {
	for i := 0; i < b.N; i++ {
		nl := ablationGeomean(b, core.Options{Opt: core.O2, NoLoads: true})
		b.ReportMetric(nl, "pct_no_loads")
	}
}
