// lfi-bench regenerates the tables and figures of the paper's evaluation
// (§6) on the simulated machines. Each figure prints the same rows/series
// the paper reports: percent runtime increase over native code (running in
// the LFI environment, per the paper's methodology).
//
// Usage:
//
//	lfi-bench -fig 3 -machine m1          # Figure 3 (optimization levels)
//	lfi-bench -fig 4 -machine t2a         # Figure 4 (vs WebAssembly)
//	lfi-bench -fig 5                      # Figure 5 (vs KVM, M1)
//	lfi-bench -table 4                    # Table 4 (Wasm geomeans)
//	lfi-bench -table 5 -machine m1        # Table 5 (microbenchmarks)
//	lfi-bench -table codesize             # §6.3 code size
//	lfi-bench -throughput                 # §5.2 verifier throughput
//	lfi-bench -pool                       # serving throughput (cold vs restore)
//	lfi-bench -emu -json BENCH_emu.json   # raw simulator throughput
//	lfi-bench -all                        # everything
//
// -cpuprofile/-memprofile write pprof profiles of whatever ran, so hot-path
// work starts from evidence instead of guesses.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"lfi/internal/bench"
	"lfi/internal/emu"
	"lfi/internal/hwmodel"
)

func main() {
	fig := flag.Int("fig", 0, "figure to regenerate (3, 4, or 5)")
	table := flag.String("table", "", "table to regenerate (4, 5, or codesize)")
	machine := flag.String("machine", "m1", "machine model: m1 or t2a")
	scale := flag.Float64("scale", 0.3, "workload scale (1.0 = full size)")
	throughput := flag.Bool("throughput", false, "measure verifier/validator throughput")
	poolBench := flag.Bool("pool", false, "measure serving throughput: cold load vs snapshot restore")
	poolWorkers := flag.Int("pool-workers", 4, "worker runtimes for -pool")
	poolJobs := flag.Int("pool-jobs", 400, "jobs to serve for -pool")
	coremark := flag.Bool("coremark", false, "run the CoreMark-like kernel (artifact A.6.3)")
	chart := flag.Bool("chart", false, "render figures as ASCII bar charts")
	all := flag.Bool("all", false, "regenerate everything on both machines")
	emuBench := flag.Bool("emu", false, "measure raw simulator throughput per workload")
	wasmBench := flag.Bool("wasm", false, "compare wasmfront-on-LFI against the Wasm engine models on the sample modules")
	smoke := flag.Bool("smoke", false, "with -wasm: tiny iteration counts for CI")
	jsonPath := flag.String("json", "", "with -emu/-wasm: also write the report to this file (e.g. BENCH_wasm.json)")
	slowpath := flag.Bool("slowpath", false, "with -emu: use the per-step interpreter instead of the block fast path")
	metrics := flag.Bool("metrics", false, "with -emu/-pool: also report observability counters (caches, latency quantiles)")
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a pprof heap profile to this file")
	flag.Parse()
	chartMode = *chart

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatal("cpuprofile: %v", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal("cpuprofile: %v", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fatal("memprofile: %v", err)
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fatal("memprofile: %v", err)
			}
		}()
	}

	if *all {
		for _, m := range []string{"t2a", "m1"} {
			runFig3(m, *scale)
			fmt.Println()
			runFig4(m, *scale)
			fmt.Println()
		}
		runTable4(*scale)
		fmt.Println()
		runFig5(*scale)
		fmt.Println()
		runCodeSize(*scale)
		fmt.Println()
		runTable5("m1")
		fmt.Println()
		runTable5("t2a")
		fmt.Println()
		runCoreMark("m1", *scale)
		fmt.Println()
		runThroughput()
		fmt.Println()
		runPool(*poolWorkers, *poolJobs, *metrics)
		return
	}

	done := false
	switch *fig {
	case 0:
	case 3:
		runFig3(*machine, *scale)
		done = true
	case 4:
		runFig4(*machine, *scale)
		done = true
	case 5:
		runFig5(*scale)
		done = true
	default:
		fatal("unknown figure %d", *fig)
	}
	switch *table {
	case "":
	case "4":
		runTable4(*scale)
		done = true
	case "5":
		runTable5(*machine)
		done = true
	case "codesize":
		runCodeSize(*scale)
		done = true
	default:
		fatal("unknown table %q", *table)
	}
	if *throughput {
		runThroughput()
		done = true
	}
	if *coremark {
		runCoreMark(*machine, *scale)
		done = true
	}
	if *poolBench {
		runPool(*poolWorkers, *poolJobs, *metrics)
		done = true
	}
	if *emuBench {
		runEmu(*machine, *scale, !*slowpath, *jsonPath, *metrics)
		done = true
	}
	if *wasmBench {
		wasmScale := *scale
		if *smoke {
			wasmScale = 0.005
		}
		runWasmBench(*machine, wasmScale, *jsonPath)
		done = true
	}
	if !done {
		flag.Usage()
		os.Exit(2)
	}
}

func runEmu(machine string, scale float64, fastpath bool, jsonPath string, metrics bool) {
	coreModel, _ := model(machine)
	rep, err := bench.EmuThroughput(machine, coreModel, scale, fastpath)
	if err != nil {
		fatal("emu throughput: %v", err)
	}
	path := "fast path"
	if !fastpath {
		path = "per-step interpreter"
	}
	fmt.Printf("Simulator throughput — %s model, scale %.2f, %s\n\n", machineTitle(machine), scale, path)
	fmt.Printf("%-16s %12s %14s %12s %12s %10s\n",
		"workload", "instrs", "cycles", "minstr/s", "mcycle/s", "ns/instr")
	rows := append(append([]bench.EmuRow{}, rep.Workloads...), rep.Total)
	for i := range rows {
		r := &rows[i]
		fmt.Printf("%-16s %12d %14.0f %12.2f %12.2f %10.1f\n",
			r.Workload, r.Instrs, r.Cycles,
			r.InstrsPerSec/1e6, r.CyclesPerSec/1e6, r.NSPerInstr)
	}
	if metrics {
		s := rep.Emu
		fmt.Printf("\nEmulator caches and dispatch\n")
		fmt.Printf("%-24s %12d hits %12d misses (%.2f%% hit)\n",
			"block cache", s.BlockHits, s.BlockMisses, hitPct(s.BlockHits, s.BlockMisses))
		fmt.Printf("%-24s %12d hits %12d misses (%.2f%% hit)\n",
			"translation cache (rd)", s.TCReadHits, s.TCReadMisses, hitPct(s.TCReadHits, s.TCReadMisses))
		fmt.Printf("%-24s %12d hits %12d misses (%.2f%% hit)\n",
			"translation cache (wr)", s.TCWriteHits, s.TCWriteMisses, hitPct(s.TCWriteHits, s.TCWriteMisses))
		fmt.Printf("%-24s %12d fast %12d slow, %d decode flushes\n",
			"dispatches", s.FastRuns, s.SlowRuns, s.Flushes)
		fmt.Printf("%-24s %12d hits %12d misses (%.2f%% hit)\n",
			"chain links", s.ChainHits, s.ChainMisses, hitPct(s.ChainHits, s.ChainMisses))
		fmt.Printf("%-24s %12d pairs %11d accesses\n",
			"fused idioms", s.FusedPairs, s.FusedAccesses)
	}
	if jsonPath != "" {
		if err := rep.WriteJSON(jsonPath); err != nil {
			fatal("emu throughput: %v", err)
		}
		fmt.Printf("\nwrote %s\n", jsonPath)
	}
}

func hitPct(hits, misses uint64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return 100 * float64(hits) / float64(hits+misses)
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "lfi-bench: "+format+"\n", args...)
	os.Exit(1)
}

func model(machine string) (*emu.CoreModel, *hwmodel.Machine) {
	switch machine {
	case "m1":
		return emu.ModelM1(), hwmodel.M1()
	case "t2a":
		return emu.ModelT2A(), hwmodel.T2A()
	}
	fatal("unknown machine %q", machine)
	return nil, nil
}

func machineTitle(machine string) string {
	if machine == "m1" {
		return "Apple M1"
	}
	return "GCP T2A"
}

var chartMode bool

func printRows(title string, systems []string, rows []bench.OverheadRow) {
	if chartMode {
		printChart(title, systems, rows)
		return
	}
	fmt.Println(title)
	fmt.Printf("%-16s", "benchmark")
	for _, s := range systems {
		fmt.Printf(" %*s", max(len(s), 8), s)
	}
	fmt.Println()
	for _, row := range rows {
		fmt.Printf("%-16s", row.Workload)
		for _, s := range systems {
			fmt.Printf(" %*.1f", max(len(s), 8), row.Overheads[s])
		}
		fmt.Println()
	}
	fmt.Printf("%-16s", "geomean")
	for _, s := range systems {
		fmt.Printf(" %*.1f", max(len(s), 8), bench.Geomean(rows, s))
	}
	fmt.Println()
}

func runWasmBench(machine string, scale float64, jsonPath string) {
	m, _ := model(machine)
	r := &bench.Runner{Model: m, Scale: scale}
	rep, err := r.WasmCompare(machine)
	if err != nil {
		fatal("wasm: %v", err)
	}
	printRows(fmt.Sprintf("Wasm frontend: LFI vs engine models (%% over native translation) - %s",
		machineTitle(machine)), bench.WasmSystems(), rep.Rows())
	if jsonPath != "" {
		if err := rep.WriteJSON(jsonPath); err != nil {
			fatal("wasm: %v", err)
		}
		fmt.Printf("\nwrote %s\n", jsonPath)
	}
}

func runFig3(machine string, scale float64) {
	m, _ := model(machine)
	r := &bench.Runner{Model: m, Scale: scale}
	rows, err := r.Fig3()
	if err != nil {
		fatal("fig 3: %v", err)
	}
	printRows(fmt.Sprintf("Figure 3: overhead on SPEC-like benchmarks (%% over native) - %s",
		machineTitle(machine)), bench.Fig3Systems, rows)
}

func runFig4(machine string, scale float64) {
	m, _ := model(machine)
	r := &bench.Runner{Model: m, Scale: scale}
	rows, err := r.Fig4()
	if err != nil {
		fatal("fig 4: %v", err)
	}
	printRows(fmt.Sprintf("Figure 4: LFI vs Wasm (%% over native, LTO-equivalent) - %s",
		machineTitle(machine)), bench.Fig4Systems(), rows)
}

func runTable4(scale float64) {
	fmt.Println("Table 4: geomean overheads over native")
	fmt.Printf("%-28s %14s %14s\n", "System", "Geomean (T2A)", "Geomean (M1)")
	t2a := &bench.Runner{Model: emu.ModelT2A(), Scale: scale}
	m1 := &bench.Runner{Model: emu.ModelM1(), Scale: scale}
	rowsT, err := t2a.Fig4()
	if err != nil {
		fatal("table 4: %v", err)
	}
	rowsM, err := m1.Fig4()
	if err != nil {
		fatal("table 4: %v", err)
	}
	for _, sys := range bench.Fig4Systems() {
		fmt.Printf("%-28s %13.1f%% %13.1f%%\n", sys,
			bench.Geomean(rowsT, sys), bench.Geomean(rowsM, sys))
	}
}

func runFig5(scale float64) {
	r := &bench.Runner{Model: emu.ModelM1(), Scale: scale}
	rows, err := r.Fig5()
	if err != nil {
		fatal("fig 5: %v", err)
	}
	printRows("Figure 5: LFI vs hardware-assisted virtualization (% over native) - Apple M1",
		[]string{"QEMU KVM", "LFI"}, rows)
}

func runCodeSize(scale float64) {
	rows, err := bench.CodeSize(scale)
	if err != nil {
		fatal("codesize: %v", err)
	}
	fmt.Println("Code size overheads (§6.3, % over native)")
	fmt.Printf("%-16s %10s %10s %12s\n", "benchmark", "text", "binary", "wasm (AOT)")
	for _, r := range rows {
		fmt.Printf("%-16s %9.1f%% %9.1f%% %11.1f%%\n", r.Workload, r.TextPct, r.FilePct, r.WasmFilePct)
	}
	t, f, w := bench.GeomeanCodeSize(rows)
	fmt.Printf("%-16s %9.1f%% %9.1f%% %11.1f%%\n", "geomean", t, f, w)
}

func runTable5(machine string) {
	m, hw := model(machine)
	rows, err := bench.Table5(m, hw, 2000)
	if err != nil {
		fatal("table 5: %v", err)
	}
	fmt.Printf("Table 5: isolation-domain switch microbenchmarks - %s\n", machineTitle(machine))
	fmt.Printf("%-10s %10s %10s %10s\n", "Benchmark", "LFI", "Linux", "gVisor")
	for _, r := range rows {
		gv := "-"
		if r.GVisorNS > 0 {
			gv = fmt.Sprintf("%.0fns", r.GVisorNS)
		}
		lx := "-"
		if r.LinuxNS > 0 {
			lx = fmt.Sprintf("%.0fns", r.LinuxNS)
		}
		fmt.Printf("%-10s %9.0fns %10s %10s\n", r.Benchmark, r.LFInS, lx, gv)
	}
}

func runThroughput() {
	lfiMBps, wasmMBps, err := bench.Throughput()
	if err != nil {
		fatal("throughput: %v", err)
	}
	fmt.Println("Verifier throughput (§5.2, host wall clock)")
	fmt.Printf("%-24s %10.1f MB/s\n", "LFI verifier", lfiMBps)
	fmt.Printf("%-24s %10.1f MB/s\n", "Wasm validator", wasmMBps)
	fmt.Println(strings.TrimSpace(`
Note: the paper reports 34 MB/s (Rust verifier) vs 3 MB/s (WABT validator)
on M1 hardware; absolute numbers here reflect this Go implementation.`))
}

// runPool measures sandbox serving throughput: the same job stream with a
// full ELF load (parse+verify+load) per request vs a snapshot restore per
// request (host wall clock; no timing model).
func runPool(workers, jobs int, metrics bool) {
	r, err := bench.PoolThroughput(workers, jobs)
	if err != nil {
		fatal("pool: %v", err)
	}
	fmt.Printf("Sandbox serving throughput (%d workers, %d jobs, host wall clock)\n", r.Workers, r.Jobs)
	fmt.Printf("%-28s %12.1f µs/job %12.0f jobs/s\n", "cold load per request", r.ColdNSPerJob/1e3, r.ColdJobsPerSec)
	fmt.Printf("%-28s %12.1f µs/job %12.0f jobs/s\n", "snapshot restore per request", r.WarmNSPerJob/1e3, r.WarmJobsPerSec)
	fmt.Printf("%-28s %12.1fx            (warm-hit rate %.0f%%)\n", "restore speedup", r.Speedup, 100*r.WarmHitRate)
	if metrics && r.Metrics != nil {
		fmt.Printf("\nWarm-run latency quantiles (registry histograms)\n")
		fmt.Printf("%-28s %10s %10s %10s %10s\n", "histogram", "count", "p50", "p95", "p99")
		for _, name := range []string{
			"pool.latency.queue_wait_ns", "pool.latency.restore_ns",
			"pool.latency.run_ns", "pool.latency.total_ns",
		} {
			h, ok := r.Metrics.Histograms[name]
			if !ok {
				continue
			}
			fmt.Printf("%-28s %10d %9.1fµs %9.1fµs %9.1fµs\n", name, h.Count,
				float64(h.Quantile(0.50))/1e3, float64(h.Quantile(0.95))/1e3, float64(h.Quantile(0.99))/1e3)
		}
		fmt.Printf("\nWarm-run counters\n")
		for _, name := range []string{
			"pool.jobs.completed", "pool.warm.hits", "pool.warm.misses",
			"pool.restores", "pool.warm.evictions", "rt.host_calls", "rt.preempts",
		} {
			fmt.Printf("%-28s %12d\n", name, r.Metrics.Counters[name])
		}
	}
}

// runCoreMark reproduces the artifact's SPEC-free fallback benchmark
// (Appendix A.6.3): the CoreMark-like kernel under native, every LFI
// level, and no-loads.
func runCoreMark(machine string, scale float64) {
	m, _ := model(machine)
	r := &bench.Runner{Model: m, Scale: scale}
	rows, err := r.CoreMark()
	if err != nil {
		fatal("coremark: %v", err)
	}
	printRows(fmt.Sprintf("CoreMark-like kernel (%% over native) - %s", machineTitle(machine)),
		bench.Fig3Systems, rows)
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
