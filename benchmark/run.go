package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// sizes fixes how much work one round does. Rounds repeat identical work
// (counts, not durations), so every count repeats exactly and a modelled
// value that moves between rounds is a defect, not noise.
type sizes struct {
	setupReps int // set-ups per run; setup_s is their median
	minRounds int

	largePrograms, largeStmts int     // build: generated programs and their length
	kernelScale               float64 // exec: workloads.Source scale
	microN                    int     // transitions: iterations per micro program
	warmRequests              int     // serve-warm: requests per round
	churnRequests             int     // serve-churn: requests per round
	population                int     // serve-churn: distinct images in play
	ladderCalls               int     // serve-*: sequential calls per ladder rung
}

var (
	fullSizes = sizes{
		setupReps: 3, minRounds: 3,
		largePrograms: 4, largeStmts: 20000,
		kernelScale:  2,
		microN:       50_000,
		warmRequests: 4_000, churnRequests: 3_000, population: 48,
		ladderCalls: 2_000,
	}
	smokeSizes = sizes{
		setupReps: 2, minRounds: 2,
		largePrograms: 1, largeStmts: 300,
		kernelScale:  0.02,
		microN:       200,
		warmRequests: 200, churnRequests: 200, population: 20,
		ladderCalls: 20,
	}
)

// round is what one pass over a workload's fixed work produced.
type round struct {
	wall  time.Duration
	work  float64   // items finished; the workload defines the item
	opsMS []float64 // latency of each operation, ms
	// sequential says the operations ran one after another, in the same
	// order every round, so that the round's wall time is their sum.
	sequential bool
	attempted  int
	failures   []string
	// model holds modelled values, which must repeat exactly from round
	// to round; "modelled_cost" is the end-to-end one.
	model map[string]float64
	// layer holds per-layer values measured in this round. Keys starting
	// with "_" are working values for finish, not metrics.
	layer map[string]float64
}

func (r *round) fail(format string, args ...any) {
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

// workload is one of the five. setup must be repeatable after close: the
// runner sets up several times to take the median set-up time.
type workload interface {
	// setup does everything that precedes the first timed round: generate
	// inputs from the seed, build images, take reference runs, start
	// servers, and run one discarded warm-up round.
	setup() error
	// inputSHA256 identifies the generated inputs, so two runs can be
	// shown to have measured the same bytes.
	inputSHA256() string
	// round does the fixed work once. With a tracer it records a span at
	// each call into a layer and fills round.layer.
	round(tr *tracer) *round
	// finish adds the per-layer values measured outside the rounds
	// (ladder, registry deltas) and derives the ones that combine rounds.
	finish(layers layerSet, absent *[]string)
	close()
}

func newWorkload(cfg config, sz sizes) (workload, error) {
	switch cfg.workload {
	case "build":
		return &buildWorkload{cfg: cfg, sz: sz}, nil
	case "exec":
		return &execWorkload{cfg: cfg, sz: sz}, nil
	case "transitions":
		return &transitionsWorkload{cfg: cfg, sz: sz}, nil
	case "serve-warm":
		return &serveWorkload{cfg: cfg, sz: sz}, nil
	case "serve-churn":
		return &serveWorkload{cfg: cfg, sz: sz, churn: true}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", cfg.workload, strings.Join(workloadNames, ", "))
}

// runWorkload sets the workload up, runs rounds of its fixed work until
// cfg.seconds have passed, checks every outcome, and reduces the rounds to
// the declared metrics. A traced run alternates untraced and traced
// rounds, so the tracing overhead is measured within the run.
func runWorkload(cfg config) (*result, error) {
	sz := fullSizes
	if cfg.smoke {
		sz = smokeSizes
	}
	w, err := newWorkload(cfg, sz)
	if err != nil {
		return nil, err
	}
	reps := sz.setupReps
	if cfg.trace {
		reps = 1 // setup_s belongs to the end-to-end pass
	}
	var setups []float64
	for i := 0; i < reps; i++ {
		if i > 0 {
			w.close()
		}
		start := time.Now()
		if err := w.setup(); err != nil {
			w.close()
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer w.close()

	minRounds := sz.minRounds
	if cfg.trace {
		minRounds *= 2
	}
	var plain, traced []*round
	var lastTrace *tracer
	var rssMB float64
	host := hostNow()
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	for i := 0; i < minRounds || time.Now().Before(deadline); i++ {
		if cfg.trace && i%2 == 1 {
			lastTrace = newTracer()
			traced = append(traced, w.round(lastTrace))
		} else {
			plain = append(plain, w.round(nil))
		}
		if i == minRounds-1 {
			// Read after a fixed amount of work, so that a faster system,
			// which fits more rounds into the run, does not read as a
			// bigger one (serve-churn's image cache grows every round).
			rssMB = peakRSSMB()
		}
	}
	host = hostNow().sub(host)

	res := &result{
		Workload: cfg.workload, Seed: cfg.seed, Trace: cfg.trace,
		InputSHA256: w.inputSHA256(), Rounds: len(plain) + len(traced),
		Metrics: map[string]value{},
	}
	all := append(append([]*round(nil), plain...), traced...)
	for _, r := range all {
		res.RoundWallS = append(res.RoundWallS, r.wall.Seconds())
		res.Attempted += r.attempted
		res.Failed += len(r.failures)
		for _, f := range r.failures {
			if len(res.Failures) < 10 {
				res.Failures = append(res.Failures, f)
			}
		}
		for _, k := range sortedKeys(r.model) {
			if first := all[0].model[k]; r.model[k] != first {
				res.Failed++
				res.Failures = append(res.Failures,
					fmt.Sprintf("modelled %s changed between rounds: %v then %v", k, first, r.model[k]))
			}
		}
	}

	if cfg.trace {
		layers := reduceLayers(all)
		walls := func(rs []*round) (v []float64) {
			for _, r := range rs {
				v = append(v, r.wall.Seconds())
			}
			return v
		}
		plainBest, spread := best(walls(plain), "lower")
		tracedBest, _ := best(walls(traced), "lower")
		layers.set("bench.round_spread_pct", spread)
		layers.set("bench.trace_overhead_pct", (tracedBest/plainBest-1)*100)
		layers.set("host.cpu_s", host.cpuS)
		layers.set("host.alloc_mb", host.allocMB)
		layers.set("host.gc_cycles", host.gcCycles)
		w.finish(layers, &res.Absent)
		for _, d := range perLayer {
			res.Metrics[d.name] = layers[d.name]
		}
		if err := writeJSON(filepath.Join(cfg.outDir, cfg.workload+".trace.json"), lastTrace.spans); err != nil {
			return nil, err
		}
	} else {
		res.Metrics["work_per_s"], res.Metrics["op_p50_ms"], res.Metrics["op_p99_ms"] = reduceRounds(plain)
		_, setupSpread := best(setups, "lower")
		res.Metrics["setup_s"] = value{Value: median(setups), SpreadPct: setupSpread, Samples: len(setups)}
		res.Metrics["peak_rss_mb"] = value{Value: rssMB}
		res.Metrics["modelled_cost"] = value{Value: plain[0].model["modelled_cost"]}
	}
	for _, d := range res.decls() {
		v := res.Metrics[d.name]
		v.Unit, v.Samples = d.unit, max(v.Samples, 1)
		res.Metrics[d.name] = v
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// reduceRounds turns the rounds' host timings into the three host
// metrics. Interference on a shared box only ever slows things, so the
// fastest observation is the closest to what the code costs; what counts
// as an observation depends on the workload:
//
//   - sequential rounds (build, exec, transitions) repeat the same
//     operations in the same order, so each operation keeps its fastest
//     time over all rounds, and the round reported is the sum of those —
//     a quiet window need only last one operation, not one round;
//   - concurrent rounds (serve-*) overlap their operations, so the whole
//     round is the observation: the best round's rate and percentiles.
//
// SpreadPct is how far the median round sat from the value reported.
func reduceRounds(rounds []*round) (rate, p50, p99 value) {
	samples := len(rounds[0].opsMS)
	var rates, p50s, p99s []float64
	for _, r := range rounds {
		rates = append(rates, r.work/r.wall.Seconds())
	}
	if rounds[0].sequential {
		fastest := append([]float64(nil), rounds[0].opsMS...)
		for _, r := range rounds[1:] {
			for i, ms := range r.opsMS {
				fastest[i] = min(fastest[i], ms)
			}
		}
		sumMS := 0.0
		for _, ms := range fastest {
			sumMS += ms
		}
		rates = append(rates, rounds[0].work/(sumMS/1e3))
		p50s, p99s = append(p50s, quantile(fastest, 0.5)), append(p99s, quantile(fastest, 0.99))
	}
	for _, r := range rounds {
		p50s, p99s = append(p50s, quantile(r.opsMS, 0.5)), append(p99s, quantile(r.opsMS, 0.99))
	}
	reduce := func(v []float64, better string, n int) value {
		b, spread := best(v, better)
		return value{Value: b, SpreadPct: spread, Samples: n}
	}
	return reduce(rates, "higher", 1), reduce(p50s, "lower", samples), reduce(p99s, "lower", samples)
}

func declOf(ds []decl, name string) decl {
	for _, d := range ds {
		if d.name == name {
			return d
		}
	}
	panic("benchmark: undeclared metric " + name)
}

// layerSet is the per-layer ledger of one run while it is assembled.
type layerSet map[string]value

func (l layerSet) get(name string) float64 { return l[name].Value }

func (l layerSet) set(name string, v float64) {
	x := l[name]
	x.Value = v
	l[name] = x
}

// reduceLayers takes, for every per-layer key any round reported, the best
// round in the metric's declared direction. Undeclared keys ("_…") are
// reduced as lower-is-better times.
func reduceLayers(rounds []*round) layerSet {
	byKey := map[string][]float64{}
	for _, r := range rounds {
		for k, v := range r.layer {
			byKey[k] = append(byKey[k], v)
		}
	}
	out := layerSet{}
	for k, v := range byKey {
		better := "lower"
		if !strings.HasPrefix(k, "_") {
			better = declOf(perLayer, k).better
		}
		b, spread := best(v, better)
		out[k] = value{Value: b, SpreadPct: spread, Samples: len(v)}
	}
	return out
}

// hostUsage is what the benchmark process itself consumed.
type hostUsage struct{ cpuS, allocMB, gcCycles float64 }

func hostNow() hostUsage {
	var ru syscall.Rusage
	var u hostUsage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
		u.cpuS = tv(ru.Utime) + tv(ru.Stime)
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	u.allocMB = float64(ms.TotalAlloc) / 1e6
	u.gcCycles = float64(ms.NumGC)
	return u
}

func (a hostUsage) sub(b hostUsage) hostUsage {
	return hostUsage{a.cpuS - b.cpuS, a.allocMB - b.allocMB, a.gcCycles - b.gcCycles}
}

// peakRSSMB is the process's VmHWM; where /proc is missing it falls back
// to what the Go runtime has obtained from the system.
func peakRSSMB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}
