// Command benchmark is the repository's one benchmark: five workloads
// over the whole stack (toolchain, emulator, runtime, pool, network
// front-end), a uniform set of end-to-end metrics reported by every
// workload, and a per-layer ledger timed from outside — the benchmark
// records spans around its own calls into each layer's public functions
// and reads counts only from exported stats and registry snapshots.
//
//	go run ./benchmark                       # all workloads, both passes
//	go run ./benchmark -workload exec        # one workload, end-to-end pass
//	go run ./benchmark -workload exec -trace 1
//	go run ./benchmark -compare a.json b.json
//
// See README.md in this directory for the workloads, the metrics and the
// measurement policy.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// config is one run's settings. Everything random is derived from seed;
// sizes are fixed by the workload (full or smoke), never by the clock.
type config struct {
	workload string
	seed     int64
	seconds  float64 // how long the timed rounds run (whole rounds, at least minRounds)
	trace    bool
	smoke    bool
	outDir   string
	conns    int // C: client connections and client goroutines
}

// clientConns is the closed-loop client count: every caller waits for its
// reply, and the box must be able to generate the load honestly, so it
// never exceeds the cores available.
func clientConns() int {
	return min(runtime.NumCPU(), 4)
}

func main() {
	var cfg config
	var trace int
	var compare bool
	flag.StringVar(&cfg.workload, "workload", "", "run one workload in this process (default: all, each in a child process)")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed for every generated input")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "length of the timed rounds")
	flag.IntVar(&trace, "trace", 0, "1: traced pass, prints the per-layer metrics; 0: end-to-end metrics")
	flag.BoolVar(&cfg.smoke, "smoke", false, "tiny sizes (tier-1 test)")
	flag.StringVar(&cfg.outDir, "out", filepath.Join("benchmark", "out"), "directory for results and span files")
	flag.BoolVar(&compare, "compare", false, "compare two results.json files given as arguments")
	flag.Parse()
	cfg.trace = trace != 0
	cfg.conns = clientConns()

	switch {
	case compare:
		if flag.NArg() != 2 {
			fatalf("usage: benchmark -compare a.json b.json")
		}
		os.Exit(compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)))
	case cfg.workload != "":
		os.Exit(runChild(cfg))
	default:
		os.Exit(runAll(cfg))
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(2)
}

// runChild runs one workload in this process, prints its metrics one per
// line and, last, the result object the driver reads.
func runChild(cfg config) int {
	res, err := runWorkload(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", cfg.workload, err)
		return 2
	}
	res.print(os.Stdout)
	if err := res.writeDetail(cfg.outDir); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 2
	}
	line, err := json.Marshal(res.driverLine())
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 2
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// runAll runs every workload twice — the end-to-end pass and the traced
// pass — each in a child process of its own, so one workload's heap and
// caches never warm another's, and merges the children's detail files
// into results.json.
func runAll(cfg config) int {
	self, err := os.Executable()
	if err != nil {
		fatalf("%v", err)
	}
	all := allResults{Seed: cfg.seed, Conns: cfg.conns, Workloads: map[string]*workloadResults{}}
	status := 0
	for _, name := range workloadNames {
		wr := &workloadResults{}
		all.Workloads[name] = wr
		for _, trace := range []int{0, 1} {
			args := []string{
				"-workload", name,
				"-seed", fmt.Sprint(cfg.seed),
				"-seconds", fmt.Sprint(cfg.seconds),
				"-trace", fmt.Sprint(trace),
				"-out", cfg.outDir,
			}
			if cfg.smoke {
				args = append(args, "-smoke")
			}
			cmd := exec.Command(self, args...)
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			lines := strings.Split(strings.TrimRight(string(out), "\n"), "\n")
			// The last line is the driver's object; the rest is the report.
			fmt.Println(strings.Join(lines[:len(lines)-1], "\n"))
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s (trace %d): %v\n", name, trace, err)
				status = 1
			}
			det, derr := readDetail(cfg.outDir, name, trace != 0)
			if derr != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %v\n", derr)
				status = 1
				continue
			}
			wr.merge(det)
		}
	}
	if err := writeJSON(filepath.Join(cfg.outDir, "results.json"), &all); err != nil {
		fatalf("%v", err)
	}
	fmt.Printf("wrote %s\n", filepath.Join(cfg.outDir, "results.json"))
	return status
}
