package main

import (
	"bytes"
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// allowedImports is the benchmark's whole view of the repository: the
// public package and the layers' own entry points. It may not reach the
// emulator's knobs and dispatch counters, the Wasm front-end's internals,
// wasmbase or internal/bench — later issues delete or merge those, and a
// change that claims a gain cannot edit the benchmark to follow.
var allowedImports = map[string]bool{
	"lfi":                    true,
	"lfi/internal/arm64":     true,
	"lfi/internal/rewrite":   true,
	"lfi/internal/verifier":  true,
	"lfi/internal/elfobj":    true,
	"lfi/internal/lfirt":     true,
	"lfi/internal/pool":      true,
	"lfi/internal/serve":     true,
	"lfi/internal/core":      true,
	"lfi/internal/progs":     true,
	"lfi/internal/workloads": true,
	"lfi/internal/fuzz":      true, // NewGen only
	"lfi/internal/obs":       true, // snapshot types
}

func TestImportAllowlist(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, name := range files {
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			if (path == "lfi" || strings.HasPrefix(path, "lfi/")) && !allowedImports[path] {
				t.Errorf("%s imports %s, which is not on the benchmark's allowlist", name, path)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "fuzz" && sel.Sel.Name != "NewGen" {
				t.Errorf("%s uses fuzz.%s; only fuzz.NewGen is allowed", name, sel.Sel.Name)
			}
			return true
		})
	}
}

// benchmarkJSON is the contract file at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) *benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return &doc
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestDeclarations keeps BENCHMARK.json and the tables in metrics.go in
// step: same workloads, same metrics, same units, directions and bounds.
func TestDeclarations(t *testing.T) {
	doc := readBenchmarkJSON(t)
	if len(doc.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(doc.Workloads), len(workloadNames))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, w.Name, workloadNames[i])
		}
	}
	if len(doc.EndToEnd) != len(endToEnd) || len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json declares %d+%d metrics, the benchmark %d+%d",
			len(doc.EndToEnd), len(doc.PerLayer), len(endToEnd), len(perLayer))
	}
	seen := map[string]bool{}
	check := func(d decl, name, unit, better string) {
		if d.name != name || d.unit != unit || d.better != better {
			t.Errorf("BENCHMARK.json {%s %s %s}, benchmark {%s %s %s}", name, unit, better, d.name, d.unit, d.better)
		}
		if !nameRE.MatchString(d.name) || seen[d.name] {
			t.Errorf("metric name %q is malformed or repeated", d.name)
		}
		seen[d.name] = true
	}
	for i, m := range doc.EndToEnd {
		check(endToEnd[i], m.Name, m.Unit, m.Better)
		if m.Bound != endToEnd[i].bound {
			t.Errorf("%s: bound %v in BENCHMARK.json, %v in the benchmark", m.Name, m.Bound, endToEnd[i].bound)
		}
	}
	for i, m := range doc.PerLayer {
		check(perLayer[i], m.Name, m.Unit, m.Better)
	}
}

// TestSmoke runs all five workloads at smoke sizes, both passes.
func TestSmoke(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			outDir := t.TempDir()
			run := func(seed int64, trace bool) *result {
				t.Helper()
				res, err := runWorkload(config{
					workload: name, seed: seed, seconds: 0, trace: trace, smoke: true,
					outDir: outDir, conns: clientConns(),
				})
				if err != nil {
					t.Fatalf("seed %d trace %v: %v", seed, trace, err)
				}
				if res.Failed != 0 || !res.Correct || res.Attempted == 0 {
					t.Fatalf("seed %d trace %v: %d of %d operations failed: %v",
						seed, trace, res.Failed, res.Attempted, res.Failures)
				}
				if len(res.Absent) != 0 {
					t.Errorf("seed %d trace %v: absent: %v", seed, trace, res.Absent)
				}
				return res
			}
			e2e, other, layers := run(1, false), run(2, false), run(1, true)

			// Every declared metric is printed exactly once, by name, and
			// nothing undeclared is; the driver's object has exactly them.
			for _, res := range []*result{e2e, layers} {
				var out bytes.Buffer
				res.print(&out)
				printed := map[string]int{}
				for _, line := range strings.Split(out.String(), "\n") {
					if f := strings.Fields(line); len(f) > 1 && f[0] == name {
						printed[f[1]]++
					}
				}
				delete(printed, "failed_share") // reported through attempted/failed
				metrics := res.driverLine()["metrics"].(map[string]any)
				for _, d := range res.decls() {
					if printed[d.name] != 1 {
						t.Errorf("%s printed %d times", d.name, printed[d.name])
					}
					if _, ok := metrics[d.name]; !ok {
						t.Errorf("%s missing from the driver's object", d.name)
					}
					delete(printed, d.name)
				}
				if len(printed) != 0 || len(metrics) != len(res.decls()) {
					t.Errorf("undeclared metrics: printed %v, %d in the driver's object for %d declared",
						printed, len(metrics), len(res.decls()))
				}
			}
			for _, d := range endToEnd {
				if e2e.Metrics[d.name].Value <= 0 {
					t.Errorf("%s = %v; end-to-end metrics are never 0", d.name, e2e.Metrics[d.name].Value)
				}
			}

			// Same seed, same inputs; another seed, other inputs (exec and
			// transitions run fixed programs and draw nothing); and the
			// modelled cost the same whatever the seed.
			if e2e.InputSHA256 != layers.InputSHA256 {
				t.Errorf("seed 1 gave inputs %s, then %s", e2e.InputSHA256, layers.InputSHA256)
			}
			seeded := name != "exec" && name != "transitions"
			if seeded == (e2e.InputSHA256 == other.InputSHA256) {
				t.Errorf("seeds 1 and 2 gave inputs %s and %s", e2e.InputSHA256, other.InputSHA256)
			}
			if a, b := e2e.Metrics["modelled_cost"].Value, other.Metrics["modelled_cost"].Value; a != b {
				t.Errorf("modelled_cost %v with seed 1, %v with seed 2", a, b)
			}
			for _, d := range perLayer {
				if d.modelled && layers.Metrics[d.name].SpreadPct != 0 {
					t.Errorf("modelled %s moved between rounds", d.name)
				}
			}
			if _, err := os.Stat(filepath.Join(outDir, name+".trace.json")); err != nil {
				t.Error(err)
			}
		})
	}
}
