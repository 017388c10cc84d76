package lfi

// End-to-end tests of the command-line tools: build each binary with the
// Go toolchain, then drive the paper's artifact workflow —
// rewrite -> assemble -> verify -> disassemble -> run — through real
// processes and files.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// buildTools compiles the cmd/ binaries once into a temp dir.
func buildTools(t *testing.T, names ...string) map[string]string {
	t.Helper()
	dir := t.TempDir()
	out := make(map[string]string, len(names))
	for _, n := range names {
		bin := filepath.Join(dir, n)
		cmd := exec.Command("go", "build", "-o", bin, "./cmd/"+n)
		cmd.Env = append(os.Environ(), "GOFLAGS=-mod=mod")
		if b, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("building %s: %v\n%s", n, err, b)
		}
		out[n] = bin
	}
	return out
}

const toolProgram = `
.globl _start
_start:
	mov x0, #1
	adrp x1, msg
	add x1, x1, :lo12:msg
	ldrb w3, [x1]              // needs a guard
	mov x2, #13
	ldr x30, [x21, #8]
	blr x30
	mov x0, #7
	ldr x30, [x21, #0]
	blr x30
.rodata
msg:
	.ascii "tool pipeline"
`

func TestCommandLinePipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	tools := buildTools(t, "lfi-rewrite", "lfi-asm", "lfi-verify", "lfi-run", "lfi-disasm")
	dir := t.TempDir()
	src := filepath.Join(dir, "prog.s")
	if err := os.WriteFile(src, []byte(toolProgram), 0o644); err != nil {
		t.Fatal(err)
	}

	// lfi-rewrite prog.s -> guarded assembly
	rw := exec.Command(tools["lfi-rewrite"], "-O", "2", "-stats", src)
	guarded, err := rw.Output()
	if err != nil {
		t.Fatalf("lfi-rewrite: %v", err)
	}
	if !strings.Contains(string(guarded), "uxtw") {
		t.Fatalf("no guards in rewritten output:\n%s", guarded)
	}
	guardedPath := filepath.Join(dir, "prog.lfi.s")
	if err := os.WriteFile(guardedPath, guarded, 0o644); err != nil {
		t.Fatal(err)
	}

	// lfi-asm -> ELF
	elfPath := filepath.Join(dir, "prog.elf")
	if out, err := exec.Command(tools["lfi-asm"], "-o", elfPath, guardedPath).CombinedOutput(); err != nil {
		t.Fatalf("lfi-asm: %v\n%s", err, out)
	}

	// lfi-verify accepts it.
	out, err := exec.Command(tools["lfi-verify"], elfPath).CombinedOutput()
	if err != nil {
		t.Fatalf("lfi-verify: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "OK") {
		t.Fatalf("lfi-verify output: %s", out)
	}

	// lfi-disasm annotates the runtime call.
	out, err = exec.Command(tools["lfi-disasm"], elfPath).CombinedOutput()
	if err != nil {
		t.Fatalf("lfi-disasm: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "LFI runtime call") {
		t.Fatalf("lfi-disasm did not annotate the runtime call:\n%s", out)
	}

	// lfi-run executes it; exit status propagates; stdout is forwarded.
	run := exec.Command(tools["lfi-run"], "-machine", "m1", "-report", elfPath)
	stdout, err := run.Output()
	ee, ok := err.(*exec.ExitError)
	if !ok || ee.ExitCode() != 7 {
		t.Fatalf("lfi-run exit: %v (stdout %q)", err, stdout)
	}
	if string(stdout) != "tool pipeline" {
		t.Fatalf("lfi-run stdout = %q", stdout)
	}
	if !strings.Contains(string(ee.Stderr), "runtime calls") {
		t.Fatalf("lfi-run -report missing: %s", ee.Stderr)
	}

	// An unguarded binary must be rejected by both lfi-verify and lfi-run.
	nat, err := CompileNative("_start:\n\tldr x0, [x1]\n\tret\n")
	if err != nil {
		t.Fatal(err)
	}
	badPath := filepath.Join(dir, "bad.elf")
	if err := os.WriteFile(badPath, nat.ELF, 0o644); err != nil {
		t.Fatal(err)
	}
	if out, err := exec.Command(tools["lfi-verify"], badPath).CombinedOutput(); err == nil {
		t.Fatalf("lfi-verify accepted an unguarded binary:\n%s", out)
	}
	if out, err := exec.Command(tools["lfi-run"], badPath).CombinedOutput(); err == nil {
		t.Fatalf("lfi-run loaded an unguarded binary:\n%s", out)
	}
	// ... unless explicitly told not to verify (and then the svc-free
	// program faults inside its sandbox, status 139).
	cmd := exec.Command(tools["lfi-run"], "-unverified", badPath)
	if err := cmd.Run(); cmd.ProcessState.ExitCode() != 139 {
		t.Fatalf("unverified run exit = %d, err %v", cmd.ProcessState.ExitCode(), err)
	}
}

func TestRewriteStdinStdout(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	tools := buildTools(t, "lfi-rewrite")
	cmd := exec.Command(tools["lfi-rewrite"], "-O", "0")
	cmd.Stdin = strings.NewReader("_start:\n\tldr x0, [x1, #8]\n\tret\n")
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("lfi-rewrite: %v", err)
	}
	if !strings.Contains(string(out), "add x18, x21, w1, uxtw") {
		t.Fatalf("O0 guard missing:\n%s", out)
	}
	// Bad input produces a diagnostic and nonzero exit.
	cmd = exec.Command(tools["lfi-rewrite"])
	cmd.Stdin = strings.NewReader("_start:\n\tmov x21, #0\n")
	if out, err := cmd.CombinedOutput(); err == nil {
		t.Fatalf("reserved-register input accepted:\n%s", out)
	}
}

// TestPaperTablesGolden regenerates every modelled table lfi-bench prints,
// and the Wasm frontend report, and byte-compares them with the committed
// copies. Both are pure functions of the source, so a digit that moves is
// a change to a program or to the model, never host noise.
func TestPaperTablesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	bench := buildTools(t, "lfi-bench")["lfi-bench"]
	out, err := exec.Command(bench, "-all", "-scale", "0.2").Output()
	if err != nil {
		t.Fatalf("lfi-bench -all: %v", err)
	}
	diffGolden(t, "testdata/paper_tables.golden", out)

	report := filepath.Join(t.TempDir(), "wasm.json")
	if out, err := exec.Command(bench, "-wasm", "-json", report).CombinedOutput(); err != nil {
		t.Fatalf("lfi-bench -wasm: %v\n%s", err, out)
	}
	got, err := os.ReadFile(report)
	if err != nil {
		t.Fatal(err)
	}
	diffGolden(t, "BENCH_wasm.json", got)
}

// diffGolden reports the first line where got departs from the file.
func diffGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	g, w := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			t.Errorf("%s: line %d is %q, want %q", path, i+1, gl, wl)
			return
		}
	}
	t.Errorf("%s: %d lines, want %d", path, len(g), len(w))
}

// TestServeHTTPEndpoints runs the real lfi-serve binary with -http :0
// and scrapes /metrics and /statusz after its demo batch completes.
func TestServeHTTPEndpoints(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	tools := buildTools(t, "lfi-serve")
	cmd := exec.Command(tools["lfi-serve"], "-http", "127.0.0.1:0", "-jobs", "8", "-workers", "2", "-linger")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		cmd.Process.Kill()
		cmd.Wait()
	}()

	// Parse the announced address, then wait for the batch to finish so
	// the counters are settled.
	var base string
	sc := bufio.NewScanner(stderr)
	for sc.Scan() {
		line := sc.Text()
		if m := regexp.MustCompile(`metrics on (http://\S+)/metrics`).FindStringSubmatch(line); m != nil {
			base = m[1]
		}
		if strings.Contains(line, "batch done") {
			break
		}
	}
	if base == "" {
		t.Fatal("lfi-serve never announced its http address")
	}

	get := func(path string) []byte {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %s %v", path, resp.Status, err)
		}
		return b
	}

	var metrics struct {
		Counters   map[string]uint64 `json:"counters"`
		Histograms map[string]struct {
			Count uint64 `json:"count"`
		} `json:"histograms"`
	}
	if err := json.Unmarshal(get("/metrics"), &metrics); err != nil {
		t.Fatal(err)
	}
	// 8 demo jobs: the runaway tenant is deadline-killed, the rest complete.
	if metrics.Counters["pool.jobs.completed"] != 8 {
		t.Errorf("pool.jobs.completed = %d, want 8", metrics.Counters["pool.jobs.completed"])
	}
	if metrics.Counters["pool.warm.hits"]+metrics.Counters["pool.warm.misses"] == 0 {
		t.Error("no warm-pool activity recorded")
	}
	if metrics.Histograms["pool.latency.run_ns"].Count == 0 {
		t.Error("run-latency histogram empty")
	}

	var status struct {
		Stats struct {
			Completed uint64 `json:"completed"`
			Workers   []struct {
				Jobs uint64 `json:"jobs"`
			} `json:"workers"`
		} `json:"stats"`
		Spans []struct {
			RunNS   int64 `json:"run_ns"`
			TotalNS int64 `json:"total_ns"`
		} `json:"spans"`
	}
	if err := json.Unmarshal(get("/statusz"), &status); err != nil {
		t.Fatal(err)
	}
	if status.Stats.Completed != 8 || len(status.Stats.Workers) != 2 {
		t.Errorf("statusz stats: completed=%d workers=%d", status.Stats.Completed, len(status.Stats.Workers))
	}
	if len(status.Spans) != 8 {
		t.Fatalf("statusz spans = %d, want 8", len(status.Spans))
	}
	for i, s := range status.Spans {
		if s.TotalNS < s.RunNS || s.TotalNS <= 0 {
			t.Errorf("span %d: run=%d total=%d", i, s.RunNS, s.TotalNS)
		}
	}
}
