package lfi

import (
	"strings"
	"testing"
)

const helloProgram = `
.globl _start
_start:
	mov x0, #1
	adrp x1, msg
	add x1, x1, :lo12:msg
	mov x2, #6
` + "\tldr x30, [x21, #8]\n\tblr x30\n" + `
	mov x0, #0
` + "\tldr x30, [x21, #0]\n\tblr x30\n" + `
.rodata
msg:
	.ascii "hello\n"
`

func TestCompileVerifyRun(t *testing.T) {
	res, err := Compile(helloProgram, CompileOptions{Opt: O2})
	if err != nil {
		t.Fatal(err)
	}
	if st, err := Verify(res.ELF); err != nil {
		t.Fatalf("verify: %v (%+v)", err, st)
	}
	rt := NewRuntime(RuntimeConfig{})
	p, err := rt.Load(res.ELF)
	if err != nil {
		t.Fatal(err)
	}
	status, err := rt.RunProcess(p)
	if err != nil || status != 0 {
		t.Fatalf("status=%d err=%v", status, err)
	}
	if got := string(rt.Stdout()); got != "hello\n" {
		t.Errorf("stdout = %q", got)
	}
}

func TestRewriteTextInterface(t *testing.T) {
	out, stats, err := Rewrite("_start:\n\tldr x0, [x1, #8]\n\tret\n", CompileOptions{Opt: O1})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "uxtw") {
		t.Errorf("no guard in output:\n%s", out)
	}
	if stats.GuardsSingle != 1 {
		t.Errorf("stats = %+v", stats)
	}
	// The output must itself be valid input.
	if _, _, err := Rewrite(out, CompileOptions{Opt: O1}); err == nil {
		// Re-rewriting guarded code touches reserved registers and is
		// expected to fail; both outcomes are fine as long as no panic.
		_ = err
	}
}

func TestVerifyRejectsNative(t *testing.T) {
	res, err := CompileNative("_start:\n\tldr x0, [x1]\n\tret\n")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Verify(res.ELF); err == nil {
		t.Fatal("unguarded binary verified")
	}
	rt := NewRuntime(RuntimeConfig{})
	if _, err := rt.Load(res.ELF); err == nil {
		t.Fatal("unguarded binary loaded")
	}
	// Baseline runtimes may opt out explicitly.
	rt2 := NewRuntime(RuntimeConfig{DisableVerification: true})
	if _, err := rt2.Load(res.ELF); err != nil {
		t.Fatalf("baseline load failed: %v", err)
	}
}

func TestTimedRuntime(t *testing.T) {
	res, err := Compile(helloProgram, CompileOptions{Opt: O2})
	if err != nil {
		t.Fatal(err)
	}
	rt := NewRuntime(RuntimeConfig{Machine: MachineM1})
	p, err := rt.Load(res.ELF)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.RunProcess(p); err != nil {
		t.Fatal(err)
	}
	if rt.Cycles() <= 0 || rt.Nanoseconds() <= 0 || rt.Instructions() == 0 {
		t.Error("timing not collected")
	}
	if got := rt.Stats().HostCalls; got != 2 {
		t.Errorf("host calls = %d, want 2", got)
	}
}

func TestFilesystemPolicy(t *testing.T) {
	rt := NewRuntime(RuntimeConfig{})
	rt.WriteFile("/data/ok.txt", []byte("fine"))
	fs := rt.rt.FS()
	fs.DenyPrefixes = append(fs.DenyPrefixes, "/secret")
	src := `
.globl _start
_start:
	adrp x0, path
	add x0, x0, :lo12:path
	mov x1, #0
` + CallSequence(CallOpen) + `
	neg x0, x0
` + CallSequence(CallExit) + `
.rodata
path:
	.asciz "/secret/x"
`
	res, err := Compile(src, CompileOptions{Opt: O2})
	if err != nil {
		t.Fatal(err)
	}
	p, err := rt.Load(res.ELF)
	if err != nil {
		t.Fatal(err)
	}
	status, err := rt.RunProcess(p)
	if err != nil {
		t.Fatal(err)
	}
	if status != 13 { // EACCES
		t.Errorf("status = %d, want EACCES(13)", status)
	}
	if _, ok := rt.ReadFile("/data/ok.txt"); !ok {
		t.Error("host file lost")
	}
}

func TestCallSequence(t *testing.T) {
	s := CallSequence(CallYield)
	if !strings.Contains(s, "[x21, #80]") || !strings.Contains(s, "blr x30") {
		t.Errorf("CallSequence = %q", s)
	}
}

func TestCompileOptionsMatrix(t *testing.T) {
	src := "_start:\n\tldr x0, [x1, #8]\n\tstr x0, [x1, #16]\n\tret\n"
	for _, opts := range []CompileOptions{
		{Opt: O0}, {Opt: O1}, {Opt: O2},
		{Opt: O2, NoLoads: true},
		{Opt: O2, DisableSPOpts: true},
	} {
		res, err := Compile(src, opts)
		if err != nil {
			t.Errorf("%+v: %v", opts, err)
			continue
		}
		if res.TextSize == 0 || res.FileSize <= res.TextSize {
			t.Errorf("%+v: sizes %d/%d", opts, res.TextSize, res.FileSize)
		}
	}
}

func TestTraceAndProfile(t *testing.T) {
	res, err := Compile(helloProgram, CompileOptions{Opt: O2})
	if err != nil {
		t.Fatal(err)
	}
	rt := NewRuntime(RuntimeConfig{Machine: MachineM1})
	var buf strings.Builder
	rt.TraceInstructions(&buf, 5)
	if err := rt.EnableProfile(); err != nil {
		t.Fatal(err)
	}
	p, err := rt.Load(res.ELF)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.RunProcess(p); err != nil {
		t.Fatal(err)
	}
	lines := strings.Count(buf.String(), "\n")
	if lines != 5 {
		t.Errorf("trace emitted %d lines, want 5 (limit)", lines)
	}
	if !strings.Contains(buf.String(), "movz x0, #1") {
		t.Errorf("trace missing first instruction:\n%s", buf.String())
	}
	prof := rt.Profile(3)
	if len(prof) == 0 || len(prof) > 3 {
		t.Fatalf("profile = %v", prof)
	}
	for _, line := range prof {
		if !strings.Contains(line, " ") {
			t.Errorf("unformatted profile line %q", line)
		}
	}
	// Profiling without a timing model is an error.
	rt2 := NewRuntime(RuntimeConfig{})
	if err := rt2.EnableProfile(); err == nil {
		t.Error("EnableProfile without a machine model must fail")
	}
	if rt2.Profile(3) != nil {
		t.Error("Profile without timing must be nil")
	}
}
