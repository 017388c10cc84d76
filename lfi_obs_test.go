package lfi

import (
	"context"
	"errors"
	"testing"
	"time"
)

const helloSrc = `
_start:
	mov x0, #1
	adrp x1, msg
	add x1, x1, :lo12:msg
	mov x2, #6
` + "\tldr x30, [x21, #8]\n\tblr x30\n" + `
	mov x0, #0
	ldr x30, [x21, #0]
	blr x30
.rodata
msg:
	.ascii "hello\n"
`

const spinForever = `
_start:
spin:
	b spin
`

// TestExecuteCtxCancel proves the facade-level acceptance criterion:
// canceling the context of an in-flight job kills the spinning sandbox
// and the error satisfies errors.Is(err, ErrCanceled).
func TestExecuteCtxCancel(t *testing.T) {
	p := NewPool(PoolConfig{Workers: 1})
	defer p.Close()
	img, err := p.BuildImage(spinForever, CompileOptions{Opt: O2})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	res, err := p.ExecuteCtx(ctx, Job{Image: img, Budget: 1 << 60})
	if !errors.Is(err, ErrCanceled) {
		t.Errorf("errors.Is(err, ErrCanceled) = false: %v", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("errors.Is(err, context.Canceled) = false: %v", err)
	}
	if res == nil || !errors.Is(res.Err, ErrCanceled) {
		t.Errorf("result = %+v, want Err matching ErrCanceled", res)
	}
}

// TestPoolMetricsAndSpans exercises Pool.Metrics / Spans.
func TestPoolMetricsAndSpans(t *testing.T) {
	p := NewPool(PoolConfig{Workers: 1})
	defer p.Close()
	img, err := p.BuildImage(helloSrc, CompileOptions{Opt: O2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		res, err := p.ExecuteCtx(context.Background(), Job{Image: img})
		if err != nil || res.Err != nil {
			t.Fatal(err, res)
		}
	}

	snap := p.Metrics()
	if snap.Counters["pool.jobs.completed"] != 2 {
		t.Errorf("pool.jobs.completed = %d, want 2", snap.Counters["pool.jobs.completed"])
	}
	if snap.Counters["pool.warm.hits"] != 1 || snap.Counters["pool.warm.misses"] != 1 {
		t.Errorf("warm hits/misses = %d/%d, want 1/1",
			snap.Counters["pool.warm.hits"], snap.Counters["pool.warm.misses"])
	}
	if spans := p.Spans(); len(spans) != 2 || spans[0].WarmHit || !spans[1].WarmHit {
		t.Errorf("spans = %+v, want a warm miss then a warm hit", spans)
	}
	st := p.Stats()
	if len(st.Workers) != 1 || st.Workers[0].Jobs != 2 {
		t.Errorf("per-worker stats = %+v", st.Workers)
	}
}

// TestRuntimeMetricsOption checks the standalone-runtime metrics switch
// and the RuntimeStats struct API (plus the deprecated tuple wrapper).
func TestRuntimeMetricsOption(t *testing.T) {
	res, err := Compile(helloSrc, CompileOptions{Opt: O2})
	if err != nil {
		t.Fatal(err)
	}

	// Disabled: Stats still works, Metrics is an empty snapshot.
	off := NewRuntime(RuntimeConfig{})
	proc, err := off.Load(res.ELF)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := off.RunProcess(proc); err != nil {
		t.Fatal(err)
	}
	st := off.Stats()
	if st.HostCalls != 2 || st.Instrs == 0 {
		t.Errorf("Stats() = %+v", st)
	}
	if len(off.Metrics().Counters) != 0 {
		t.Error("metrics recorded without RuntimeConfig.Metrics")
	}

	// Enabled: registry counters appear.
	on := NewRuntime(RuntimeConfig{Metrics: true})
	proc, err = on.Load(res.ELF)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := on.RunProcess(proc); err != nil {
		t.Fatal(err)
	}
	snap := on.Metrics()
	if snap.Counters["rt.host_calls"] != 2 || snap.Counters["rt.verifies"] != 1 {
		t.Errorf("metrics snapshot = %+v", snap.Counters)
	}
}

// TestErrVerifyTaxonomy checks that verification failures match the
// ErrVerify sentinel from both the Verify helper and sandbox loads.
func TestErrVerifyTaxonomy(t *testing.T) {
	res, err := CompileNative("_start:\n\tldr x0, [x1]\n\tret\n")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Verify(res.ELF); !errors.Is(err, ErrVerify) {
		t.Errorf("Verify error = %v, want ErrVerify", err)
	}
	rt := NewRuntime(RuntimeConfig{})
	if _, err := rt.Load(res.ELF); !errors.Is(err, ErrVerify) {
		t.Errorf("Load error = %v, want ErrVerify", err)
	}
	p := NewPool(PoolConfig{Workers: 1})
	defer p.Close()
	if _, err := p.ImageFromELF(res.ELF); !errors.Is(err, ErrVerify) {
		t.Errorf("ImageFromELF error = %v, want ErrVerify", err)
	}
}
