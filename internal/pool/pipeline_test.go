package pool

import (
	"errors"
	"testing"

	"lfi/internal/core"
	"lfi/internal/lfirt"
	"lfi/internal/progs"
)

// filterSrc reads stdin byte by byte until EOF, incrementing each byte
// and copying it to stdout — the canonical pipeline stage.
var filterSrc = `
_start:
floop:
	mov x0, #0
	adrp x1, fbuf
	add x1, x1, :lo12:fbuf
	mov x2, #1
` + progs.RTCall(core.RTRead) + `
	cmp x0, #1
	b.ne fdone
	adrp x9, fbuf
	add x9, x9, :lo12:fbuf
	ldrb w10, [x9]
	add w10, w10, #1
	strb w10, [x9]
	mov x0, #1
	adrp x1, fbuf
	add x1, x1, :lo12:fbuf
	mov x2, #1
` + progs.RTCall(core.RTWrite) + `
	b floop
fdone:
	mov x0, #0
` + progs.Exit() + `
.bss
fbuf:
	.space 8
`

// sourceSrc writes "abc" to stdout and exits.
var sourceSrc = `
_start:
	mov x0, #1
	adrp x1, msg
	add x1, x1, :lo12:msg
	mov x2, #3
` + progs.RTCall(core.RTWrite) + `
	mov x0, #0
` + progs.Exit() + `
.rodata
msg:
	.ascii "abc"
`

func TestPipelineJob(t *testing.T) {
	p := New(Config{Workers: 1})
	defer p.Close()
	f := mustImage(t, p, filterSrc)

	res, err := p.Do(Job{Images: []*Image{f, f, f}, Input: []byte("abc")})
	if err != nil {
		t.Fatal(err)
	}
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.Status != 0 {
		t.Errorf("status = %d", res.Status)
	}
	if got := string(res.Stdout); got != "def" {
		t.Errorf("3-stage output = %q, want %q", got, "def")
	}
	if len(res.Stages) != 3 {
		t.Fatalf("got %d stage results, want 3", len(res.Stages))
	}
	for i, sr := range res.Stages {
		if sr.Status != 0 {
			t.Errorf("stage %d status = %d", i, sr.Status)
		}
	}

	st := p.Stats()
	if st.Pipelines != 1 || st.Stages != 3 {
		t.Errorf("pipeline stats = %d jobs / %d stages, want 1/3", st.Pipelines, st.Stages)
	}

	// The job's span must carry the per-stage breakdown.
	spans := p.Spans()
	if len(spans) == 0 {
		t.Fatal("no spans recorded")
	}
	last := spans[len(spans)-1]
	if len(last.Stages) != 3 {
		t.Fatalf("span has %d stages, want 3", len(last.Stages))
	}
	for i, ss := range last.Stages {
		if ss.Status != 0 || ss.PID == 0 || ss.Image == "" {
			t.Errorf("span stage %d = %+v", i, ss)
		}
	}
}

func TestPipelineDistinctImages(t *testing.T) {
	p := New(Config{Workers: 1})
	defer p.Close()
	src := mustImage(t, p, sourceSrc)
	f := mustImage(t, p, filterSrc)

	res, err := p.Do(Job{Images: []*Image{src, f, f}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if got := string(res.Stdout); got != "cde" {
		t.Errorf("source→filter→filter output = %q, want %q", got, "cde")
	}
}

func TestPipelineWarmHits(t *testing.T) {
	// Three stages of the same image need three parked clones for a
	// fully-warm pipeline.
	p := New(Config{Workers: 1, WarmPerImage: 3})
	defer p.Close()
	f := mustImage(t, p, filterSrc)
	job := Job{Images: []*Image{f, f, f}, Input: []byte("x")}

	first, err := p.Do(job)
	if err != nil || first.Err != nil {
		t.Fatalf("first: %v / %v", err, first.Err)
	}
	second, err := p.Do(job)
	if err != nil || second.Err != nil {
		t.Fatalf("second: %v / %v", err, second.Err)
	}
	if !second.WarmHit {
		t.Error("second pipeline run was not fully warm")
	}
	for i, sr := range second.Stages {
		if !sr.WarmHit {
			t.Errorf("stage %d of warmed pipeline missed", i)
		}
	}
	if got := string(second.Stdout); got != "{" { // 'x' + 3
		t.Errorf("output = %q, want %q", got, "{")
	}
}

func TestPipelineValidation(t *testing.T) {
	p := New(Config{Workers: 1})
	defer p.Close()
	f := mustImage(t, p, filterSrc)

	if _, err := p.Do(Job{}); err == nil {
		t.Error("empty job accepted")
	}
	if _, err := p.Do(Job{Image: f, Images: []*Image{f}}); err == nil {
		t.Error("job with both Image and Images accepted")
	}
	if _, err := p.Do(Job{Images: []*Image{f, nil}}); err == nil {
		t.Error("pipeline with nil stage accepted")
	}
}

// TestPipelineBudgetKill runs a pipeline whose producer spins forever so
// the consumer never sees EOF: the job must die by instruction budget,
// the stuck producer must be reaped, and the worker must stay healthy.
func TestPipelineBudgetKill(t *testing.T) {
	p := New(Config{Workers: 1})
	defer p.Close()
	spin := mustImage(t, p, spinSrc)
	f := mustImage(t, p, filterSrc)

	res, err := p.Do(Job{Images: []*Image{spin, f}, Budget: 200_000})
	if err != nil {
		t.Fatal(err)
	}
	var de *lfirt.ErrDeadline
	if !errors.As(res.Err, &de) {
		t.Fatalf("err = %v, want deadline", res.Err)
	}
	if len(res.Stages) != 2 {
		t.Fatalf("got %d stage results", len(res.Stages))
	}
	if res.Stages[0].Status != 128+13 {
		t.Errorf("stuck producer status = %d, want %d", res.Stages[0].Status, 128+13)
	}
	if res.Stages[1].Status != 128+24 {
		t.Errorf("budget-killed consumer status = %d, want %d", res.Stages[1].Status, 128+24)
	}
	if got := p.Stats().Deadlines; got != 1 {
		t.Errorf("deadline kills = %d, want 1", got)
	}

	// The worker runtime must be clean: a normal job still serves.
	ok, err := p.Do(Job{Images: []*Image{f, f}, Input: []byte("a")})
	if err != nil || ok.Err != nil {
		t.Fatalf("post-kill job: %v / %v", err, ok.Err)
	}
	if got := string(ok.Stdout); got != "c" {
		t.Errorf("post-kill output = %q, want %q", got, "c")
	}
}
