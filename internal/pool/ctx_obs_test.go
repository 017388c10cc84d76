package pool

import (
	"context"
	"errors"
	"testing"
	"time"

	"lfi/internal/obs"
)

// TestDoCtxCancelKillsSpinner proves the acceptance property: canceling
// the context of an in-flight job kills the spinning sandbox promptly
// and the error matches both ErrCanceled and the context's own error.
func TestDoCtxCancelKillsSpinner(t *testing.T) {
	p := New(Config{Workers: 1})
	defer p.Close()
	spin := mustImage(t, p, spinSrc)

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()

	start := time.Now()
	// Huge budget: only cancellation can stop this job.
	res, err := p.DoCtx(ctx, Job{Image: spin, Budget: 1 << 60})
	elapsed := time.Since(start)

	if err == nil {
		t.Fatal("canceled job returned nil error")
	}
	if !errors.Is(err, ErrCanceled) {
		t.Errorf("errors.Is(err, ErrCanceled) = false: %v", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("errors.Is(err, context.Canceled) = false: %v", err)
	}
	if res == nil {
		t.Fatal("canceled job returned nil result")
	}
	if !errors.Is(res.Err, ErrCanceled) {
		t.Errorf("result error does not match ErrCanceled: %v", res.Err)
	}
	// "Promptly": one timeslice is ~200k instructions — far under a
	// second even on a slow host.
	if elapsed > 5*time.Second {
		t.Errorf("cancellation took %v", elapsed)
	}
	// The worker survives: a normal job still runs afterwards.
	ok := mustImage(t, p, tenantSrc(4))
	r, err := p.Do(Job{Image: ok})
	if err != nil || r.Err != nil {
		t.Fatalf("worker unusable after cancellation: %v %v", err, r)
	}
	if got := p.Stats().Canceled; got != 1 {
		t.Errorf("Stats().Canceled = %d, want 1", got)
	}
}

func TestDoCtxDeadline(t *testing.T) {
	p := New(Config{Workers: 1})
	defer p.Close()
	spin := mustImage(t, p, spinSrc)

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, err := p.DoCtx(ctx, Job{Image: spin, Budget: 1 << 60})
	if !errors.Is(err, ErrCanceled) {
		t.Errorf("errors.Is(err, ErrCanceled) = false: %v", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("errors.Is(err, context.DeadlineExceeded) = false: %v", err)
	}
}

func TestDoCtxAlreadyDone(t *testing.T) {
	p := New(Config{Workers: 1})
	defer p.Close()
	img := mustImage(t, p, tenantSrc(1))

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := p.DoCtx(ctx, Job{Image: img}); !errors.Is(err, ErrCanceled) {
		t.Errorf("DoCtx with done context: %v, want ErrCanceled", err)
	}
}

// TestCanceledBeforeDequeue holds the single worker with a long job,
// parks a second caller, cancels it while parked, and checks it leaves
// with ctx.Err() — without the sandbox ever starting.
func TestCanceledBeforeDequeue(t *testing.T) {
	p := New(Config{Workers: 1, QueueDepth: 4})
	defer p.Close()
	spin := mustImage(t, p, spinSrc)
	quick := mustImage(t, p, tenantSrc(2))

	// Occupy the single worker (bounded by its budget).
	busy := make(chan struct{})
	go func() {
		defer close(busy)
		p.Do(Job{Image: spin, Budget: 5_000_000})
	}()
	waitFor(t, func() bool { return p.Stats().Workers[0].Busy })

	ctx, cancel := context.WithCancel(context.Background())
	type outcome struct {
		res *Result
		err error
	}
	queued := make(chan outcome, 1)
	go func() {
		res, err := p.DoCtx(ctx, Job{Image: quick})
		queued <- outcome{res, err}
	}()
	waitFor(t, func() bool { return p.QueueDepth() == 1 })
	cancel()
	out := <-queued
	if !errors.Is(out.err, ErrCanceled) || !errors.Is(out.err, context.Canceled) {
		t.Errorf("parked job error = %v, want ErrCanceled wrapping context.Canceled", out.err)
	}
	if out.res != nil {
		t.Errorf("parked job ran: %+v", out.res)
	}
	<-busy
	if st := p.Stats(); st.QueueDepth != 0 || st.Submitted != st.Completed || st.Canceled != 1 {
		t.Errorf("stats after canceled waiter: %+v", st)
	}
}

// TestObservabilityEndToEnd drives jobs through a pool and checks that
// the registry, per-worker stats, and per-job spans describe them: the
// end-to-end proof that queue-wait/restore/run latency and warm
// hit/miss counters are observable.
func TestObservabilityEndToEnd(t *testing.T) {
	p := New(Config{Workers: 1})
	defer p.Close()
	img := mustImage(t, p, tenantSrc(5))

	const jobs = 3
	for i := 0; i < jobs; i++ {
		res, err := p.Do(Job{Image: img})
		if err != nil || res.Err != nil {
			t.Fatal(err, res)
		}
	}

	snap := p.Metrics()
	if got := snap.Counters["pool.jobs.completed"]; got != jobs {
		t.Errorf("pool.jobs.completed = %d, want %d", got, jobs)
	}
	if got := snap.Counters["pool.warm.hits"]; got != jobs-1 {
		t.Errorf("pool.warm.hits = %d, want %d", got, jobs-1)
	}
	if got := snap.Counters["pool.warm.misses"]; got != 1 {
		t.Errorf("pool.warm.misses = %d, want 1", got)
	}
	if got := snap.Counters["pool.image.misses"]; got != 1 {
		t.Errorf("pool.image.misses = %d, want 1", got)
	}
	// Runtime-level and emulator-level counters flow into the same
	// registry via the worker runtimes.
	if got := snap.Counters["rt.host_calls"]; got < jobs {
		t.Errorf("rt.host_calls = %d, want >= %d", got, jobs)
	}
	if got := snap.Counters["rt.verifies"]; got == 0 {
		t.Error("rt.verifies = 0, want > 0 (image build verifies)")
	}
	for _, h := range []string{
		"pool.latency.queue_wait_ns", "pool.latency.restore_ns",
		"pool.latency.run_ns", "pool.latency.total_ns",
	} {
		hist, ok := snap.Histograms[h]
		if !ok || hist.Count == 0 {
			t.Errorf("histogram %s missing or empty", h)
		}
	}
	if got := snap.Histograms["pool.latency.restore_ns"].Count; got != 1 {
		t.Errorf("restore latency observations = %d, want 1 (one warm miss)", got)
	}
	// Every job refills the clone it consumed before its ticket resolves.
	if got := snap.Histograms["pool.latency.refill_ns"].Count; got != jobs {
		t.Errorf("refill latency observations = %d, want %d (one per job)", got, jobs)
	}
	if got := snap.Counters["pool.restores"]; got != jobs+1 {
		t.Errorf("pool.restores = %d, want %d (one miss + one refill per job)", got, jobs+1)
	}

	// Per-worker breakdown.
	st := p.Stats()
	if len(st.Workers) != 1 {
		t.Fatalf("worker stats count = %d, want 1", len(st.Workers))
	}
	w := st.Workers[0]
	if w.Jobs != jobs || w.WarmHits != jobs-1 || w.Instrs == 0 {
		t.Errorf("worker stats = %+v", w)
	}
	if w.Parked == 0 {
		t.Error("no parked clones after replenishment")
	}

	// Spans: one per job, with the latency decomposition filled in.
	spans := p.Spans()
	if len(spans) != jobs {
		t.Fatalf("spans = %d, want %d", len(spans), jobs)
	}
	for i, s := range spans {
		checkSpanIntervals(t, s)
		if s.RunNS <= 0 {
			t.Errorf("span %d: run=%d", i, s.RunNS)
		}
		if s.Instrs == 0 {
			t.Errorf("span %d: no instructions", i)
		}
		if i == 0 && (s.WarmHit || s.RestoreNS <= 0) {
			t.Errorf("first span should be a timed restore: %+v", s)
		}
		if i > 0 && (!s.WarmHit || s.RestoreNS != 0) {
			t.Errorf("span %d should be a warm hit with no restore: %+v", i, s)
		}
		if s.RefillNS <= 0 {
			t.Errorf("span %d: refill=%d", i, s.RefillNS)
		}
	}

	// A cold job times its load as the restore and refills nothing.
	if res, err := p.Do(Job{Image: img, Cold: true}); err != nil || res.Err != nil {
		t.Fatal(err, res)
	}
	spans = p.Spans()
	cold := spans[len(spans)-1]
	checkSpanIntervals(t, cold)
	if !cold.Cold || cold.WarmHit || cold.RestoreNS <= 0 || cold.RefillNS != 0 || cold.RunNS <= 0 {
		t.Errorf("cold span = %+v", cold)
	}

	// A job canceled mid-run still closes its span.
	spin := mustImage(t, p, spinSrc)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := p.DoCtx(ctx, Job{Image: spin, Budget: 1 << 60}); !errors.Is(err, ErrCanceled) {
		t.Fatalf("spin job err = %v, want ErrCanceled", err)
	}
	spans = p.Spans()
	canceled := spans[len(spans)-1]
	checkSpanIntervals(t, canceled)
	if !canceled.Canceled || canceled.Err == "" || canceled.RunNS <= 0 || canceled.Instrs == 0 {
		t.Errorf("canceled span = %+v", canceled)
	}
}

// checkSpanIntervals asserts that a span's intervals are non-negative
// and, being disjoint, sum to no more than its total.
func checkSpanIntervals(t *testing.T, s obs.Span) {
	t.Helper()
	parts := []int64{s.QueueWaitNS, s.RestoreNS, s.RunNS, s.RefillNS}
	var sum int64
	for _, d := range parts {
		if d < 0 {
			t.Errorf("job %d: negative interval in %+v", s.Job, s)
		}
		sum += d
	}
	if sum > s.TotalNS {
		t.Errorf("job %d: intervals sum to %d > total %d", s.Job, sum, s.TotalNS)
	}
}

// TestExternalObs shares one registry between two pools.
func TestExternalObs(t *testing.T) {
	o := obs.New()
	p1 := New(Config{Workers: 1, Obs: o})
	defer p1.Close()
	p2 := New(Config{Workers: 1, Obs: o})
	defer p2.Close()
	img1 := mustImage(t, p1, tenantSrc(1))
	img2 := mustImage(t, p2, tenantSrc(1))
	if _, err := p1.Do(Job{Image: img1}); err != nil {
		t.Fatal(err)
	}
	if _, err := p2.Do(Job{Image: img2}); err != nil {
		t.Fatal(err)
	}
	if got := o.Reg.Snapshot().Counters["pool.jobs.completed"]; got != 2 {
		t.Errorf("shared registry completed = %d, want 2", got)
	}
}
