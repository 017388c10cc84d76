package pool

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"
)

// TestPoolOwnsNoGoroutines pins that a worker is a resource, not a
// goroutine: a pool starts none, and a parked caller costs only its own.
func TestPoolOwnsNoGoroutines(t *testing.T) {
	// One-sided: a goroutine an earlier test left exiting may finish in
	// between, but nothing may start.
	before := runtime.NumGoroutine()
	p := New(Config{Workers: 4})
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("New: %d goroutines, was %d", n, before)
	}
	p.Close()
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("New+Close: %d goroutines, was %d", n, before)
	}

	const callers = 1024
	before = runtime.NumGoroutine()
	p = New(Config{Workers: 1, QueueDepth: 2048})
	defer p.Close()
	spin := mustImage(t, p, spinSrc)
	quick := mustImage(t, p, tenantSrc(3))

	ctx, stop := context.WithCancel(context.Background())
	spun := make(chan error, 1)
	go func() {
		_, err := p.DoCtx(ctx, Job{Image: spin, Budget: 1 << 60})
		spun <- err
	}()
	waitFor(t, func() bool { return p.Stats().Workers[0].Busy })

	errc := make(chan error, callers)
	for i := 0; i < callers; i++ {
		go func() {
			res, err := p.Do(Job{Image: quick})
			if err == nil && (res.Err != nil || res.Status != 3) {
				err = errors.New("parked job did not serve")
			}
			errc <- err
		}()
	}
	waitFor(t, func() bool { return p.QueueDepth() == callers })
	if n := runtime.NumGoroutine(); n-before > callers+4 {
		t.Errorf("%d parked callers raised goroutines by %d, want at most %d", callers, n-before, callers+4)
	}
	stop()
	if err := <-spun; !errors.Is(err, ErrCanceled) {
		t.Errorf("spinner: %v, want ErrCanceled", err)
	}
	for i := 0; i < callers; i++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
	if d := p.Stats().QueueDepth; d != 0 {
		t.Errorf("QueueDepth = %d after every caller resolved", d)
	}
}

// TestHandoffToCanceledWaiter cancels parked callers at random while
// workers are being handed to them. A worker that reaches a caller whose
// context just fired must go on to the next waiter or back to the free
// list: afterwards no worker is busy or lost, and a new job is served
// without waiting. Run with -race.
func TestHandoffToCanceledWaiter(t *testing.T) {
	const workers, callers = 2, 64
	// Not deferred: a lost worker would make Close wait forever.
	p := New(Config{Workers: workers, QueueDepth: callers})
	quick := mustImage(t, p, tenantSrc(5))

	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for k := 0; k < 4; k++ {
				ctx, cancel := context.WithCancel(context.Background())
				time.AfterFunc(time.Duration(rng.Intn(200))*time.Microsecond, cancel)
				res, err := p.DoCtx(ctx, Job{Image: quick})
				cancel()
				switch {
				case err == nil && (res.Err != nil || res.Status != 5):
					t.Errorf("served job: %+v", res)
				case err != nil && !errors.Is(err, ErrCanceled):
					t.Errorf("job: %v, want success or ErrCanceled", err)
				}
			}
		}(int64(i))
	}
	wg.Wait()

	st := p.Stats()
	for _, w := range st.Workers {
		if w.Busy {
			t.Errorf("worker %d still busy after every caller returned", w.Worker)
		}
	}
	if st.QueueDepth != 0 || st.Submitted != st.Completed {
		t.Errorf("queue depth %d, submitted %d, completed %d", st.QueueDepth, st.Submitted, st.Completed)
	}
	p.mu.Lock()
	free := len(p.free)
	p.mu.Unlock()
	if free != workers {
		t.Fatalf("%d of %d workers on the free list: a hand-off was lost", free, workers)
	}
	res, err := p.Do(Job{Image: quick})
	if err != nil || res.Err != nil || res.Status != 5 {
		t.Fatalf("job after the storm: %v %+v", err, res)
	}
	p.Close()
}

// TestWFQDispatchOrder drives the waiter queue directly and verifies
// that weighted fair queueing hands workers to tenants in proportion to
// their weights: with A at weight 4 and B at weight 1, the first 50
// hand-offs of an 80-waiter backlog contain all 40 of A's waiters and
// B's share within 20% of proportional.
func TestWFQDispatchOrder(t *testing.T) {
	var q wfq
	for i := 0; i < 40; i++ {
		for _, tn := range []struct {
			name   string
			weight int
		}{{"a", 4}, {"b", 1}} {
			if !q.push(&waiter{tenant: tn.name}, tn.weight, 256) {
				t.Fatal("push refused below the bound")
			}
		}
	}
	counts := map[string]int{}
	for i := 0; i < 50; i++ {
		w := q.pop()
		if w == nil {
			t.Fatal("pop returned nil with waiters parked")
		}
		counts[w.tenant]++
	}
	// Fair shares over the first 50 hand-offs: A finishes its 40 within
	// virtual time 10, B completes ~10. Allow ±20% on B for tag ties.
	if counts["a"] < 38 {
		t.Errorf("weight-4 tenant got %d of 50 hand-offs, want ~40", counts["a"])
	}
	if counts["b"] < 8 || counts["b"] > 12 {
		t.Errorf("weight-1 tenant got %d of 50 hand-offs, want 10±2", counts["b"])
	}
}
