package obs

import (
	"encoding/json"
	"net/http/httptest"
	"sync"
	"testing"
)

func TestNilSafety(t *testing.T) {
	// Every instrument and the registry itself must be usable as nil:
	// that is the "observability disabled" configuration.
	var r *Registry
	c := r.Counter("x")
	g := r.Gauge("y")
	h := r.Histogram("z", DurationBounds())
	c.Add(3)
	c.Inc()
	g.Set(7)
	g.Add(-2)
	h.Observe(123)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil instruments must read zero")
	}
	s := r.Snapshot()
	if len(s.Counters) != 0 || len(s.Gauges) != 0 || len(s.Histograms) != 0 {
		t.Fatal("nil registry snapshot must be empty")
	}

	var tr *Tracer
	tr.RecordSpan(Span{Job: 1})
	if tr.Spans() != nil {
		t.Fatal("nil tracer must read empty")
	}

	var o *Obs
	if o.Registry() != nil || o.Trace() != nil {
		t.Fatal("nil Obs accessors must return nil")
	}
}

func TestCounterGaugeHistogram(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("jobs")
	c.Add(41)
	c.Inc()
	if got := c.Value(); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
	if r.Counter("jobs") != c {
		t.Fatal("same name must return the same counter")
	}

	g := r.Gauge("depth")
	g.Set(10)
	g.Add(-3)
	if got := g.Value(); got != 7 {
		t.Fatalf("gauge = %d, want 7", got)
	}

	h := r.Histogram("lat", []uint64{10, 100, 1000})
	for _, v := range []uint64{5, 10, 11, 100, 5000} {
		h.Observe(v)
	}
	if h.Count() != 5 || h.Sum() != 5126 {
		t.Fatalf("hist count/sum = %d/%d, want 5/5126", h.Count(), h.Sum())
	}
	hs := r.Snapshot().Histograms["lat"]
	wantBuckets := []uint64{2, 2, 0, 1} // ≤10:{5,10} ≤100:{11,100} ≤1000:{} inf:{5000}
	for i, want := range wantBuckets {
		if hs.Buckets[i].Count != want {
			t.Fatalf("bucket %d = %d, want %d", i, hs.Buckets[i].Count, want)
		}
	}
	if !hs.Buckets[3].Inf {
		t.Fatal("last bucket must be +Inf")
	}
}

func TestQuantile(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", []uint64{100, 200, 400})
	for i := 0; i < 100; i++ {
		h.Observe(50) // all in the first bucket
	}
	hs := r.Snapshot().Histograms["lat"]
	if q := hs.Quantile(0.5); q == 0 || q > 100 {
		t.Fatalf("p50 = %d, want in (0, 100]", q)
	}
	empty := HistSnapshot{}
	if empty.Quantile(0.99) != 0 {
		t.Fatal("empty histogram quantile must be 0")
	}
}

// TestConcurrentHammer drives the registry and tracer from many
// goroutines; run under -race this is the data-race proof for the whole
// recording surface.
func TestConcurrentHammer(t *testing.T) {
	r := NewRegistry()
	tr := NewTracer(64)
	const goroutines = 16
	const iters = 2000

	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c := r.Counter("hammer.count")
			g := r.Gauge("hammer.gauge")
			h := r.Histogram("hammer.hist", DurationBounds())
			for j := 0; j < iters; j++ {
				c.Inc()
				g.Add(1)
				g.Add(-1)
				h.Observe(uint64(j) * 1000)
				tr.RecordSpan(Span{Job: uint64(j), Worker: id})
				if j%100 == 0 {
					_ = r.Snapshot()
					_ = tr.Spans()
				}
			}
		}(i)
	}
	wg.Wait()

	if got := r.Counter("hammer.count").Value(); got != goroutines*iters {
		t.Fatalf("counter = %d, want %d", got, goroutines*iters)
	}
	if got := r.Histogram("hammer.hist", nil).Count(); got != goroutines*iters {
		t.Fatalf("hist count = %d, want %d", got, goroutines*iters)
	}
	if got := r.Gauge("hammer.gauge").Value(); got != 0 {
		t.Fatalf("gauge = %d, want 0", got)
	}
	spans := tr.Spans()
	if len(spans) != 64 {
		t.Fatalf("span ring holds %d, want 64", len(spans))
	}
	// Each goroutine records its jobs in order, so oldest-first holds
	// per goroutine; a torn write would break it or pair a job with a
	// worker that never recorded it.
	prev := map[int]uint64{}
	for _, s := range spans {
		if s.Job >= iters || s.Worker >= goroutines {
			t.Fatalf("torn span %+v", s)
		}
		if p, ok := prev[s.Worker]; ok && s.Job <= p {
			t.Fatalf("worker %d: job %d after %d", s.Worker, s.Job, p)
		}
		prev[s.Worker] = s.Job
	}
}

func TestTracerRingOrder(t *testing.T) {
	tr := NewTracer(4)
	for i := 0; i < 7; i++ {
		tr.RecordSpan(Span{Job: uint64(i)})
		spans := tr.Spans()
		if want := min(i+1, 4); len(spans) != want {
			t.Fatalf("after %d spans the ring holds %d, want %d", i+1, len(spans), want)
		}
		// Oldest first, below and at capacity alike.
		for k, s := range spans {
			if want := uint64(i + 1 - len(spans) + k); s.Job != want {
				t.Fatalf("after %d spans, span %d job = %d, want %d", i+1, k, s.Job, want)
			}
		}
	}
}

func TestMetricsHandler(t *testing.T) {
	r := NewRegistry()
	r.Counter("a.b").Add(9)
	srv := httptest.NewServer(MetricsHandler(func() *Snapshot { return r.Snapshot() }))
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.Counters["a.b"] != 9 {
		t.Fatalf("exported counter = %d, want 9", snap.Counters["a.b"])
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json; charset=utf-8" {
		t.Fatalf("content type = %q", ct)
	}
}
