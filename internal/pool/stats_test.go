package pool

import (
	"testing"

	"lfi/internal/core"
)

// TestQueueDepthSurface pins the router-facing observability contract:
// a parked caller shows in QueueDepth, in its tenant's Queued count and
// in the pool.queue.depth gauge, and all three fall back to zero once
// it runs.
func TestQueueDepthSurface(t *testing.T) {
	p := New(Config{Workers: 1})
	defer p.Close()
	spin := mustImage(t, p, spinSrc)
	quick := mustImage(t, p, tenantSrc(1))

	if got := p.QueueDepth(); got != 0 {
		t.Errorf("QueueDepth() = %d on an idle pool", got)
	}
	done := make(chan struct{}, 2)
	go func() { p.Do(Job{Image: spin, Budget: 3_000_000}); done <- struct{}{} }()
	waitFor(t, func() bool { return p.Stats().Workers[0].Busy })
	go func() { p.Do(Job{Image: quick, Tenant: "t"}); done <- struct{}{} }()
	waitFor(t, func() bool { return p.QueueDepth() == 1 })
	if got := p.Queued("t"); got != 1 {
		t.Errorf("Queued(t) = %d, want 1", got)
	}
	if got := p.Metrics().Gauges["pool.queue.depth"]; got != 1 {
		t.Errorf("pool.queue.depth = %d, want 1", got)
	}
	<-done
	<-done
	if d, q := p.QueueDepth(), p.Queued("t"); d != 0 || q != 0 {
		t.Errorf("after drain: QueueDepth() = %d, Queued(t) = %d", d, q)
	}
	if got, ok := p.Metrics().Gauges["pool.queue.depth"]; !ok || got != 0 {
		t.Errorf("pool.queue.depth = %d (present %v) after drain", got, ok)
	}
}

// TestSharedCacheAcrossPools pins the shard-router contract: two pools
// built on one SharedCache deduplicate builds and serve each other's
// images (snapshots restore anywhere the runtime config matches).
func TestSharedCacheAcrossPools(t *testing.T) {
	cfg := Config{Workers: 1}
	cache := NewCache(cfg.RuntimeConfig())
	a := New(Config{Workers: 1, SharedCache: cache})
	defer a.Close()
	b := New(Config{Workers: 1, SharedCache: cache})
	defer b.Close()

	img, err := a.BuildImage(tenantSrc(11), core.Options{Opt: core.O2})
	if err != nil {
		t.Fatal(err)
	}
	got, ok := cache.Lookup(img.Key)
	if !ok || got != img {
		t.Fatal("build did not land in the shared cache")
	}
	// Pool b serves the image a built, warm path included.
	for i := 0; i < 2; i++ {
		res, err := b.Do(Job{Image: img})
		if err != nil || res.Err != nil {
			t.Fatal(err, res)
		}
		if res.Status != 11 || string(res.Stdout) != tenantOut(11) {
			t.Errorf("cross-pool serve: %+v", res)
		}
	}
	if b.Stats().WarmHits == 0 {
		t.Error("no warm hit serving a shared-cache image")
	}
}
