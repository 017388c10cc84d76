package pool

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"lfi/internal/core"
	"lfi/internal/lfirt"
	"lfi/internal/progs"
)

// tenantSrc builds a program that writes a unique marker and exits with a
// unique status, so output or state bleed between sandboxes is detectable.
func tenantSrc(id int) string {
	msg := fmt.Sprintf("tenant-%02d says hello\n", id)
	return fmt.Sprintf(`
_start:
	mov x0, #1
	adrp x1, msg
	add x1, x1, :lo12:msg
	mov x2, #%d
%s%s
.rodata
msg:
	.ascii %q
`, len(msg), progs.RTCall(core.RTWrite), progs.ExitCode(id), msg)
}

func tenantOut(id int) string { return fmt.Sprintf("tenant-%02d says hello\n", id) }

const spinSrc = `
_start:
spin:
	b spin
`

func mustImage(t testing.TB, p *Pool, src string) *Image {
	t.Helper()
	img, err := p.BuildImage(src, core.Options{Opt: core.O2})
	if err != nil {
		t.Fatal(err)
	}
	return img
}

func TestPoolServesJobs(t *testing.T) {
	p := New(Config{Workers: 2})
	defer p.Close()
	img := mustImage(t, p, tenantSrc(7))
	res, err := p.Do(Job{Image: img})
	if err != nil {
		t.Fatal(err)
	}
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.Status != 7 {
		t.Errorf("status = %d, want 7", res.Status)
	}
	if got := string(res.Stdout); got != tenantOut(7) {
		t.Errorf("stdout = %q", got)
	}
	if res.Instrs == 0 {
		t.Error("no instructions accounted")
	}
}

func TestImageCacheDeduplicates(t *testing.T) {
	p := New(Config{Workers: 1})
	defer p.Close()
	a := mustImage(t, p, tenantSrc(1))
	b := mustImage(t, p, tenantSrc(1))
	if a != b {
		t.Error("identical source built two images")
	}
	c := mustImage(t, p, tenantSrc(2))
	if a == c {
		t.Error("distinct sources shared an image")
	}
	hits, misses := p.Cache().HitRate()
	if hits != 1 || misses != 2 {
		t.Errorf("hits/misses = %d/%d, want 1/2", hits, misses)
	}
	// Different options produce a different key for the same source.
	d, err := p.BuildImage(tenantSrc(1), core.Options{Opt: core.O0})
	if err != nil {
		t.Fatal(err)
	}
	if d == a {
		t.Error("different options shared an image")
	}
}

func TestWarmHitAfterFirstServe(t *testing.T) {
	p := New(Config{Workers: 1})
	defer p.Close()
	img := mustImage(t, p, tenantSrc(3))
	r1, err := p.Do(Job{Image: img})
	if err != nil || r1.Err != nil {
		t.Fatal(err, r1)
	}
	if r1.WarmHit {
		t.Error("first serve cannot be a warm hit")
	}
	r2, err := p.Do(Job{Image: img})
	if err != nil || r2.Err != nil {
		t.Fatal(err, r2)
	}
	if !r2.WarmHit {
		t.Error("second serve should hit the warm pool")
	}
	if string(r2.Stdout) != tenantOut(3) || r2.Status != 3 {
		t.Errorf("warm serve: status=%d stdout=%q", r2.Status, r2.Stdout)
	}
	st := p.Stats()
	if st.WarmHits != 1 {
		t.Errorf("WarmHits = %d, want 1", st.WarmHits)
	}
}

func TestWarmPoolShrinksLRU(t *testing.T) {
	p := New(Config{Workers: 1, MaxWarm: 2, WarmPerImage: 1})
	defer p.Close()
	imgs := []*Image{
		mustImage(t, p, tenantSrc(1)),
		mustImage(t, p, tenantSrc(2)),
		mustImage(t, p, tenantSrc(3)),
	}
	// Serve 1, 2, 3: replenishing 3 pushes the warm count over MaxWarm,
	// evicting image 1 (least recently served).
	for _, img := range imgs {
		if res, err := p.Do(Job{Image: img}); err != nil || res.Err != nil {
			t.Fatal(err, res)
		}
	}
	res, err := p.Do(Job{Image: imgs[0]})
	if err != nil || res.Err != nil {
		t.Fatal(err, res)
	}
	if res.WarmHit {
		t.Error("evicted image should not warm-hit")
	}
	res, err = p.Do(Job{Image: imgs[2]})
	if err != nil || res.Err != nil {
		t.Fatal(err, res)
	}
	if !res.WarmHit {
		t.Error("recently served image should have stayed warm")
	}
}

// TestLRUDropsKeysWithoutClones refills a worker for images whose
// snapshots never restore there: with nothing parked for them, their keys
// must leave the worker's LRU instead of piling up in it.
func TestLRUDropsKeysWithoutClones(t *testing.T) {
	p := New(Config{Workers: 1})
	defer p.Close()
	good := mustImage(t, p, tenantSrc(1))
	// A snapshot taken under another page size never restores here.
	cfg := p.cfg.RuntimeConfig()
	cfg.PageSize = 4096
	rt := lfirt.New(cfg)
	proc, err := rt.Load(good.ELF)
	if err != nil {
		t.Fatal(err)
	}
	foreign, err := rt.Snapshot(proc)
	if err != nil {
		t.Fatal(err)
	}
	w := p.workers[0]
	w.replenish(good)
	const n = 20
	for i := 0; i < n; i++ {
		w.replenish(&Image{Key: fmt.Sprintf("foreign-%d", i), Snap: foreign})
	}
	withClones := 0
	for k, clones := range w.warm {
		if len(clones) > 0 {
			withClones++
		} else {
			t.Errorf("warm set keeps key %q with no clones", k)
		}
	}
	if len(w.lru) != withClones || withClones != 1 {
		t.Fatalf("after %d failed refills the LRU holds %d keys, %d of them with clones; want 1 and 1", n, len(w.lru), withClones)
	}
}

func TestAdmissionControlRejects(t *testing.T) {
	p := New(Config{Workers: 1, QueueDepth: 1})
	defer p.Close()
	spin := mustImage(t, p, spinSrc)
	quick := mustImage(t, p, tenantSrc(1))

	// Occupy the single worker with a multi-million-instruction job and
	// park one caller behind it: the depth-1 queue is then full, and
	// admission control must reject rather than grow a backlog.
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		if res, _ := p.Do(Job{Image: spin, Budget: 3_000_000}); !errors.As(res.Err, new(*lfirt.ErrDeadline)) {
			t.Errorf("spin job: %v", res.Err)
		}
	}()
	waitFor(t, func() bool { return p.Stats().Workers[0].Busy })
	go func() {
		defer wg.Done()
		if res, err := p.Do(Job{Image: quick}); err != nil || res.Err != nil {
			t.Errorf("accepted job failed: %v %v", err, res)
		}
	}()
	waitFor(t, func() bool { return p.QueueDepth() == 1 })
	if _, err := p.Do(Job{Image: quick}); !errors.Is(err, ErrQueueFull) {
		t.Errorf("job past a full queue: %v, want ErrQueueFull", err)
	}
	wg.Wait()
	if st := p.Stats(); st.Rejected != 1 {
		t.Errorf("Stats.Rejected = %d, want 1", st.Rejected)
	}
}

// waitFor polls cond until it holds, failing the test after 10s.
func waitFor(t testing.TB, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 10s")
		}
	}
}

func TestDeadlineJobReported(t *testing.T) {
	p := New(Config{Workers: 1})
	defer p.Close()
	spin := mustImage(t, p, spinSrc)
	res, err := p.Do(Job{Image: spin, Budget: 100_000})
	if err != nil {
		t.Fatal(err)
	}
	var de *lfirt.ErrDeadline
	if !errors.As(res.Err, &de) {
		t.Fatalf("err = %v, want ErrDeadline", res.Err)
	}
	// The worker survives the runaway: the next job runs normally.
	quick := mustImage(t, p, tenantSrc(5))
	res, err = p.Do(Job{Image: quick})
	if err != nil || res.Err != nil || res.Status != 5 {
		t.Fatalf("after deadline: res=%+v err=%v", res, err)
	}
	st := p.Stats()
	if st.Deadlines != 1 {
		t.Errorf("Deadlines = %d, want 1", st.Deadlines)
	}
}

func TestColdJobBypassesSnapshot(t *testing.T) {
	p := New(Config{Workers: 1})
	defer p.Close()
	img := mustImage(t, p, tenantSrc(4))
	res, err := p.Do(Job{Image: img, Cold: true})
	if err != nil || res.Err != nil {
		t.Fatal(err, res)
	}
	if res.WarmHit {
		t.Error("cold job reported a warm hit")
	}
	if res.Status != 4 || string(res.Stdout) != tenantOut(4) {
		t.Errorf("cold serve: status=%d stdout=%q", res.Status, res.Stdout)
	}
	if st := p.Stats(); st.ColdLoads != 1 {
		t.Errorf("ColdLoads = %d, want 1", st.ColdLoads)
	}
}

func TestSubmitAfterClose(t *testing.T) {
	p := New(Config{Workers: 1})
	img := mustImage(t, p, tenantSrc(1))
	p.Close()
	p.Close() // double close is safe
	if _, err := p.Do(Job{Image: img}); !errors.Is(err, ErrClosed) {
		t.Errorf("err = %v, want ErrClosed", err)
	}
}

// TestCloseSubmitRace hammers DoCtx against a racing Close (plus
// concurrent context cancellation). The contract under test: a job
// admitted just as the pool closes must resolve — with a real result,
// ErrClosed, ErrCanceled, or a deadline kill — and never hang; the queue
// accounting must settle at zero with no double decrements. Run with -race.
func TestCloseSubmitRace(t *testing.T) {
	const rounds = 6
	for round := 0; round < rounds; round++ {
		p := New(Config{Workers: 2, QueueDepth: 4})
		img := mustImage(t, p, tenantSrc(1))
		ctx, cancel := context.WithCancel(context.Background())

		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < 30; i++ {
					c := context.Background()
					if g%2 == 0 {
						c = ctx // half the submitters race cancellation too
					}
					res, err := p.DoCtx(c, Job{Image: img})
					if res != nil {
						err = res.Err
					}
					var de *lfirt.ErrDeadline
					if err != nil && !errors.Is(err, ErrClosed) && !errors.Is(err, ErrQueueFull) &&
						!errors.Is(err, ErrCanceled) && !errors.As(err, &de) {
						t.Errorf("round %d: job resolved with %v", round, err)
					}
				}
			}(g)
		}
		// Fire the hostile events mid-stream.
		go cancel()
		closed := make(chan struct{})
		go func() { p.Close(); close(closed) }()

		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			t.Fatalf("round %d: admitted job never resolved: job hung across Close", round)
		}
		select {
		case <-closed:
		case <-time.After(30 * time.Second):
			t.Fatalf("round %d: Close hung", round)
		}
		p.Close() // idempotent
		if d := p.m.queueDepth.Value(); d != 0 {
			t.Fatalf("round %d: queue depth %d after close; accounting leaked", round, d)
		}
		if st := p.Stats(); st.Submitted != st.Completed {
			t.Fatalf("round %d: submitted %d != completed %d after close",
				round, st.Submitted, st.Completed)
		}
	}
}

// TestStressNoBleed is the concurrency gate: 8 workers serve hundreds of
// jobs over a mix of images (including runaways) from parallel
// submitters. Every result must carry exactly its own image's output and
// exit status — any cross-sandbox bleed of output or state fails the
// match. Run with -race.
func TestStressNoBleed(t *testing.T) {
	const (
		workers    = 8
		submitters = 4
		perSub     = 30
		nImages    = 8
	)
	p := New(Config{Workers: workers, QueueDepth: 16, MaxWarm: 4})
	defer p.Close()

	imgs := make([]*Image, nImages)
	for i := range imgs {
		imgs[i] = mustImage(t, p, tenantSrc(i))
	}
	spin := mustImage(t, p, spinSrc)

	var wg sync.WaitGroup
	errc := make(chan error, submitters*perSub)
	for s := 0; s < submitters; s++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < perSub; i++ {
				id := (seed*perSub + i) % nImages
				job := Job{Image: imgs[id]}
				if i%10 == 9 {
					job = Job{Image: spin, Budget: 50_000} // runaway in the mix
				}
				res, err := p.Do(job)
				if err != nil {
					errc <- err
					return
				}
				if job.Image == spin {
					if !errors.As(res.Err, new(*lfirt.ErrDeadline)) {
						errc <- fmt.Errorf("spin job: err=%v", res.Err)
					}
					continue
				}
				if res.Err != nil {
					errc <- fmt.Errorf("image %d: %v", id, res.Err)
					continue
				}
				if res.Status != id {
					errc <- fmt.Errorf("image %d: exit status %d (state bleed?)", id, res.Status)
				}
				if got := string(res.Stdout); got != tenantOut(id) {
					errc <- fmt.Errorf("image %d: stdout %q (output bleed?)", id, got)
				}
				if len(res.Stderr) != 0 {
					errc <- fmt.Errorf("image %d: unexpected stderr %q", id, res.Stderr)
				}
			}
		}(s)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}

	st := p.Stats()
	total := uint64(submitters * perSub)
	if st.Completed != total {
		t.Errorf("Completed = %d, want %d", st.Completed, total)
	}
	wantDeadlines := uint64(submitters * (perSub / 10))
	if st.Deadlines != wantDeadlines {
		t.Errorf("Deadlines = %d, want %d", st.Deadlines, wantDeadlines)
	}
	if st.WarmHits == 0 {
		t.Error("stress run never hit the warm pool")
	}
	t.Logf("stats: %+v", st)
}

// bigTenantSrc pads the text segment with never-executed code so the
// verifier and loader have realistic work on the cold path, while the
// executed portion stays small — the serving regime the pool targets.
func bigTenantSrc(id, filler int) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, `
_start:
	mov x0, #1
	adrp x1, msg
	add x1, x1, :lo12:msg
	mov x2, #%d
%s%s`, len(tenantOut(id)), progs.RTCall(core.RTWrite), progs.ExitCode(id))
	sb.WriteString("filler:\n")
	for i := 0; i < filler; i++ {
		fmt.Fprintf(&sb, "\tadd x9, x9, #%d\n\tldr x10, [x9]\n\tstr x10, [x9, #8]\n", i%1024)
	}
	fmt.Fprintf(&sb, "\tret\n.rodata\nmsg:\n\t.ascii %q\n", tenantOut(id))
	return sb.String()
}

// TestSnapshotRestoreSpeedup pins the acceptance criterion: per-request
// instantiation by snapshot restore must be at least 2× faster than a
// cold ELF load (parse + verify + map), measured on the same image.
func TestSnapshotRestoreSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	cold, warm := measureInstantiation(t, 40)
	speedup := float64(cold) / float64(warm)
	t.Logf("cold load %v, snapshot restore %v, speedup %.1f×", cold, warm, speedup)
	if speedup < 2 {
		t.Errorf("snapshot restore only %.2f× faster than cold load, want ≥ 2×", speedup)
	}
}
