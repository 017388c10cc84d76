// Package pool is the sandbox serving subsystem: it turns the one-shot
// runtime into a multi-tenant execution service. Three pieces cooperate:
//
//   - an image cache (image.go) that runs the compile→verify→load
//     pipeline once per distinct program and keeps an immutable snapshot;
//   - a warm pool: each worker keeps pre-restored, parked sandboxes per
//     image, so serving a request is Start + run — no ELF parsing, no
//     verification, no page-by-page loading on the request path;
//   - a concurrent executor: N workers, each an independent
//     lfirt.Runtime with its warm clones. A worker is a resource, not a
//     goroutine: DoCtx leases a free one and serves the job on the
//     caller's own goroutine. With none free the caller parks in the
//     pool's one waiter queue (weighted-fair across Job.Tenant, bounded
//     per tenant by QueueDepth, ErrQueueFull beyond it), and whoever
//     finishes a job hands its worker straight to the waiter that queue
//     picks — one wake-up, none when a worker is free. Every job gets an
//     instruction budget; runaways are killed and reported as
//     *lfirt.ErrDeadline without disturbing the worker.
//
// DoCtx honors cancellation and deadlines. A context that fires while
// the caller is parked removes it from the queue without running the
// job; one that fires mid-run kills the in-flight sandbox between
// scheduler dispatches (bounded by one timeslice) — either way the
// error satisfies errors.Is(err, ErrCanceled).
//
// Every pool carries an observability bundle (internal/obs): counters and
// latency histograms in a metrics registry, plus a bounded event trace
// with one Span per job recording where its latency went (queue wait,
// snapshot restore, sandbox run, warm-pool refill). See DESIGN.md for the
// metric schema.
//
// This is the usage mode the paper's cheap instantiation enables (§3:
// 2^16 sandboxes per address space; §5.3: ~50-cycle switches): once
// transitions are cheap, instantiation and dispatch dominate serving
// cost, so both are taken off the request path.
package pool

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"lfi/internal/core"
	"lfi/internal/emu"
	"lfi/internal/lfirt"
	"lfi/internal/obs"
)

// Config parameterizes a Pool.
type Config struct {
	// Workers is the number of worker runtimes, each leased to one
	// caller at a time (0 = 4).
	Workers int
	// QueueDepth bounds each tenant's callers parked for a worker; DoCtx
	// rejects with ErrQueueFull beyond it (0 = 4×Workers).
	QueueDepth int
	// Budget is the default per-job instruction budget (0 = 50M).
	// Individual jobs may override it; a job budget of 0 uses this.
	Budget uint64
	// WarmPerImage is how many parked clones each worker keeps per image
	// (0 = 1).
	WarmPerImage int
	// MaxWarm caps the total parked clones per worker; beyond it the
	// least-recently-served image's clones are evicted (0 = 8).
	MaxWarm int
	// StackSize per sandbox (0 = 1MiB — serving workloads do not need the
	// 8MiB interactive default, and instantiation cost scales with
	// touched stack pages).
	StackSize uint64
	// Timeslice is the per-dispatch preemption budget (0 = lfirt default).
	Timeslice uint64
	// Machine selects a timing model for the worker runtimes (nil = none,
	// the fastest serving configuration).
	Machine *emu.CoreModel
	// DisableVerification skips load-time verification on image builds
	// and cold loads. Baseline measurements only — a serving pool runs
	// untrusted code, and its security argument is the verifier.
	DisableVerification bool
	// NoLoads verifies under the weaker store/jump-only policy.
	NoLoads bool
	// Obs supplies an external observability bundle; nil creates a
	// pool-private one (pool metrics are always collected — the recording
	// cost is per job, not per instruction).
	Obs *obs.Obs
	// SharedCache supplies an externally owned image cache instead of a
	// pool-private one, so several pools (the shards of a serving router)
	// deduplicate builds once and restore the same immutable snapshots.
	// The cache must have been created with this pool's RuntimeConfig —
	// snapshots only restore into runtimes configured like the one that
	// took them.
	SharedCache *Cache
}

func (c Config) withDefaults() Config {
	if c.Workers == 0 {
		c.Workers = 4
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 4 * c.Workers
	}
	if c.Budget == 0 {
		c.Budget = 50_000_000
	}
	if c.WarmPerImage == 0 {
		c.WarmPerImage = 1
	}
	if c.MaxWarm == 0 {
		c.MaxWarm = 8
	}
	if c.StackSize == 0 {
		c.StackSize = 1 << 20
	}
	if c.Obs == nil {
		c.Obs = obs.New()
	}
	return c
}

// RuntimeConfig builds the lfirt configuration shared by the worker
// runtimes and the image cache's scratch runtime (snapshots only restore
// correctly into runtimes configured like the one that took them).
// Callers sharing one image cache across several pools (Config.
// SharedCache) create the cache with this configuration.
func (c Config) RuntimeConfig() lfirt.Config {
	c = c.withDefaults()
	rc := lfirt.DefaultConfig()
	rc.StackSize = c.StackSize
	rc.Timeslice = c.Timeslice
	rc.Model = c.Machine
	rc.Verify = !c.DisableVerification
	rc.VerifierCfg.NoLoads = c.NoLoads
	// Workers capture per-process output; the runtime-wide buffer would
	// otherwise grow without bound on a long-lived serving runtime.
	rc.LocalOutput = true
	// One slot per parked clone, plus headroom for the running sandbox.
	if c.MaxWarm+2 > 64 {
		rc.MaxSlots = c.MaxWarm + 2
	}
	return rc
}

// Job is one execution request: either a single image (Image) or a
// multi-stage pipeline (Images). Exactly one of the two must be set.
type Job struct {
	// Image is the program to run (single-stage jobs).
	Image *Image
	// Images names a pipeline: the worker co-loads every stage into its
	// one runtime, wires stage N's stdout to stage N+1's stdin over an
	// in-runtime pipe, and the job's result is the final stage's. This
	// is the paper's cheap-transition story applied across a request:
	// all stages share one address space, so a byte moves between them
	// for the cost of a host call, not an IPC round-trip.
	Images []*Image
	// Input is fed to the first stage's stdin (EOF after the last byte).
	Input []byte
	// Budget overrides the pool's default instruction budget (0 = use
	// the pool default). For pipelines it covers all stages together.
	Budget uint64
	// Cold bypasses the snapshot path and loads the ELF from scratch,
	// re-verifying it — the baseline the warm path is measured against.
	Cold bool
	// Tenant and Weight place the caller in the waiter queue when no
	// worker is free: each tenant has its own QueueDepth bound, and
	// tenants are handed workers in proportion to Weight (0 = 1).
	Tenant string
	Weight int
}

// stages normalizes the two job forms to a stage list.
func (j Job) stages() []*Image {
	if len(j.Images) > 0 {
		return j.Images
	}
	return []*Image{j.Image}
}

// StageResult is one pipeline stage's outcome. Intermediate stages'
// stdout is consumed by the next stage, so only Stderr is captured per
// stage; the final stage's output is the job's Stdout.
type StageResult struct {
	// Image is the stage's short image tag.
	Image string
	// PID is the stage's process id in the worker runtime.
	PID int
	// Status is the stage's exit status; a stage still running when the
	// final stage finished is killed with a SIGPIPE-style 128+13.
	Status int
	// WarmHit reports the stage came from a pre-restored sandbox.
	WarmHit bool
	// Stderr is the stage's own captured stderr.
	Stderr []byte
}

// Result is the outcome of one job.
type Result struct {
	// Status is the sandbox exit status (meaningless if Err != nil).
	Status int
	// Stdout and Stderr are the job's own captured output.
	Stdout, Stderr []byte
	// Instrs is the number of instructions retired serving the job.
	Instrs uint64
	// Worker identifies the worker that served the job.
	Worker int
	// WarmHit reports that the job ran in a pre-restored sandbox (for
	// pipelines: every stage did).
	WarmHit bool
	// Stages is the per-stage breakdown, one entry per image in job
	// order (a single-image job has one entry).
	Stages []StageResult
	// QueueWait is how long the caller was parked before its lease.
	QueueWait time.Duration
	// Err is nil on success; *lfirt.ErrDeadline if the job exceeded its
	// budget; an error matching ErrCanceled if its context fired;
	// otherwise a load/restore failure.
	Err error
}

// Errors returned by the pool. Together with *lfirt.ErrDeadline (budget
// kills, errors.As) and lfirt.ErrVerify (verifier rejections, errors.Is)
// they form the full failure taxonomy of the serving API.
var (
	// ErrQueueFull is the admission-control rejection: the job's tenant
	// already has QueueDepth callers parked. Callers should back off or
	// shed load.
	ErrQueueFull = errors.New("pool: submission queue full")
	// ErrClosed reports a job submitted to a closed pool, or one still
	// parked when Close began: parked work is not run at shutdown.
	ErrClosed = errors.New("pool: closed")
	// ErrCanceled reports a job stopped by its context — either before
	// it leased a worker or killed mid-run. The context's own error
	// (context.Canceled or context.DeadlineExceeded) is wrapped
	// alongside, so errors.Is works against both.
	ErrCanceled = errors.New("pool: job canceled")
)

// WorkerStats is one worker's cumulative breakdown, sourced from the
// pool's metrics registry.
type WorkerStats struct {
	Worker    int    `json:"worker"`
	Jobs      uint64 `json:"jobs"`       // jobs finished by this worker
	Instrs    uint64 `json:"instrs"`     // instructions retired serving them
	WarmHits  uint64 `json:"warm_hits"`  // jobs served from parked sandboxes
	Restores  uint64 `json:"restores"`   // snapshot restores performed
	ColdLoads uint64 `json:"cold_loads"` // full ELF loads performed
	Deadlines uint64 `json:"deadlines"`  // budget kills
	Failures  uint64 `json:"failures"`   // load/restore/trap failures
	Canceled  uint64 `json:"canceled"`   // context cancellations
	Evictions uint64 `json:"evictions"`  // warm clones evicted
	Parked    int64  `json:"parked"`     // currently parked clones
	Busy      bool   `json:"busy"`       // currently serving a job
}

// Stats are cumulative pool counters plus per-worker breakdowns, all
// sourced from the pool's metrics registry.
type Stats struct {
	Submitted  uint64        `json:"submitted"`   // jobs admitted (leased or parked)
	Rejected   uint64        `json:"rejected"`    // jobs refused by admission control
	Completed  uint64        `json:"completed"`   // jobs finished (any outcome)
	Canceled   uint64        `json:"canceled"`    // jobs stopped by their context
	Deadlines  uint64        `json:"deadlines"`   // jobs killed for exceeding their budget
	Failures   uint64        `json:"failures"`    // jobs that failed to load/restore
	WarmHits   uint64        `json:"warm_hits"`   // jobs served from a pre-restored sandbox
	WarmMisses uint64        `json:"warm_misses"` // warm-path jobs that had to restore inline
	Restores   uint64        `json:"restores"`    // snapshot restores (misses + replenishment)
	ColdLoads  uint64        `json:"cold_loads"`  // full ELF loads (Cold jobs)
	Evictions  uint64        `json:"evictions"`   // warm clones evicted under MaxWarm pressure
	Instrs     uint64        `json:"instrs"`      // total instructions retired serving jobs
	Pipelines  uint64        `json:"pipelines"`   // multi-stage jobs served
	Stages     uint64        `json:"stages"`      // total pipeline stages served
	QueueDepth int           `json:"queue_depth"` // callers currently parked
	Workers    []WorkerStats `json:"workers"`
}

// poolMetrics are the pool-level registry handles (per-worker handles
// live in workerStats).
type poolMetrics struct {
	submitted, rejected, completed *obs.Counter
	canceled, deadlines, failures  *obs.Counter
	warmHits, warmMisses           *obs.Counter
	restores, coldLoads, evictions *obs.Counter
	instrs                         *obs.Counter
	plJobs, plStages               *obs.Counter
	queueDepth, parked             *obs.Gauge
	queueWait, restore, run, total *obs.Histogram
	refill                         *obs.Histogram
}

func newPoolMetrics(reg *obs.Registry) poolMetrics {
	lat := obs.DurationBounds()
	return poolMetrics{
		submitted:  reg.Counter("pool.jobs.submitted"),
		rejected:   reg.Counter("pool.jobs.rejected"),
		completed:  reg.Counter("pool.jobs.completed"),
		canceled:   reg.Counter("pool.jobs.canceled"),
		deadlines:  reg.Counter("pool.jobs.deadline_kills"),
		failures:   reg.Counter("pool.jobs.failures"),
		warmHits:   reg.Counter("pool.warm.hits"),
		warmMisses: reg.Counter("pool.warm.misses"),
		restores:   reg.Counter("pool.restores"),
		coldLoads:  reg.Counter("pool.cold_loads"),
		evictions:  reg.Counter("pool.warm.evictions"),
		instrs:     reg.Counter("pool.instrs"),
		plJobs:     reg.Counter("pool.pipeline.jobs"),
		plStages:   reg.Counter("pool.pipeline.stages"),
		queueDepth: reg.Gauge("pool.queue.depth"),
		parked:     reg.Gauge("pool.warm.parked"),
		queueWait:  reg.Histogram("pool.latency.queue_wait_ns", lat),
		restore:    reg.Histogram("pool.latency.restore_ns", lat),
		run:        reg.Histogram("pool.latency.run_ns", lat),
		total:      reg.Histogram("pool.latency.total_ns", lat),
		refill:     reg.Histogram("pool.latency.refill_ns", lat),
	}
}

// workerStats are one worker's registry handles plus its liveness bit.
type workerStats struct {
	jobs, instrs, warmHits         *obs.Counter
	restores, coldLoads, deadlines *obs.Counter
	failures, canceled, evictions  *obs.Counter
	parked                         *obs.Gauge
	busy                           atomic.Bool
}

func newWorkerStats(reg *obs.Registry, id int) *workerStats {
	n := func(field string) string { return fmt.Sprintf("pool.worker.%d.%s", id, field) }
	return &workerStats{
		jobs:      reg.Counter(n("jobs")),
		instrs:    reg.Counter(n("instrs")),
		warmHits:  reg.Counter(n("warm_hits")),
		restores:  reg.Counter(n("restores")),
		coldLoads: reg.Counter(n("cold_loads")),
		deadlines: reg.Counter(n("deadline_kills")),
		failures:  reg.Counter(n("failures")),
		canceled:  reg.Counter(n("canceled")),
		evictions: reg.Counter(n("evictions")),
		parked:    reg.Gauge(n("parked")),
	}
}

// Pool is the serving subsystem. Create with New, feed with Do or
// DoCtx, and Close when done. It starts no goroutines: every job runs
// on its caller's.
type Pool struct {
	cfg     Config
	cache   *Cache
	obs     *obs.Obs
	m       poolMetrics
	workers []*worker
	jobSeq  atomic.Uint64

	// mu guards free, q and closed. A worker is on the free list, leased
	// to one caller, or in flight to a waiter; free is non-empty only
	// while nobody waits.
	mu     sync.Mutex
	free   []*worker
	q      wfq
	closed bool
	// leases counts workers off the free list; Close waits for it.
	leases sync.WaitGroup
}

// New creates a pool and its worker runtimes.
func New(cfg Config) *Pool {
	cfg = cfg.withDefaults()
	rc := cfg.RuntimeConfig()
	rc.Obs = cfg.Obs
	cache := cfg.SharedCache
	if cache == nil {
		cache = NewCache(rc)
		// A shared cache keeps the observability wiring of whoever built
		// it; only a pool-private cache reports into this pool's registry.
		cache.setObs(cfg.Obs)
	}
	p := &Pool{
		cfg:   cfg,
		cache: cache,
		obs:   cfg.Obs,
		m:     newPoolMetrics(cfg.Obs.Registry()),
	}
	for i := 0; i < cfg.Workers; i++ {
		wrc := rc
		wrc.ObsTag = i
		w := &worker{
			id:    i,
			pool:  p,
			rt:    lfirt.New(wrc),
			warm:  make(map[string][]*lfirt.Proc),
			stats: newWorkerStats(cfg.Obs.Registry(), i),
		}
		p.workers = append(p.workers, w)
		p.free = append(p.free, w)
	}
	return p
}

// Metrics returns a point-in-time snapshot of the pool's metrics
// registry (including worker-runtime and emulator counters).
func (p *Pool) Metrics() *obs.Snapshot { return p.obs.Registry().Snapshot() }

// Spans returns the retained per-job spans, oldest first.
func (p *Pool) Spans() []obs.Span { return p.obs.Trace().Spans() }

// BuildImage compiles source through the cached pipeline.
func (p *Pool) BuildImage(src string, opts core.Options) (*Image, error) {
	return p.cache.Build(src, opts)
}

// ImageFromELF verifies and caches a prebuilt executable.
func (p *Pool) ImageFromELF(elfBytes []byte) (*Image, error) {
	return p.cache.FromELF(elfBytes)
}

// BuildWasmImage translates a WebAssembly module through the cached
// wasmfront pipeline.
func (p *Pool) BuildWasmImage(wasm []byte, opts core.Options) (*Image, error) {
	return p.cache.BuildWasm(wasm, opts)
}

// Cache exposes the image cache (for stats).
func (p *Pool) Cache() *Cache { return p.cache }

// QueueDepth reports the number of callers currently parked (the
// "pool.queue.depth" gauge).
func (p *Pool) QueueDepth() int { return int(p.m.queueDepth.Value()) }

// Queued reports how many of tenant's callers are currently parked.
func (p *Pool) Queued(tenant string) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	if tq := p.q.tenants[tenant]; tq != nil {
		return len(tq.q)
	}
	return 0
}

// Do runs a job and waits for its result.
func (p *Pool) Do(j Job) (*Result, error) {
	return p.DoCtx(context.Background(), j)
}

// DoCtx runs a job bound to ctx on the caller's goroutine, parking
// first if no worker is free. The error is non-nil when the job was
// refused (ErrQueueFull, ErrClosed, an invalid job), or canceled
// (matching ErrCanceled and wrapping ctx's own error). A job canceled
// mid-run still returns its partial result — captured output, retired
// instructions — alongside the error; one canceled while parked never
// ran and returns none.
func (p *Pool) DoCtx(ctx context.Context, j Job) (*Result, error) {
	switch {
	case j.Image == nil && len(j.Images) == 0:
		return nil, fmt.Errorf("pool: job has no image")
	case j.Image != nil && len(j.Images) > 0:
		return nil, fmt.Errorf("pool: job sets both Image and Images")
	}
	for i, img := range j.Images {
		if img == nil {
			return nil, fmt.Errorf("pool: pipeline stage %d has no image", i)
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("%w before submit (%w)", ErrCanceled, err)
	}
	id := p.jobSeq.Add(1)
	enq := time.Now()
	w, err := p.lease(ctx, &j)
	if err != nil {
		return nil, err
	}
	w.stats.busy.Store(true)
	res := w.serve(ctx, &j, id, enq)
	w.stats.busy.Store(false)
	p.release(w)
	if res.Err != nil && errors.Is(res.Err, ErrCanceled) {
		return res, res.Err
	}
	return res, nil
}

// lease takes a free worker, or parks the caller in the waiter queue
// until release hands it one. A parked caller whose context fires
// leaves the queue and never runs; if a worker reached it at that very
// moment, it passes the worker on.
func (p *Pool) lease(ctx context.Context, j *Job) (*worker, error) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, ErrClosed
	}
	if len(p.free) > 0 {
		// Longest idle first: successive jobs spread over every worker's
		// warm clones instead of piling onto one worker's MaxWarm.
		w := p.free[0]
		p.free = p.free[1:]
		p.leases.Add(1)
		p.mu.Unlock()
		p.m.submitted.Inc()
		return w, nil
	}
	wt := &waiter{tenant: j.Tenant, ready: make(chan *worker, 1)}
	if !p.q.push(wt, j.Weight, p.cfg.QueueDepth) {
		p.mu.Unlock()
		p.m.rejected.Inc()
		return nil, ErrQueueFull
	}
	p.m.queueDepth.Add(1)
	p.mu.Unlock()
	p.m.submitted.Inc()

	select {
	case w := <-wt.ready:
		if w == nil {
			p.settle()
			return nil, fmt.Errorf("%w: job dropped at shutdown", ErrClosed)
		}
		if ctx.Err() == nil {
			return w, nil
		}
		p.release(w)
	case <-ctx.Done():
		p.mu.Lock()
		parked := p.q.remove(wt)
		if parked {
			p.m.queueDepth.Add(-1)
		}
		p.mu.Unlock()
		if !parked {
			if w := <-wt.ready; w != nil {
				p.release(w)
			}
		}
	}
	p.m.canceled.Inc()
	p.settle()
	return nil, fmt.Errorf("%w while queued (%w)", ErrCanceled, ctx.Err())
}

// settle resolves an admitted job that never ran, so submitted and
// completed still balance.
func (p *Pool) settle() { p.m.completed.Inc() }

// release hands w to the waiter the queue picks — the one wake-up a
// parked job costs — or returns it to the free list when nobody waits.
func (p *Pool) release(w *worker) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if wt := p.q.pop(); wt != nil {
		p.m.queueDepth.Add(-1)
		wt.ready <- w
		return
	}
	p.free = append(p.free, w)
	p.leases.Done()
}

// Close fails every parked caller with ErrClosed and waits for every
// leased worker to come back: the job running on each completes
// normally. Later jobs fail with ErrClosed. Close is idempotent.
func (p *Pool) Close() {
	p.mu.Lock()
	p.closed = true
	for wt := p.q.pop(); wt != nil; wt = p.q.pop() {
		p.m.queueDepth.Add(-1)
		wt.ready <- nil
	}
	p.mu.Unlock()
	p.leases.Wait()
}

// Stats returns a snapshot of the cumulative counters, including the
// per-worker breakdown. Everything is sourced from the metrics registry.
func (p *Pool) Stats() Stats {
	st := Stats{
		Submitted:  p.m.submitted.Value(),
		Rejected:   p.m.rejected.Value(),
		Completed:  p.m.completed.Value(),
		Canceled:   p.m.canceled.Value(),
		Deadlines:  p.m.deadlines.Value(),
		Failures:   p.m.failures.Value(),
		WarmHits:   p.m.warmHits.Value(),
		WarmMisses: p.m.warmMisses.Value(),
		Restores:   p.m.restores.Value(),
		ColdLoads:  p.m.coldLoads.Value(),
		Evictions:  p.m.evictions.Value(),
		Instrs:     p.m.instrs.Value(),
		Pipelines:  p.m.plJobs.Value(),
		Stages:     p.m.plStages.Value(),
		QueueDepth: int(p.m.queueDepth.Value()),
	}
	for _, w := range p.workers {
		ws := w.stats
		st.Workers = append(st.Workers, WorkerStats{
			Worker:    w.id,
			Jobs:      ws.jobs.Value(),
			Instrs:    ws.instrs.Value(),
			WarmHits:  ws.warmHits.Value(),
			Restores:  ws.restores.Value(),
			ColdLoads: ws.coldLoads.Value(),
			Deadlines: ws.deadlines.Value(),
			Failures:  ws.failures.Value(),
			Canceled:  ws.canceled.Value(),
			Evictions: ws.evictions.Value(),
			Parked:    ws.parked.Value(),
			Busy:      ws.busy.Load(),
		})
	}
	return st
}

// worker is one runtime and its warm clones. It is a resource, not a
// goroutine: the caller holding its lease is the only one touching it,
// and the pool's mutex orders one lease after the next.
type worker struct {
	id    int
	pool  *Pool
	rt    *lfirt.Runtime
	stats *workerStats

	// warm maps image key → parked pre-restored clones. lru orders keys
	// by last service, most recent last; evictions take from the front.
	warm      map[string][]*lfirt.Proc
	warmCount int
	lru       []string
}

// imageTag is the short image-key prefix stamped on spans.
func imageTag(img *Image) string {
	if len(img.Key) > 12 {
		return img.Key[:12]
	}
	return img.Key
}

// serve runs one job on the leased worker; enq is when its caller
// entered DoCtx. The span's intervals share clock readings: one that
// ends an interval starts the next when no work lies between them, and
// the last one ends the total. A warm single-image job reads the clock
// six times in all, counting enq.
func (w *worker) serve(ctx context.Context, j *Job, id uint64, enq time.Time) *Result {
	p := w.pool
	now := time.Now() // the latest reading: here, the dequeue
	res := &Result{Worker: w.id, QueueWait: now.Sub(enq)}
	p.m.queueWait.Observe(uint64(res.QueueWait))

	stages := j.stages()
	span := obs.Span{
		Job:       id,
		Image:     imageTag(stages[len(stages)-1]), // the stage whose output is the result
		EnqueueNS: enq.UnixNano(),
		Cold:      j.Cold,
	}
	// finish copies what the span shares with the result, once.
	finish := func(end time.Time) *Result {
		span.Worker = res.Worker
		span.QueueWaitNS = res.QueueWait.Nanoseconds()
		span.TotalNS = end.Sub(enq).Nanoseconds()
		span.WarmHit = res.WarmHit
		span.Instrs = res.Instrs
		if res.Err != nil {
			span.Err = res.Err.Error()
		}
		for _, sr := range res.Stages {
			span.Stages = append(span.Stages, obs.SpanStage{Image: sr.Image, PID: sr.PID, Status: sr.Status, WarmHit: sr.WarmHit})
		}
		p.m.total.Observe(uint64(span.TotalNS))
		p.obs.Trace().RecordSpan(span)
		p.m.completed.Inc()
		w.stats.jobs.Inc()
		return res
	}

	budget := j.Budget
	if budget == 0 {
		budget = p.cfg.Budget
	}

	// Acquire every stage up front; a pipeline that cannot be fully
	// staffed fails without running anything.
	if len(stages) > 1 {
		p.m.plJobs.Inc()
		p.m.plStages.Add(uint64(len(stages)))
	}
	procs := make([]*lfirt.Proc, 0, len(stages))
	res.WarmHit = true
	for _, img := range stages {
		proc, warm, err := w.acquire(&span, img, j.Cold, &now)
		if err != nil {
			for _, pr := range procs {
				w.rt.KillProcess(pr, 128+9)
			}
			p.m.failures.Inc()
			w.stats.failures.Inc()
			res.WarmHit = false
			res.Stages = nil // none of them ran
			res.Err = err
			return finish(time.Now())
		}
		res.WarmHit = res.WarmHit && warm
		procs = append(procs, proc)
		res.Stages = append(res.Stages, StageResult{Image: imageTag(img), PID: proc.PID, WarmHit: warm})
	}

	// Wire the request through the stages: Input feeds stage 0's stdin,
	// stage N's stdout becomes stage N+1's stdin, and only the final
	// stage's stdout reaches the result.
	if len(j.Input) > 0 {
		w.rt.FeedInput(procs[0], j.Input)
	}
	for k := 0; k+1 < len(procs); k++ {
		w.rt.ConnectPipe(procs[k], procs[k+1])
	}
	for _, pr := range procs {
		w.rt.Start(pr)
	}
	last := procs[len(procs)-1]
	runStart := time.Now()
	before := w.rt.CPU.Instrs
	status, err := w.rt.RunProcCancel(last, budget, ctx.Done())
	span.RunNS = time.Since(runStart).Nanoseconds()
	p.m.run.Observe(uint64(span.RunNS))
	res.Instrs = w.rt.CPU.Instrs - before
	p.m.instrs.Add(res.Instrs)
	w.stats.instrs.Add(res.Instrs)
	res.Status = status
	res.Err = err
	var de *lfirt.ErrDeadline
	switch {
	case errors.Is(err, lfirt.ErrCanceled):
		res.Err = fmt.Errorf("%w mid-run (%w)", ErrCanceled, ctx.Err())
		span.Canceled = true
		p.m.canceled.Inc()
		w.stats.canceled.Inc()
	case errors.As(err, &de):
		p.m.deadlines.Inc()
		w.stats.deadlines.Inc()
	case err != nil:
		p.m.failures.Inc()
		w.stats.failures.Inc()
	}
	// Settle upstream stages. With the final stage gone the pipeline's
	// output sink no longer exists; anything still live is reaped with a
	// SIGPIPE-style status, mirroring what a shell pipeline does to a
	// producer whose consumer exited.
	for _, pr := range procs[:len(procs)-1] {
		if pr.State != lfirt.ProcZombie {
			w.rt.KillProcess(pr, 128+13)
		}
	}
	for k, pr := range procs {
		res.Stages[k].Status = pr.ExitStatus()
		res.Stages[k].Stderr = append([]byte(nil), pr.Stderr()...)
	}
	// The proc's buffers survive the proc's death; copy them out so the
	// result owns its bytes.
	res.Stdout = append([]byte(nil), last.Stdout()...)
	res.Stderr = append([]byte(nil), last.Stderr()...)

	if j.Cold {
		return finish(time.Now())
	}
	// The refill runs before DoCtx returns, so the request pays for it:
	// it is timed like the restore of a warm miss.
	refill := time.Now()
	seen := make(map[string]bool, len(stages))
	for _, img := range stages {
		if !seen[img.Key] {
			seen[img.Key] = true
			w.replenish(img)
		}
	}
	now = time.Now()
	span.RefillNS = now.Sub(refill).Nanoseconds()
	p.m.refill.Observe(uint64(span.RefillNS))
	return finish(now)
}

// acquire materializes one stage's sandbox: a full ELF load for cold
// jobs, a parked warm clone when one is available, or an inline snapshot
// restore otherwise. The bool reports a warm hit. A warm hit reads no
// clock; a load or restore is timed from *now, the caller's latest
// reading, and moves it to the load's end.
func (w *worker) acquire(span *obs.Span, img *Image, cold bool, now *time.Time) (*lfirt.Proc, bool, error) {
	p := w.pool
	var proc *lfirt.Proc
	var err error
	if cold {
		// Baseline path: parse, verify, and load the ELF from scratch.
		proc, err = w.rt.Load(img.ELF)
		p.m.coldLoads.Inc()
		w.stats.coldLoads.Inc()
	} else if clones := w.warm[img.Key]; len(clones) > 0 {
		proc = clones[len(clones)-1]
		w.warm[img.Key] = clones[:len(clones)-1]
		w.warmCount--
		p.m.parked.Add(-1)
		w.stats.parked.Add(-1)
		p.m.warmHits.Inc()
		w.stats.warmHits.Inc()
		return proc, true, nil
	} else {
		p.m.warmMisses.Inc()
		proc, err = w.rt.Restore(img.Snap)
		p.m.restores.Inc()
		w.stats.restores.Inc()
	}
	end := time.Now()
	d := end.Sub(*now).Nanoseconds()
	*now = end
	span.RestoreNS += d
	p.m.restore.Observe(uint64(d))
	return proc, false, err
}

// replenish grows this worker's warm set for img back to WarmPerImage and
// shrinks the pool if the total parked count exceeds MaxWarm, evicting
// the least-recently-served image's clones (slot recycling: evicted
// clones are killed, freeing their slots and memory).
func (w *worker) replenish(img *Image) {
	w.touch(img.Key)
	for len(w.warm[img.Key]) < w.pool.cfg.WarmPerImage {
		if w.warmCount >= w.pool.cfg.MaxWarm {
			before := w.warmCount
			w.evictOldest(img.Key)
			if w.warmCount == before {
				break // nothing evictable: stay at the cap
			}
		}
		proc, err := w.rt.Restore(img.Snap)
		if err != nil {
			break // out of slots: serve future requests by direct restore
		}
		w.pool.m.restores.Inc()
		w.stats.restores.Inc()
		w.warm[img.Key] = append(w.warm[img.Key], proc)
		w.warmCount++
		w.pool.m.parked.Add(1)
		w.stats.parked.Add(1)
	}
	if len(w.warm[img.Key]) == 0 {
		w.forget(img.Key) // the LRU holds only keys with clones
	}
}

// touch moves key to the most recently served end of the LRU.
func (w *worker) touch(key string) {
	w.unlist(key)
	w.lru = append(w.lru, key)
}

func (w *worker) unlist(key string) {
	for i, k := range w.lru {
		if k == key {
			w.lru = append(w.lru[:i], w.lru[i+1:]...)
			return
		}
	}
}

// forget drops key, which has no clones left, from the warm set and LRU.
func (w *worker) forget(key string) {
	delete(w.warm, key)
	w.unlist(key)
}

func (w *worker) evictOldest(keep string) {
	for _, k := range w.lru {
		if k == keep || len(w.warm[k]) == 0 {
			continue
		}
		clones := w.warm[k]
		victim := clones[len(clones)-1]
		w.warm[k] = clones[:len(clones)-1]
		w.warmCount--
		w.rt.KillProcess(victim, 0)
		w.pool.m.parked.Add(-1)
		w.stats.parked.Add(-1)
		w.pool.m.evictions.Inc()
		w.stats.evictions.Inc()
		if len(w.warm[k]) == 0 {
			w.forget(k)
		}
		return
	}
}
