// Package pool is the sandbox serving subsystem: it turns the one-shot
// runtime into a multi-tenant execution service. Three pieces cooperate:
//
//   - an image cache (image.go) that runs the compile→verify→load
//     pipeline once per distinct program and keeps an immutable snapshot;
//   - a warm pool: each worker keeps pre-restored, parked sandboxes per
//     image, so serving a request is Start + run — no ELF parsing, no
//     verification, no page-by-page loading on the request path;
//   - a concurrent executor: N workers, each owning an independent
//     lfirt.Runtime, fed from a bounded submission queue with
//     reject-when-full admission control. Every job gets an instruction
//     budget; runaways are killed and reported as *lfirt.ErrDeadline
//     without disturbing the worker.
//
// Submission is context-aware: SubmitCtx/DoCtx honor cancellation and
// deadlines. A context that fires before dispatch skips the job; one that
// fires mid-run kills the in-flight sandbox between scheduler dispatches
// (bounded by one timeslice) — either way the result satisfies
// errors.Is(err, ErrCanceled).
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
	// Workers is the number of executor goroutines, each with its own
	// runtime (0 = 4).
	Workers int
	// QueueDepth bounds the submission queue; Submit rejects with
	// ErrQueueFull beyond it (0 = 4×Workers).
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
	// OnJobDone, when set, is called by the serving worker after each
	// admitted job resolves — after its ticket is delivered, including
	// jobs dropped at shutdown. A sharded router uses it as the
	// backpressure signal that queue capacity has freed up; it runs on
	// the worker goroutine, so it must not block.
	OnJobDone func(*Result)
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
	// Err is nil on success; *lfirt.ErrDeadline if the job exceeded its
	// budget; an error matching ErrCanceled if its context fired;
	// otherwise a load/restore failure.
	Err error
}

// Errors returned by the pool. Together with *lfirt.ErrDeadline (budget
// kills, errors.As) and lfirt.ErrVerify (verifier rejections, errors.Is)
// they form the full failure taxonomy of the serving API.
var (
	// ErrQueueFull is the admission-control rejection: the bounded
	// submission queue is full. Callers should back off or shed load.
	ErrQueueFull = errors.New("pool: submission queue full")
	// ErrClosed reports a submission to a closed pool, or a job that was
	// still queued when Close began: queued work is not run at shutdown,
	// its ticket resolves with this error instead.
	ErrClosed = errors.New("pool: closed")
	// ErrCanceled reports a job stopped by its context — either skipped
	// before dispatch or killed mid-run. The context's own error
	// (context.Canceled or context.DeadlineExceeded) is wrapped
	// alongside, so errors.Is works against both.
	ErrCanceled = errors.New("pool: job canceled")
)

// Ticket is a pending job's handle.
type Ticket struct{ ch chan *Result }

// Wait blocks until the job completes and returns its result.
func (t *Ticket) Wait() *Result { return <-t.ch }

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
	Submitted  uint64        `json:"submitted"`   // jobs accepted into the queue
	Rejected   uint64        `json:"rejected"`    // jobs refused by admission control
	Shed       uint64        `json:"shed"`        // jobs a router shed on this pool's behalf
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
	QueueDepth int           `json:"queue_depth"` // jobs currently queued
	Workers    []WorkerStats `json:"workers"`
}

type task struct {
	job    Job
	ticket *Ticket
	ctx    context.Context
	id     uint64
	enq    time.Time
}

// poolMetrics are the pool-level registry handles (per-worker handles
// live in workerStats).
type poolMetrics struct {
	submitted, rejected, completed *obs.Counter
	shed                           *obs.Counter
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
		shed:       reg.Counter("pool.jobs.shed"),
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

// Pool is the serving subsystem. Create with New, feed with Submit or
// Do, and Close when done.
type Pool struct {
	cfg    Config
	cache  *Cache
	jobs   chan *task
	wg     sync.WaitGroup
	obs    *obs.Obs
	m      poolMetrics
	wstats []*workerStats
	jobSeq atomic.Uint64

	mu     sync.Mutex
	closed bool

	// closing becomes true before the job channel is closed. Workers check
	// it at dequeue so a job admitted just as the pool closes resolves
	// deterministically with ErrClosed instead of racing the shutdown.
	closing atomic.Bool
}

// New creates a pool and starts its workers.
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
		jobs:  make(chan *task, cfg.QueueDepth),
		obs:   cfg.Obs,
		m:     newPoolMetrics(cfg.Obs.Registry()),
	}
	for i := 0; i < cfg.Workers; i++ {
		ws := newWorkerStats(cfg.Obs.Registry(), i)
		p.wstats = append(p.wstats, ws)
		wrc := rc
		wrc.ObsTag = i
		w := &worker{
			id:    i,
			pool:  p,
			rt:    lfirt.New(wrc),
			warm:  make(map[string][]*lfirt.Proc),
			stats: ws,
		}
		p.wg.Add(1)
		go w.loop()
	}
	return p
}

// Obs returns the pool's observability bundle.
func (p *Pool) Obs() *obs.Obs { return p.obs }

// Metrics returns a point-in-time snapshot of the pool's metrics
// registry (including worker-runtime and emulator counters).
func (p *Pool) Metrics() *obs.Snapshot { return p.obs.Registry().Snapshot() }

// Events returns the retained trace events, oldest first.
func (p *Pool) Events() []obs.Event { return p.obs.Trace().Events() }

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

// Submit enqueues a job without blocking. It returns ErrQueueFull when
// the bounded queue is full (admission control: the pool never grows an
// unbounded backlog) and ErrClosed after Close.
func (p *Pool) Submit(j Job) (*Ticket, error) {
	return p.SubmitCtx(context.Background(), j)
}

// SubmitCtx enqueues a job bound to ctx. An already-done context is
// rejected immediately; one that fires while the job is queued skips it
// at dequeue; one that fires mid-run kills the in-flight sandbox. In
// every case the resulting error matches ErrCanceled and wraps ctx's own
// error.
func (p *Pool) SubmitCtx(ctx context.Context, j Job) (*Ticket, error) {
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
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil, ErrClosed
	}
	t := &Ticket{ch: make(chan *Result, 1)}
	tk := &task{job: j, ticket: t, ctx: ctx, id: p.jobSeq.Add(1), enq: time.Now()}
	select {
	case p.jobs <- tk:
		p.m.submitted.Inc()
		p.m.queueDepth.Add(1)
		p.obs.Trace().Record(obs.Event{Kind: obs.EvJobEnqueue, Job: tk.id})
		return t, nil
	default:
		p.m.rejected.Inc()
		return nil, ErrQueueFull
	}
}

// RecordShed counts a job that an upstream router refused on this pool's
// behalf — load-shedding before the job ever reached the submission
// queue. It only affects the "pool.jobs.shed" counter (Stats.Shed), so
// shedding decisions made outside the pool stay observable next to the
// pool's own ErrQueueFull rejections.
func (p *Pool) RecordShed() { p.m.shed.Inc() }

// QueueDepth reports the number of jobs currently queued (the
// "pool.queue.depth" gauge).
func (p *Pool) QueueDepth() int { return int(p.m.queueDepth.Value()) }

// Do submits a job and waits for its result.
func (p *Pool) Do(j Job) (*Result, error) {
	return p.DoCtx(context.Background(), j)
}

// DoCtx submits a job bound to ctx and waits for its result. The error
// is non-nil when submission failed or the job was canceled (matching
// ErrCanceled); a canceled job's partial result — captured output,
// retired instructions — is still returned alongside the error.
func (p *Pool) DoCtx(ctx context.Context, j Job) (*Result, error) {
	t, err := p.SubmitCtx(ctx, j)
	if err != nil {
		return nil, err
	}
	res := t.Wait()
	if res.Err != nil && errors.Is(res.Err, ErrCanceled) {
		return res, res.Err
	}
	return res, nil
}

// Close stops the workers and waits for them to exit. The job currently
// running on each worker completes normally; jobs still sitting in the
// queue resolve with ErrClosed (they are never silently dropped and their
// tickets never hang). Submissions after Close fail with ErrClosed.
func (p *Pool) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		p.wg.Wait() // a concurrent first Close drains; wait for it too
		return
	}
	p.closed = true
	// Order matters: mark closing before closing the channel so a worker
	// that dequeues a drained task observes the flag. SubmitCtx holds mu
	// across its send, so no send can race the close itself.
	p.closing.Store(true)
	close(p.jobs)
	p.mu.Unlock()
	p.wg.Wait()
}

// Stats returns a snapshot of the cumulative counters, including the
// per-worker breakdown. Everything is sourced from the metrics registry.
func (p *Pool) Stats() Stats {
	st := Stats{
		Submitted:  p.m.submitted.Value(),
		Rejected:   p.m.rejected.Value(),
		Shed:       p.m.shed.Value(),
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
	for i, ws := range p.wstats {
		st.Workers = append(st.Workers, WorkerStats{
			Worker:    i,
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

// worker owns one runtime and serves jobs sequentially. All of its state
// is goroutine-local; the only cross-goroutine traffic is the job channel
// and the pool's registry instruments (atomic).
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

func (w *worker) loop() {
	defer w.pool.wg.Done()
	for t := range w.pool.jobs {
		var res *Result
		if w.pool.closing.Load() {
			res = w.drop(t)
			t.ticket.ch <- res
		} else {
			w.stats.busy.Store(true)
			res = w.serve(t)
			t.ticket.ch <- res
			w.stats.busy.Store(false)
		}
		if f := w.pool.cfg.OnJobDone; f != nil {
			f(res)
		}
	}
}

// drop resolves a task that was still queued when Close began. The queue
// accounting is settled exactly once and the ticket resolves with
// ErrClosed — admitted work never hangs across shutdown.
func (w *worker) drop(t *task) *Result {
	p := w.pool
	p.m.queueDepth.Add(-1)
	p.m.completed.Inc()
	w.stats.jobs.Inc()
	p.obs.Trace().Record(obs.Event{Kind: obs.EvJobFinish, Job: t.id, Worker: w.id})
	return &Result{Worker: w.id, Err: fmt.Errorf("%w: job dropped at shutdown", ErrClosed)}
}

// imageTag is the short image-key prefix stamped on spans.
func imageTag(img *Image) string {
	if len(img.Key) > 12 {
		return img.Key[:12]
	}
	return img.Key
}

func (w *worker) serve(t *task) *Result {
	p := w.pool
	tr := p.obs.Trace()
	j := t.job
	dequeued := time.Now()
	queueWait := dequeued.Sub(t.enq)
	p.m.queueDepth.Add(-1)
	p.m.queueWait.Observe(uint64(queueWait.Nanoseconds()))
	tr.Record(obs.Event{Kind: obs.EvJobDequeue, Job: t.id, Worker: w.id, DurNS: queueWait.Nanoseconds()})

	stages := j.stages()
	res := &Result{Worker: w.id}
	span := obs.Span{
		Job:         t.id,
		Image:       imageTag(stages[len(stages)-1]), // the stage whose output is the result
		Worker:      w.id,
		EnqueueNS:   t.enq.UnixNano(),
		QueueWaitNS: queueWait.Nanoseconds(),
		Cold:        j.Cold,
	}
	finish := func() *Result {
		span.TotalNS = time.Since(t.enq).Nanoseconds()
		span.Instrs = res.Instrs
		if res.Err != nil {
			span.Err = res.Err.Error()
		}
		p.m.total.Observe(uint64(span.TotalNS))
		tr.RecordSpan(span)
		tr.Record(obs.Event{Kind: obs.EvJobFinish, Job: t.id, Worker: w.id, Arg: res.Instrs,
			DurNS: span.TotalNS})
		p.m.completed.Inc()
		w.stats.jobs.Inc()
		return res
	}

	// A context that fired while the job sat in the queue: skip it.
	if err := t.ctx.Err(); err != nil {
		res.Err = fmt.Errorf("%w before dispatch (%w)", ErrCanceled, err)
		span.Canceled = true
		p.m.canceled.Inc()
		w.stats.canceled.Inc()
		tr.Record(obs.Event{Kind: obs.EvJobCancel, Job: t.id, Worker: w.id})
		return finish()
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
	allWarm := !j.Cold
	for _, img := range stages {
		proc, warm, err := w.acquire(t, &span, img, j.Cold)
		if err != nil {
			for _, pr := range procs {
				w.rt.KillProcess(pr, 128+9)
			}
			p.m.failures.Inc()
			w.stats.failures.Inc()
			res.Err = err
			return finish()
		}
		allWarm = allWarm && warm
		procs = append(procs, proc)
		span.Stages = append(span.Stages, obs.SpanStage{Image: imageTag(img), PID: proc.PID, WarmHit: warm})
	}
	res.WarmHit = allWarm
	span.WarmHit = allWarm

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
		tr.Record(obs.Event{Kind: obs.EvJobStart, Job: t.id, Worker: w.id, PID: pr.PID})
	}
	last := procs[len(procs)-1]
	runStart := time.Now()
	before := w.rt.CPU.Instrs
	status, err := w.rt.RunProcCancel(last, budget, t.ctx.Done())
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
		res.Err = fmt.Errorf("%w mid-run (%w)", ErrCanceled, t.ctx.Err())
		span.Canceled = true
		p.m.canceled.Inc()
		w.stats.canceled.Inc()
		tr.Record(obs.Event{Kind: obs.EvJobCancel, Job: t.id, Worker: w.id, PID: last.PID})
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
		span.Stages[k].Status = pr.ExitStatus()
		res.Stages = append(res.Stages, StageResult{
			Image:   span.Stages[k].Image,
			PID:     pr.PID,
			Status:  pr.ExitStatus(),
			WarmHit: span.Stages[k].WarmHit,
			Stderr:  append([]byte(nil), pr.Stderr()...),
		})
	}
	// The proc's buffers survive the proc's death; copy them out so the
	// result owns its bytes.
	res.Stdout = append([]byte(nil), last.Stdout()...)
	res.Stderr = append([]byte(nil), last.Stderr()...)

	if !j.Cold {
		// The refill runs before the ticket resolves, so the request pays
		// for it: it is timed like the restore of a warm miss.
		refill := time.Now()
		seen := make(map[string]bool, len(stages))
		for _, img := range stages {
			if !seen[img.Key] {
				seen[img.Key] = true
				w.replenish(img)
			}
		}
		span.RefillNS = time.Since(refill).Nanoseconds()
		p.m.refill.Observe(uint64(span.RefillNS))
	}
	return finish()
}

// acquire materializes one stage's sandbox: a full ELF load for cold
// jobs, a parked warm clone when one is available, or an inline snapshot
// restore otherwise. The bool reports a warm hit.
func (w *worker) acquire(t *task, span *obs.Span, img *Image, cold bool) (*lfirt.Proc, bool, error) {
	p := w.pool
	tr := p.obs.Trace()
	start := time.Now()
	if cold {
		// Baseline path: parse, verify, and load the ELF from scratch.
		proc, err := w.rt.Load(img.ELF)
		d := time.Since(start).Nanoseconds()
		span.RestoreNS += d
		p.m.restore.Observe(uint64(d))
		p.m.coldLoads.Inc()
		w.stats.coldLoads.Inc()
		tr.Record(obs.Event{Kind: obs.EvColdLoad, Job: t.id, Worker: w.id, DurNS: d})
		return proc, false, err
	}
	if clones := w.warm[img.Key]; len(clones) > 0 {
		proc := clones[len(clones)-1]
		w.warm[img.Key] = clones[:len(clones)-1]
		w.warmCount--
		p.m.parked.Add(-1)
		w.stats.parked.Add(-1)
		p.m.warmHits.Inc()
		w.stats.warmHits.Inc()
		tr.Record(obs.Event{Kind: obs.EvWarmHit, Job: t.id, Worker: w.id})
		return proc, true, nil
	}
	p.m.warmMisses.Inc()
	tr.Record(obs.Event{Kind: obs.EvWarmMiss, Job: t.id, Worker: w.id})
	proc, err := w.rt.Restore(img.Snap)
	d := time.Since(start).Nanoseconds()
	span.RestoreNS += d
	p.m.restore.Observe(uint64(d))
	p.m.restores.Inc()
	w.stats.restores.Inc()
	tr.Record(obs.Event{Kind: obs.EvRestore, Job: t.id, Worker: w.id, DurNS: d})
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
				return // nothing evictable: stay at the cap
			}
		}
		proc, err := w.rt.Restore(img.Snap)
		if err != nil {
			return // out of slots: serve future requests by direct restore
		}
		w.pool.m.restores.Inc()
		w.stats.restores.Inc()
		w.warm[img.Key] = append(w.warm[img.Key], proc)
		w.warmCount++
		w.pool.m.parked.Add(1)
		w.stats.parked.Add(1)
	}
}

func (w *worker) touch(key string) {
	for i, k := range w.lru {
		if k == key {
			w.lru = append(w.lru[:i], w.lru[i+1:]...)
			break
		}
	}
	w.lru = append(w.lru, key)
}

func (w *worker) evictOldest(keep string) {
	for i, k := range w.lru {
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
		w.pool.obs.Trace().Record(obs.Event{Kind: obs.EvEvict, Worker: w.id, PID: victim.PID})
		if len(w.warm[k]) == 0 {
			delete(w.warm, k)
			w.lru = append(w.lru[:i], w.lru[i+1:]...)
		}
		return
	}
}
