// Package serve is the network serving front-end: it puts the sandbox
// pool behind a wire protocol so jobs arrive over TCP instead of from a
// batch driver. Three layers cooperate, all stdlib-only:
//
//   - a wire protocol: HTTP JSON (POST /v1/jobs, sync, async, and
//     streaming; GET /v1/jobs/{id} for async results) plus a
//     length-prefixed binary framing for the hot path (frame.go,
//     binary.go), both mapping the full serving error taxonomy to
//     distinct status codes / error kinds;
//
//   - a sharded router: jobs are routed across several pool.Pools keyed
//     by image hash, so each image's warm snapshot clones concentrate on
//     one shard (warm-cache affinity). A token bucket per tenant
//     enforces rate quotas up front;
//
//   - fair queueing and load shedding, both in the shard's pool: the
//     request's own goroutine runs the sandbox on a leased worker, and
//     when none is free it parks in the pool's weighted-fair waiter
//     queue under its tenant's name and weight. A tenant with MaxPending
//     callers already parked on the shard is shed with ErrOverloaded
//     (the pool's ErrQueueFull, counted in pool.jobs.rejected) instead
//     of queueing unboundedly.
//
// The paper positions LFI as sandboxing practical enough for real
// services; "Isolation Without Taxation" argues the payoff comes when
// instantiation and transitions are amortized over many fine-grained
// requests. This package is where that amortization meets traffic: every
// downstream subsystem — warm pools, snapshots, pipelines, IPC,
// cancellation — already sits behind Pool.DoCtx and becomes
// network-reachable here at once.
package serve

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"net"
	"sort"
	"sync"
	"time"

	"lfi/internal/core"
	"lfi/internal/lfirt"
	"lfi/internal/obs"
	"lfi/internal/pool"
)

// Errors returned by the serving layer. Together with the pool taxonomy
// (pool.ErrCanceled, pool.ErrQueueFull, pool.ErrClosed, lfirt.ErrVerify,
// *lfirt.ErrDeadline) they form the complete set of terminal outcomes a
// request can observe; ErrorKind maps each to a wire code.
var (
	// ErrTenantQuota rejects a request that exceeded its tenant's
	// token-bucket rate quota (HTTP 429).
	ErrTenantQuota = errors.New("serve: tenant over rate quota")
	// ErrOverloaded sheds a request because its tenant already has
	// MaxPending callers parked on the target shard — admitting more
	// would grow an unbounded backlog (HTTP 503).
	ErrOverloaded = errors.New("serve: overloaded, job shed")
	// ErrServerClosed rejects submissions to a closing server; jobs still
	// parked for a worker when Close begins also resolve with it (HTTP
	// 503).
	ErrServerClosed = errors.New("serve: server closed")
	// ErrUnknownImage rejects a job naming an image key or alias the
	// server does not hold (HTTP 404).
	ErrUnknownImage = errors.New("serve: unknown image")
)

// Config parameterizes a Server.
type Config struct {
	// Shards is the number of independent pools jobs are routed across
	// (0 = 1). Each shard owns Pool.Workers worker runtimes.
	Shards int
	// Pool configures each shard's pool. Obs, SharedCache and QueueDepth
	// are owned by the server and must be left unset.
	Pool pool.Config
	// Tenants declares the known tenants. Requests from undeclared
	// tenants run under DefaultTenant.
	Tenants []TenantConfig
	// DefaultTenant is the QoS contract applied to undeclared tenants
	// (zero value: weight 1, no rate limit).
	DefaultTenant TenantConfig
	// MaxPending bounds each tenant's callers parked per shard (the shard
	// pool's QueueDepth); beyond it requests are shed with ErrOverloaded
	// (0 = 256).
	MaxPending int
	// AsyncRetain bounds how many completed async job results are kept
	// for GET /v1/jobs/{id}; older completed results are evicted
	// oldest-first (0 = 256).
	AsyncRetain int

	// now overrides the clock (tests).
	now func() time.Time
}

func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = 1
	}
	if c.MaxPending <= 0 {
		c.MaxPending = 256
	}
	if c.AsyncRetain <= 0 {
		c.AsyncRetain = 256
	}
	if c.now == nil {
		c.now = time.Now
	}
	return c
}

// tenant is one tenant's runtime state: its QoS contract, rate bucket,
// and router-level counters.
type tenant struct {
	cfg    TenantConfig
	bucket *bucket

	requests  *obs.Counter // jobs that reached admission
	admitted  *obs.Counter // jobs a shard pool took in
	completed *obs.Counter // jobs that resolved through a pool
	quota     *obs.Counter // rate-quota rejections
	shed      *obs.Counter // overload sheds
}

// Server routes wire-protocol jobs across sharded pools under tenant
// QoS. Create with New, expose Mux over HTTP and/or ServeBinary over a
// raw listener, and Close to drain.
type Server struct {
	cfg    Config
	obs    *obs.Obs
	cache  *pool.Cache
	shards []*pool.Pool
	jobs   *jobTable

	mu      sync.Mutex
	tenants map[string]*tenant
	aliases map[string]string // image name → cache key
	closed  bool

	// baseCtx parents async and binary job contexts; canceling it is NOT
	// part of Close (drain semantics: in-flight jobs finish), it exists so
	// tests can abandon everything.
	baseCtx context.Context
	stop    context.CancelFunc
	wg      sync.WaitGroup // async waiters + binary conns

	connMu    sync.Mutex
	conns     map[*binConn]struct{}
	listeners map[net.Listener]struct{}

	m serverMetrics
}

type serverMetrics struct {
	httpReqs  *obs.Counter
	binConns  *obs.Counter
	binFrames *obs.Counter
	syncJobs  *obs.Counter
	asyncJobs *obs.Counter
	e2e       *obs.Histogram // admission→resolution latency
	queueWait *obs.Histogram // time parked before a worker lease
}

// New creates a serving front-end: one shared image cache and Shards
// pools. Close it when done.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	o := &obs.Obs{Reg: obs.NewRegistry()} // spans go to each shard pool's own bundle
	pc := cfg.Pool
	rc := pc.RuntimeConfig()
	cache := pool.NewCache(rc)
	cache.SetObs(o)

	ctx, stop := context.WithCancel(context.Background())
	s := &Server{
		cfg:     cfg,
		obs:     o,
		cache:   cache,
		jobs:    newJobTable(cfg.AsyncRetain),
		tenants: make(map[string]*tenant),
		aliases: make(map[string]string),
		baseCtx: ctx,
		stop:    stop,
		conns:   make(map[*binConn]struct{}),
	}
	reg := o.Registry()
	lat := obs.DurationBounds()
	s.m = serverMetrics{
		httpReqs:  reg.Counter("serve.http.requests"),
		binConns:  reg.Counter("serve.bin.conns"),
		binFrames: reg.Counter("serve.bin.frames"),
		syncJobs:  reg.Counter("serve.jobs.sync"),
		asyncJobs: reg.Counter("serve.jobs.async"),
		e2e:       reg.Histogram("serve.latency.e2e_ns", lat),
		queueWait: reg.Histogram("serve.latency.queue_wait_ns", lat),
	}
	for _, tc := range cfg.Tenants {
		s.addTenant(tc)
	}
	pc.SharedCache = cache
	pc.QueueDepth = cfg.MaxPending
	for i := 0; i < cfg.Shards; i++ {
		pc.Obs = obs.New()
		s.shards = append(s.shards, pool.New(pc))
	}
	return s
}

func (s *Server) addTenant(tc TenantConfig) *tenant {
	tc = tc.withDefaults()
	reg := s.obs.Registry()
	n := func(field string) string { return "serve.tenant." + tc.Name + "." + field }
	t := &tenant{
		cfg:       tc,
		bucket:    newBucket(tc.Rate, tc.Burst, s.cfg.now()),
		requests:  reg.Counter(n("requests")),
		admitted:  reg.Counter(n("admitted")),
		completed: reg.Counter(n("completed")),
		quota:     reg.Counter(n("quota_rejects")),
		shed:      reg.Counter(n("shed")),
	}
	s.tenants[tc.Name] = t
	return t
}

// tenantFor resolves a wire tenant name, registering undeclared tenants
// under the default contract on first sight ("" is the tenant "default").
func (s *Server) tenantFor(name string) *tenant {
	if name == "" {
		name = "default"
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if t, ok := s.tenants[name]; ok {
		return t
	}
	tc := s.cfg.DefaultTenant
	tc.Name = name
	return s.addTenant(tc)
}

// BuildImage compiles source through the shared cache and registers the
// result under name (and its content key). Safe before and during serving.
func (s *Server) BuildImage(name, src string, opts core.Options) (*pool.Image, error) {
	img, err := s.cache.Build(src, opts)
	if err != nil {
		return nil, err
	}
	s.registerAlias(name, img.Key)
	return img, nil
}

// BuildWasm translates a WebAssembly module through the shared cache's
// wasmfront pipeline and registers the result under name.
func (s *Server) BuildWasm(name string, wasm []byte, opts core.Options) (*pool.Image, error) {
	img, err := s.cache.BuildWasm(wasm, opts)
	if err != nil {
		return nil, err
	}
	s.registerAlias(name, img.Key)
	return img, nil
}

// ImageFromELF verifies and registers a prebuilt executable under name.
func (s *Server) ImageFromELF(name string, elfBytes []byte) (*pool.Image, error) {
	img, err := s.cache.FromELF(elfBytes)
	if err != nil {
		return nil, err
	}
	s.registerAlias(name, img.Key)
	return img, nil
}

func (s *Server) registerAlias(name, key string) {
	if name == "" {
		return
	}
	s.mu.Lock()
	s.aliases[name] = key
	s.mu.Unlock()
}

// Images returns the registered name → image-key aliases.
func (s *Server) Images() map[string]string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]string, len(s.aliases))
	for k, v := range s.aliases {
		out[k] = v
	}
	return out
}

// resolveImage maps a wire image reference (alias or cache key) to a
// prepared image.
func (s *Server) resolveImage(ref string) (*pool.Image, error) {
	s.mu.Lock()
	if key, ok := s.aliases[ref]; ok {
		ref = key
	}
	s.mu.Unlock()
	if img, ok := s.cache.Lookup(ref); ok {
		return img, nil
	}
	return nil, fmt.Errorf("%w: %q", ErrUnknownImage, ref)
}

// jobSpec is a fully resolved execution request, ready for a shard.
type jobSpec struct {
	tenant *tenant
	images []*pool.Image
	input  []byte
	budget uint64
	cold   bool
}

// shardFor picks the shard serving a spec: the image key hash, so
// repeated requests for one image land where its warm clones are parked.
func (s *Server) shardFor(spec *jobSpec) int {
	h := fnv.New32a()
	h.Write([]byte(spec.images[len(spec.images)-1].Key))
	return int(h.Sum32() % uint32(len(s.shards)))
}

// run is the protocol-independent serving core: admission (rate quota),
// routing, and execution on the shard pool, which fair-queues the
// request under its tenant while every worker is busy. It returns the
// pool result (whose Err may itself be a taxonomy error such as
// *lfirt.ErrDeadline) or an admission/shed error, plus the shard that
// handled the job.
func (s *Server) run(ctx context.Context, spec *jobSpec) (*pool.Result, int, error) {
	t := spec.tenant
	t.requests.Inc()
	start := s.cfg.now()
	if !t.bucket.take(start) {
		t.quota.Inc()
		return nil, -1, ErrTenantQuota
	}
	sh := s.shardFor(spec)
	job := pool.Job{Input: spec.input, Budget: spec.budget, Cold: spec.cold,
		Tenant: t.cfg.Name, Weight: t.cfg.Weight}
	if len(spec.images) == 1 {
		job.Image = spec.images[0]
	} else {
		job.Images = spec.images
	}
	res, err := s.shards[sh].DoCtx(ctx, job)
	switch {
	case errors.Is(err, pool.ErrQueueFull):
		t.shed.Inc()
		return nil, sh, fmt.Errorf("%w (tenant %s, shard %d: %d pending)",
			ErrOverloaded, t.cfg.Name, sh, s.cfg.MaxPending)
	case errors.Is(err, pool.ErrClosed):
		return nil, sh, fmt.Errorf("%w (%w)", ErrServerClosed, err)
	}
	t.admitted.Inc()
	if res == nil {
		return nil, sh, err // canceled while parked
	}
	// It ran: a mid-run cancel or a budget kill rides in res.Err.
	t.completed.Inc()
	s.m.queueWait.Observe(uint64(res.QueueWait.Nanoseconds()))
	s.m.e2e.Observe(uint64(s.cfg.now().Sub(start).Nanoseconds()))
	return res, sh, nil
}

// Close drains the server: new submissions are rejected, jobs still
// parked for a worker resolve with ErrServerClosed, running jobs run to
// completion, and every shard pool shuts down. Close does
// not stop HTTP listeners (the caller owns those); once it returns, all
// in-flight requests have terminal results.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
	s.closed = true
	s.mu.Unlock()

	// Stop accepting new binary connections up front; in-flight work on
	// existing connections drains below.
	s.connMu.Lock()
	for ln := range s.listeners {
		ln.Close()
	}
	s.connMu.Unlock()

	var wg sync.WaitGroup
	for _, sh := range s.shards {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sh.Close()
		}()
	}
	wg.Wait()
	s.stop()
	s.connMu.Lock()
	for c := range s.conns {
		c.closeConn()
	}
	s.connMu.Unlock()
	s.wg.Wait()
}

func (s *Server) closing() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// MetricsSnapshot merges the router registry with every shard pool's
// registry (prefixed "shard.<i>.") into the one /metrics document.
func (s *Server) MetricsSnapshot() *obs.Snapshot {
	snap := s.obs.Registry().Snapshot()
	for i, sh := range s.shards {
		snap.Merge(fmt.Sprintf("shard.%d.", i), sh.Metrics())
	}
	return snap
}

// TenantStatus is one tenant's /statusz entry.
type TenantStatus struct {
	Name         string  `json:"name"`
	Weight       int     `json:"weight"`
	Rate         float64 `json:"rate,omitempty"`
	Requests     uint64  `json:"requests"`
	Admitted     uint64  `json:"admitted"`
	Completed    uint64  `json:"completed"`
	QuotaRejects uint64  `json:"quota_rejects"`
	Shed         uint64  `json:"shed"`
	Queued       int     `json:"queued"`
}

// ShardStatus is one shard's /statusz entry; Pool.QueueDepth counts its
// parked callers.
type ShardStatus struct {
	Shard int        `json:"shard"`
	Pool  pool.Stats `json:"pool"`
}

// Status is the /statusz document of a serving front-end.
type Status struct {
	Draining    bool           `json:"draining"`
	Tenants     []TenantStatus `json:"tenants"`
	Shards      []ShardStatus  `json:"shards"`
	AsyncActive int            `json:"async_active"`
	AsyncDone   int            `json:"async_done"`
}

// Status reports the router's serving state: per-tenant QoS counters and
// queue occupancy, per-shard pool stats, and the async job table.
func (s *Server) Status() Status {
	st := Status{Draining: s.closing()}
	s.mu.Lock()
	names := make([]string, 0, len(s.tenants))
	for name := range s.tenants {
		names = append(names, name)
	}
	sort.Strings(names)
	tenants := make([]*tenant, 0, len(names))
	for _, name := range names {
		tenants = append(tenants, s.tenants[name])
	}
	s.mu.Unlock()
	for _, t := range tenants {
		queued := 0
		for _, sh := range s.shards {
			queued += sh.Queued(t.cfg.Name)
		}
		st.Tenants = append(st.Tenants, TenantStatus{
			Name:         t.cfg.Name,
			Weight:       t.cfg.Weight,
			Rate:         t.cfg.Rate,
			Requests:     t.requests.Value(),
			Admitted:     t.admitted.Value(),
			Completed:    t.completed.Value(),
			QuotaRejects: t.quota.Value(),
			Shed:         t.shed.Value(),
			Queued:       queued,
		})
	}
	for i, sh := range s.shards {
		st.Shards = append(st.Shards, ShardStatus{Shard: i, Pool: sh.Stats()})
	}
	st.AsyncActive, st.AsyncDone = s.jobs.counts()
	return st
}

// ShardStats returns the pool stats of one shard (tests, statusz).
func (s *Server) ShardStats(i int) pool.Stats { return s.shards[i].Stats() }

// Shards returns the number of shards.
func (s *Server) Shards() int { return len(s.shards) }

// ErrorKind classifies any serving-layer error into its wire kind and
// HTTP status (the kinds table). It understands the full taxonomy:
// admission errors from this package, pool errors, and runtime errors
// carried in Result.Err.
func ErrorKind(err error) (kind string, httpStatus int) {
	k := kinds[errorCode(err)]
	return k.name, k.status
}

func errorCode(err error) uint8 {
	var dl *lfirt.ErrDeadline
	switch {
	case err == nil:
		return kindOK
	case errors.Is(err, ErrTenantQuota):
		return kindQuota
	case errors.Is(err, ErrOverloaded):
		return kindOverloaded
	case errors.Is(err, ErrServerClosed), errors.Is(err, pool.ErrClosed):
		return kindClosed
	case errors.Is(err, pool.ErrQueueFull):
		return kindQueueFull
	case errors.Is(err, ErrUnknownImage):
		return kindUnknownImage
	case errors.Is(err, lfirt.ErrVerify):
		return kindVerify
	case errors.Is(err, pool.ErrCanceled), errors.Is(err, lfirt.ErrCanceled):
		return kindCanceled
	case errors.As(err, &dl):
		return kindDeadline
	default:
		return kindInternal
	}
}
