package main

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"time"

	"lfi/internal/obs"
	"lfi/internal/pool"
	"lfi/internal/serve"
)

// serveWorkload drives an in-process serve.Server (one shard, C workers,
// default tenant) over real loopback sockets with C closed-loop HTTP/1.1
// keep-alive connections — closed loop because each caller waits for its
// reply, and C ≤ cores so that the box generates the load honestly.
//
// serve-warm: four registered images in a fixed 70/15/10/5 mix. The wire
// path and the pool's warm-hit path do the work; sandbox run time is
// small by design and the toolchain is idle.
//
// serve-churn: a population of distinct small images larger than the warm
// pools, drawn uniformly, with one request in 25 a POST /v1/images — half
// of them a never-seen source (a full build inside the server, which then
// replaces the client's oldest population member), half a known source
// (a content-hash hit). Restores, evictions, cache inserts and builds sit
// on the request path: writes beside reads. A warm-path gain bought by
// making misses or registration dearer shows here.
//
// Work item: one job answered ok with the expected stdout. Operation: one
// job, timed at the client. Registrations spend wall time but are neither.
type serveWorkload struct {
	cfg   config
	sz    sizes
	churn bool
	inputHash

	srv      *serve.Server
	hs       *http.Server
	loops    sync.WaitGroup // the accept loops
	base     string         // http://host:port
	binAddr  string
	clients  []*http.Client
	regStart *obs.Snapshot // registry after the warm-up round

	plan [][]request // serve-warm: each client's fixed sequence
	gens []*churnGen // serve-churn: each client's generator

	// The image the ladder climbs: handler on serve-warm, one population
	// member on serve-churn.
	ladder struct{ name, src, want string }
}

// request is one HTTP request of a client's sequence.
type request struct {
	post, fresh bool // POST /v1/images; of a never-seen source
	body        []byte
	want        string // a job's expected stdout: the known payload
}

const (
	tinyPayload    = "tiny-job"
	handlerPayload = "handler\n"
	// Population images: a short loop in a text of a few hundred
	// instructions. Every member has the same shape, so the guest
	// instructions a round retires do not depend on which were drawn.
	popLoops, popFiller = 32, 64
)

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic("benchmark: " + err.Error()) // plain structs of strings
	}
	return b
}

func (w *serveWorkload) setup() error {
	w.reset()
	if err := w.startServer(); err != nil {
		return err
	}
	var err error
	if w.churn {
		err = w.setupChurn()
	} else {
		err = w.setupWarm()
	}
	if err != nil {
		return err
	}
	w.round(nil) // warm-up
	w.regStart = w.srv.MetricsSnapshot()
	return nil
}

func (w *serveWorkload) startServer() error {
	w.srv = serve.New(serve.Config{Shards: 1, Pool: pool.Config{Workers: w.cfg.conns}})
	httpLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	w.base = "http://" + httpLn.Addr().String()
	w.hs = &http.Server{Handler: w.srv.Mux()}
	w.loops.Add(1)
	go func() {
		defer w.loops.Done()
		w.hs.Serve(httpLn) // returns ErrServerClosed on close
	}()
	if w.cfg.trace { // the binary protocol is a ladder rung only
		binLn, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		w.binAddr = binLn.Addr().String()
		w.loops.Add(1)
		go func() {
			defer w.loops.Done()
			w.srv.ServeBinary(binLn) // returns when the server closes
		}()
	}
	w.clients = nil
	for i := 0; i < w.cfg.conns; i++ {
		w.clients = append(w.clients, &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
		}})
	}
	return nil
}

func (w *serveWorkload) close() {
	if w.srv == nil {
		return
	}
	for _, c := range w.clients {
		c.CloseIdleConnections()
	}
	w.hs.Close()
	w.srv.Close() // also closes the binary listener
	w.loops.Wait()
	w.srv = nil
}

// post sends one request on a client's connection and returns the status
// code and body.
func (w *serveWorkload) post(c *http.Client, path string, body []byte) (int, []byte, error) {
	resp, err := c.Post(w.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

func (w *serveWorkload) register(req *serve.ImageRequest) error {
	code, body, err := w.post(w.clients[0], "/v1/images", mustJSON(req))
	if err != nil {
		return err
	}
	if code != http.StatusCreated {
		return fmt.Errorf("register %s: HTTP %d: %s", req.Name, code, body)
	}
	return nil
}

// lossy is what a JSON string field does to raw bytes: invalid UTF-8 is
// replaced in encoding. The Wasm job's 8-byte checksum crosses the HTTP
// protocol that way, so the expected stdout crosses it too.
func lossy(b []byte) string {
	var s string
	if err := json.Unmarshal(mustJSON(string(b)), &s); err != nil {
		panic("benchmark: " + err.Error()) // a string always round-trips
	}
	return s
}

func (w *serveWorkload) setupWarm() error {
	rng := rand.New(rand.NewSource(w.cfg.seed))
	input := make([]byte, 1024)
	for i := range input {
		input[i] = "abcdefghijklmnopqrstuvwxyz0123456789"[rng.Intn(36)]
	}
	echoIn := string(input)
	handler := handlerSource(handlerPayload, 64, 1500)
	w.ladder.name, w.ladder.src, w.ladder.want = "handler", handler, handlerPayload

	kinds := []struct {
		name, src, input, want string
		sharePct               int
	}{
		{"tiny", tinySource(tinyPayload), "", tinyPayload, 70},
		{"echo-1k", echoSource(), echoIn, echoIn, 15},
		{"handler", handler, "", handlerPayload, 10},
	}
	n := w.sz.warmRequests
	var all []request
	for _, k := range kinds {
		w.add(k.name, k.src, k.input)
		if err := w.register(&serve.ImageRequest{Name: k.name, Source: k.src}); err != nil {
			return err
		}
		req := request{body: mustJSON(&serve.JobRequest{Image: k.name, Input: k.input}), want: k.want}
		for i := 0; i < n*k.sharePct/100; i++ {
			all = append(all, req)
		}
	}
	mod := testdataFile("wasm-calls-serve.wasm")
	sum, err := wasmChecksum("wasm-calls-serve")
	if err != nil {
		return err
	}
	w.add("wasm-calls", string(mod))
	if err := w.register(&serve.ImageRequest{Name: "wasm-calls", Wasm: base64.StdEncoding.EncodeToString(mod)}); err != nil {
		return err
	}
	wasmReq := request{body: mustJSON(&serve.JobRequest{Image: "wasm-calls"}), want: lossy(sum)}
	for len(all) < n { // the remaining 5%
		all = append(all, wasmReq)
	}
	// An exact multiset in seeded order: the mix, and so every count a
	// round produces, is the same for every seed; only the order differs.
	rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	w.plan = make([][]request, w.cfg.conns)
	for i, req := range all {
		w.add(string(req.body))
		w.plan[i%w.cfg.conns] = append(w.plan[i%w.cfg.conns], req)
	}
	return nil
}

// churnGen is one client's view of the population and its seeded stream
// of requests. A source a client registers is used only by that client's
// later jobs, so no job can overtake the registration it depends on.
type churnGen struct {
	rng     *rand.Rand
	tag     uint32 // makes this client's new payloads unique
	counter uint32
	salt    uint32
	view    []popImage
	oldest  int
	posts   int
}

type popImage struct{ name, src, payload string }

func popMember(id uint32) popImage {
	payload := fmt.Sprintf("%08x", id)
	return popImage{name: "p" + payload, src: handlerSource(payload, popLoops, popFiller), payload: payload}
}

func (g *churnGen) job() request {
	m := g.view[g.rng.Intn(len(g.view))]
	return request{body: mustJSON(&serve.JobRequest{Image: m.name}), want: m.payload}
}

// next generates the client's next n requests: jobs drawn uniformly from
// its view, every 25th request a registration, alternately of a
// never-seen source and of a known one.
func (g *churnGen) next(n int) []request {
	reqs := make([]request, 0, n)
	for i := 0; i < n; i++ {
		if i%25 != 24 {
			reqs = append(reqs, g.job())
			continue
		}
		g.posts++
		if g.posts%2 == 1 {
			g.counter++
			m := popMember((g.tag<<24 | g.counter) ^ g.salt)
			g.view[g.oldest] = m
			g.oldest = (g.oldest + 1) % len(g.view)
			reqs = append(reqs, request{post: true, fresh: true,
				body: mustJSON(&serve.ImageRequest{Name: m.name, Source: m.src})})
		} else {
			m := g.view[g.rng.Intn(len(g.view))]
			reqs = append(reqs, request{post: true,
				body: mustJSON(&serve.ImageRequest{Name: m.name, Source: m.src})})
		}
	}
	return reqs
}

func (w *serveWorkload) setupChurn() error {
	rng := rand.New(rand.NewSource(w.cfg.seed))
	salt := rng.Uint32() & 0x00ffffff // leaves the client tag in the top byte
	var pop []popImage
	for i := 0; i < w.sz.population; i++ {
		m := popMember(uint32(i) ^ salt)
		pop = append(pop, m)
		w.add(m.name, m.src)
		if err := w.register(&serve.ImageRequest{Name: m.name, Source: m.src}); err != nil {
			return err
		}
	}
	w.ladder.name, w.ladder.src, w.ladder.want = pop[0].name, pop[0].src, pop[0].payload
	w.gens = nil
	for k := 0; k < w.cfg.conns; k++ {
		gen := func() *churnGen {
			return &churnGen{
				rng:  rand.New(rand.NewSource(w.cfg.seed*1000 + int64(k))),
				tag:  uint32(k + 1),
				salt: salt,
				view: append([]popImage(nil), pop...),
			}
		}
		// The streams continue from round to round; the first round's,
		// generated once more here, identifies them.
		for _, req := range gen().next(w.sz.churnRequests / w.cfg.conns) {
			w.add(string(req.body))
		}
		w.gens = append(w.gens, gen())
	}
	return nil
}

// plans returns each client's requests for the next round. serve-warm
// replays one fixed sequence; serve-churn continues its seeded streams,
// because a source is only never-seen once.
func (w *serveWorkload) plans() [][]request {
	if !w.churn {
		return w.plan
	}
	plans := make([][]request, len(w.gens))
	for k, g := range w.gens {
		plans[k] = g.next(w.sz.churnRequests / len(w.gens))
	}
	return plans
}

// clientRound is what one client saw in a round.
type clientRound struct {
	opsMS, postNewMS, postHitMS []float64
	failures                    []string
	ok                          int
	instrs                      uint64 // guest instructions the ok jobs retired
}

func (w *serveWorkload) runClient(tr *tracer, k int, reqs []request) *clientRound {
	cr := &clientRound{}
	c := w.clients[k]
	for i, req := range reqs {
		op := i*len(w.clients) + k
		if req.post {
			s := tr.begin("serve.http_image_post", op, -1)
			t0 := time.Now()
			code, body, err := w.post(c, "/v1/images", req.body)
			ms := float64(time.Since(t0).Nanoseconds()) / 1e6
			tr.end(s)
			switch {
			case err != nil:
				cr.failures = append(cr.failures, fmt.Sprintf("image post: %v", err))
			case code != http.StatusCreated:
				cr.failures = append(cr.failures, fmt.Sprintf("image post: HTTP %d: %s", code, body))
			case req.fresh:
				cr.postNewMS = append(cr.postNewMS, ms)
			default:
				cr.postHitMS = append(cr.postHitMS, ms)
			}
			continue
		}
		s := tr.begin("serve.http_job", op, -1)
		t0 := time.Now()
		_, body, err := w.post(c, "/v1/jobs", req.body)
		var resp serve.JobResponse
		if err == nil {
			err = json.Unmarshal(body, &resp)
		}
		cr.opsMS = append(cr.opsMS, float64(time.Since(t0).Nanoseconds())/1e6)
		tr.end(s)
		switch {
		case err != nil:
			cr.failures = append(cr.failures, fmt.Sprintf("job: %v", err))
		case resp.ErrorKind != "ok" || resp.Status != 0:
			cr.failures = append(cr.failures, fmt.Sprintf("job: kind %q status %d: %s", resp.ErrorKind, resp.Status, resp.Error))
		case resp.Stdout != req.want:
			cr.failures = append(cr.failures, fmt.Sprintf("job: stdout %q, payload %q", resp.Stdout, req.want))
		default:
			cr.ok++
			cr.instrs += resp.Instrs
		}
	}
	return cr
}

func (w *serveWorkload) round(tr *tracer) *round {
	plans := w.plans()
	results := make([]*clientRound, len(plans))
	var wg sync.WaitGroup
	start := time.Now()
	for k := range plans {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[k] = w.runClient(tr, k, plans[k])
		}()
	}
	wg.Wait()
	r := &round{wall: time.Since(start), model: map[string]float64{}, layer: map[string]float64{}}
	var postNew, postHit []float64
	var instrs uint64
	posts := 0
	for k, cr := range results {
		r.attempted += len(plans[k])
		r.failures = append(r.failures, cr.failures...)
		r.opsMS = append(r.opsMS, cr.opsMS...)
		r.work += float64(cr.ok)
		postNew, postHit = append(postNew, cr.postNewMS...), append(postHit, cr.postHitMS...)
		posts += len(cr.postNewMS) + len(cr.postHitMS)
		instrs += cr.instrs
	}
	if r.work > 0 {
		r.model["modelled_cost"] = float64(instrs) / r.work
	}
	r.layer["serve.outcomes.ok"] = r.work + float64(posts)
	r.layer["serve.outcomes.other"] = float64(len(r.failures))
	if len(postNew) > 0 {
		r.layer["serve.image_post_new_ms"] = median(postNew)
		r.layer["serve.image_post_hit_ms"] = median(postHit)
	}
	return r
}

// finish reads the registry deltas over the timed rounds, then climbs the
// ladder on the live server.
func (w *serveWorkload) finish(layers layerSet, absent *[]string) {
	now := w.srv.MetricsSnapshot()
	counter := func(key string) float64 {
		if _, ok := now.Counters[key]; !ok {
			*absent = append(*absent, key)
			return 0
		}
		return float64(now.Counters[key] - w.regStart.Counters[key])
	}
	p50us := func(key string) float64 {
		h, ok := now.Histograms[key]
		if !ok {
			*absent = append(*absent, key)
			return 0
		}
		return float64(histDelta(h, w.regStart.Histograms[key]).Quantile(0.5)) / 1e3
	}
	ratio := func(hit, miss float64) float64 {
		if hit+miss == 0 {
			return 0
		}
		return hit / (hit + miss)
	}
	const sh = "shard.0."
	layers.set("pool.queue_wait_p50_us", p50us(sh+"pool.latency.queue_wait_ns"))
	layers.set("pool.restore_p50_us", p50us(sh+"pool.latency.restore_ns"))
	layers.set("pool.run_p50_us", p50us(sh+"pool.latency.run_ns"))
	layers.set("pool.warm_hit_ratio", ratio(counter(sh+"pool.warm.hits"), counter(sh+"pool.warm.misses")))
	layers.set("pool.evictions", counter(sh+"pool.warm.evictions"))
	layers.set("pool.restores", counter(sh+"pool.restores"))
	layers.set("pool.image_cache_hit_ratio", ratio(counter("pool.image.hits"), counter("pool.image.misses")))
	layers.set("serve.queue_wait_p50_us", p50us("serve.latency.queue_wait_ns"))
	layers.set("serve.shed", counter("serve.tenant.default.shed"))

	if err := w.climb(layers); err != nil {
		*absent = append(*absent, "ladder: "+err.Error())
	}
}

// histDelta is the histogram of what was observed between two snapshots.
func histDelta(now, then obs.HistSnapshot) *obs.HistSnapshot {
	d := obs.HistSnapshot{Count: now.Count - then.Count, Sum: now.Sum - then.Sum}
	for i, b := range now.Buckets {
		if i < len(then.Buckets) {
			b.Count -= then.Buckets[i].Count
		}
		d.Buckets = append(d.Buckets, b)
	}
	return &d
}
