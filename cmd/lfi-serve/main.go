// lfi-serve runs a stream of sandbox execution jobs through a serving
// pool: programs are compiled/verified once into cached images, workers
// keep warm snapshot-restored sandboxes, and one caller goroutine per
// worker runs the jobs. Each job's exit status and captured output are
// reported individually, followed by aggregate throughput statistics.
//
// Job specs are assembly sources (.s) or prebuilt sandbox ELFs; jobs are
// dealt round-robin across them. With no arguments a built-in multi-tenant
// demo runs.
//
// With -pipeline, every job instead chains ALL the given images into one
// multi-stage pipeline: the worker co-loads the stages into its runtime,
// stage N's stdout feeds stage N+1's stdin, and the job's result is the
// final stage's output (-input seeds the first stage's stdin). With no
// arguments the pipeline demo is a 3-stage source → +1 filter → +1
// filter chain.
//
// Usage:
//
//	lfi-serve [-workers n] [-queue n] [-budget n] [-warm n] [-jobs n]
//	          [-cold] [-pipeline [-input s]] [-v] [-http addr [-linger]]
//	          [prog.s|prog.elf ...]
//
//	lfi-serve -listen addr [-bin addr] [-shards n] [-tenants spec]
//	          [-workers n] [-queue n] [-budget n] [prog.s|prog.elf ...]
//
// With -listen, lfi-serve is a network server instead of a batch
// driver: jobs arrive as POST /v1/jobs (sync, async, or streaming),
// images register over POST /v1/images, and the job endpoints,
// /metrics, /statusz, and /healthz all share the one listener — no
// second observability port. -bin adds a second listener speaking the
// length-prefixed binary protocol for the hot path. -shards routes jobs
// across that many independent pools by image hash; -tenants declares
// QoS contracts as name[:weight[:rate[:burst]]],... -queue bounds each
// tenant's requests waiting for a worker on one shard; beyond it they
// are shed with 503 overloaded. Arguments
// pre-register images under their base names (demo images with none).
// The server drains gracefully on SIGINT/SIGTERM: queued jobs are
// rejected, in-flight jobs finish, then the process exits.
//
// Without -listen, the classic batch mode runs. With -http, it serves
// two observability endpoints while jobs run: /metrics is a JSON
// snapshot of the pool's metrics registry (counters, gauges, latency
// histograms) and /statusz reports pool and per-worker serving state
// plus recent per-job trace spans. -linger keeps the endpoints up after
// the batch finishes (scrape, then ^C).
package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"lfi"
	"lfi/internal/core"
	"lfi/internal/obs"
	"lfi/internal/pool"
	"lfi/internal/serve"
)

func main() {
	workers := flag.Int("workers", 4, "concurrent worker runtimes (per shard in serve mode)")
	queue := flag.Int("queue", 0, "jobs waiting for a worker before admission control rejects (0 = 4x workers; with -listen: per tenant per shard, 0 = 256)")
	budget := flag.Uint64("budget", 0, "per-job instruction budget (0 = 50M)")
	warm := flag.Int("warm", 0, "pre-restored sandboxes kept per image per worker (0 = 1)")
	jobs := flag.Int("jobs", 32, "total jobs to serve")
	cold := flag.Bool("cold", false, "bypass snapshots: full ELF load per request (baseline)")
	pipeline := flag.Bool("pipeline", false, "chain all images into one multi-stage pipeline per job")
	input := flag.String("input", "", "bytes fed to the first pipeline stage's stdin")
	verbose := flag.Bool("v", false, "print each job's captured output")
	httpAddr := flag.String("http", "", "serve /metrics and /statusz on this address (e.g. :8080)")
	linger := flag.Bool("linger", false, "with -http: keep serving endpoints after the batch")
	listen := flag.String("listen", "", "serve jobs over HTTP on this address (serve mode)")
	binAddr := flag.String("bin", "", "with -listen: also speak the binary protocol on this address")
	shards := flag.Int("shards", 1, "with -listen: independent pools to route across")
	tenants := flag.String("tenants", "", "with -listen: tenant QoS as name[:weight[:rate[:burst]]],...")
	flag.Parse()

	if *listen != "" {
		if *httpAddr != "" {
			// Satellite of the serve mode: one listener carries /v1/jobs,
			// /metrics, and /statusz alike, so a second port is pointless.
			fmt.Fprintln(os.Stderr, "lfi-serve: -http ignored with -listen; /metrics and /statusz share the -listen address")
		}
		runServe(serveOptions{
			listen:  *listen,
			binAddr: *binAddr,
			shards:  *shards,
			tenants: *tenants,
			workers: *workers,
			queue:   *queue,
			budget:  *budget,
			warm:    *warm,
			args:    flag.Args(),
		})
		return
	}

	p := lfi.NewPool(lfi.PoolConfig{
		Workers:      *workers,
		QueueDepth:   *queue,
		Budget:       *budget,
		WarmPerImage: *warm,
	})
	defer p.Close()

	if *httpAddr != "" {
		ln, err := net.Listen("tcp", *httpAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "lfi-serve:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "lfi-serve: metrics on http://%s/metrics, status on http://%s/statusz\n",
			ln.Addr(), ln.Addr())
		go func() {
			if err := http.Serve(ln, newMux(p)); err != nil {
				fmt.Fprintln(os.Stderr, "lfi-serve: http:", err)
			}
		}()
	}

	images, names, err := buildImages(p, flag.Args(), *pipeline)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lfi-serve:", err)
		os.Exit(1)
	}
	// makeJob builds the i'th request and its display name: round-robin
	// over the images normally, the full chain when -pipeline is set.
	makeJob := func(i int) (lfi.Job, string) {
		if *pipeline {
			return lfi.Job{Images: images, Input: []byte(*input), Cold: *cold},
				strings.Join(names, "|")
		}
		return lfi.Job{Image: images[i%len(images)], Cold: *cold}, names[i%len(names)]
	}

	// One caller per worker pulls job indices, so a worker is always free
	// for the next job and nothing waits in the pool's queue.
	results := make([]*lfi.JobResult, *jobs)
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for range p.Stats().Workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < *jobs; i = int(next.Add(1)) - 1 {
				job, _ := makeJob(i)
				res, err := p.Execute(job)
				if err != nil {
					fmt.Fprintln(os.Stderr, "lfi-serve:", err)
					os.Exit(1)
				}
				results[i] = res
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	failed := false
	for i, res := range results {
		_, name := makeJob(i)
		switch {
		case res.Err != nil:
			var dl *lfi.ErrDeadline
			if errors.As(res.Err, &dl) {
				fmt.Printf("job %3d %-20s KILLED   budget exceeded (%d instrs)\n", i, name, dl.Budget)
			} else {
				fmt.Printf("job %3d %-20s ERROR    %v\n", i, name, res.Err)
				failed = true
			}
		default:
			mode := "restore"
			if res.WarmHit {
				mode = "warm"
			}
			if *cold {
				mode = "cold"
			}
			extra := ""
			if len(res.Stages) > 1 {
				ss := make([]string, len(res.Stages))
				for k, sr := range res.Stages {
					ss[k] = fmt.Sprint(sr.Status)
				}
				extra = " stages=" + strings.Join(ss, ",")
			}
			fmt.Printf("job %3d %-20s exit=%-3d %s worker=%d instrs=%d%s\n",
				i, name, res.Status, mode, res.Worker, res.Instrs, extra)
		}
		if *verbose {
			printOutput("stdout", res.Stdout)
			printOutput("stderr", res.Stderr)
		}
	}

	st := p.Stats()
	fmt.Printf("\nserved %d jobs in %v (%.0f jobs/s) across %d workers\n",
		st.Completed, elapsed.Round(time.Microsecond),
		float64(st.Completed)/elapsed.Seconds(), *workers)
	fmt.Printf("warm hits %d/%d, restores %d, cold loads %d, deadline kills %d\n",
		st.WarmHits, st.Completed, st.Restores, st.ColdLoads, st.Deadlines)
	if st.Pipelines > 0 {
		fmt.Printf("pipelines %d, stages %d\n", st.Pipelines, st.Stages)
	}
	fmt.Printf("%d instructions retired in sandboxes\n", st.Instrs)
	if failed {
		os.Exit(1)
	}
	if *httpAddr != "" && *linger {
		fmt.Fprintln(os.Stderr, "lfi-serve: batch done, endpoints still serving (^C to exit)")
		select {}
	}
}

// serveOptions collects the serve-mode flags.
type serveOptions struct {
	listen, binAddr, tenants     string
	shards, workers, queue, warm int
	budget                       uint64
	args                         []string
}

// runServe is the network serving mode: a sharded serve.Server behind
// one HTTP listener (jobs + observability) and optionally a binary
// listener, draining gracefully on SIGINT/SIGTERM.
func runServe(o serveOptions) {
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "lfi-serve:", err)
		os.Exit(1)
	}
	var tcs []serve.TenantConfig
	if o.tenants != "" {
		var err error
		if tcs, err = serve.ParseTenants(o.tenants); err != nil {
			fail(err)
		}
	}
	s := serve.New(serve.Config{
		Shards: o.shards,
		Pool: pool.Config{
			Workers:      o.workers,
			Budget:       o.budget,
			WarmPerImage: o.warm,
		},
		Tenants:    tcs,
		MaxPending: o.queue,
	})
	if err := registerImages(s, o.args); err != nil {
		fail(err)
	}
	for name, key := range s.Images() {
		fmt.Fprintf(os.Stderr, "lfi-serve: image %-16s %s\n", name, key)
	}

	ln, err := net.Listen("tcp", o.listen)
	if err != nil {
		fail(err)
	}
	srv := &http.Server{Handler: s.Mux()}
	go func() {
		if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "lfi-serve: http:", err)
		}
	}()
	fmt.Fprintf(os.Stderr, "lfi-serve: %d shard(s) x %d workers serving on http://%s/v1/jobs (metrics: /metrics, status: /statusz)\n",
		s.Shards(), o.workers, ln.Addr())
	if o.binAddr != "" {
		bln, err := net.Listen("tcp", o.binAddr)
		if err != nil {
			fail(err)
		}
		go func() {
			if err := s.ServeBinary(bln); err != nil {
				fmt.Fprintln(os.Stderr, "lfi-serve: binary:", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "lfi-serve: binary protocol on %s\n", bln.Addr())
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	<-ctx.Done()
	stop()
	fmt.Fprintln(os.Stderr, "lfi-serve: draining...")
	shctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	srv.Shutdown(shctx)
	s.Close()
	fmt.Fprintln(os.Stderr, "lfi-serve: drained")
}

// registerImages pre-registers the argument programs under their base
// names (demo images with no arguments), so clients can submit jobs by
// name immediately.
func registerImages(s *serve.Server, args []string) error {
	opts := core.Options{Opt: core.O2}
	if len(args) == 0 {
		for i := 1; i <= 3; i++ {
			if _, err := s.BuildImage(fmt.Sprintf("demo-tenant-%d", i), demoTenant(i), opts); err != nil {
				return err
			}
		}
		if _, err := s.BuildImage("demo-runaway", demoSpin, opts); err != nil {
			return err
		}
		if _, err := s.BuildImage("demo-source", demoSource, opts); err != nil {
			return err
		}
		_, err := s.BuildImage("demo-filter", demoFilter, opts)
		return err
	}
	for _, path := range args {
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		name := strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
		if bytes.HasPrefix(b, []byte("\x7fELF")) {
			_, err = s.ImageFromELF(name, b)
		} else {
			_, err = s.BuildImage(name, string(b), opts)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	return nil
}

// statusz is the /statusz payload: pool-level counters with per-worker
// breakdowns, and the most recent per-job trace spans.
type statusz struct {
	Stats lfi.PoolStats   `json:"stats"`
	Spans []lfi.TraceSpan `json:"spans"`
}

// newMux builds the observability endpoints for a pool: /metrics is the
// registry snapshot as JSON, /statusz the serving state.
func newMux(p *lfi.Pool) *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/metrics", obs.MetricsHandler(p.Metrics))
	mux.Handle("/statusz", obs.StatusHandler(func() any {
		return statusz{Stats: p.Stats(), Spans: p.Spans()}
	}))
	return mux
}

// buildImages prepares one image per argument; with no arguments it
// compiles a built-in demo — a multi-tenant batch normally, a 3-stage
// source → filter → filter chain under -pipeline.
func buildImages(p *lfi.Pool, args []string, pipeline bool) (images []*lfi.Image, names []string, err error) {
	if len(args) == 0 && pipeline {
		src, err := p.BuildImage(demoSource, lfi.CompileOptions{Opt: lfi.O2})
		if err != nil {
			return nil, nil, err
		}
		filter, err := p.BuildImage(demoFilter, lfi.CompileOptions{Opt: lfi.O2})
		if err != nil {
			return nil, nil, err
		}
		return []*lfi.Image{src, filter, filter}, []string{"demo-source", "demo-filter", "demo-filter"}, nil
	}
	if len(args) == 0 {
		for i := 1; i <= 3; i++ {
			img, err := p.BuildImage(demoTenant(i), lfi.CompileOptions{Opt: lfi.O2})
			if err != nil {
				return nil, nil, err
			}
			images = append(images, img)
			names = append(names, fmt.Sprintf("demo-tenant-%d", i))
		}
		img, err := p.BuildImage(demoSpin, lfi.CompileOptions{Opt: lfi.O2})
		if err != nil {
			return nil, nil, err
		}
		return append(images, img), append(names, "demo-runaway"), nil
	}
	for _, path := range args {
		b, err := os.ReadFile(path)
		if err != nil {
			return nil, nil, err
		}
		var img *lfi.Image
		if bytes.HasPrefix(b, []byte("\x7fELF")) {
			img, err = p.ImageFromELF(b)
		} else {
			img, err = p.BuildImage(string(b), lfi.CompileOptions{Opt: lfi.O2})
		}
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", path, err)
		}
		images = append(images, img)
		names = append(names, path)
	}
	return images, names, nil
}

func printOutput(stream string, b []byte) {
	if len(b) == 0 {
		return
	}
	for _, line := range strings.Split(strings.TrimRight(string(b), "\n"), "\n") {
		fmt.Printf("        %s| %s\n", stream, line)
	}
}

// demoTenant writes a greeting and exits with the tenant's number.
func demoTenant(id int) string {
	msg := fmt.Sprintf("hello from tenant %d\n", id)
	return fmt.Sprintf(`
_start:
	mov x0, #1
	adrp x1, msg
	add x1, x1, :lo12:msg
	mov x2, #%d
%s
	mov x0, #%d
%s
.rodata
msg:
	.ascii %q
`, len(msg), lfi.CallSequence(lfi.CallWrite), id, lfi.CallSequence(lfi.CallExit), msg)
}

// demoSpin never exits; the pool's instruction budget kills it.
const demoSpin = `
_start:
spin:
	b spin
`

// demoSource emits "lfi" and exits: the head of the pipeline demo.
var demoSource = `
_start:
	mov x0, #1
	adrp x1, msg
	add x1, x1, :lo12:msg
	mov x2, #3
` + lfi.CallSequence(lfi.CallWrite) + `
	mov x0, #0
` + lfi.CallSequence(lfi.CallExit) + `
.rodata
msg:
	.ascii "lfi"
`

// demoFilter copies stdin to stdout, incrementing each byte; EOF ends it.
var demoFilter = `
_start:
floop:
	mov x0, #0
	adrp x1, buf
	add x1, x1, :lo12:buf
	mov x2, #1
` + lfi.CallSequence(lfi.CallRead) + `
	cmp x0, #1
	b.ne fdone
	adrp x9, buf
	add x9, x9, :lo12:buf
	ldrb w10, [x9]
	add w10, w10, #1
	strb w10, [x9]
	mov x0, #1
	adrp x1, buf
	add x1, x1, :lo12:buf
	mov x2, #1
` + lfi.CallSequence(lfi.CallWrite) + `
	b floop
fdone:
	mov x0, #0
` + lfi.CallSequence(lfi.CallExit) + `
.bss
buf:
	.space 8
`
