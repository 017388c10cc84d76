package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"lfi/internal/core"
	"lfi/internal/lfirt"
	"lfi/internal/pool"
	"lfi/internal/progs"
)

// helloSrc builds a program writing a unique line and exiting with a
// unique status, so routing mixups are detectable.
func helloSrc(id int) string {
	msg := fmt.Sprintf("hello-%02d\n", id)
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

func helloOut(id int) string { return fmt.Sprintf("hello-%02d\n", id) }

// spinSrc never exits on its own; only a budget kill or a cancellation
// terminates it.
const spinSrc = `
_start:
spin:
	b spin
`

func newTestServer(t testing.TB, cfg Config) *Server {
	t.Helper()
	if cfg.Pool.Workers == 0 {
		cfg.Pool.Workers = 2
	}
	s := New(cfg)
	t.Cleanup(s.Close)
	return s
}

func mustServeImage(t testing.TB, s *Server, name, src string) *pool.Image {
	t.Helper()
	img, err := s.BuildImage(name, src, core.Options{Opt: core.O2})
	if err != nil {
		t.Fatal(err)
	}
	return img
}

func postJob(t testing.TB, ts *httptest.Server, req *JobRequest) (*JobResponse, int) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out JobResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return &out, resp.StatusCode
}

func TestHTTPSyncJob(t *testing.T) {
	s := newTestServer(t, Config{Shards: 2})
	mustServeImage(t, s, "hello", helloSrc(7))
	ts := httptest.NewServer(s.Mux())
	defer ts.Close()

	resp, code := postJob(t, ts, &JobRequest{Image: "hello"})
	if code != http.StatusOK {
		t.Fatalf("status = %d, body %+v", code, resp)
	}
	if resp.ErrorKind != "ok" || resp.Status != 7 || resp.Stdout != helloOut(7) {
		t.Errorf("response = %+v", resp)
	}

	// Inline source builds through the shared cache and runs the same way.
	resp, code = postJob(t, ts, &JobRequest{Source: helloSrc(3)})
	if code != http.StatusOK || resp.Status != 3 || resp.Stdout != helloOut(3) {
		t.Errorf("inline source: code=%d resp=%+v", code, resp)
	}
}

// TestHTTPCompactJSON: a /v1/* response body is one line of compact JSON
// that decodes to the response it encodes.
func TestHTTPCompactJSON(t *testing.T) {
	s := newTestServer(t, Config{})
	mustServeImage(t, s, "hello", helloSrc(7))
	ts := httptest.NewServer(s.Mux())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(`{"image":"hello"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Count(body, []byte("\n")) != 1 || !bytes.HasSuffix(body, []byte("\n")) {
		t.Fatalf("body is not one line: %q", body)
	}
	var out JobResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.ErrorKind != "ok" || out.Status != 7 || out.Stdout != helloOut(7) {
		t.Errorf("response = %+v", out)
	}
	if again, _ := json.Marshal(&out); !bytes.Equal(again, bytes.TrimSuffix(body, []byte("\n"))) {
		t.Errorf("body %s does not round-trip: %s", body, again)
	}
}

func TestHTTPImageRegistration(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Mux())
	defer ts.Close()

	body, _ := json.Marshal(&ImageRequest{Name: "greet", Source: helloSrc(5)})
	resp, err := http.Post(ts.URL+"/v1/images", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var ir ImageResponse
	json.NewDecoder(resp.Body).Decode(&ir)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated || ir.Key == "" {
		t.Fatalf("register: code=%d resp=%+v", resp.StatusCode, ir)
	}

	// The image serves by alias and by raw cache key.
	for _, ref := range []string{"greet", ir.Key} {
		jr, code := postJob(t, ts, &JobRequest{Image: ref})
		if code != http.StatusOK || jr.Status != 5 {
			t.Errorf("serve by %q: code=%d resp=%+v", ref, code, jr)
		}
	}

	// And it shows up in the listing.
	lresp, err := http.Get(ts.URL + "/v1/images")
	if err != nil {
		t.Fatal(err)
	}
	var list []ImageResponse
	json.NewDecoder(lresp.Body).Decode(&list)
	lresp.Body.Close()
	if len(list) != 1 || list[0].Name != "greet" || list[0].Key != ir.Key {
		t.Errorf("image list = %+v", list)
	}
}

func TestHTTPErrorStatuses(t *testing.T) {
	s := newTestServer(t, Config{
		Tenants: []TenantConfig{{Name: "metered", Rate: 1, Burst: 1}},
	})
	s.cfg.now = func() time.Time { return time.Unix(5000, 0) } // freeze refill
	mustServeImage(t, s, "hello", helloSrc(1))
	mustServeImage(t, s, "spin", spinSrc)
	ts := httptest.NewServer(s.Mux())
	defer ts.Close()

	// Unknown image → 404 unknown_image.
	resp, code := postJob(t, ts, &JobRequest{Image: "no-such-image"})
	if code != http.StatusNotFound || resp.ErrorKind != "unknown_image" {
		t.Errorf("unknown image: code=%d resp=%+v", code, resp)
	}

	// Malformed JSON → 400 bad_request.
	hr, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if hr.StatusCode != http.StatusBadRequest {
		t.Errorf("bad JSON: code=%d", hr.StatusCode)
	}

	// Ambiguous spec (image AND source) → 400.
	resp, code = postJob(t, ts, &JobRequest{Image: "hello", Source: spinSrc})
	if code != http.StatusBadRequest || resp.ErrorKind != "bad_request" {
		t.Errorf("ambiguous spec: code=%d resp=%+v", code, resp)
	}

	// Unparseable source → 400 bad_request from both endpoints. A trailing
	// comma once panicked the parser, and the client saw a dropped
	// connection instead.
	const trailingComma = "_start:\n\tadd x0, x1, x2,\n"
	resp, code = postJob(t, ts, &JobRequest{Source: trailingComma})
	if code != http.StatusBadRequest || resp.ErrorKind != "bad_request" {
		t.Errorf("unparseable job source: code=%d resp=%+v", code, resp)
	}
	body, _ := json.Marshal(&ImageRequest{Name: "comma", Source: trailingComma})
	hr, err = http.Post(ts.URL+"/v1/images", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var ir JobResponse
	json.NewDecoder(hr.Body).Decode(&ir)
	hr.Body.Close()
	if hr.StatusCode != http.StatusBadRequest || ir.ErrorKind != "bad_request" {
		t.Errorf("unparseable image source: code=%d resp=%+v", hr.StatusCode, ir)
	}

	// A register of the wrong bank → 400 bad_request, refused by the
	// encoder instead of assembled as the general register of its number.
	resp, code = postJob(t, ts, &JobRequest{Source: "_start:\n\tmov x0, d1\n\tret\n"})
	if code != http.StatusBadRequest || resp.ErrorKind != "bad_request" || !strings.Contains(resp.Error, "d1 is not a general register") {
		t.Errorf("wrong-bank register: code=%d resp=%+v", code, resp)
	}

	// A section size no slot could hold → 400 bad_request, refused by the
	// assembler before it allocates (`.space N` once allocated N bytes).
	resp, code = postJob(t, ts, &JobRequest{Source: "_start:\n\tret\n.data\nbuf:\n\t.space 1099511627776\n"})
	if code != http.StatusBadRequest || resp.ErrorKind != "bad_request" || !strings.Contains(resp.Error, "section exceeds") {
		t.Errorf("oversized section: code=%d resp=%+v", code, resp)
	}

	// Over-quota tenant → 429 quota; the frozen clock never refills, so
	// the second request must be rejected while the first succeeds.
	resp, code = postJob(t, ts, &JobRequest{Image: "hello", Tenant: "metered"})
	if code != http.StatusOK {
		t.Fatalf("first metered request: code=%d resp=%+v", code, resp)
	}
	resp, code = postJob(t, ts, &JobRequest{Image: "hello", Tenant: "metered"})
	if code != http.StatusTooManyRequests || resp.ErrorKind != "quota" {
		t.Errorf("over quota: code=%d resp=%+v", code, resp)
	}
	st := s.Status()
	var metered *TenantStatus
	for i := range st.Tenants {
		if st.Tenants[i].Name == "metered" {
			metered = &st.Tenants[i]
		}
	}
	if metered == nil || metered.QuotaRejects != 1 {
		t.Errorf("metered tenant status = %+v", metered)
	}

	// Budget exhaustion inside the sandbox → 408 deadline.
	resp, code = postJob(t, ts, &JobRequest{Image: "spin", Budget: 100_000})
	if code != http.StatusRequestTimeout || resp.ErrorKind != "deadline" {
		t.Errorf("deadline: code=%d resp=%+v", code, resp)
	}
}

func TestErrorKindTaxonomy(t *testing.T) {
	cases := []struct {
		err    error
		kind   string
		status int
	}{
		{nil, "ok", 200},
		{ErrTenantQuota, "quota", 429},
		{fmt.Errorf("wrap: %w", ErrOverloaded), "overloaded", 503},
		{ErrServerClosed, "closed", 503},
		{pool.ErrClosed, "closed", 503},
		{pool.ErrQueueFull, "queue_full", 503},
		{ErrUnknownImage, "unknown_image", 404},
		{fmt.Errorf("%w: bad store", lfirt.ErrVerify), "verify", 400},
		{pool.ErrCanceled, "canceled", 499},
		{lfirt.ErrCanceled, "canceled", 499},
		{&lfirt.ErrDeadline{PID: 1, Budget: 5}, "deadline", 408},
		{errors.New("mystery"), "internal", 500},
	}
	for _, c := range cases {
		kind, status := ErrorKind(c.err)
		if kind != c.kind || status != c.status {
			t.Errorf("ErrorKind(%v) = %q/%d, want %q/%d", c.err, kind, status, c.kind, c.status)
		}
		// The response-document mapping must agree with the error mapping.
		if got := kindStatus(kind); got != status {
			t.Errorf("kindStatus(%q) = %d, want %d", kind, got, status)
		}
	}
}

func TestAsyncLifecycle(t *testing.T) {
	s := newTestServer(t, Config{})
	mustServeImage(t, s, "hello", helloSrc(9))
	ts := httptest.NewServer(s.Mux())
	defer ts.Close()

	resp, code := postJob(t, ts, &JobRequest{Image: "hello", Async: true})
	if code != http.StatusAccepted || resp.ID == "" || resp.State != JobStatePending {
		t.Fatalf("async submit: code=%d resp=%+v", code, resp)
	}

	final := pollJob(t, ts, resp.ID, 5*time.Second)
	if final.ErrorKind != "ok" || final.Status != 9 || final.Stdout != helloOut(9) {
		t.Errorf("async result = %+v", final)
	}

	// Unknown id → 404.
	hr, err := http.Get(ts.URL + "/v1/jobs/nope")
	if err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if hr.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: code=%d", hr.StatusCode)
	}
}

func pollJob(t testing.TB, ts *httptest.Server, id string, timeout time.Duration) *JobResponse {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		hr, err := http.Get(ts.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var jr JobResponse
		json.NewDecoder(hr.Body).Decode(&jr)
		hr.Body.Close()
		if jr.State == JobStateDone {
			return &jr
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish within %v", id, timeout)
	return nil
}

func TestAsyncCancel(t *testing.T) {
	s := newTestServer(t, Config{})
	mustServeImage(t, s, "spin", spinSrc)
	ts := httptest.NewServer(s.Mux())
	defer ts.Close()

	// A spin job with an enormous budget only terminates via cancel.
	resp, code := postJob(t, ts, &JobRequest{Image: "spin", Budget: 1 << 50, Async: true})
	if code != http.StatusAccepted {
		t.Fatalf("submit: code=%d resp=%+v", code, resp)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+resp.ID, nil)
	hr, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()

	final := pollJob(t, ts, resp.ID, 10*time.Second)
	if final.ErrorKind != "canceled" {
		t.Errorf("canceled job resolved as %+v", final)
	}
}

func TestCancelMidFlight(t *testing.T) {
	s := newTestServer(t, Config{Pool: pool.Config{Workers: 1}})
	img := mustServeImage(t, s, "spin", spinSrc)

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	spec := &jobSpec{tenant: s.tenantFor(""), images: []*pool.Image{img}, budget: 1 << 50}
	res, _, err := s.run(ctx, spec)
	// The cancel can land while queued (run returns the error) or mid-run
	// (the pool resolves the ticket with a canceled result); both must
	// classify as "canceled".
	outcome := err
	if err == nil {
		outcome = res.Err
	}
	if kind, _ := ErrorKind(outcome); kind != "canceled" {
		t.Errorf("outcome = %v (kind %s), want canceled", outcome, kind)
	}
}

func TestStreamingNDJSON(t *testing.T) {
	s := newTestServer(t, Config{})
	mustServeImage(t, s, "hello", helloSrc(4))
	ts := httptest.NewServer(s.Mux())
	defer ts.Close()

	body, _ := json.Marshal(&JobRequest{Image: "hello", Stream: true})
	hr, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("stream status = %d", hr.StatusCode)
	}
	if ct := hr.Header.Get("Content-Type"); !strings.Contains(ct, "ndjson") {
		t.Errorf("content type = %q", ct)
	}
	var events []streamEvent
	sc := bufio.NewScanner(hr.Body)
	for sc.Scan() {
		var ev streamEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		events = append(events, ev)
	}
	if len(events) < 3 {
		t.Fatalf("events = %+v", events)
	}
	if events[0].Event != "accepted" {
		t.Errorf("first event = %+v", events[0])
	}
	var stdout strings.Builder
	for _, ev := range events[1 : len(events)-1] {
		if ev.Event == "stdout" {
			stdout.WriteString(ev.Data)
		}
	}
	if stdout.String() != helloOut(4) {
		t.Errorf("streamed stdout = %q", stdout.String())
	}
	last := events[len(events)-1]
	if last.Event != "done" || last.Done == nil || last.Done.ErrorKind != "ok" ||
		last.Done.Status != 4 || last.Done.Stdout != "" {
		t.Errorf("done event = %+v (done doc %+v)", last, last.Done)
	}
}

// TestShedAndBackpressure drives one tiny shard far past capacity: the
// worker is busy, the tenant's parked callers reach MaxPending, and the
// excess must shed with ErrOverloaded — visible in the router's tenant
// counters AND the shard pool's rejected counter. Everything that was
// admitted must resolve.
func TestShedAndBackpressure(t *testing.T) {
	s := newTestServer(t, Config{
		Shards:     1,
		Pool:       pool.Config{Workers: 1, QueueDepth: 1},
		MaxPending: 2,
	})
	img := mustServeImage(t, s, "spin", spinSrc)

	const n = 24
	var (
		start            = make(chan struct{})
		wg               sync.WaitGroup
		mu               sync.Mutex
		completed, sheds int
		unexpected       []error
	)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			spec := &jobSpec{tenant: s.tenantFor(""), images: []*pool.Image{img}, budget: 500_000}
			res, _, err := s.run(context.Background(), spec)
			mu.Lock()
			defer mu.Unlock()
			switch {
			case err == nil && res != nil:
				completed++ // budget kill inside the sandbox still counts as served
			case errors.Is(err, ErrOverloaded):
				sheds++
			default:
				unexpected = append(unexpected, err)
			}
		}()
	}
	close(start)
	wg.Wait()

	if len(unexpected) > 0 {
		t.Fatalf("unexpected outcomes: %v", unexpected)
	}
	if completed+sheds != n {
		t.Errorf("completed %d + shed %d != %d", completed, sheds, n)
	}
	if sheds == 0 {
		t.Error("no sheds despite 24 jobs against a 2-slot tenant queue")
	}
	if completed == 0 {
		t.Error("no jobs completed")
	}

	// The shed is visible at both layers: the shard pool's stats/metrics
	// and the router's per-tenant counter.
	st := s.ShardStats(0)
	if st.Rejected != uint64(sheds) {
		t.Errorf("pool stats rejected = %d, want %d", st.Rejected, sheds)
	}
	status := s.Status()
	if got := status.Tenants[0].Shed; got != uint64(sheds) {
		t.Errorf("tenant shed counter = %d, want %d", got, sheds)
	}
	if status.Tenants[0].Completed != uint64(completed) {
		t.Errorf("tenant completed = %d, want %d", status.Tenants[0].Completed, completed)
	}

	// After the storm: nothing left queued anywhere.
	if d := s.shards[0].Queued("default"); d != 0 {
		t.Errorf("tenant queue depth = %d after drain", d)
	}
	if d := s.ShardStats(0).QueueDepth; d != 0 {
		t.Errorf("pool queue depth = %d after drain", d)
	}
}

// TestShutdownDrain closes the server while jobs are queued and running:
// every submission must resolve (served, closed, or shed) — none may
// hang — and post-close submissions are rejected.
func TestShutdownDrain(t *testing.T) {
	s := New(Config{
		Shards:     1,
		Pool:       pool.Config{Workers: 1, QueueDepth: 2},
		MaxPending: 64,
	})
	img, err := s.BuildImage("spin", spinSrc, core.Options{Opt: core.O2})
	if err != nil {
		t.Fatal(err)
	}

	const n = 16
	var wg sync.WaitGroup
	outcomes := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			spec := &jobSpec{tenant: s.tenantFor(""), images: []*pool.Image{img}, budget: 500_000}
			res, _, err := s.run(context.Background(), spec)
			if err == nil {
				// Terminal either way: a completed run, a deadline kill, a
				// cancellation, or the pool dropping its queued jobs at Close.
				err = res.Err
				if err != nil && !errors.Is(err, pool.ErrCanceled) && !errors.Is(err, pool.ErrClosed) {
					var dl *lfirt.ErrDeadline
					if !errors.As(err, &dl) {
						outcomes <- fmt.Errorf("unexpected result error: %w", err)
						return
					}
				}
				outcomes <- nil
				return
			}
			if errors.Is(err, ErrServerClosed) || errors.Is(err, pool.ErrClosed) ||
				errors.Is(err, ErrOverloaded) {
				outcomes <- nil
				return
			}
			outcomes <- fmt.Errorf("unexpected submit error: %w", err)
		}()
	}
	// Let some jobs reach the pool, then pull the plug.
	time.Sleep(10 * time.Millisecond)
	s.Close()

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("jobs hung across shutdown")
	}
	close(outcomes)
	for err := range outcomes {
		if err != nil {
			t.Error(err)
		}
	}

	// The drained server rejects new work with the closed taxonomy error.
	spec := &jobSpec{tenant: s.tenantFor(""), images: []*pool.Image{img}}
	if _, _, err := s.run(context.Background(), spec); !errors.Is(err, ErrServerClosed) {
		t.Errorf("post-close run: %v, want ErrServerClosed", err)
	}
	if d := s.shards[0].QueueDepth(); d != 0 {
		t.Errorf("queue depth %d after close", d)
	}
}

func TestMetricsAndStatusEndpoints(t *testing.T) {
	s := newTestServer(t, Config{Shards: 2})
	mustServeImage(t, s, "hello", helloSrc(2))
	ts := httptest.NewServer(s.Mux())
	defer ts.Close()

	if _, code := postJob(t, ts, &JobRequest{Image: "hello"}); code != http.StatusOK {
		t.Fatal("job failed")
	}

	// /metrics merges the router registry with shard-prefixed pool
	// registries into one document.
	hr, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Counters map[string]uint64 `json:"counters"`
		Gauges   map[string]int64  `json:"gauges"`
	}
	json.NewDecoder(hr.Body).Decode(&snap)
	hr.Body.Close()
	if snap.Counters["serve.http.requests"] == 0 {
		t.Error("router counter missing from /metrics")
	}
	served := snap.Counters["shard.0.pool.jobs.completed"] + snap.Counters["shard.1.pool.jobs.completed"]
	if served == 0 {
		t.Errorf("no shard-prefixed pool counters in /metrics: %v", snap.Counters)
	}
	if _, ok := snap.Gauges["shard.0.pool.queue.depth"]; !ok {
		t.Error("shard queue depth gauge missing from /metrics")
	}

	// /statusz reports tenants and shards.
	hr, err = http.Get(ts.URL + "/statusz")
	if err != nil {
		t.Fatal(err)
	}
	var st Status
	json.NewDecoder(hr.Body).Decode(&st)
	hr.Body.Close()
	if len(st.Shards) != 2 || len(st.Tenants) == 0 {
		t.Errorf("statusz = %+v", st)
	}

	// /healthz flips to 503 once draining.
	hr, _ = http.Get(ts.URL + "/healthz")
	hr.Body.Close()
	if hr.StatusCode != http.StatusOK {
		t.Errorf("healthz = %d", hr.StatusCode)
	}
	s.Close()
	hr, _ = http.Get(ts.URL + "/healthz")
	hr.Body.Close()
	if hr.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz while draining = %d", hr.StatusCode)
	}
	if _, code := postJob(t, ts, &JobRequest{Image: "hello"}); code != http.StatusServiceUnavailable {
		t.Errorf("submit while draining = %d", code)
	}
}

// --- binary protocol ---

type binClient struct {
	t  testing.TB
	c  net.Conn
	br *bufio.Reader
}

func dialBin(t testing.TB, s *Server) *binClient {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.ServeBinary(ln)
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return &binClient{t: t, c: c, br: bufio.NewReader(c)}
}

func (bc *binClient) send(f frame) {
	bc.t.Helper()
	if err := writeFrame(bc.c, f); err != nil {
		bc.t.Fatal(err)
	}
}

func (bc *binClient) recv() frame {
	bc.t.Helper()
	bc.c.SetReadDeadline(time.Now().Add(30 * time.Second))
	f, err := readFrame(bc.br)
	if err != nil {
		bc.t.Fatal(err)
	}
	return f
}

func TestBinaryProtocolMultiplexing(t *testing.T) {
	s := newTestServer(t, Config{Shards: 2})
	mustServeImage(t, s, "hello", helloSrc(6))
	bc := dialBin(t, s)

	// Interleave a ping with several pipelined requests; responses are
	// matched by id, whatever their order.
	const n = 8
	for i := 1; i <= n; i++ {
		bc.send(frame{typ: frameReq, id: uint64(i), payload: (&binReq{image: "hello"}).marshal()})
	}
	bc.send(frame{typ: framePing, id: 999})

	got := map[uint64]*binRes{}
	pong := false
	for len(got) < n || !pong {
		f := bc.recv()
		switch f.typ {
		case framePong:
			if f.id != 999 {
				t.Errorf("pong id = %d", f.id)
			}
			pong = true
		case frameRes:
			r, err := parseBinRes(f.payload)
			if err != nil {
				t.Fatal(err)
			}
			got[f.id] = r
		default:
			t.Fatalf("unexpected frame type %d", f.typ)
		}
	}
	for id := uint64(1); id <= n; id++ {
		r := got[id]
		if r == nil || r.kind != kindOK || r.status != 6 || string(r.stdout) != helloOut(6) {
			t.Errorf("response %d = %+v", id, r)
		}
	}
}

func TestBinaryProtocolStreamAndErrors(t *testing.T) {
	s := newTestServer(t, Config{})
	mustServeImage(t, s, "hello", helloSrc(8))
	bc := dialBin(t, s)

	// Stream flag: stdout arrives in frameOut chunks before the terminal
	// response, which carries no inline output.
	bc.send(frame{typ: frameReq, id: 1, payload: (&binReq{image: "hello", flags: flagStream}).marshal()})
	var stdout []byte
	for {
		f := bc.recv()
		if f.typ == frameOut {
			stdout = append(stdout, f.payload...)
			continue
		}
		if f.typ == frameErrOut {
			continue
		}
		if f.typ != frameRes {
			t.Fatalf("unexpected frame type %d", f.typ)
		}
		r, err := parseBinRes(f.payload)
		if err != nil {
			t.Fatal(err)
		}
		if r.kind != kindOK || len(r.stdout) != 0 {
			t.Errorf("terminal response = %+v", r)
		}
		break
	}
	if string(stdout) != helloOut(8) {
		t.Errorf("streamed stdout = %q", stdout)
	}

	// Unknown image resolves to its taxonomy code.
	bc.send(frame{typ: frameReq, id: 2, payload: (&binReq{image: "nope"}).marshal()})
	f := bc.recv()
	r, err := parseBinRes(f.payload)
	if err != nil {
		t.Fatal(err)
	}
	if f.id != 2 || r.kind != kindUnknownImage {
		t.Errorf("unknown image response = %+v (id %d)", r, f.id)
	}

	// An unknown frame type is answered, not fatal to the connection.
	bc.send(frame{typ: 200, id: 3})
	f = bc.recv()
	r, err = parseBinRes(f.payload)
	if err != nil {
		t.Fatal(err)
	}
	if f.id != 3 || r.kind != kindBadRequest {
		t.Errorf("unknown frame type response = %+v (id %d)", r, f.id)
	}
}

// TestBinaryClientDisconnectCancels drops the connection mid-job; the
// server must cancel the orphaned work and still close cleanly.
func TestBinaryClientDisconnectCancels(t *testing.T) {
	s := newTestServer(t, Config{Pool: pool.Config{Workers: 1}})
	mustServeImage(t, s, "spin", spinSrc)
	bc := dialBin(t, s)

	bc.send(frame{typ: frameReq, id: 1, payload: (&binReq{image: "spin", budget: 1 << 50}).marshal()})
	time.Sleep(20 * time.Millisecond) // let the job start
	bc.c.Close()

	// Close drains: if the orphaned spin job were not canceled, this
	// would block on its astronomically large budget.
	done := make(chan struct{})
	go func() { s.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("server close hung on an orphaned job")
	}
}

// TestWarmAffinityRouting sends many jobs for one image: all must land
// on the image's home shard, where its warm clones concentrate.
func TestWarmAffinityRouting(t *testing.T) {
	s := newTestServer(t, Config{Shards: 4})
	img := mustServeImage(t, s, "hello", helloSrc(1))
	home := s.shardFor(&jobSpec{images: []*pool.Image{img}})
	for i := 0; i < 8; i++ {
		spec := &jobSpec{tenant: s.tenantFor(""), images: []*pool.Image{img}}
		res, shard, err := s.run(context.Background(), spec)
		if err != nil || res.Err != nil {
			t.Fatal(err, res)
		}
		if shard != home {
			t.Fatalf("job %d routed to shard %d, home is %d", i, shard, home)
		}
	}
	// With affinity, repeat serves hit the warm pool.
	st := s.ShardStats(home)
	if st.WarmHits == 0 {
		t.Errorf("no warm hits on the home shard: %+v", st)
	}
}
