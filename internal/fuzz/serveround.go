package fuzz

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"time"

	"lfi/internal/core"
	"lfi/internal/pool"
	"lfi/internal/progs"
	"lfi/internal/serve"
)

// serveKinds is the complete terminal vocabulary of the wire protocol; a
// response classified outside it is a taxonomy violation.
var serveKinds = map[string]bool{
	"ok": true, "deadline": true, "quota": true, "overloaded": true,
	"canceled": true, "verify": true, "unknown_image": true,
	"closed": true, "queue_full": true, "bad_request": true,
	"internal": true, "unknown_job": true,
}

// serveRound hammers a network serving front-end through real sockets
// while hostile events fire underneath: clients cancel mid-flight
// (dropping the HTTP request), async jobs are canceled via DELETE, a
// rate-limited tenant runs hot to force 429s, and the server is closed
// at a random point with work queued and running. Invariants: every
// request that gets a response gets one from the documented taxonomy
// (with quota mapped to 429), every async job reaches a terminal state,
// and after Close every shard has drained (queue depth zero, submitted
// equals completed).
func serveRound(seed int64, rep *FaultReport) {
	rng := rand.New(rand.NewSource(seed))

	var mu sync.Mutex
	var violations []string
	report := func(format string, args ...any) {
		mu.Lock()
		violations = append(violations, fmt.Sprintf("serve: "+format, args...))
		mu.Unlock()
	}

	s := serve.New(serve.Config{
		Shards: 2,
		Pool:   pool.Config{Workers: 2, QueueDepth: 4, Budget: 300_000},
		Tenants: []serve.TenantConfig{
			{Name: "limited", Rate: 20, Burst: 4},
			{Name: "bulk", Weight: 4},
		},
		MaxPending: 8,
	})
	if _, err := s.BuildImage("quick", faultTenant+progs.ExitCode(7), core.Options{Opt: core.O2}); err != nil {
		report("build quick: %v", err)
		s.Close()
		return
	}
	if _, err := s.BuildImage("spin", faultSpin, core.Options{Opt: core.O2}); err != nil {
		report("build spin: %v", err)
		s.Close()
		return
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		report("listen: %v", err)
		s.Close()
		return
	}
	srv := &http.Server{Handler: s.Mux()}
	go srv.Serve(ln)
	base := "http://" + ln.Addr().String()
	client := &http.Client{Timeout: 30 * time.Second}

	const submitters = 4
	const perSubmitter = 25
	requests, terminal := 0, 0
	closeAfter := 1 + rng.Intn(submitters*perSubmitter)
	var closeOnce sync.Once
	var wg sync.WaitGroup
	count := func() {
		mu.Lock()
		requests++
		n := requests
		mu.Unlock()
		if n == closeAfter {
			closeOnce.Do(func() {
				wg.Add(1)
				go func() {
					defer wg.Done()
					s.Close()
				}()
			})
		}
	}
	resolved := func() {
		mu.Lock()
		terminal++
		mu.Unlock()
	}

	for w := 0; w < submitters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			srng := rand.New(rand.NewSource(seed ^ int64(w+1)))
			for i := 0; i < perSubmitter; i++ {
				req := map[string]any{"image": "quick"}
				switch srng.Intn(3) {
				case 0:
					req["tenant"] = "limited"
				case 1:
					req["tenant"] = "bulk"
				}
				if srng.Intn(4) == 0 {
					req["image"] = "spin"
					req["budget"] = 50_000
				}
				count()
				if srng.Intn(3) == 0 {
					serveAsyncProbe(client, base, req, srng, report)
					resolved()
					continue
				}
				kind, canceled := serveSyncProbe(client, base, req, srng, report)
				if canceled {
					resolved() // client walked away; server-side drain invariants cover the job
					continue
				}
				if kind != "" {
					resolved()
				}
			}
		}(w)
	}
	wg.Wait()
	s.Close() // idempotent; ensures drain when closeAfter was never reached

	// Post-close invariants: nothing queued, everything the pools
	// admitted has completed, and no async job is still pending.
	st := s.Status()
	if !st.Draining {
		report("status not draining after close")
	}
	for _, ts := range st.Tenants {
		if ts.Queued != 0 {
			report("tenant %s still has %d queued after close", ts.Name, ts.Queued)
		}
	}
	for _, sh := range st.Shards {
		if sh.Queued != 0 || sh.Pool.QueueDepth != 0 {
			report("shard %d queues not drained: router %d, pool %d", sh.Shard, sh.Queued, sh.Pool.QueueDepth)
		}
		if sh.Pool.Submitted != sh.Pool.Completed {
			report("shard %d: submitted %d != completed %d after close", sh.Shard, sh.Pool.Submitted, sh.Pool.Completed)
		}
	}
	if st.AsyncActive != 0 {
		report("%d async jobs still pending after close", st.AsyncActive)
	}

	// The drained server answers with the closed taxonomy error, not a
	// hang or a transport failure. The probe is never canceled (nil rng):
	// a cancel that wins the race leaves no kind to classify.
	if kind, _ := serveSyncProbe(client, base, map[string]any{"image": "quick"}, nil, report); kind != "closed" {
		report("post-close submit classified %q, want closed", kind)
	}

	srv.Close()
	ln.Close()

	mu.Lock()
	rep.ServeRequests += requests
	rep.ServeTerminal += terminal
	rep.Violations = append(rep.Violations, violations...)
	mu.Unlock()
}

// serveSyncProbe submits one sync job. It returns the response's error
// kind ("" if the response was unusable) and whether the client
// canceled the request itself — the one case where a missing response
// is legitimate. One request in four is canceled mid-flight, drawn from
// rng; a nil rng sends a plain request that is never canceled.
func serveSyncProbe(client *http.Client, base string, req map[string]any, rng *rand.Rand, report func(string, ...any)) (string, bool) {
	ctx := context.Background()
	cancelMidFlight := rng != nil && rng.Intn(4) == 0
	var cancel context.CancelFunc
	if cancelMidFlight {
		ctx, cancel = context.WithCancel(ctx)
		delay := time.Duration(rng.Intn(2000)) * time.Microsecond
		go func() {
			time.Sleep(delay)
			cancel()
		}()
		defer cancel()
	}
	body, _ := json.Marshal(req)
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		report("new request: %v", err)
		return "", false
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(hreq)
	if err != nil {
		if cancelMidFlight {
			return "", true // our own cancel tore the request down
		}
		report("sync request failed in transport: %v", err)
		return "", false
	}
	defer resp.Body.Close()
	var doc struct {
		ErrorKind string `json:"error_kind"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		if cancelMidFlight {
			return "", true
		}
		report("sync response not JSON: %v", err)
		return "", false
	}
	if !serveKinds[doc.ErrorKind] {
		report("sync response kind %q outside taxonomy", doc.ErrorKind)
		return "", false
	}
	if doc.ErrorKind == "quota" && resp.StatusCode != http.StatusTooManyRequests {
		report("quota rejection served HTTP %d, want 429", resp.StatusCode)
	}
	return doc.ErrorKind, false
}

// serveAsyncProbe submits an async job, sometimes cancels it via
// DELETE, and polls until it reaches a terminal state. An async job
// that never terminates is reported as a violation.
func serveAsyncProbe(client *http.Client, base string, req map[string]any, rng *rand.Rand, report func(string, ...any)) {
	req["async"] = true
	body, _ := json.Marshal(req)
	resp, err := client.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		report("async submit failed in transport: %v", err)
		return
	}
	var doc struct {
		ID        string `json:"id"`
		State     string `json:"state"`
		ErrorKind string `json:"error_kind"`
	}
	err = json.NewDecoder(resp.Body).Decode(&doc)
	resp.Body.Close()
	if err != nil {
		report("async submit response not JSON: %v", err)
		return
	}
	if resp.StatusCode != http.StatusAccepted {
		// Rejected at admission (closed, quota, ...): that IS terminal.
		if !serveKinds[doc.ErrorKind] {
			report("async rejection kind %q outside taxonomy", doc.ErrorKind)
		}
		return
	}
	if rng.Intn(3) == 0 {
		dreq, _ := http.NewRequest(http.MethodDelete, base+"/v1/jobs/"+doc.ID, nil)
		if dresp, err := client.Do(dreq); err == nil {
			dresp.Body.Close()
		}
	}
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		gresp, err := client.Get(base + "/v1/jobs/" + doc.ID)
		if err != nil {
			report("async poll failed in transport: %v", err)
			return
		}
		var got struct {
			State     string `json:"state"`
			ErrorKind string `json:"error_kind"`
		}
		err = json.NewDecoder(gresp.Body).Decode(&got)
		gresp.Body.Close()
		if err != nil {
			report("async poll response not JSON: %v", err)
			return
		}
		if got.State == "done" {
			if !serveKinds[got.ErrorKind] {
				report("async result kind %q outside taxonomy", got.ErrorKind)
			}
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	report("async job %s never reached a terminal state", doc.ID)
}
