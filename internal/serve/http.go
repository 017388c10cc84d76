package serve

import (
	"context"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"net/http"

	"lfi/internal/core"
	"lfi/internal/obs"
	"lfi/internal/pool"
)

// JobRequest is the POST /v1/jobs body (and, field-for-field, the
// binary-protocol request payload).
type JobRequest struct {
	// Tenant names the QoS identity; empty means the "default" tenant.
	Tenant string `json:"tenant,omitempty"`
	// Image names a prepared image by registered alias or cache key.
	Image string `json:"image,omitempty"`
	// Images names a multi-stage pipeline (stage order; stdout→stdin).
	Images []string `json:"images,omitempty"`
	// Source inlines assembly to build (and cache) on the fly; exactly
	// one of Image/Images/Source must be set.
	Source string `json:"source,omitempty"`
	// Input feeds the (first) stage's stdin.
	Input string `json:"input,omitempty"`
	// Budget overrides the pool's per-job instruction budget.
	Budget uint64 `json:"budget,omitempty"`
	// Cold bypasses the warm/snapshot path (baseline measurement).
	Cold bool `json:"cold,omitempty"`
	// Async returns 202 with a job id immediately; poll GET /v1/jobs/{id}.
	Async bool `json:"async,omitempty"`
	// Stream switches the sync response to NDJSON events (accepted,
	// stdout/stderr chunks, done).
	Stream bool `json:"stream,omitempty"`
}

// JobResponse is the job result document, shared by the sync response,
// the async GET, the stream "done" event, and the binary protocol.
type JobResponse struct {
	// ID and State are set for async jobs.
	ID    string `json:"id,omitempty"`
	State string `json:"state,omitempty"`
	// ErrorKind classifies the outcome ("ok", "deadline", "quota",
	// "overloaded", "canceled", "verify", "unknown_image", "closed",
	// "queue_full", "bad_request", "internal"); Error carries the detail.
	ErrorKind string `json:"error_kind,omitempty"`
	Error     string `json:"error,omitempty"`
	// Status is the sandbox exit status (valid when ErrorKind is "ok").
	Status int `json:"status"`
	// Stdout and Stderr are the job's captured output.
	Stdout string `json:"stdout,omitempty"`
	Stderr string `json:"stderr,omitempty"`
	// Instrs is the instructions retired serving the job.
	Instrs uint64 `json:"instrs,omitempty"`
	// Shard and Worker locate where the job ran.
	Shard  int  `json:"shard"`
	Worker int  `json:"worker"`
	Warm   bool `json:"warm,omitempty"`
}

// ImageRequest is the POST /v1/images body: either inline assembly
// source or a base64 ELF.
type ImageRequest struct {
	// Name optionally registers an alias for the built image.
	Name string `json:"name,omitempty"`
	// Source is assembly text run through the rewrite→verify pipeline.
	Source string `json:"source,omitempty"`
	// ELF is a prebuilt sandbox executable, base64-encoded; it is
	// verified before registration.
	ELF string `json:"elf,omitempty"`
	// Wasm is a WebAssembly module, base64-encoded; it is translated
	// through the wasmfront pipeline and verified like source builds.
	Wasm string `json:"wasm,omitempty"`
	// Opt is the rewriter optimization level for Source and Wasm
	// (0, 1, 2 = default 2).
	Opt *int `json:"opt,omitempty"`
}

// ImageResponse answers image registration and listing.
type ImageResponse struct {
	Name string `json:"name,omitempty"`
	Key  string `json:"key"`
}

// maxBodyBytes bounds request bodies: jobs are small control messages;
// images may carry an ELF.
const maxBodyBytes = 16 << 20

// Mux returns the server's HTTP API on one mux — the job endpoints and
// the observability endpoints share a single listener:
//
//	POST   /v1/jobs       submit (sync, async, or stream)
//	GET    /v1/jobs/{id}  poll an async job
//	DELETE /v1/jobs/{id}  cancel an async job
//	POST   /v1/images     register an image (source or base64 ELF)
//	GET    /v1/images     list registered aliases
//	GET    /healthz       liveness (503 while draining)
//	GET    /metrics       merged router+shard metrics registry snapshot
//	GET    /statusz       tenants, shards, async table
func (s *Server) Mux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobGet)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleJobCancel)
	mux.HandleFunc("POST /v1/images", s.handleImagePost)
	mux.HandleFunc("GET /v1/images", s.handleImageList)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.Handle("GET /metrics", obs.MetricsHandler(s.MetricsSnapshot))
	mux.Handle("GET /statusz", obs.StatusHandler(func() any { return s.Status() }))
	return mux
}

// writeJSON writes body as one line of compact JSON: /v1/* responses are
// read by programs. /statusz and /metrics stay indented for people.
func writeJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(body)
}

func writeError(w http.ResponseWriter, err error) {
	kind, status := ErrorKind(err)
	writeJSON(w, status, &JobResponse{ErrorKind: kind, Error: err.Error()})
}

// resolveSpec turns a wire request into a routed jobSpec.
func (s *Server) resolveSpec(req *JobRequest) (*jobSpec, error) {
	set := 0
	for _, ok := range []bool{req.Image != "", len(req.Images) > 0, req.Source != ""} {
		if ok {
			set++
		}
	}
	if set != 1 {
		return nil, fmt.Errorf("request must set exactly one of image, images, source")
	}
	spec := &jobSpec{
		tenant: s.tenantFor(req.Tenant),
		input:  []byte(req.Input),
		budget: req.Budget,
		cold:   req.Cold,
	}
	switch {
	case req.Source != "":
		img, err := s.cache.Build(req.Source, core.Options{Opt: core.O2})
		if err != nil {
			return nil, err
		}
		spec.images = []*pool.Image{img}
	case req.Image != "":
		img, err := s.resolveImage(req.Image)
		if err != nil {
			return nil, err
		}
		spec.images = []*pool.Image{img}
	default:
		for _, ref := range req.Images {
			img, err := s.resolveImage(ref)
			if err != nil {
				return nil, err
			}
			spec.images = append(spec.images, img)
		}
	}
	return spec, nil
}

// respFromResult renders a run's outcome as the wire document: err when
// the job never ran, else the pool result, whose own Err (deadline
// kill, mid-run cancel, load failure) is part of the taxonomy and is
// classified the same way as admission errors.
func respFromResult(res *pool.Result, shard int, err error) *JobResponse {
	if err != nil {
		kind, _ := ErrorKind(err)
		return &JobResponse{ErrorKind: kind, Error: err.Error(), Shard: shard}
	}
	kind, _ := ErrorKind(res.Err)
	resp := &JobResponse{
		ErrorKind: kind,
		Status:    res.Status,
		Stdout:    string(res.Stdout),
		Stderr:    string(res.Stderr),
		Instrs:    res.Instrs,
		Shard:     shard,
		Worker:    res.Worker,
		Warm:      res.WarmHit,
	}
	if res.Err != nil {
		resp.Error = res.Err.Error()
	}
	return resp
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	s.m.httpReqs.Inc()
	if s.closing() {
		writeError(w, ErrServerClosed)
		return
	}
	var req JobRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err := dec.Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, &JobResponse{ErrorKind: "bad_request", Error: "bad JSON: " + err.Error()})
		return
	}
	if r.URL.Query().Get("stream") != "" {
		req.Stream = true
	}
	spec, err := s.resolveSpec(&req)
	if err != nil {
		if kind, _ := ErrorKind(err); kind == "internal" {
			// Malformed request, not a server fault.
			writeJSON(w, http.StatusBadRequest, &JobResponse{ErrorKind: "bad_request", Error: err.Error()})
			return
		}
		writeError(w, err)
		return
	}
	switch {
	case req.Async:
		s.m.asyncJobs.Inc()
		s.submitAsync(w, spec)
	case req.Stream:
		s.m.syncJobs.Inc()
		s.submitStream(w, r, spec)
	default:
		s.m.syncJobs.Inc()
		res, shard, err := s.run(r.Context(), spec)
		if err != nil {
			writeError(w, err)
			return
		}
		resp := respFromResult(res, shard, nil)
		writeJSON(w, kindStatus(resp.ErrorKind), resp)
	}
}

// submitAsync runs the job under a server-owned context and returns a
// pollable id immediately.
func (s *Server) submitAsync(w http.ResponseWriter, spec *jobSpec) {
	ctx, cancel := context.WithCancel(s.baseCtx)
	j := s.jobs.add(cancel)
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		defer cancel()
		resp := respFromResult(s.run(ctx, spec))
		resp.ID = j.id
		resp.State = JobStateDone
		s.jobs.complete(j, resp)
	}()
	writeJSON(w, http.StatusAccepted, &JobResponse{ID: j.id, State: JobStatePending})
}

// streamChunk bounds one stdout/stderr NDJSON event's payload.
const streamChunk = 32 << 10

// streamEvent is one NDJSON line of a streamed response.
type streamEvent struct {
	Event string `json:"event"` // accepted | stdout | stderr | done
	Data  string `json:"data,omitempty"`
	// Done carries the final result document on the "done" event.
	Done *JobResponse `json:"done,omitempty"`
}

// submitStream serves a sync job as chunked NDJSON: an immediate
// "accepted" event, the job's stdout/stderr in bounded chunks once
// available, and a terminal "done" event carrying the result document.
// The HTTP status is always 200; failures ride in done.error_kind.
func (s *Server) submitStream(w http.ResponseWriter, r *http.Request, spec *jobSpec) {
	w.Header().Set("Content-Type", "application/x-ndjson; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	flush := func() {
		if f, ok := w.(http.Flusher); ok {
			f.Flush()
		}
	}
	enc.Encode(streamEvent{Event: "accepted"})
	flush()

	// A job that never ran has no output, so only the done event follows.
	resp := respFromResult(s.run(r.Context(), spec))
	for _, stream := range []struct{ event, data string }{
		{"stdout", resp.Stdout}, {"stderr", resp.Stderr},
	} {
		for off := 0; off < len(stream.data); off += streamChunk {
			end := min(off+streamChunk, len(stream.data))
			enc.Encode(streamEvent{Event: stream.event, Data: stream.data[off:end]})
			flush()
		}
	}
	// Output traveled in its own events; the done document stays lean.
	resp.Stdout, resp.Stderr = "", ""
	enc.Encode(streamEvent{Event: "done", Done: resp})
	flush()
}

func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	s.m.httpReqs.Inc()
	j, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, &JobResponse{ErrorKind: "unknown_job", Error: "no such job"})
		return
	}
	state, resp := j.state()
	if state != JobStateDone {
		writeJSON(w, http.StatusOK, &JobResponse{ID: j.id, State: JobStatePending})
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	s.m.httpReqs.Inc()
	j, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, &JobResponse{ErrorKind: "unknown_job", Error: "no such job"})
		return
	}
	j.cancel()
	state, resp := j.state()
	if state == JobStateDone {
		writeJSON(w, http.StatusOK, resp)
		return
	}
	writeJSON(w, http.StatusAccepted, &JobResponse{ID: j.id, State: JobStatePending})
}

func (s *Server) handleImagePost(w http.ResponseWriter, r *http.Request) {
	s.m.httpReqs.Inc()
	if s.closing() {
		writeError(w, ErrServerClosed)
		return
	}
	var req ImageRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err := dec.Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, &JobResponse{ErrorKind: "bad_request", Error: "bad JSON: " + err.Error()})
		return
	}
	var (
		img *pool.Image
		err error
	)
	opts := core.Options{Opt: core.O2}
	if req.Opt != nil {
		opts.Opt = core.OptLevel(*req.Opt)
	}
	switch {
	case req.Source != "" && req.ELF == "" && req.Wasm == "":
		img, err = s.BuildImage(req.Name, req.Source, opts)
	case req.ELF != "" && req.Source == "" && req.Wasm == "":
		var elf []byte
		if elf, err = base64.StdEncoding.DecodeString(req.ELF); err == nil {
			img, err = s.ImageFromELF(req.Name, elf)
		}
	case req.Wasm != "" && req.Source == "" && req.ELF == "":
		var wasm []byte
		if wasm, err = base64.StdEncoding.DecodeString(req.Wasm); err == nil {
			img, err = s.BuildWasm(req.Name, wasm, opts)
		}
	default:
		writeJSON(w, http.StatusBadRequest, &JobResponse{ErrorKind: "bad_request",
			Error: "exactly one of source, elf, wasm required"})
		return
	}
	if err != nil {
		if kind, _ := ErrorKind(err); kind == "verify" {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusBadRequest, &JobResponse{ErrorKind: "bad_request", Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusCreated, &ImageResponse{Name: req.Name, Key: img.Key})
}

func (s *Server) handleImageList(w http.ResponseWriter, r *http.Request) {
	s.m.httpReqs.Inc()
	aliases := s.Images()
	out := make([]ImageResponse, 0, len(aliases))
	for name, key := range aliases {
		out = append(out, ImageResponse{Name: name, Key: key})
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	if s.closing() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}
