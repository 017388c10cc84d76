package obs

import "sync"

// Span is the end-to-end accounting of one pool job: where its latency
// went (queue wait, snapshot restore, sandbox run, warm-pool refill) and
// how it was served.
type Span struct {
	Job         uint64 `json:"job"`
	Image       string `json:"image,omitempty"` // image key prefix
	Worker      int    `json:"worker"`
	EnqueueNS   int64  `json:"enqueue_ns"` // unix nanoseconds
	QueueWaitNS int64  `json:"queue_wait_ns"`
	RestoreNS   int64  `json:"restore_ns"` // 0 on a warm hit
	RunNS       int64  `json:"run_ns"`
	RefillNS    int64  `json:"refill_ns"` // restoring the next warm clone, before the reply
	TotalNS     int64  `json:"total_ns"`
	WarmHit     bool   `json:"warm_hit"`
	Cold        bool   `json:"cold,omitempty"`
	Canceled    bool   `json:"canceled,omitempty"`
	Instrs      uint64 `json:"instrs"`
	Err         string `json:"err,omitempty"`
	// Stages carries per-stage accounting, one entry per image in job
	// order (a single-image job has one; none when a stage could not be
	// acquired).
	Stages []SpanStage `json:"stages,omitempty"`
}

// SpanStage is the per-stage slice of a pipeline job's span.
type SpanStage struct {
	Image   string `json:"image,omitempty"` // image key prefix
	PID     int    `json:"pid"`
	Status  int    `json:"status"`
	WarmHit bool   `json:"warm_hit"`
}

// Tracer keeps the most recent job spans in a bounded ring buffer.
// Recording takes one short mutex hold and never allocates once the ring
// is full; a nil Tracer discards everything.
type Tracer struct {
	mu    sync.Mutex
	spans []Span
	next  uint64 // total spans ever recorded
	cap   int
}

// NewTracer creates a tracer keeping up to spanCap spans (256 when
// zero).
func NewTracer(spanCap int) *Tracer {
	if spanCap <= 0 {
		spanCap = 256
	}
	return &Tracer{spans: make([]Span, 0, spanCap), cap: spanCap}
}

// RecordSpan appends a completed job span, overwriting the oldest once
// the ring is full.
func (t *Tracer) RecordSpan(s Span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if len(t.spans) < t.cap {
		t.spans = append(t.spans, s)
	} else {
		t.spans[int(t.next%uint64(t.cap))] = s
	}
	t.next++
	t.mu.Unlock()
}

// Spans returns the retained spans in completion order.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, 0, len(t.spans))
	if len(t.spans) < t.cap {
		return append(out, t.spans...)
	}
	head := int(t.next % uint64(t.cap))
	out = append(out, t.spans[head:]...)
	return append(out, t.spans[:head]...)
}

// Obs bundles a registry and a tracer: the single handle components take
// to record into the observability layer. A nil *Obs (and the nil
// Registry/Tracer inside a partially filled one) disables recording.
type Obs struct {
	Reg    *Registry
	Tracer *Tracer
}

// New creates an Obs with a fresh registry and a default-capacity tracer.
func New() *Obs {
	return &Obs{Reg: NewRegistry(), Tracer: NewTracer(0)}
}

// Registry returns the bundle's registry, nil-safe.
func (o *Obs) Registry() *Registry {
	if o == nil {
		return nil
	}
	return o.Reg
}

// Trace returns the bundle's tracer, nil-safe.
func (o *Obs) Trace() *Tracer {
	if o == nil {
		return nil
	}
	return o.Tracer
}
