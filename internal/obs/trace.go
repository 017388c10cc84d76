package obs

import (
	"sync"
	"time"
)

// EventKind classifies a traced event.
type EventKind uint8

const (
	EvNone EventKind = iota
	// Pool job lifecycle.
	EvJobEnqueue // job accepted into the submission queue
	EvJobDequeue // worker picked the job up
	EvJobStart   // sandbox acquired (restored/warm/cold) and started
	EvJobFinish  // result delivered; Arg = retired instructions
	EvJobCancel  // job canceled by its context
	// Warm-pool behavior.
	EvWarmHit  // served from a parked pre-restored sandbox
	EvWarmMiss // no parked sandbox; restored on the request path
	EvRestore  // snapshot restore (request path or replenishment)
	EvColdLoad // full ELF load (Cold jobs)
	EvEvict    // warm-pool eviction (MaxWarm pressure)
	// Pipeline and runtime events.
	EvVerify   // verifier ran over a binary; Arg = text bytes
	EvPreempt  // timeslice preemption; Arg = PID
	EvTrap     // fatal sandbox trap; Arg = exit status
	EvHostCall // runtime call; Arg = call number
	// Cross-sandbox IPC.
	EvSend // completed RTSend deposit; Arg = bytes
	EvRecv // completed RTRecv transfer; Arg = bytes
)

var eventNames = [...]string{
	EvNone:       "none",
	EvJobEnqueue: "job_enqueue",
	EvJobDequeue: "job_dequeue",
	EvJobStart:   "job_start",
	EvJobFinish:  "job_finish",
	EvJobCancel:  "job_cancel",
	EvWarmHit:    "warm_hit",
	EvWarmMiss:   "warm_miss",
	EvRestore:    "restore",
	EvColdLoad:   "cold_load",
	EvEvict:      "evict",
	EvVerify:     "verify",
	EvPreempt:    "preempt",
	EvTrap:       "trap",
	EvHostCall:   "host_call",
	EvSend:       "send",
	EvRecv:       "recv",
}

func (k EventKind) String() string {
	if int(k) < len(eventNames) {
		return eventNames[k]
	}
	return "unknown"
}

// MarshalText renders the kind as its name in JSON exports.
func (k EventKind) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

// Event is one traced occurrence. Job, Worker, PID, Arg and DurNS are
// kind-specific; unused fields are zero.
type Event struct {
	Seq    uint64    `json:"seq"`
	TimeNS int64     `json:"time_ns"` // unix nanoseconds
	Kind   EventKind `json:"kind"`
	Job    uint64    `json:"job,omitempty"`
	Worker int       `json:"worker,omitempty"`
	PID    int       `json:"pid,omitempty"`
	Arg    uint64    `json:"arg,omitempty"`
	DurNS  int64     `json:"dur_ns,omitempty"`
}

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
	// Stages carries per-stage accounting for pipeline jobs (nil for
	// single-image jobs).
	Stages []SpanStage `json:"stages,omitempty"`
}

// SpanStage is the per-stage slice of a pipeline job's span.
type SpanStage struct {
	Image   string `json:"image,omitempty"` // image key prefix
	PID     int    `json:"pid"`
	Status  int    `json:"status"`
	WarmHit bool   `json:"warm_hit"`
}

// Tracer keeps the most recent events and job spans in bounded ring
// buffers. Recording takes one short mutex hold and never allocates once
// the rings are full; a nil Tracer discards everything.
type Tracer struct {
	mu     sync.Mutex
	events []Event
	evNext uint64 // total events ever recorded (== next seq)
	spans  []Span
	spNext uint64
	evCap  int
	spCap  int
}

// NewTracer creates a tracer keeping up to evCap events and spanCap
// spans (defaults 1024 and 256 when zero).
func NewTracer(evCap, spanCap int) *Tracer {
	if evCap <= 0 {
		evCap = 1024
	}
	if spanCap <= 0 {
		spanCap = 256
	}
	return &Tracer{
		events: make([]Event, 0, evCap),
		spans:  make([]Span, 0, spanCap),
		evCap:  evCap,
		spCap:  spanCap,
	}
}

// Record appends an event, stamping Seq and (when zero) TimeNS.
func (t *Tracer) Record(e Event) {
	if t == nil {
		return
	}
	if e.TimeNS == 0 {
		e.TimeNS = time.Now().UnixNano()
	}
	t.mu.Lock()
	e.Seq = t.evNext
	t.evNext++
	if len(t.events) < t.evCap {
		t.events = append(t.events, e)
	} else {
		t.events[int(e.Seq)%t.evCap] = e
	}
	t.mu.Unlock()
}

// RecordSpan appends a completed job span.
func (t *Tracer) RecordSpan(s Span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if len(t.spans) < t.spCap {
		t.spans = append(t.spans, s)
	} else {
		t.spans[int(t.spNext)%t.spCap] = s
	}
	t.spNext++
	t.mu.Unlock()
}

// Events returns the retained events in chronological order.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Event, 0, len(t.events))
	if len(t.events) < t.evCap {
		return append(out, t.events...)
	}
	head := int(t.evNext) % t.evCap
	out = append(out, t.events[head:]...)
	return append(out, t.events[:head]...)
}

// Spans returns the retained spans in completion order.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, 0, len(t.spans))
	if len(t.spans) < t.spCap {
		return append(out, t.spans...)
	}
	head := int(t.spNext) % t.spCap
	out = append(out, t.spans[head:]...)
	return append(out, t.spans[:head]...)
}

// Dropped reports how many events aged out of the ring.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.evNext - uint64(len(t.events))
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
	return &Obs{Reg: NewRegistry(), Tracer: NewTracer(0, 0)}
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
