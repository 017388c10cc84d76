package fuzz

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"lfi/internal/core"
	"lfi/internal/lfirt"
	"lfi/internal/pool"
	"lfi/internal/progs"
)

// FaultOptions parameterizes the serving-layer fault injector.
type FaultOptions struct {
	// Seed drives the random choice of hostile events.
	Seed int64
	// Rounds is the number of pool build/hammer/close cycles (0 = 3).
	Rounds int
	// SnapshotTrials is the number of kill/restore cycles against a
	// direct runtime (0 = 20).
	SnapshotTrials int
	// IPCTrials is the number of mid-IPC kill/cancel trials against an
	// echo pair over a ring channel (0 = 12).
	IPCTrials int
	// VSubmitTrials is the number of mid-batch kill/cancel trials against
	// an echo pair driven through vectored runtime calls (0 = 8).
	VSubmitTrials int
	// BatchSnapshotTrials is the number of snapshot/restore cycles against
	// a process parked mid-RTVSubmit (0 = 6).
	BatchSnapshotTrials int
	// ServeRounds is the number of network-serving rounds driven through
	// the HTTP protocol layer against a live listener (0 = 2).
	ServeRounds int
}

func (o FaultOptions) withDefaults() FaultOptions {
	if o.Rounds == 0 {
		o.Rounds = 3
	}
	if o.SnapshotTrials == 0 {
		o.SnapshotTrials = 20
	}
	if o.IPCTrials == 0 {
		o.IPCTrials = 12
	}
	if o.VSubmitTrials == 0 {
		o.VSubmitTrials = 8
	}
	if o.BatchSnapshotTrials == 0 {
		o.BatchSnapshotTrials = 6
	}
	if o.ServeRounds == 0 {
		o.ServeRounds = 2
	}
	return o
}

// FaultReport summarizes a fault-injection run.
type FaultReport struct {
	Submitted int // jobs submitted across all pool rounds
	Resolved  int // jobs that resolved with an allowed outcome
	Kills     int // processes killed mid-run in the snapshot driver
	Restores  int // snapshot restores after a kill
	IPCFaults int // echo peers killed or canceled mid-IPC
	IPCDrains int // surviving peers that drained to a clean exit

	VecFaults   int // vectored echo peers killed or canceled mid-batch
	VecDrains   int // surviving vectored peers that drained cleanly
	SnapBatches int // parked batches snapshotted and restored with -EPIPE

	ServeRequests int // HTTP jobs issued across all serve rounds
	ServeTerminal int // serve requests that reached a terminal outcome

	Violations []string
}

func (r *FaultReport) String() string {
	return fmt.Sprintf("faults: %d submitted, %d resolved, %d kills, %d restores, %d ipc faults, %d ipc drains, %d vec faults, %d vec drains, %d snap batches, %d serve reqs, %d serve terminal, %d violations",
		r.Submitted, r.Resolved, r.Kills, r.Restores, r.IPCFaults, r.IPCDrains,
		r.VecFaults, r.VecDrains, r.SnapBatches, r.ServeRequests, r.ServeTerminal, len(r.Violations))
}

const faultTenant = `
_start:
	mov x3, #0
	mov x4, #400
loop:
	add x3, x3, #1
	cmp x3, x4
	b.ne loop
` // + exit appended per-variant

const faultSpin = `
_start:
spin:
	b spin
`

// InjectFaults drives the serving layer through hostile schedules: pools
// closed while jobs are queued and running, contexts canceled at random
// points, and processes killed mid-run then restored from snapshots. The
// invariants: every admitted job resolves with an outcome from the
// documented failure taxonomy, and a restore after any kill replays the
// original execution exactly.
func InjectFaults(opts FaultOptions) *FaultReport {
	opts = opts.withDefaults()
	rep := &FaultReport{}
	rng := rand.New(rand.NewSource(opts.Seed))

	for round := 0; round < opts.Rounds; round++ {
		poolRound(rng.Int63(), rep)
	}
	snapshotDriver(rng.Int63(), opts.SnapshotTrials, rep)
	ipcRound(rng.Int63(), opts.IPCTrials, rep)
	vsubmitRound(rng.Int63(), opts.VSubmitTrials, rep)
	batchSnapshotRound(opts.BatchSnapshotTrials, rep)
	for round := 0; round < opts.ServeRounds; round++ {
		serveRound(rng.Int63(), rep)
	}
	return rep
}

// poolRound hammers one pool with concurrent callers while the pool is
// closed underneath them at a random point.
func poolRound(seed int64, rep *FaultReport) {
	rng := rand.New(rand.NewSource(seed))
	p := pool.New(pool.Config{Workers: 2, QueueDepth: 4, Budget: 200_000})
	quick, err := p.BuildImage(faultTenant+progs.ExitCode(7), core.Options{Opt: core.O2})
	if err != nil {
		rep.Violations = append(rep.Violations, fmt.Sprintf("pool: build: %v", err))
		p.Close()
		return
	}
	spin, err := p.BuildImage(faultSpin, core.Options{Opt: core.O2})
	if err != nil {
		rep.Violations = append(rep.Violations, fmt.Sprintf("pool: build spin: %v", err))
		p.Close()
		return
	}

	var mu sync.Mutex
	var violations []string
	report := func(format string, args ...any) {
		mu.Lock()
		violations = append(violations, fmt.Sprintf("pool: "+format, args...))
		mu.Unlock()
	}
	submitted, resolved := 0, 0

	var wg sync.WaitGroup
	submitters := 4
	perSubmitter := 40
	closeAfter := rng.Intn(submitters * perSubmitter)
	var closeOnce sync.Once
	count := func() {
		mu.Lock()
		submitted++
		n := submitted
		mu.Unlock()
		if n == closeAfter {
			closeOnce.Do(func() {
				wg.Add(1)
				go func() {
					defer wg.Done()
					p.Close()
				}()
			})
		}
	}

	for s := 0; s < submitters; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			srng := rand.New(rand.NewSource(seed ^ int64(s)))
			for i := 0; i < perSubmitter; i++ {
				img := quick
				budget := uint64(0)
				if srng.Intn(4) == 0 {
					img, budget = spin, 50_000 // runaway job, deadline-killed
				}
				ctx, cancel := context.WithCancel(context.Background())
				count()
				if srng.Intn(3) == 0 {
					go cancel() // cancellation racing the lease and execution
				} else {
					defer cancel()
				}
				res, err := doOrHang(p, ctx, pool.Job{Image: img, Budget: budget}, report)
				if errors.Is(err, errHung) {
					return
				}
				if res != nil {
					err = res.Err
				}
				var dl *lfirt.ErrDeadline
				switch {
				case err == nil,
					errors.Is(err, pool.ErrQueueFull),
					errors.Is(err, pool.ErrClosed),
					errors.Is(err, pool.ErrCanceled),
					errors.As(err, &dl):
				default:
					report("result outside failure taxonomy: %v", err)
				}
				if err == nil && img == quick && res.Status != 7 {
					report("successful job returned status %d, want 7", res.Status)
				}
				mu.Lock()
				resolved++
				mu.Unlock()
			}
		}(s)
	}
	wg.Wait()
	p.Close() // idempotent; ensures shutdown when closeAfter was never hit

	if st := p.Stats(); st.QueueDepth != 0 {
		report("queue depth %d after close, want 0", st.QueueDepth)
	} else if st.Submitted != st.Completed {
		report("submitted %d != completed %d after close", st.Submitted, st.Completed)
	}
	if _, err := p.Do(pool.Job{Image: quick}); !errors.Is(err, pool.ErrClosed) {
		report("job after close: %v, want ErrClosed", err)
	}

	mu.Lock()
	rep.Submitted += submitted
	rep.Resolved += resolved
	rep.Violations = append(rep.Violations, violations...)
	mu.Unlock()
}

// errHung is doOrHang's verdict on a job that never resolved.
var errHung = errors.New("job did not resolve within 30s")

// doOrHang runs one job under a hang detector: a job that never
// resolves is the worst serving-layer bug, so it is reported rather than
// deadlocking the harness.
func doOrHang(p *pool.Pool, ctx context.Context, j pool.Job, report func(string, ...any)) (*pool.Result, error) {
	var res *pool.Result
	var err error
	done := make(chan struct{})
	go func() {
		defer close(done)
		res, err = p.DoCtx(ctx, j)
	}()
	select {
	case <-done:
		return res, err
	case <-time.After(30 * time.Second):
		report("%v", errHung)
		return nil, errHung
	}
}

// ipcEchoServer binds a ring channel at port 3 and echoes datagram-sized
// records forever. It exits 0 when the peer disappears — EOF from recv
// or -EPIPE from send — and 95 on any other outcome, so a wrong errno
// after a mid-IPC fault is visible as a bad exit status.
var ipcEchoServer = `
_start:
	mov x0, #2
	mov x1, #64
` + progs.RTCall(core.RTSocket) + `
	mov x19, x0
	mov x0, x19
	mov x1, #3
` + progs.RTCall(core.RTBind) + `
	cbnz x0, eerr
eloop:
	mov x0, x19
	adrp x1, ebuf
	add x1, x1, :lo12:ebuf
	mov x2, #8
` + progs.RTCall(core.RTRecv) + `
	cbz x0, edone
	tbnz x0, #63, eerr
	mov x2, x0
	mov x0, x19
	adrp x1, ebuf
	add x1, x1, :lo12:ebuf
` + progs.RTCall(core.RTSend) + `
	tbnz x0, #63, esendchk
	b eloop
esendchk:
	neg x9, x0
	cmp x9, #32
	b.eq edone
	b eerr
edone:
	mov x0, #0
` + progs.Exit() + `
eerr:
	mov x0, #95
` + progs.Exit() + `
.bss
ebuf:
	.space 16
`

// ipcEchoClient connects to the echo server and ping-pongs forever (or,
// in the finite variant below, for a fixed number of rounds). Clean
// peer-death outcomes exit 0; anything else exits 94.
func ipcEchoClient(rounds int) string {
	loopTail := "\tb cloop\n"
	init := "\tmov x27, #0\n"
	if rounds > 0 {
		init = fmt.Sprintf("\tmov x27, #%d\n", rounds)
		loopTail = "\tsubs x27, x27, #1\n\tb.ne cloop\n\tmov x0, #0\n" + progs.Exit()
	}
	return `
_start:
	mov x0, #2
	mov x1, #64
` + progs.RTCall(core.RTSocket) + `
	mov x19, x0
` + init + `	movz x28, #1000           // bounded connect retries
cconn:
	mov x0, x19
	mov x1, #3
` + progs.RTCall(core.RTConnect) + `
	cbz x0, cloop
	neg x9, x0
	cmp x9, #111              // ECONNREFUSED: binder not up (yet, or ever)
	b.ne cerr
	subs x28, x28, #1
	b.eq cdone                // binder never appeared: give up cleanly
	mov x0, #0
` + progs.RTCall(core.RTYield) + `
	b cconn
cloop:
	adrp x9, cbuf
	add x9, x9, :lo12:cbuf
	mov w10, #0x41
	strb w10, [x9]
	mov x0, x19
	adrp x1, cbuf
	add x1, x1, :lo12:cbuf
	mov x2, #8
` + progs.RTCall(core.RTSend) + `
	tbnz x0, #63, csendchk
	mov x0, x19
	adrp x1, cbuf
	add x1, x1, :lo12:cbuf
	mov x2, #8
` + progs.RTCall(core.RTRecv) + `
	cbz x0, cdone
	tbnz x0, #63, cerr
` + loopTail + `
csendchk:
	neg x9, x0
	cmp x9, #32
	b.eq cdone
	b cerr
cdone:
	mov x0, #0
` + progs.Exit() + `
cerr:
	mov x0, #94
` + progs.Exit() + `
.bss
cbuf:
	.space 16
`
}

// vsubmitSlot emits initialization of submission-ring slot idx (at
// sandbox symbol vring, with the buffer at vbuf): op, fd from x19,
// buf, len, zero flags and status.
func vsubmitSlot(idx int, op uint64, length int) string {
	off := idx * int(core.VSubmitSlotSize)
	return fmt.Sprintf(`	adrp x9, vring
	add x9, x9, :lo12:vring
	adrp x10, vbuf
	add x10, x10, :lo12:vbuf
	mov x12, #%d
	str x12, [x9, #%d]
	str x19, [x9, #%d]
	str x10, [x9, #%d]
	mov x12, #%d
	str x12, [x9, #%d]
	mov x12, #0
	str x12, [x9, #%d]
	str x12, [x9, #%d]
`, op, off+int(core.VOffOp), off+int(core.VOffFD), off+int(core.VOffBuf),
		length, off+int(core.VOffLen), off+int(core.VOffFlags), off+int(core.VOffStatus))
}

// vsubmitEchoBody is the shared main loop of the vectored echo programs:
// one RTVSubmit trap per iteration with a two-op batch whose statuses are
// checked against the peer-death taxonomy. Status 0 (EOF) or -EPIPE on
// either op is a clean peer-death exit; a short batch return only happens
// for a parked batch completed from the host side (snapshot restore),
// whose unfinished ops carry the same -EPIPE contract — also clean.
// Anything else exits through the err label.
func vsubmitEchoBody(loopTail string) string {
	return `	adrp x0, vring
	add x0, x0, :lo12:vring
	mov x1, #2
` + progs.RTCall(core.RTVSubmit) + `	tbnz x0, #63, verr
	cmp x0, #2
	b.ne vdone
	adrp x9, vring
	add x9, x9, :lo12:vring
	ldr x11, [x9, #40]
	cbz x11, vdone
	tbnz x11, #63, vchk0
	ldr x11, [x9, #104]
	cbz x11, vdone
	tbnz x11, #63, vchk1
` + loopTail + `vchk0:
	neg x12, x11
	cmp x12, #32
	b.eq vdone
	b verr
vchk1:
	neg x12, x11
	cmp x12, #32
	b.eq vdone
	b verr
vdone:
	mov x0, #0
` + progs.Exit() + `
verr:
	mov x0, #93
` + progs.Exit() + `
.bss
vring:
	.space 128
vbuf:
	.space 16
`
}

// vsubmitEchoServer is ipcEchoServer rebuilt on the vectored call: it
// binds the ring channel at port 3 and echoes with one [recv, send]
// batch per trap.
var vsubmitEchoServer = `
_start:
	mov x0, #2
	mov x1, #64
` + progs.RTCall(core.RTSocket) + `
	mov x19, x0
	mov x0, x19
	mov x1, #3
` + progs.RTCall(core.RTBind) + `
	cbnz x0, verr
` + vsubmitSlot(0, core.VOpRecv, 8) + vsubmitSlot(1, core.VOpSend, 8) + `
vloop:
` + vsubmitEchoBody("\tb vloop\n")

// vsubmitEchoClient connects to the vectored echo server and ping-pongs
// with one [send, recv] batch per trap; rounds 0 means forever.
func vsubmitEchoClient(rounds int) string {
	loopTail := "\tb vloop\n"
	init := ""
	if rounds > 0 {
		init = fmt.Sprintf("\tmov x27, #%d\n", rounds)
		loopTail = "\tsubs x27, x27, #1\n\tb.ne vloop\n\tb vdone\n"
	}
	return `
_start:
	mov x0, #2
	mov x1, #64
` + progs.RTCall(core.RTSocket) + `
	mov x19, x0
` + init + `	movz x28, #1000           // bounded connect retries
vconn:
	mov x0, x19
	mov x1, #3
` + progs.RTCall(core.RTConnect) + `
	cbz x0, vinit
	neg x9, x0
	cmp x9, #111              // ECONNREFUSED: binder not up (yet, or ever)
	b.ne verr
	subs x28, x28, #1
	b.eq vdone                // binder never appeared: give up cleanly
	mov x0, #0
` + progs.RTCall(core.RTYield) + `
	b vconn
vinit:
` + vsubmitSlot(0, core.VOpSend, 8) + vsubmitSlot(1, core.VOpRecv, 8) + `
vloop:
` + vsubmitEchoBody(loopTail)
}

// ipcRound kills one side of a live echo pair mid-IPC — by instruction
// budget, by cancellation, or by direct KillProcess — and checks the
// invariants: the surviving peer drains to a clean exit (no deadlock, no
// hang, no wrong errno), the process table empties, and a fresh pair
// communicates cleanly in the same runtime afterwards (the fault must
// not leak a port binding or corrupt channel state).
func ipcRound(seed int64, trials int, rep *FaultReport) {
	echoPairRound(seed, trials, rep, "ipc", ipcEchoServer, ipcEchoClient(0), ipcEchoClient(5), false)
}

// vsubmitRound is ipcRound with the echo pair driven through vectored
// runtime calls, so every injected fault lands against a batch that is
// in flight or parked mid-submission.
func vsubmitRound(seed int64, trials int, rep *FaultReport) {
	echoPairRound(seed, trials, rep, "vsubmit",
		vsubmitEchoServer, vsubmitEchoClient(0), vsubmitEchoClient(5), true)
}

func echoPairRound(seed int64, trials int, rep *FaultReport, tag, serverSrc, clientSrc, finiteSrc string, vec bool) {
	rng := rand.New(rand.NewSource(seed))
	violation := func(format string, args ...any) {
		rep.Violations = append(rep.Violations, fmt.Sprintf(tag+" "+format, args...))
	}
	build := func(src string) []byte {
		res, err := progs.Build(src, core.Options{Opt: core.O2})
		if err != nil {
			violation("build: %v", err)
			return nil
		}
		return res.ELF
	}
	serverELF := build(serverSrc)
	clientELF := build(clientSrc)
	finiteELF := build(finiteSrc)
	spinELF := build(faultSpin)
	if serverELF == nil || clientELF == nil || finiteELF == nil || spinELF == nil {
		return
	}

	// runDrained runs the scheduler under a hang detector.
	runDrained := func(rt *lfirt.Runtime, trial int, what string) bool {
		errc := make(chan error, 1)
		go func() { errc <- rt.Run() }()
		select {
		case err := <-errc:
			if err != nil {
				violation("trial %d: %s: %v", trial, what, err)
				return false
			}
		case <-time.After(30 * time.Second):
			violation("trial %d: %s hung (>30s)", trial, what)
			return false
		}
		if n := len(rt.Procs()); n != 0 {
			violation("trial %d: %s left %d processes", trial, what, n)
			return false
		}
		return true
	}

	for trial := 0; trial < trials; trial++ {
		cfg := lfirt.DefaultConfig()
		cfg.Timeslice = uint64(500 + rng.Intn(2000))
		rt := lfirt.New(cfg)
		server, err1 := rt.Load(serverELF)
		client, err2 := rt.Load(clientELF)
		dummy, err3 := rt.Load(spinELF)
		if err1 != nil || err2 != nil || err3 != nil {
			violation("trial %d: load: %v %v %v", trial, err1, err2, err3)
			continue
		}

		// Warm-up: the spinning dummy absorbs a deadline kill while the
		// echo pair reaches steady state, so the fault below lands
		// mid-IPC, not before the rendezvous.
		var dl *lfirt.ErrDeadline
		if _, err := rt.RunProcDeadline(dummy, uint64(3000+rng.Intn(10000))); !errors.As(err, &dl) {
			violation("trial %d: warm-up: %v, want deadline", trial, err)
			continue
		}

		target, survivor := server, client
		if rng.Intn(2) == 0 {
			target, survivor = client, server
		}
		switch rng.Intn(3) {
		case 0: // instruction-budget kill
			if _, err := rt.RunProcDeadline(target, uint64(1+rng.Intn(3000))); !errors.As(err, &dl) {
				violation("trial %d: budget fault: %v, want deadline", trial, err)
			}
		case 1: // cancellation
			done := make(chan struct{})
			close(done)
			if _, err := rt.RunProcCancel(target, 0, done); !errors.Is(err, lfirt.ErrCanceled) {
				violation("trial %d: cancel fault: %v, want ErrCanceled", trial, err)
			}
		case 2: // direct host-side kill between dispatches
			rt.KillProcess(target, 137)
		}
		if vec {
			rep.VecFaults++
		} else {
			rep.IPCFaults++
		}

		if !runDrained(rt, trial, "drain after fault") {
			continue
		}
		if s := survivor.ExitStatus(); s != 0 {
			violation("trial %d: survivor exited %d, want 0 (93/94/95 = wrong errno seen)", trial, s)
			continue
		}
		if vec {
			rep.VecDrains++
		} else {
			rep.IPCDrains++
		}

		// The runtime must still serve IPC: a fresh pair on the same
		// port, with a finite client closing gracefully mid-stream.
		s2, err1 := rt.Load(serverELF)
		c2, err2 := rt.Load(finiteELF)
		if err1 != nil || err2 != nil {
			violation("trial %d: reload: %v %v", trial, err1, err2)
			continue
		}
		if !runDrained(rt, trial, "fresh pair after fault") {
			continue
		}
		if s2.ExitStatus() != 0 || c2.ExitStatus() != 0 {
			violation("trial %d: fresh pair exited %d/%d, want 0/0",
				trial, s2.ExitStatus(), c2.ExitStatus())
		}
	}
}

// snapshotDriver kills processes at hostile points — mid-run deadlines,
// pre-fired cancellations, kills at random instruction counts — and
// checks that restoring the pre-run snapshot replays the undisturbed
// execution exactly (status and output).
func snapshotDriver(seed int64, trials int, rep *FaultReport) {
	rng := rand.New(rand.NewSource(seed))
	src := faultTenant + progs.ExitCode(3)
	res, err := progs.Build(src, core.Options{Opt: core.O2})
	if err != nil {
		rep.Violations = append(rep.Violations, fmt.Sprintf("snapshot: build: %v", err))
		return
	}

	// Reference: one undisturbed run.
	ref := lfirt.New(lfirt.DefaultConfig())
	p, err := ref.Load(res.ELF)
	if err != nil {
		rep.Violations = append(rep.Violations, fmt.Sprintf("snapshot: load: %v", err))
		return
	}
	wantStatus, err := ref.RunProc(p)
	if err != nil {
		rep.Violations = append(rep.Violations, fmt.Sprintf("snapshot: reference run: %v", err))
		return
	}
	wantOut := append([]byte(nil), p.Stdout()...)

	for trial := 0; trial < trials; trial++ {
		rt := lfirt.New(lfirt.DefaultConfig())
		proc, err := rt.Load(res.ELF)
		if err != nil {
			rep.Violations = append(rep.Violations, fmt.Sprintf("snapshot trial %d: load: %v", trial, err))
			continue
		}
		snap, err := rt.Snapshot(proc)
		if err != nil {
			rep.Violations = append(rep.Violations, fmt.Sprintf("snapshot trial %d: snapshot: %v", trial, err))
			continue
		}

		// Hostile event: deadline kill, pre-fired cancel, or direct kill.
		switch rng.Intn(3) {
		case 0:
			budget := uint64(1 + rng.Intn(1500))
			_, err := rt.RunProcDeadline(proc, budget)
			var dl *lfirt.ErrDeadline
			if err != nil && !errors.As(err, &dl) {
				rep.Violations = append(rep.Violations,
					fmt.Sprintf("snapshot trial %d: deadline run: %v", trial, err))
			}
		case 1:
			done := make(chan struct{})
			close(done)
			if _, err := rt.RunProcCancel(proc, 0, done); !errors.Is(err, lfirt.ErrCanceled) {
				rep.Violations = append(rep.Violations,
					fmt.Sprintf("snapshot trial %d: canceled run: %v, want ErrCanceled", trial, err))
			}
		case 2:
			rt.KillProcess(proc, 137)
		}
		rep.Kills++

		// Restore must bring back a pristine process that replays the
		// reference execution bit-for-bit.
		re, err := rt.Restore(snap)
		if err != nil {
			rep.Violations = append(rep.Violations, fmt.Sprintf("snapshot trial %d: restore: %v", trial, err))
			continue
		}
		rep.Restores++
		rt.Start(re)
		status, err := rt.RunProc(re)
		if err != nil {
			rep.Violations = append(rep.Violations, fmt.Sprintf("snapshot trial %d: restored run: %v", trial, err))
			continue
		}
		if status != wantStatus {
			rep.Violations = append(rep.Violations,
				fmt.Sprintf("snapshot trial %d: restored status %d, want %d", trial, status, wantStatus))
		}
		if !bytes.Equal(re.Stdout(), wantOut) {
			rep.Violations = append(rep.Violations,
				fmt.Sprintf("snapshot trial %d: restored output %q, want %q", trial, re.Stdout(), wantOut))
		}
	}
}

// vsubmitParked is a guest that parks itself mid-batch: a same-process
// ring pair (x19 bound at port 3, x20 connected), then a two-op batch
// whose first op is a nop and whose second is a recv on the empty pair —
// the batch parks at index 1 and the process deadlocks. The code after
// the call runs only post-restore; it checks the -EPIPE contract exactly
// (return 1, slot0 status 0, slot1 status -EPIPE) and exits 33.
var vsubmitParked = `
_start:
	mov x0, #2
	mov x1, #64
` + progs.RTCall(core.RTSocket) + `
	mov x19, x0
	mov x0, #2
	mov x1, #64
` + progs.RTCall(core.RTSocket) + `
	mov x20, x0
	mov x0, x19
	mov x1, #3
` + progs.RTCall(core.RTBind) + `
	cbnz x0, perr
	mov x0, x20
	mov x1, #3
` + progs.RTCall(core.RTConnect) + `
	cbnz x0, perr
` + vsubmitSlot(0, core.VOpNop, 0) + vsubmitSlot(1, core.VOpRecv, 8) + `
	adrp x0, vring
	add x0, x0, :lo12:vring
	mov x1, #2
` + progs.RTCall(core.RTVSubmit) + `
	cmp x0, #1
	b.ne perr
	adrp x9, vring
	add x9, x9, :lo12:vring
	ldr x11, [x9, #40]
	cbnz x11, perr
	ldr x11, [x9, #104]
	neg x12, x11
	cmp x12, #32
	b.ne perr
	mov x0, #33
` + progs.Exit() + `
perr:
	mov x0, #96
` + progs.Exit() + `
.bss
vring:
	.space 128
vbuf:
	.space 16
`

// batchSnapshotRound snapshots a process parked mid-RTVSubmit and
// restores it — alternating between a fresh runtime and the original one
// (after killing the parked original) — checking that every restore
// completes the batch under the documented contract: the call returns
// the completed-op count with -EPIPE in each unfinished slot, verified
// by the guest itself (exit 33).
func batchSnapshotRound(trials int, rep *FaultReport) {
	violation := func(format string, args ...any) {
		rep.Violations = append(rep.Violations, fmt.Sprintf("batch-snapshot "+format, args...))
	}
	res, err := progs.Build(vsubmitParked, core.Options{Opt: core.O2})
	if err != nil {
		violation("build: %v", err)
		return
	}
	for trial := 0; trial < trials; trial++ {
		rt := lfirt.New(lfirt.DefaultConfig())
		p, err := rt.Load(res.ELF)
		if err != nil {
			violation("trial %d: load: %v", trial, err)
			continue
		}
		var dl *lfirt.ErrDeadlock
		if err := rt.Run(); !errors.As(err, &dl) {
			violation("trial %d: run: %v, want deadlock with parked batch", trial, err)
			continue
		}
		snap, err := rt.Snapshot(p)
		if err != nil {
			violation("trial %d: snapshot: %v", trial, err)
			continue
		}
		rep.Kills++
		target := rt
		if trial%2 == 0 {
			target = lfirt.New(lfirt.DefaultConfig())
		} else {
			rt.KillProcess(p, 137) // reclaim the parked original first
		}
		re, err := target.Restore(snap)
		if err != nil {
			violation("trial %d: restore: %v", trial, err)
			continue
		}
		target.Start(re)
		status, err := target.RunProc(re)
		if err != nil {
			violation("trial %d: restored run: %v", trial, err)
			continue
		}
		if status != 33 {
			violation("trial %d: restored batch exited %d, want 33 (96 = contract violated)", trial, status)
			continue
		}
		rep.SnapBatches++
	}
}
