package pool

import "slices"

// waiter is one caller parked in DoCtx until a worker is handed to it.
// release sends it exactly one value on ready: the leased worker, or nil
// when Close fails it. ready is buffered, so the sender never blocks.
type waiter struct {
	tenant string
	ready  chan *worker

	// start and finish are the waiter's weighted-fair-queueing virtual
	// tags: start = max(queue vtime, tenant's last finish), finish =
	// start + 1/weight. Hand-off order is ascending finish tag, which
	// serves tenants capacity proportional to their weights.
	start, finish float64
}

// tenantQ is one tenant's FIFO of parked callers plus its WFQ
// bookkeeping.
type tenantQ struct {
	q          []*waiter
	lastFinish float64
}

// wfq is the pool's one waiter queue: bounded per-tenant FIFOs drained
// in weighted-fair order. With a single tenant it is a plain FIFO. The
// pool's mutex guards it.
type wfq struct {
	tenants map[string]*tenantQ
	vtime   float64
}

// push parks w behind its tenant's earlier waiters, stamping its WFQ
// tags. It refuses (false) when the tenant already has bound waiters.
func (f *wfq) push(w *waiter, weight, bound int) bool {
	if f.tenants == nil {
		f.tenants = make(map[string]*tenantQ)
	}
	tq := f.tenants[w.tenant]
	if tq == nil {
		tq = &tenantQ{lastFinish: f.vtime}
		f.tenants[w.tenant] = tq
	}
	if len(tq.q) >= bound {
		return false
	}
	if weight <= 0 {
		weight = 1
	}
	w.start = max(f.vtime, tq.lastFinish)
	w.finish = w.start + 1/float64(weight)
	tq.lastFinish = w.finish
	tq.q = append(tq.q, w)
	return true
}

// pop removes and returns the waiter with the minimum virtual finish
// tag, advancing the queue's virtual time; nil when nobody waits.
func (f *wfq) pop() *waiter {
	var best *tenantQ
	for _, tq := range f.tenants {
		if len(tq.q) > 0 && (best == nil || tq.q[0].finish < best.q[0].finish) {
			best = tq
		}
	}
	if best == nil {
		return nil
	}
	w := best.q[0]
	best.q = best.q[1:]
	f.vtime = max(f.vtime, w.start)
	return w
}

// remove takes w out of its tenant's queue. It reports false when w is
// no longer parked: a release or Close already popped it.
func (f *wfq) remove(w *waiter) bool {
	tq := f.tenants[w.tenant] // created by w's push
	i := slices.Index(tq.q, w)
	if i >= 0 {
		tq.q = slices.Delete(tq.q, i, i+1)
	}
	return i >= 0
}
