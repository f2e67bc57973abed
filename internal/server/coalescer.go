package server

import (
	"sync"
	"time"
)

// Reply receives one asynchronous answer from a coalescer. Implementations
// are typically pooled pointer-structs (a pointer already on the heap boxes
// into the interface without allocating), which is what keeps the async
// path — used by the persistent TCP transport, whose reader goroutine must
// not block on a flush — as allocation-free as the blocking one.
type Reply[R any] interface {
	// Deliver is called exactly once per accepted request, from a flusher
	// goroutine. It must not block for long: it runs inside the flush loop
	// that answers every other request in the batch.
	Deliver(v R, err error)
}

// request is one caller waiting inside a coalescer: a payload plus exactly
// one answer path — a 1-buffered reply channel its flush writes one result
// into (blocking submit), or a Reply callback (submitAsync). The reply
// channel is pooled: every accepted request is answered exactly once, so
// after the submitter has received, the channel is empty and safe to hand
// to the next submitter.
type request[Q, R any] struct {
	q    Q
	out  chan result[R] // blocking submitters
	done Reply[R]       // async submitters; nil when out is set
}

// reply answers the request on whichever path it carries.
func (r *request[Q, R]) reply(res result[R]) {
	if r.done != nil {
		r.done.Deliver(res.v, res.err)
		return
	}
	r.out <- res
}

type result[R any] struct {
	v   R
	err error
}

// coalescer merges concurrently-arriving requests into batches:
//
//   - Admission is a bounded queue. submit fails fast with ErrOverloaded
//     when the queue is full and ErrShuttingDown after close — the
//     backpressure contract a transport maps to 503s — and otherwise blocks
//     until its batch has been flushed.
//   - A pool of flusher workers pulls from the queue directly: each takes
//     the first waiting request, drains whatever else is already queued (up
//     to maxBatch), and flushes, so a request crosses one goroutine handoff
//     on the way in. Under light load flushers are parked on the queue and
//     take requests one at a time, in parallel; under heavy load every
//     flusher is busy, the queue backs up, and the next free flusher finds
//     a batch already waiting — coalescing intensifies exactly when
//     amortization pays.
//   - A positive window makes the flusher that took the first request
//     linger up to window for batch-mates before flushing (idle flushers
//     keep taking new arrivals meanwhile). It is opt-in: an idle Go runtime
//     sleeps in epoll_wait with millisecond resolution, so any window under
//     1 ms costs a quiet request a full millisecond.
//
// Each flusher owns private state (in particular its sampling RNG and
// result scratch) through the newFlush factory, so flushes need no locking
// of their own. Everything per-request on the steady-state path — the reply
// channel, the flusher's batch slice, its linger timer — is pooled or
// reused, so a coalesced round trip performs no heap allocation of its own.
type coalescer[Q, R any] struct {
	reqs     chan request[Q, R]
	window   time.Duration
	maxBatch int

	outPool sync.Pool // chan result[R], recycled across submits

	mu       sync.RWMutex // guards closed; held shared around every send
	closed   bool
	flushers sync.WaitGroup
}

// newCoalescer starts workers flusher goroutines, each flushing batches
// through its own closure from newFlush.
func newCoalescer[Q, R any](queueDepth, maxBatch, workers int, window time.Duration, newFlush func() func([]request[Q, R])) *coalescer[Q, R] {
	c := &coalescer[Q, R]{
		reqs:     make(chan request[Q, R], queueDepth),
		window:   window,
		maxBatch: maxBatch,
	}
	c.flushers.Add(workers)
	for i := 0; i < workers; i++ {
		go c.flushLoop(newFlush())
	}
	return c
}

func (c *coalescer[Q, R]) getOut() chan result[R] {
	if out, ok := c.outPool.Get().(chan result[R]); ok {
		return out
	}
	return make(chan result[R], 1)
}

// depth reports how many accepted requests are waiting in the queue
// right now — a channel length read, safe from any goroutine, which is
// what /metrics scrapes as the live queue depth.
func (c *coalescer[Q, R]) depth() int { return len(c.reqs) }

// capacity reports the queue bound (Config.QueueDepth).
func (c *coalescer[Q, R]) capacity() int { return cap(c.reqs) }

// submit enqueues q and blocks until its batch is flushed. Every accepted
// request is answered exactly once, including requests still queued when
// close begins (close drains before returning).
func (c *coalescer[Q, R]) submit(q Q) (R, error) {
	out := c.getOut()
	r := request[Q, R]{q: q, out: out}
	c.mu.RLock()
	if c.closed {
		c.mu.RUnlock()
		c.outPool.Put(out)
		var zero R
		return zero, ErrShuttingDown
	}
	select {
	case c.reqs <- r:
		c.mu.RUnlock()
	default:
		c.mu.RUnlock()
		c.outPool.Put(out)
		var zero R
		return zero, ErrOverloaded
	}
	res := <-out
	c.outPool.Put(out)
	return res.v, res.err
}

// submitAsync enqueues q without blocking for the flush. Admission follows
// the same contract as submit — a full queue answers ErrOverloaded, a
// closed coalescer ErrShuttingDown, both returned synchronously — and on a
// nil return, done.Deliver is invoked exactly once from a flusher
// goroutine (close still drains, so acceptance guarantees an answer).
func (c *coalescer[Q, R]) submitAsync(q Q, done Reply[R]) error {
	r := request[Q, R]{q: q, done: done}
	c.mu.RLock()
	if c.closed {
		c.mu.RUnlock()
		return ErrShuttingDown
	}
	select {
	case c.reqs <- r:
		c.mu.RUnlock()
		return nil
	default:
		c.mu.RUnlock()
		return ErrOverloaded
	}
}

// close stops admission, waits until every accepted request has been
// flushed, and stops the goroutines. Safe to call more than once.
func (c *coalescer[Q, R]) close() {
	c.mu.Lock()
	already := c.closed
	c.closed = true
	c.mu.Unlock()
	if !already {
		// No submit can be mid-send: sends happen under the read lock, and
		// every new submit now observes closed first.
		close(c.reqs)
	}
	c.flushers.Wait()
}

// flushLoop is one flusher: take a request, gather its batch-mates, flush,
// until the queue is closed and drained. The batch slice and the linger
// timer are the flusher's own and reused across batches (Go 1.23+ timer
// semantics make Reset safe without draining), so neither costs an
// allocation per batch.
func (c *coalescer[Q, R]) flushLoop(flush func([]request[Q, R])) {
	defer c.flushers.Done()
	var linger *time.Timer
	if c.window > 0 {
		linger = time.NewTimer(c.window)
		linger.Stop()
	}
	var batch []request[Q, R]
	for r := range c.reqs {
		batch = c.gather(append(batch, r), linger)
		flush(batch)
		// Drop the references to reply channels and payloads so the
		// retained backing array pins nothing between batches.
		clear(batch)
		batch = batch[:0]
	}
}

// gather appends to batch whatever else is queued, stopping at maxBatch
// requests. Without a linger timer it takes only what is already waiting;
// with one it waits up to window for more. A closed queue ends the batch
// early, and the caller's next receive sees the close.
func (c *coalescer[Q, R]) gather(batch []request[Q, R], linger *time.Timer) []request[Q, R] {
	if linger == nil {
		for len(batch) < c.maxBatch {
			select {
			case r, ok := <-c.reqs:
				if !ok {
					return batch
				}
				batch = append(batch, r)
			default:
				return batch
			}
		}
		return batch
	}
	linger.Reset(c.window)
	defer linger.Stop()
	for len(batch) < c.maxBatch {
		select {
		case r, ok := <-c.reqs:
			if !ok {
				return batch
			}
			batch = append(batch, r)
		case <-linger.C:
			return batch
		}
	}
	return batch
}
