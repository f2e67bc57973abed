package main

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"github.com/irsgo/irs/client"
	"github.com/irsgo/irs/server"
)

// dataset is the name every deployment serves.
const dataset = "bench"

// maxLag is how late the generator may send an arrival; one it cannot
// send by then counts as failed (unsendable), and the run is invalid.
const maxLag = time.Second

// openWorkers bounds the open-loop generator's concurrent senders. It is
// far above the in-flight count any workload reaches at its fixed rate.
const openWorkers = 256

// outcome is one request's record. Times are offsets from the phase start.
type outcome struct {
	idx            int
	op             op
	due, sent, end time.Duration
	err            error
	n              int // keys stored/removed/updated
	samples        []float64
	unsendable     bool
}

func (o *outcome) latency() time.Duration { return o.end - o.due }

// refused reports an admission-control rejection.
func refused(err error) bool {
	return errors.Is(err, server.ErrOverloaded) || errors.Is(err, server.ErrShuttingDown)
}

// sendHook runs just before a request is sent; the tracer registers the
// request's identity there.
type sendHook func(o *outcome)

// execOp sends o.op over c and fills in the result fields.
func execOp(c client.Conn, o *outcome) {
	ctx := context.Background()
	switch o.op.kind {
	case opSample:
		o.samples, o.err = c.SampleAppend(ctx, dataset, make([]float64, 0, o.op.t), o.op.lo, o.op.hi, o.op.t)
	case opInsert:
		o.n, o.err = c.InsertKeys(ctx, dataset, o.op.keys)
	case opDelete:
		o.n, o.err = c.Delete(ctx, dataset, o.op.keys)
	case opUpdate:
		items := make([]client.Item, len(o.op.keys))
		for k, key := range o.op.keys {
			items[k] = client.Item{Key: key, Weight: o.op.weights[k]}
		}
		o.n, o.err = c.Update(ctx, dataset, items)
	}
}

// Phase is the record of one load phase.
type Phase struct {
	Start time.Time
	Outs  []*outcome
	// Completed counts requests answered (successfully or not) before
	// the phase deadline; the closed loop's throughput is Completed/Dur.
	Completed int
	Dur       time.Duration
}

// OpenLoop sends ops [first, first+n) of in at a fixed rate: op first+k is
// due at start + k/rate and is timed from that due time, so a stall
// charges every request it delays. Requests go out over c from a pool of
// senders; an arrival not sent within maxLag of its due time is not sent
// and counts as failed.
func OpenLoop(c client.Conn, in *Inputs, first, n int, rate float64, hook sendHook) *Phase {
	outs := make([]*outcome, n)
	for k := range outs {
		outs[k] = &outcome{idx: first + k, op: in.Op(first + k), due: time.Duration(float64(k) / rate * float64(time.Second))}
	}
	ch := make(chan *outcome, n)
	var wg sync.WaitGroup
	start := time.Now().Add(2 * time.Millisecond)
	for range min(openWorkers, n) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for o := range ch {
				o.sent = time.Since(start)
				if o.sent-o.due > maxLag {
					o.unsendable = true
					o.end = o.sent
					continue
				}
				if hook != nil {
					hook(o)
				}
				execOp(c, o)
				o.end = time.Since(start)
			}
		}()
	}
	for _, o := range outs {
		if d := time.Until(start.Add(o.due)); d > 0 {
			time.Sleep(d)
		}
		ch <- o
	}
	close(ch)
	wg.Wait()
	return &Phase{Start: start, Outs: outs, Completed: n, Dur: outs[n-1].due}
}

// ClosedLoop keeps window requests in flight on each connection for dur,
// drawing ops from the stream starting at first.
func ClosedLoop(conns []client.Conn, in *Inputs, first, window int, dur time.Duration) *Phase {
	var cursor atomic.Int64
	cursor.Store(int64(first))
	var mu sync.Mutex
	var outs []*outcome
	var completed atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for _, c := range conns {
		for range window {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var mine []*outcome
				for {
					now := time.Since(start)
					if now >= dur {
						break
					}
					i := int(cursor.Add(1) - 1)
					o := &outcome{idx: i, op: in.Op(i), due: now, sent: now}
					execOp(c, o)
					o.end = time.Since(start)
					if o.end <= dur {
						completed.Add(1)
					}
					mine = append(mine, o)
				}
				mu.Lock()
				outs = append(outs, mine...)
				mu.Unlock()
			}()
		}
	}
	wg.Wait()
	return &Phase{Start: start, Outs: outs, Completed: int(completed.Load()), Dur: dur}
}

// OpCounts tallies requests per op type.
type OpCounts struct {
	Attempted  int `json:"attempted"`
	Failed     int `json:"failed"`
	Refused    int `json:"refused"`
	Unsendable int `json:"unsendable"`
}

func (c *OpCounts) add(o *outcome) {
	c.Attempted++
	switch {
	case o.unsendable:
		c.Unsendable++
	case o.err != nil && refused(o.err):
		c.Refused++
	case o.err != nil:
		c.Failed++
	}
}

// tally adds phase outcomes into per-op counts.
func tally(counts map[string]*OpCounts, ph *Phase) {
	for _, o := range ph.Outs {
		k := o.op.kind.String()
		if counts[k] == nil {
			counts[k] = &OpCounts{}
		}
		counts[k].add(o)
	}
}

// succeeded counts the requests of a phase that were answered without error.
func succeeded(ph *Phase) int {
	n := 0
	for _, o := range ph.Outs {
		if o.err == nil && !o.unsendable {
			n++
		}
	}
	return n
}

// latencies returns the microsecond latencies of the successful requests
// of the given kinds.
func latencies(ph *Phase, kinds ...opKind) []float64 {
	var xs []float64
	for _, o := range ph.Outs {
		if o.err != nil || o.unsendable {
			continue
		}
		for _, k := range kinds {
			if o.op.kind == k {
				xs = append(xs, micros(o.latency()))
			}
		}
	}
	return xs
}

// lags returns how late, in microseconds, each arrival was sent.
func lags(ph *Phase) []float64 {
	xs := make([]float64, len(ph.Outs))
	for i, o := range ph.Outs {
		xs[i] = micros(max(0, o.sent-o.due))
	}
	return xs
}
