package main

import (
	"context"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/irsgo/irs/client"
	"github.com/irsgo/irs/internal/persist"
	srv "github.com/irsgo/irs/internal/server"
	"github.com/irsgo/irs/internal/shard"
	"github.com/irsgo/irs/internal/xrand"
	"github.com/irsgo/irs/server"
)

// Layers a span can belong to. The client span is the root of a request;
// the backend span (server.Core or cluster.Router behind server.NewProxy)
// is its child; dataset, node-call and sync spans are the backend's
// children.
const (
	layerClient    = iota // irsnet client call, send to answer
	layerBackend          // server.Backend call, submit to delivery
	layerDataset          // Dataset call inside the core (shard engine)
	layerProbe            // router to node RangeStats
	layerSubsample        // router to node SampleAppend
	layerNodeWrite        // router to node mutation
	layerSync             // WAL File.Sync
)

// Span is one timed call into a layer. Reqs lists the requests it served
// (a coalesced dataset call serves several); Items counts the samples or
// keys it processed.
type Span struct {
	Layer      int
	Kind       opKind
	Reqs       []int32
	Start, End int64 // nanoseconds since the tracer's epoch
	Items      int
}

func (s Span) dur() int64 { return s.End - s.Start }

// Tracer keeps spans in memory. While it is off, the wrapped layers pass
// straight through and record nothing.
type Tracer struct {
	on    atomic.Bool
	epoch time.Time

	mu    sync.Mutex
	spans []Span
	ids   map[uint64]int32 // float bits of a request's lo, hi and write keys -> request
}

func NewTracer() *Tracer {
	return &Tracer{epoch: time.Now(), ids: map[uint64]int32{}}
}

func (t *Tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *Tracer) add(s Span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// register makes a request identifiable by the bounds or keys the layers
// below see: a node sees the request's lo or hi (the router clips the
// other to the partition boundary), a dataset sees every written key.
func (t *Tracer) register(id int, o op) {
	t.mu.Lock()
	if o.kind == opSample {
		t.ids[math.Float64bits(o.lo)] = int32(id)
		t.ids[math.Float64bits(o.hi)] = int32(id)
	}
	for _, k := range o.keys {
		t.ids[math.Float64bits(k)] = int32(id)
	}
	t.mu.Unlock()
}

// lookup returns the requests any of keys identifies, without repeats.
func (t *Tracer) lookup(keys ...float64) []int32 {
	var ids []int32
	t.mu.Lock()
	for _, k := range keys {
		if id, ok := t.ids[math.Float64bits(k)]; ok && !slices.Contains(ids, id) {
			ids = append(ids, id)
		}
	}
	t.mu.Unlock()
	return ids
}

// Spans returns the recorded spans.
func (t *Tracer) Spans() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return slices.Clone(t.spans)
}

// covered returns how much of [s, e) the intervals cover, counting
// overlapping intervals once.
func covered(s, e int64, ivs [][2]int64) int64 {
	var clipped [][2]int64
	for _, iv := range ivs {
		a, b := max(iv[0], s), min(iv[1], e)
		if a < b {
			clipped = append(clipped, [2]int64{a, b})
		}
	}
	slices.SortFunc(clipped, func(x, y [2]int64) int { return int(x[0] - y[0]) })
	var total int64
	curA, curB := int64(0), int64(-1)
	for _, iv := range clipped {
		if iv[0] > curB {
			if curB > curA {
				total += curB - curA
			}
			curA, curB = iv[0], iv[1]
		} else if iv[1] > curB {
			curB = iv[1]
		}
	}
	if curB > curA {
		total += curB - curA
	}
	return total
}

// selfTime is a span's duration minus the part its children cover.
func selfTime(parent Span, children []Span) int64 {
	ivs := make([][2]int64, len(children))
	for i, c := range children {
		ivs[i] = [2]int64{c.Start, c.End}
	}
	return parent.dur() - covered(parent.Start, parent.End, ivs)
}

// tracedDataset wraps the Dataset a Core serves.
type tracedDataset struct {
	srv.Dataset[float64]
	tr *Tracer
}

func (d *tracedDataset) SampleManyAppend(dst []float64, starts []int, qs []shard.Query[float64], rng *xrand.RNG) ([]float64, []int, error) {
	if !d.tr.on.Load() {
		return d.Dataset.SampleManyAppend(dst, starts, qs, rng)
	}
	n := len(dst)
	s := d.tr.now()
	dst, starts, err := d.Dataset.SampleManyAppend(dst, starts, qs, rng)
	e := d.tr.now()
	var ids []int32
	for _, q := range qs {
		ids = append(ids, d.tr.lookup(q.Lo)...)
	}
	d.tr.add(Span{Layer: layerDataset, Kind: opSample, Reqs: ids, Start: s, End: e, Items: len(dst) - n})
	return dst, starts, err
}

func (d *tracedDataset) InsertItems(items []srv.Item[float64]) error {
	if !d.tr.on.Load() {
		return d.Dataset.InsertItems(items)
	}
	s := d.tr.now()
	err := d.Dataset.InsertItems(items)
	e := d.tr.now()
	keys := make([]float64, len(items))
	for i, it := range items {
		keys[i] = it.Key
	}
	d.tr.add(Span{Layer: layerDataset, Kind: opInsert, Reqs: d.tr.lookup(keys...), Start: s, End: e, Items: len(items)})
	return err
}

func (d *tracedDataset) DeleteKeys(keys []float64) int {
	if !d.tr.on.Load() {
		return d.Dataset.DeleteKeys(keys)
	}
	s := d.tr.now()
	n := d.Dataset.DeleteKeys(keys)
	e := d.tr.now()
	d.tr.add(Span{Layer: layerDataset, Kind: opDelete, Reqs: d.tr.lookup(keys...), Start: s, End: e, Items: len(keys)})
	return n
}

// tracedBackend wraps the server.Backend a proxy Server fronts.
type tracedBackend struct {
	server.Backend
	tr *Tracer
}

// tracedReply closes a backend span when the core delivers the answer.
type tracedReply[R any] struct {
	tr    *Tracer
	span  Span
	inner srv.Reply[R]
}

func (r *tracedReply[R]) Deliver(v R, err error) {
	r.span.End = r.tr.now()
	r.tr.add(r.span)
	r.inner.Deliver(v, err)
}

func (b *tracedBackend) SampleAppendAsync(ds string, dst []float64, lo, hi float64, t int, done server.SampleReply) error {
	if !b.tr.on.Load() {
		return b.Backend.SampleAppendAsync(ds, dst, lo, hi, t, done)
	}
	r := &tracedReply[[]float64]{tr: b.tr, inner: done,
		span: Span{Layer: layerBackend, Kind: opSample, Reqs: b.tr.lookup(lo), Start: b.tr.now(), Items: t}}
	return b.Backend.SampleAppendAsync(ds, dst, lo, hi, t, r)
}

func (b *tracedBackend) InsertAsync(ds string, items []server.Item, done server.InsertReply) error {
	if !b.tr.on.Load() || len(items) == 0 {
		return b.Backend.InsertAsync(ds, items, done)
	}
	r := &tracedReply[int]{tr: b.tr, inner: done,
		span: Span{Layer: layerBackend, Kind: opInsert, Reqs: b.tr.lookup(items[0].Key), Start: b.tr.now(), Items: len(items)}}
	return b.Backend.InsertAsync(ds, items, r)
}

func (b *tracedBackend) Delete(ds string, keys []float64) (int, error) {
	if !b.tr.on.Load() || len(keys) == 0 {
		return b.Backend.Delete(ds, keys)
	}
	s := b.tr.now()
	n, err := b.Backend.Delete(ds, keys)
	b.tr.add(Span{Layer: layerBackend, Kind: opDelete, Reqs: b.tr.lookup(keys[0]), Start: s, End: b.tr.now(), Items: len(keys)})
	return n, err
}

func (b *tracedBackend) Update(ds string, items []server.Item) (int, error) {
	if !b.tr.on.Load() || len(items) == 0 {
		return b.Backend.Update(ds, items)
	}
	s := b.tr.now()
	n, err := b.Backend.Update(ds, items)
	b.tr.add(Span{Layer: layerBackend, Kind: opUpdate, Reqs: b.tr.lookup(items[0].Key), Start: s, End: b.tr.now(), Items: len(items)})
	return n, err
}

// tracedConn wraps the router's connection to one node.
type tracedConn struct {
	client.Conn
	tr *Tracer
}

func (c *tracedConn) RangeStats(ctx context.Context, ds string, lo, hi float64) (int, float64, error) {
	if !c.tr.on.Load() {
		return c.Conn.RangeStats(ctx, ds, lo, hi)
	}
	s := c.tr.now()
	n, m, err := c.Conn.RangeStats(ctx, ds, lo, hi)
	c.tr.add(Span{Layer: layerProbe, Kind: opSample, Reqs: c.tr.lookup(lo, hi), Start: s, End: c.tr.now()})
	return n, m, err
}

func (c *tracedConn) SampleAppend(ctx context.Context, ds string, dst []float64, lo, hi float64, t int) ([]float64, error) {
	if !c.tr.on.Load() {
		return c.Conn.SampleAppend(ctx, ds, dst, lo, hi, t)
	}
	s := c.tr.now()
	out, err := c.Conn.SampleAppend(ctx, ds, dst, lo, hi, t)
	c.tr.add(Span{Layer: layerSubsample, Kind: opSample, Reqs: c.tr.lookup(lo, hi), Start: s, End: c.tr.now(), Items: t})
	return out, err
}

func (c *tracedConn) Update(ctx context.Context, ds string, items []client.Item) (int, error) {
	if !c.tr.on.Load() || len(items) == 0 {
		return c.Conn.Update(ctx, ds, items)
	}
	s := c.tr.now()
	n, err := c.Conn.Update(ctx, ds, items)
	c.tr.add(Span{Layer: layerNodeWrite, Kind: opUpdate, Reqs: c.tr.lookup(items[0].Key), Start: s, End: c.tr.now(), Items: len(items)})
	return n, err
}

// tracedFile wraps a WAL segment file to time its fsyncs.
type tracedFile struct {
	persist.File
	tr *Tracer
}

func (f *tracedFile) Sync() error {
	if !f.tr.on.Load() {
		return f.File.Sync()
	}
	s := f.tr.now()
	err := f.File.Sync()
	f.tr.add(Span{Layer: layerSync, Start: s, End: f.tr.now()})
	return err
}
