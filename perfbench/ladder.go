package main

import (
	"context"
	"fmt"
	"math"
	"net"
	"os"
	"runtime"
	"strings"
	"time"

	"github.com/irsgo/irs/client"
	"github.com/irsgo/irs/internal/cluster"
	"github.com/irsgo/irs/internal/core"
	"github.com/irsgo/irs/internal/persist"
	srv "github.com/irsgo/irs/internal/server"
	"github.com/irsgo/irs/internal/shard"
	"github.com/irsgo/irs/internal/weighted"
	"github.com/irsgo/irs/internal/xrand"
	"github.com/irsgo/irs/server"
	"github.com/irsgo/irs/server/irsnet"
)

// irsdCoalesceWindow is irsd's default -coalesce-window; the in-process
// core runs with the daemon's defaults.
const irsdCoalesceWindow = 100 * time.Microsecond

// PerLayer is the --trace 1 run. It drives the live deployment for a
// shorter open-loop phase (live counters at its boundaries, generator lag,
// the correctness gate), then replays the same op stream through the same
// layers assembled in this process — once untraced and once traced — and
// runs the engine rungs directly. Layers a workload does not exercise
// report 0.
func PerLayer(in *Inputs, bin, work string, dur time.Duration, rec *Record) (map[string]Metric, error) {
	w := in.W
	quarter := dur / 4
	live, err := runLive(in, bin, work, 1, quarter, 0, rec, w.Cluster)
	if err != nil {
		return nil, err
	}
	if live.Deployment != nil {
		defer live.Deployment.Close()
	}
	m := map[string]Metric{}
	put := func(name, unit string, v float64) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		m[name] = Metric{v, unit}
	}
	for k, v := range rec.Live {
		put(k, v.Unit, v.Value)
	}
	put("gen.lag_p99_us", "us", rec.LagP99.Value)
	put("persist.recovery_s", "s", rec.RecoveryS)
	for k, v := range engineRungs(in, int(w.Rate*quarter.Seconds())) {
		put(k, v.Unit, v.Value)
	}

	tr := NewTracer()
	var stack *Stack
	if w.Cluster {
		stack, err = RouterStack(in, live.Deployment, tr)
	} else {
		stack, err = NodeStack(in, work, tr)
	}
	if err != nil {
		return nil, err
	}
	defer stack.Close()
	n := int(w.Rate * quarter.Seconds())
	untraced := OpenLoop(stack.Conn, in, 0, n, w.Rate, nil)
	tr.on.Store(true)
	traced := OpenLoop(stack.Conn, in, n, n, w.Rate, func(o *outcome) { tr.register(o.idx, o.op) })
	tr.on.Store(false)
	rec.notePhase("inprocess_untraced", untraced)
	rec.notePhase("inprocess_traced", traced)

	ledger := NewLedger(in)
	ledger.Note(live.Open)
	ledger.Note(untraced)
	ledger.Note(traced)
	gate := NewGate(in.Sorted, ledger.fresh)
	gate.CheckPhase(untraced)
	gate.CheckPhase(traced)
	rec.GateChecked += gate.checked
	if err := gate.Err(); err != nil {
		return m, fmt.Errorf("%w: in-process replay: %v", errGate, err)
	}

	for k, v := range Attribute(tr, traced, untraced, w.Cluster) {
		put(k, v.Unit, v.Value)
	}
	return m, nil
}

// rungPasses is how many times the engine rungs replay their ops. The
// fastest pass is reported, so a pass that met a GC cycle or a CPU taken
// by another tenant does not decide the figure.
const rungPasses = 3

// engineRungs replays the first n ops' sample queries (and updates)
// directly against the engine structures built from the same keys:
// core.Dynamic for unweighted workloads, weighted.Treap for weighted ones.
func engineRungs(in *Inputs, n int) map[string]Metric {
	m := map[string]Metric{
		"core.ns_per_sample":         {0, "ns"},
		"core.probes_per_sample":     {0, "count"},
		"core.bytes_per_key":         {0, "B"},
		"weighted.ns_per_sample":     {0, "ns"},
		"weighted.update_ns_per_key": {0, "ns"},
	}
	var samples, updates []op
	for i := range n {
		if o := in.Op(i); o.kind == opSample {
			samples = append(samples, o)
		} else if o.kind == opUpdate {
			updates = append(updates, o)
		}
	}
	fastest := func(pass func() time.Duration) time.Duration {
		var best time.Duration
		for p := range rungPasses {
			runtime.GC()
			if d := pass(); p == 0 || d < best {
				best = d
			}
		}
		return best
	}
	var drawn, probes int
	var dst []float64
	if !in.W.Weighted {
		d, err := core.NewDynamicFromSorted(in.Sorted)
		if err != nil {
			panic(err) // the generator yields sorted distinct keys
		}
		var pr []int
		ns := fastest(func() time.Duration {
			rng := xrand.New(in.Seed) // every pass draws the same samples
			drawn, probes = 0, 0
			start := time.Now()
			for _, o := range samples {
				dst, pr, _ = d.SampleProbesAppend(dst[:0], o.lo, o.hi, o.t, rng, pr[:0])
				drawn += len(dst)
				for _, p := range pr {
					probes += p
				}
			}
			return time.Since(start)
		})
		m["core.ns_per_sample"] = Metric{float64(ns) / float64(drawn), "ns"}
		m["core.probes_per_sample"] = Metric{float64(probes) / float64(drawn), "count"}
		m["core.bytes_per_key"] = Metric{float64(d.Footprint()) / float64(d.Len()), "B"}
		return m
	}
	items := make([]weighted.Item[float64], len(in.Preload))
	for i, k := range in.Preload {
		items[i] = weighted.Item[float64]{Key: k, Weight: in.Weights[i]}
	}
	tree, err := weighted.NewTreapFromItems(in.Seed, items)
	if err != nil {
		panic(err) // Pareto weights are positive and finite
	}
	ns := fastest(func() time.Duration {
		rng := xrand.New(in.Seed)
		drawn = 0
		start := time.Now()
		for _, o := range samples {
			dst, _ = tree.SampleAppend(dst[:0], o.lo, o.hi, o.t, rng)
			drawn += len(dst)
		}
		return time.Since(start)
	})
	m["weighted.ns_per_sample"] = Metric{float64(ns) / float64(drawn), "ns"}
	if len(updates) > 0 {
		ns = fastest(func() time.Duration {
			start := time.Now()
			for _, o := range updates {
				for k, key := range o.keys {
					tree.UpdateWeight(key, o.weights[k])
				}
			}
			return time.Since(start)
		})
		m["weighted.update_ns_per_key"] = Metric{float64(ns) / float64(len(updates)*writeKeys), "ns"}
	}
	return m
}

// Stack is an in-process serving stack reached over irsnet TCP.
type Stack struct {
	Conn  client.Conn
	close []func()
}

func (s *Stack) Close() {
	for i := len(s.close) - 1; i >= 0; i-- {
		s.close[i]()
	}
}

// serve fronts backend with server.NewProxy and irsnet on a loopback port.
func (s *Stack) serve(backend server.Backend) error {
	proxy := server.NewProxy(backend)
	ts := irsnet.NewServer(proxy)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	done := make(chan struct{})
	go func() {
		ts.Serve(ln)
		close(done)
	}()
	s.close = append(s.close, func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		ts.Shutdown(ctx)
		<-done
		proxy.Close()
	})
	s.Conn = irsnet.NewClient(ln.Addr().String(), irsnet.Options{Conns: 2})
	s.close = append(s.close, func() { s.Conn.Close() })
	return nil
}

// NodeStack assembles what irsd serves: a shard engine preloaded the way
// the daemon is (insert batches in insertion order), wrapped as a traced
// Dataset in a server.Core with irsd's defaults (durable, fsync always,
// for durable workloads, with every WAL fsync traced), behind a traced
// Backend, server.NewProxy and irsnet.
func NodeStack(in *Inputs, work string, tr *Tracer) (*Stack, error) {
	c := shard.NewSeeded[float64](runtime.GOMAXPROCS(0), 1)
	for lo := 0; lo < len(in.Preload); lo += preloadBatch {
		c.InsertBatch(in.Preload[lo:min(lo+preloadBatch, len(in.Preload))])
	}
	ds := &tracedDataset{Dataset: srv.NewUnweightedDataset(c), tr: tr}
	co := srv.NewCore[float64](srv.Config{CoalesceWindow: irsdCoalesceWindow})
	if in.W.Durable {
		dir, err := freshDataDir(work, "inprocess-data")
		if err != nil {
			return nil, err
		}
		store, st, err := persist.OpenStream(dir, persist.Float64Keys(), persist.Options{
			Kind: persist.KindUnweighted,
			Sync: persist.SyncAlways,
			OpenFile: func(path string) (persist.File, error) {
				f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
				if err != nil {
					return nil, err
				}
				return &tracedFile{File: f, tr: tr}, nil
			},
		}, persist.RecoverySink[float64]{})
		if err != nil {
			return nil, err
		}
		if err := co.AddDurable(dataset, ds, store, st); err != nil {
			return nil, err
		}
	} else if err := co.Add(dataset, ds); err != nil {
		return nil, err
	}
	s := &Stack{}
	return s, s.serve(&tracedBackend{Backend: co, tr: tr})
}

// RouterStack assembles what irsrouter serves: cluster.NewRouter over
// traced binary-HTTP connections to the live partition nodes, behind a
// traced Backend, server.NewProxy and irsnet.
func RouterStack(in *Inputs, d *Deployment, tr *Tracer) (*Stack, error) {
	var parts []cluster.Partition
	var conns []client.Conn
	bounds := [][2]float64{{0, splitAt}, {splitAt, math.Inf(1)}}
	for i, p := range d.nodes {
		addr := strings.TrimPrefix(p.http, "http://")
		c, err := client.Dial(addr, client.EncodingBinary)
		if err != nil {
			return nil, err
		}
		conns = append(conns, &tracedConn{Conn: c, tr: tr})
		parts = append(parts, cluster.Partition{Addr: addr, Lo: bounds[i][0], Hi: bounds[i][1]})
	}
	cm, err := cluster.New(parts)
	if err != nil {
		return nil, err
	}
	r, err := cluster.NewRouter(cm, conns, cluster.Options{Datasets: []string{dataset}, Seed: 1, Timeout: 10 * time.Second})
	if err != nil {
		return nil, err
	}
	s := &Stack{}
	return s, s.serve(&tracedBackend{Backend: r, tr: tr})
}

// Attribute turns the traced replay's spans into per-layer metrics.
func Attribute(tr *Tracer, traced, untraced *Phase, isCluster bool) map[string]Metric {
	spans := tr.Spans()
	byReq := map[int32][]Span{}
	for _, s := range spans {
		for _, id := range s.Reqs {
			byReq[id] = append(byReq[id], s)
		}
	}
	// Client spans come from the generator's own record of each request.
	base := int64(traced.Start.Sub(tr.epoch))
	var (
		irsnetSelf, backendRT, backendSelf, insertRT []float64
		probe, subsample, unattributed, e2e          []float64
		shardReq, fsync                              []float64
		sampleNs, insertNs, deleteNs                 float64
		samples, inserted, deleted                   int
		datasetSampleCalls, backendSamples           int
		nodeCalls, routed                            int
	)
	us := func(ns int64) float64 { return float64(ns) / 1e3 }
	for _, o := range traced.Outs {
		if o.unsendable || o.err != nil {
			continue
		}
		root := Span{Layer: layerClient, Start: base + int64(o.sent), End: base + int64(o.end)}
		var backend []Span
		var below []Span
		for _, s := range byReq[int32(o.idx)] {
			if s.Layer == layerBackend {
				backend = append(backend, s)
			} else {
				below = append(below, s)
			}
		}
		routed++
		for _, s := range below {
			if s.Layer == layerProbe || s.Layer == layerSubsample || s.Layer == layerNodeWrite {
				nodeCalls++
			}
		}
		if len(backend) != 1 {
			continue
		}
		b := backend[0]
		if o.op.kind == opInsert {
			insertRT = append(insertRT, us(b.dur()))
		}
		if o.op.kind != opSample {
			continue
		}
		backendSamples++
		irsnetSelf = append(irsnetSelf, us(selfTime(root, backend)))
		backendRT = append(backendRT, us(b.dur()))
		backendSelf = append(backendSelf, us(selfTime(b, below)))
		var pr, sub [][2]int64
		for _, s := range below {
			switch s.Layer {
			case layerProbe:
				pr = append(pr, [2]int64{s.Start, s.End})
			case layerSubsample:
				sub = append(sub, [2]int64{s.Start, s.End})
			}
		}
		if len(pr) > 0 {
			probe = append(probe, us(covered(b.Start, b.End, pr)))
		}
		if len(sub) > 0 {
			subsample = append(subsample, us(covered(b.Start, b.End, sub)))
		}
		// Every layer's self time together covers the union of the
		// request's spans; the rest of the time from the due time to the
		// answer (generator lag, client queueing) is unattributed.
		due := base + int64(o.due)
		all := [][2]int64{{root.Start, root.End}, {b.Start, b.End}}
		for _, s := range below {
			all = append(all, [2]int64{s.Start, s.End})
		}
		total := root.End - due
		e2e = append(e2e, us(total))
		unattributed = append(unattributed, us(total-covered(due, root.End, all)))
	}
	for _, s := range spans {
		switch {
		case s.Layer == layerDataset && s.Kind == opSample:
			datasetSampleCalls++
			shardReq = append(shardReq, us(s.dur()))
			sampleNs += float64(s.dur())
			samples += s.Items
		case s.Layer == layerDataset && s.Kind == opInsert:
			insertNs += float64(s.dur())
			inserted += s.Items
		case s.Layer == layerDataset && s.Kind == opDelete:
			deleteNs += float64(s.dur())
			deleted += s.Items
		case s.Layer == layerSync:
			fsync = append(fsync, us(s.dur()))
		}
	}
	ratio := func(a float64, b int) float64 {
		if b == 0 {
			return 0
		}
		return a / float64(b)
	}
	med := func(xs []float64) float64 {
		if len(xs) == 0 {
			return 0
		}
		return Median(xs)
	}
	tracedP50 := Median(latencies(traced, opSample))
	untracedP50 := Median(latencies(untraced, opSample))
	m := map[string]Metric{
		"shard.request_us":               {med(shardReq), "us"},
		"shard.ns_per_sample":            {ratio(sampleNs, samples), "ns"},
		"shard.insert_ns_per_key":        {ratio(insertNs, inserted), "ns"},
		"shard.delete_ns_per_key":        {ratio(deleteNs, deleted), "ns"},
		"server.roundtrip_us":            {0, "us"},
		"server.self_us":                 {0, "us"},
		"server.insert_roundtrip_us":     {med(insertRT), "us"},
		"server.coalesce_ratio":          {ratio(float64(backendSamples), datasetSampleCalls), "ratio"},
		"persist.fsync_us":               {med(fsync), "us"},
		"irsnet.self_us":                 {med(irsnetSelf), "us"},
		"cluster.roundtrip_us":           {0, "us"},
		"cluster.self_us":                {0, "us"},
		"cluster.probe_us":               {med(probe), "us"},
		"cluster.subsample_us":           {med(subsample), "us"},
		"cluster.node_calls_per_request": {ratio(float64(nodeCalls), routed), "count"},
		"trace.overhead_frac":            {(tracedP50 - untracedP50) / untracedP50, "ratio"},
		"trace.unattributed_frac":        {med(unattributed) / med(e2e), "ratio"},
	}
	layer := "server"
	if isCluster {
		layer = "cluster"
	}
	m[layer+".roundtrip_us"] = Metric{med(backendRT), "us"}
	m[layer+".self_us"] = Metric{med(backendSelf), "us"}
	return m
}
