package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/irsgo/irs/client"
	"github.com/irsgo/irs/internal/stats"
	"github.com/irsgo/irs/server"
	"github.com/irsgo/irs/server/irsnet"
)

// preloadBatch is the number of keys one preload insert carries.
const preloadBatch = 1 << 16

// Deployment is the set of daemons one workload runs against, started
// with their shipped defaults apart from listen addresses, the dataset
// list, the partition map and the data directory.
type Deployment struct {
	nodes  []*proc // irsd
	router *proc   // irsrouter, cluster workloads only
	args   [][]string
	bin    string
	work   string
	front  client.Conn
}

// Deploy starts the daemons of workload w. dataDir is used by durable
// workloads and must be empty or absent.
func Deploy(w *Workload, bin, work, dataDir string) (*Deployment, error) {
	d := &Deployment{bin: bin, work: work}
	spec := dataset
	if w.Weighted {
		spec += ":weighted"
	}
	nodeArgs := []string{"-addr", "127.0.0.1:0", "-tcp-addr", "127.0.0.1:0", "-datasets", spec}
	nodes := 1
	if w.Cluster {
		nodes = 2
	}
	for i := range nodes {
		args := slices.Clone(nodeArgs)
		if w.Durable {
			args = append(args, "-data-dir", dataDir)
		}
		p, err := startProc(work, fmt.Sprintf("irsd-%d", i), filepath.Join(bin, "irsd"), args...)
		if err != nil {
			d.Close()
			return nil, err
		}
		d.nodes = append(d.nodes, p)
		d.args = append(d.args, args)
	}
	front := d.nodes[0]
	if w.Cluster {
		host := func(p *proc) string { return strings.TrimPrefix(p.http, "http://") }
		parts := fmt.Sprintf("%s@0:%g,%s@%g:+inf", host(d.nodes[0]), splitAt, host(d.nodes[1]), splitAt)
		p, err := startProc(work, "irsrouter", filepath.Join(bin, "irsrouter"),
			"-addr", "127.0.0.1:0", "-tcp-addr", "127.0.0.1:0", "-partitions", parts, "-datasets", spec)
		if err != nil {
			d.Close()
			return nil, err
		}
		d.router = p
		front = p
	}
	d.front = irsnet.NewClient(front.tcp, irsnet.Options{Conns: 2})
	return d, nil
}

// Front returns the process clients talk to.
func (d *Deployment) Front() *proc {
	if d.router != nil {
		return d.router
	}
	return d.nodes[0]
}

// Daemons lists every running process of the deployment.
func (d *Deployment) Daemons() []*proc {
	ps := slices.Clone(d.nodes)
	if d.router != nil {
		ps = append(ps, d.router)
	}
	return ps
}

// Close kills every daemon and waits for each to exit.
func (d *Deployment) Close() {
	if d.front != nil {
		d.front.Close()
	}
	if d.router != nil {
		d.router.kill()
		d.router = nil
	}
	for _, p := range d.nodes {
		p.kill()
	}
	d.nodes = nil
}

// Preload sends the generated keys (with their weights) in insertion
// order, then waits for the first sample to be answered.
func (d *Deployment) Preload(in *Inputs) error {
	ctx := context.Background()
	for lo := 0; lo < len(in.Preload); lo += preloadBatch {
		hi := min(lo+preloadBatch, len(in.Preload))
		var n int
		var err error
		if in.W.Weighted {
			items := make([]client.Item, hi-lo)
			for i := range items {
				items[i] = client.Item{Key: in.Preload[lo+i], Weight: in.Weights[lo+i]}
			}
			n, err = d.front.InsertItems(ctx, dataset, items)
		} else {
			n, err = d.front.InsertKeys(ctx, dataset, in.Preload[lo:hi])
		}
		if err != nil {
			return fmt.Errorf("preload: %w", err)
		}
		if n != hi-lo {
			return fmt.Errorf("preload: stored %d of %d keys", n, hi-lo)
		}
	}
	if _, err := d.front.Sample(ctx, dataset, 0, KeySpace, 1); err != nil {
		return fmt.Errorf("first sample: %w", err)
	}
	return nil
}

// RSSMiB sums the daemons' peak resident set sizes.
func (d *Deployment) RSSMiB() (float64, error) {
	total := 0.0
	for _, p := range d.Daemons() {
		v, err := p.vmHWMMiB()
		if err != nil {
			return 0, err
		}
		total += v
	}
	return total, nil
}

// CPUSeconds sums the daemons' user and system CPU time.
func (d *Deployment) CPUSeconds() (float64, error) {
	total := 0.0
	for _, p := range d.Daemons() {
		v, err := p.cpuSeconds()
		if err != nil {
			return 0, err
		}
		total += v
	}
	return total, nil
}

// cpuMark is the daemons' CPU seconds at one instant, with the host's
// steal and total CPU time counters (from /proc/stat) at the same instant.
type cpuMark struct {
	at           time.Time
	cpu          float64
	steal, ticks float64
}

// SampleCPU reads the daemons' CPU seconds every interval until the
// returned function is called, which stops the sampler and returns the
// readings. A reading that fails is skipped.
func (d *Deployment) SampleCPU(interval time.Duration) (stop func() []cpuMark) {
	var marks []cpuMark
	mark := func() {
		if c, err := d.CPUSeconds(); err == nil {
			steal, ticks := hostTicks()
			marks = append(marks, cpuMark{time.Now(), c, steal, ticks})
		}
	}
	done := make(chan struct{})
	finished := make(chan struct{})
	mark()
	go func() {
		defer close(finished)
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				mark()
			case <-done:
				mark()
				return
			}
		}
	}()
	return func() []cpuMark {
		close(done)
		<-finished
		return marks
	}
}

// Restart kills node 0 with SIGKILL, restarts it on the same arguments
// (the same data directory) and returns the time until it answers
// /readyz and the dataset's recovered key count.
func (d *Deployment) Restart() (time.Duration, int, error) {
	d.front.Close()
	d.nodes[0].kill()
	start := time.Now()
	p, err := startProc(d.work, "irsd-0", filepath.Join(d.bin, "irsd"), d.args[0]...)
	if err != nil {
		return 0, 0, err
	}
	d.nodes[0] = p
	if err := waitReady(p.http, 60*time.Second); err != nil {
		return 0, 0, err
	}
	took := time.Since(start)
	d.front = irsnet.NewClient(p.tcp, irsnet.Options{Conns: 2})
	resp, err := httpc.Get(p.http + "/stats")
	if err != nil {
		return took, 0, err
	}
	defer resp.Body.Close()
	var st server.Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return took, 0, err
	}
	for _, ds := range st.Datasets {
		if ds.Name == dataset {
			return took, ds.Len, nil
		}
	}
	return took, 0, fmt.Errorf("restarted irsd does not serve %q", dataset)
}

// Ledger accounts for every acknowledged write, so the key set the
// deployment should hold is known exactly.
type Ledger struct {
	in       *Inputs
	Inserted int // keys acknowledged as stored
	Removed  int // keys acknowledged as removed
	// MaybeInserted and MaybeRemoved count the keys of failed inserts and
	// deletes: the deployment may or may not have applied them.
	MaybeInserted int
	MaybeRemoved  int
	fresh         []float64
	gone          map[float64]bool    // keys of fully acknowledged deletes
	weights       map[float64]float64 // latest acknowledged weight per updated key
	ambiguous     map[float64]bool    // keys of failed or partial writes
}

func NewLedger(in *Inputs) *Ledger {
	return &Ledger{in: in, gone: map[float64]bool{}, weights: map[float64]float64{}, ambiguous: map[float64]bool{}}
}

// Note records the writes of a phase. Every dispatched insert's keys join
// the generated key set, whatever its outcome.
func (l *Ledger) Note(ph *Phase) {
	for _, o := range ph.Outs {
		if o.op.kind == opSample || o.unsendable {
			continue
		}
		if o.op.kind == opInsert {
			l.fresh = append(l.fresh, o.op.keys...)
		}
		full := o.err == nil && o.n == len(o.op.keys)
		switch {
		case o.err == nil && o.op.kind == opInsert:
			l.Inserted += o.n
		case o.err == nil && o.op.kind == opDelete:
			l.Removed += o.n
		case o.op.kind == opInsert:
			l.MaybeInserted += len(o.op.keys)
		case o.op.kind == opDelete:
			l.MaybeRemoved += len(o.op.keys)
		}
		for k, key := range o.op.keys {
			switch {
			case !full:
				l.ambiguous[key] = true
			case o.op.kind == opDelete:
				l.gone[key] = true
			case o.op.kind == opUpdate:
				l.weights[key] = o.op.weights[k]
			}
		}
	}
}

// CheckCount checks a recovered key count against preload + acknowledged
// inserts - acknowledged deletes. Failed writes widen the expected count to
// the range of outcomes they allow; with none it is exact.
func (l *Ledger) CheckCount(n int) error {
	want := len(l.in.Preload) + l.Inserted - l.Removed
	if n < want-l.MaybeRemoved || n > want+l.MaybeInserted {
		return fmt.Errorf("restart recovered %d keys, want %d (preload %d + inserted %d - removed %d; failed writes allow -%d/+%d)",
			n, want, len(l.in.Preload), l.Inserted, l.Removed, l.MaybeRemoved, l.MaybeInserted)
	}
	return nil
}

// Members returns the keys (sorted) and weights the deployment holds in
// [lo, hi], and whether any key of the range is ambiguous.
func (l *Ledger) Members(lo, hi float64) (keys, weights []float64, ambiguous bool) {
	in := l.in
	a := sort.SearchFloat64s(in.Sorted, lo)
	b := sort.Search(len(in.Sorted), func(i int) bool { return in.Sorted[i] > hi })
	keys = slices.Clone(in.Sorted[a:b])
	for _, k := range l.fresh {
		if k >= lo && k <= hi {
			keys = append(keys, k)
		}
	}
	keys = slices.DeleteFunc(keys, func(k float64) bool {
		ambiguous = ambiguous || l.ambiguous[k]
		return l.gone[k]
	})
	slices.Sort(keys)
	if in.W.Weighted {
		w := map[float64]float64{}
		for i, k := range in.Preload {
			if k >= lo && k <= hi {
				w[k] = in.Weights[i]
			}
		}
		for k, v := range l.weights {
			if k >= lo && k <= hi {
				w[k] = v
			}
		}
		weights = make([]float64, len(keys))
		for i, k := range keys {
			weights[i] = w[k]
		}
	}
	return keys, weights, ambiguous
}

// Designated sends the workload's repeated query and runs the
// distribution check on every sample it returns. The range moves right
// by its own width (wrapping) while it holds an ambiguous key.
func Designated(c client.Conn, in *Inputs, l *Ledger, g *Gate) (stats.GOFResult, error) {
	lo, hi := in.DesignatedRange()
	members, weights, amb := l.Members(lo, hi)
	for try := 0; amb && try < 20; try++ {
		width := hi - lo
		lo += width
		if lo+width > KeySpace {
			lo -= KeySpace - width
		}
		hi = lo + width
		members, weights, amb = l.Members(lo, hi)
	}
	if amb {
		return stats.GOFResult{}, fmt.Errorf("designated query: every candidate range holds a key of a failed write")
	}
	var mu sync.Mutex
	var all []float64
	var firstErr error
	sem := make(chan struct{}, 8)
	var wg sync.WaitGroup
	for range in.W.Repeats {
		sem <- struct{}{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			got, err := c.Sample(context.Background(), dataset, lo, hi, in.W.T)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				if firstErr == nil {
					firstErr = err
				}
				return
			}
			g.CheckSample(lo, hi, in.W.T, got)
			all = append(all, got...)
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return stats.GOFResult{}, fmt.Errorf("designated query: %w", firstErr)
	}
	return DistributionCheck(members, weights, all)
}

// freshDataDir returns an empty data directory under work.
func freshDataDir(work, name string) (string, error) {
	dir := filepath.Join(work, name)
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}
