package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"slices"
	"testing"
	"time"

	"github.com/irsgo/irs/internal/xrand"
)

// smallWorkload shrinks a workload's preload so the self-tests stay fast.
func smallWorkload(name string, keys int) *Workload {
	w := *workloads[name]
	w.Keys = keys
	return &w
}

// AppendBytes serializes the preload and ops [0, n) — the exact bytes a
// run sends, up to framing — for the determinism self-test.
func (in *Inputs) AppendBytes(dst []byte, n int) []byte {
	f := func(v float64) { dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v)) }
	for i, k := range in.Preload {
		f(k)
		if in.Weights != nil {
			f(in.Weights[i])
		}
	}
	for i := range n {
		o := in.Op(i)
		dst = append(dst, byte(o.kind))
		f(o.lo)
		f(o.hi)
		dst = binary.LittleEndian.AppendUint32(dst, uint32(o.t))
		for k, key := range o.keys {
			f(key)
			if o.weights != nil {
				f(o.weights[k])
			}
		}
	}
	lo, hi := in.DesignatedRange()
	f(lo)
	f(hi)
	return dst
}

func TestSameSeedSameInputs(t *testing.T) {
	for _, name := range workloadNames {
		w := smallWorkload(name, 5000)
		a := Generate(w, 7).AppendBytes(nil, 2000)
		b := Generate(w, 7).AppendBytes(nil, 2000)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 7 generated different inputs on two calls", name)
		}
		c := Generate(w, 8).AppendBytes(nil, 2000)
		if bytes.Equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 generated identical inputs", name)
		}
	}
}

func TestGeneratedInputsMatchTheirWorkload(t *testing.T) {
	for _, name := range workloadNames {
		w := smallWorkload(name, 5000)
		in := Generate(w, 3)
		if len(in.Sorted) != w.Keys || !slices.IsSorted(in.Sorted) {
			t.Fatalf("%s: preload has %d keys (sorted %v), want %d", name, len(in.Sorted), slices.IsSorted(in.Sorted), w.Keys)
		}
		for i := 1; i < len(in.Sorted); i++ {
			if in.Sorted[i] == in.Sorted[i-1] {
				t.Fatalf("%s: duplicate preload key %v", name, in.Sorted[i])
			}
		}
		writes := 0
		for i := range 4000 {
			o := in.Op(i)
			switch o.kind {
			case opSample:
				if !(0 <= o.lo && o.lo < o.hi && o.hi <= KeySpace) || o.t != w.T {
					t.Fatalf("%s: op %d samples [%v, %v] t=%d", name, i, o.lo, o.hi, o.t)
				}
				if w.Cluster && !(o.lo < splitAt && splitAt < o.hi) {
					t.Fatalf("%s: op %d range [%v, %v] does not cross %v", name, i, o.lo, o.hi, splitAt)
				}
			default:
				writes++
				if len(o.keys) != writeKeys {
					t.Fatalf("%s: op %d writes %d keys", name, i, len(o.keys))
				}
			}
		}
		if want := 4000 / w.WriteMod; writes != want {
			t.Errorf("%s: %d writes in 4000 ops, want %d", name, writes, want)
		}
	}
}

func TestDeletesRemoveOlderInserts(t *testing.T) {
	in := Generate(smallWorkload("churn-small", 5000), 1)
	inserted := map[float64]bool{}
	for _, k := range in.Preload {
		inserted[k] = true
	}
	for i := range 4 * 2 * (fifoLag + 20) * in.W.WriteMod / 4 {
		o := in.Op(i)
		for _, k := range o.keys {
			switch o.kind {
			case opInsert:
				inserted[k] = true
			case opDelete:
				if !inserted[k] {
					t.Fatalf("op %d deletes %v, which no earlier op inserted", i, k)
				}
				delete(inserted, k)
			}
		}
	}
}

func TestPercentileReportsCounts(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(1000 - i) // 1..1000, reversed
	}
	p := Percentile(xs, 99)
	if p.Value != 990 || p.N != 1000 || p.Beyond != 10 || !p.Supported {
		t.Errorf("p99 of 1..1000 = %+v, want value 990, n 1000, beyond 10, supported", p)
	}
	p = Percentile([]float64{5, 1, 3}, 50)
	if p.Value != 3 || p.N != 3 || p.Beyond != 1 || p.Supported {
		t.Errorf("p50 of {1,3,5} = %+v, want value 3, n 3, beyond 1, unsupported", p)
	}
	if p := Percentile(nil, 50); !math.IsNaN(p.Value) || p.N != 0 {
		t.Errorf("p50 of nothing = %+v, want NaN with n 0", p)
	}
	// 999 samples: rank ceil(989.01) = 990 leaves 9 beyond, too few.
	if p := Percentile(slices.Clone(xs[:999]), 99); p.Beyond != 9 || p.Supported {
		t.Errorf("p99 of 999 samples = %+v, want 9 beyond and unsupported", p)
	}
}

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	parent := Span{Start: 0, End: 100}
	cases := []struct {
		children []Span
		want     int64
	}{
		{nil, 100},
		{[]Span{{Start: 10, End: 30}}, 80},
		// Two parallel fan-out calls overlap on [20, 30): covered once.
		{[]Span{{Start: 10, End: 30}, {Start: 20, End: 50}}, 60},
		// One child inside another.
		{[]Span{{Start: 10, End: 60}, {Start: 20, End: 30}}, 50},
		// Children reaching outside the parent count only inside it.
		{[]Span{{Start: -20, End: 10}, {Start: 90, End: 130}}, 80},
		// Disjoint, unsorted.
		{[]Span{{Start: 70, End: 80}, {Start: 0, End: 5}}, 85},
		{[]Span{{Start: 0, End: 100}, {Start: 40, End: 60}}, 0},
	}
	for _, c := range cases {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("selfTime(%v) = %d, want %d", c.children, got, c.want)
		}
	}
}

// fakeSampler draws t samples from members[a:b] by the given rule.
type fakeSampler func(members []float64, t int, rng *xrand.RNG) []float64

func uniform(members []float64, t int, rng *xrand.RNG) []float64 {
	out := make([]float64, t)
	for i := range out {
		out[i] = members[rng.Intn(len(members))]
	}
	return out
}

// biased is a faster-looking sampler that skips the range's top tenth.
func biased(members []float64, t int, rng *xrand.RNG) []float64 {
	return uniform(members[:len(members)*9/10], t, rng)
}

func TestGateAcceptsUniformRejectsBiased(t *testing.T) {
	in := Generate(smallWorkload("churn-small", 20000), 11)
	lo, hi := in.DesignatedRange()
	l := NewLedger(in)
	members, _, _ := l.Members(lo, hi)
	rng := xrand.New(1)
	for _, c := range []struct {
		name   string
		draw   fakeSampler
		reject bool
	}{{"uniform", uniform, false}, {"biased", biased, true}} {
		var all []float64
		g := NewGate(in.Sorted, nil)
		for range in.W.Repeats {
			got := c.draw(members, in.W.T, rng)
			g.CheckSample(lo, hi, in.W.T, got)
			all = append(all, got...)
		}
		_, err := DistributionCheck(members, nil, all)
		if (err != nil) != c.reject || g.Err() != nil {
			t.Errorf("%s sampler: distribution check error %v, gate %v; want rejection %v", c.name, err, g.Err(), c.reject)
		}
	}
}

func TestGateRejectsWeightBias(t *testing.T) {
	members := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	weights := []float64{1, 2, 4, 8, 1, 2, 4, 8}
	rng := xrand.New(2)
	total := 0.0
	for _, w := range weights {
		total += w
	}
	draw := func(ws []float64) []float64 {
		var out []float64
		for range 20000 {
			u := rng.Float64() * total
			for i, w := range ws {
				if u < w || i == len(ws)-1 {
					out = append(out, members[i])
					break
				}
				u -= w
			}
		}
		return out
	}
	if _, err := DistributionCheck(members, weights, draw(weights)); err != nil {
		t.Errorf("weight-proportional samples rejected: %v", err)
	}
	flat := []float64{3.75, 3.75, 3.75, 3.75, 3.75, 3.75, 3.75, 3.75} // same total, uniform
	if _, err := DistributionCheck(members, weights, draw(flat)); err == nil {
		t.Error("uniform samples accepted as weight-proportional")
	}
}

func TestGateRejectsBadAnswers(t *testing.T) {
	in := Generate(smallWorkload("churn-small", 1000), 4)
	a, b := in.Sorted[100], in.Sorted[200]
	for _, c := range []struct {
		name string
		got  []float64
	}{
		{"short", []float64{a}},
		{"outside", []float64{a, in.Sorted[300]}},
		{"not a key", []float64{a, (a + in.Sorted[101]) / 2}},
	} {
		g := NewGate(in.Sorted, nil)
		g.CheckSample(a, b, 2, c.got)
		if g.Err() == nil {
			t.Errorf("%s answer %v passed the gate", c.name, c.got)
		}
	}
	g := NewGate(in.Sorted, in.FreshKeys(0))
	g.CheckSample(0, KeySpace, 2, []float64{a, in.FreshKeys(0)[3]})
	if err := g.Err(); err != nil {
		t.Errorf("answer holding an inserted key failed the gate: %v", err)
	}
}

// TestLedgerRestartCount checks the restart key-count check: exact with
// only acknowledged writes, and bounded, not skipped, once a write fails.
func TestLedgerRestartCount(t *testing.T) {
	in := Generate(smallWorkload("churn-small", 5000), 3)
	var ins, del op
	for i := 0; ins.keys == nil || del.keys == nil; i++ {
		switch o := in.Op(i); o.kind {
		case opInsert:
			ins = o
		case opDelete:
			del = o
		}
	}
	n := len(in.Preload)
	ok := NewLedger(in)
	ok.Note(&Phase{Outs: []*outcome{{op: ins, n: len(ins.keys)}, {op: del, n: len(del.keys)}}})
	for _, c := range []struct {
		got  int
		pass bool
	}{{n, true}, {n + 1, false}, {n - 1, false}} {
		if err := ok.CheckCount(c.got); (err == nil) != c.pass {
			t.Errorf("acknowledged writes only: count %d gave %v", c.got, err)
		}
	}
	failed := NewLedger(in)
	fail := errors.New("connection reset")
	failed.Note(&Phase{Outs: []*outcome{{op: ins, n: len(ins.keys)}, {op: ins, err: fail}, {op: del, err: fail}}})
	base := n + len(ins.keys)
	for _, c := range []struct {
		got  int
		pass bool
	}{
		{base, true},
		{base + len(ins.keys), true},
		{base - len(del.keys), true},
		{base + len(ins.keys) + 1, false},
		{base - len(del.keys) - 1, false},
	} {
		if err := failed.CheckCount(c.got); (err == nil) != c.pass {
			t.Errorf("with failed writes: count %d gave %v", c.got, err)
		}
	}
}

func TestWindowCPU(t *testing.T) {
	start := time.Now()
	ph := &Phase{Start: start}
	// 10 requests due in [0, 1s), 20 in [1s, 2s), one failed, 2 in [2s, 3s).
	for i := range 10 {
		ph.Outs = append(ph.Outs, &outcome{due: time.Duration(i) * 100 * time.Millisecond})
	}
	for i := range 21 {
		o := &outcome{due: time.Second + time.Duration(i)*40*time.Millisecond}
		if i == 20 {
			o.err = errors.New("refused")
		}
		ph.Outs = append(ph.Outs, o)
	}
	ph.Outs = append(ph.Outs, &outcome{due: 2100 * time.Millisecond}, &outcome{due: 2200 * time.Millisecond})
	// The host's steal counter moves 2 of 100 ticks in the first interval.
	marks := []cpuMark{{start, 5, 0, 0}, {start.Add(time.Second), 5.01, 2, 100}, {start.Add(2 * time.Second), 5.05, 2, 200}, {start.Add(3 * time.Second), 6, 2, 300}}
	got := WindowCPU(ph, marks, 5)
	// 0.01 s / 10 and 0.04 s / 20; the last window holds too few.
	want := []CPUWindow{{1000, 0.02}, {2000, 0}}
	if len(got) != len(want) {
		t.Fatalf("WindowCPU = %v, want %v", got, want)
	}
	for i := range want {
		if math.Abs(got[i].UsPerReq-want[i].UsPerReq) > 1e-6 || math.Abs(got[i].StealFrac-want[i].StealFrac) > 1e-9 {
			t.Fatalf("WindowCPU = %v, want %v", got, want)
		}
	}
}

func TestQuietCPU(t *testing.T) {
	// The windows with the most steal read low; the quieter half decides.
	ws := []CPUWindow{{3000, 0}, {3100, 0.01}, {2000, 0.3}, {2900, 0}, {2100, 0.25}, {3050, 0.005}}
	if got := QuietCPU(ws); got != 3000 {
		t.Fatalf("QuietCPU = %v, want 3000 (median of 2900, 3000, 3050)", got)
	}
	if got := QuietCPU(nil); !math.IsNaN(got) {
		t.Fatalf("QuietCPU(nil) = %v, want NaN", got)
	}
}

// TestTracedNodeStack replays a small durable workload through the
// in-process node stack, untraced then traced, and checks the answers
// and the attribution: every layer on the path reports time, and self
// times never exceed their spans.
func TestTracedNodeStack(t *testing.T) {
	w := smallWorkload("churn-small", 20000)
	in := Generate(w, 2)
	tr := NewTracer()
	stack, err := NodeStack(in, t.TempDir(), tr)
	if err != nil {
		t.Fatal(err)
	}
	defer stack.Close()
	const n = 400
	untraced := OpenLoop(stack.Conn, in, 0, n, 4000, nil)
	tr.on.Store(true)
	traced := OpenLoop(stack.Conn, in, n, n, 4000, func(o *outcome) { tr.register(o.idx, o.op) })
	tr.on.Store(false)

	l := NewLedger(in)
	l.Note(untraced)
	l.Note(traced)
	g := NewGate(in.Sorted, l.fresh)
	for _, ph := range []*Phase{untraced, traced} {
		for _, o := range ph.Outs {
			if o.err != nil || o.unsendable {
				t.Fatalf("op %d (%v): err %v, unsendable %v", o.idx, o.op.kind, o.err, o.unsendable)
			}
			if o.op.kind == opSample {
				g.CheckSample(o.op.lo, o.op.hi, o.op.t, o.samples)
			}
		}
	}
	if err := g.Err(); err != nil {
		t.Fatal(err)
	}
	m := Attribute(tr, traced, untraced, false)
	for _, name := range []string{"server.roundtrip_us", "server.self_us", "server.insert_roundtrip_us", "irsnet.self_us",
		"shard.request_us", "shard.ns_per_sample", "shard.insert_ns_per_key", "shard.delete_ns_per_key", "persist.fsync_us"} {
		if m[name].Value <= 0 {
			t.Errorf("%s = %v, want > 0", name, m[name].Value)
		}
	}
	if m["server.self_us"].Value > m["server.roundtrip_us"].Value {
		t.Errorf("server self %v exceeds its round trip %v", m["server.self_us"].Value, m["server.roundtrip_us"].Value)
	}
	if r := m["server.coalesce_ratio"].Value; r < 1 {
		t.Errorf("coalesce ratio %v, want >= 1", r)
	}
	if f := m["trace.unattributed_frac"].Value; f < 0 || f > 1 {
		t.Errorf("unattributed share %v outside [0, 1]", f)
	}
}

func TestEngineRungs(t *testing.T) {
	for _, name := range []string{"churn-small", "cluster-span"} {
		in := Generate(smallWorkload(name, 20000), 3)
		a, b := engineRungs(in, 400), engineRungs(in, 400)
		if in.W.Weighted {
			for _, k := range []string{"weighted.ns_per_sample", "weighted.update_ns_per_key"} {
				if a[k].Value <= 0 {
					t.Errorf("%s: %s = %v, want > 0", name, k, a[k].Value)
				}
			}
			continue
		}
		if a["core.ns_per_sample"].Value <= 0 || a["core.bytes_per_key"].Value <= 0 {
			t.Errorf("%s: core rung %v", name, a)
		}
		// The probe count is exact for a seed.
		if p := a["core.probes_per_sample"].Value; p < 1 || p != b["core.probes_per_sample"].Value {
			t.Errorf("%s: probes per sample %v then %v, want one value >= 1", name, p, b["core.probes_per_sample"].Value)
		}
	}
}
