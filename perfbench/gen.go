package main

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"github.com/irsgo/irs/internal/xrand"
)

// KeySpace is the key domain every workload draws from: keys are uniform
// floats in [0, KeySpace).
const KeySpace = 1e6

// splitAt is the partition boundary of the cluster workload.
const splitAt = KeySpace / 2

// writeKeys is the number of keys one insert, delete or update carries.
const writeKeys = 16

// fifoLag is how many insert batches a delete trails the insert whose keys
// it removes; the first fifoLag deletes remove the last preload keys.
const fifoLag = 64

type opKind uint8

const (
	opSample opKind = iota
	opInsert
	opDelete
	opUpdate
)

var opNames = [...]string{"sample", "insert", "delete", "update"}

func (k opKind) String() string { return opNames[k] }

// op is one generated request. Sample ops carry a range and a count; write
// ops carry keys (and, for updates, the new weights).
type op struct {
	kind    opKind
	lo, hi  float64
	t       int
	keys    []float64
	weights []float64
}

// Workload describes one traffic mix and the deployment it runs against.
type Workload struct {
	Name     string
	Keys     int     // preloaded keys
	Weighted bool    // Pareto(1.5) weights, weight-proportional sampling
	Durable  bool    // irsd -data-dir (fsync always)
	Cluster  bool    // irsrouter over two irsd partitions
	Rate     float64 // open-loop arrivals per second
	WriteMod int     // every WriteMod-th op (index%WriteMod == WriteMod-1) is a write
	T        int     // samples per sample request
	// MinFrac and MaxFrac bound a sample range's width as a share of the
	// key space; LogWidth draws the width log-uniformly, else uniformly.
	MinFrac, MaxFrac float64
	LogWidth         bool
	// Designated is the width (share of the key space) of the repeated
	// query the distribution check runs, Repeats how often it is sent.
	Designated float64
	Repeats    int
	Window     int // closed-loop in-flight requests per connection
	// Setups is how many times a --trace 0 run sets the deployment up;
	// setup_s is the median of the daemons' CPU seconds over them. A
	// set-up of the small durable workload takes under 0.1 CPU seconds,
	// so that workload takes the median of more of them.
	Setups int
}

var workloads = map[string]*Workload{
	"wide-draw": {
		Name: "wide-draw", Keys: 4_000_000, Rate: 300, WriteMod: 20, T: 1024,
		MinFrac: 0.01, MaxFrac: 1, LogWidth: true,
		Designated: 0.01, Repeats: 20, Window: 4, Setups: 5,
	},
	"churn-small": {
		Name: "churn-small", Keys: 100_000, Durable: true, Rate: 2000, WriteMod: 4, T: 8,
		MinFrac: 0.0001, MaxFrac: 0.01, LogWidth: true,
		Designated: 0.01, Repeats: 500, Window: 16, Setups: 11,
	},
	"cluster-span": {
		Name: "cluster-span", Keys: 1_000_000, Weighted: true, Cluster: true, Rate: 400, WriteMod: 10, T: 64,
		MinFrac: 0.02, MaxFrac: 1,
		Designated: 0.002, Repeats: 300, Window: 4, Setups: 5,
	},
}

// workloadNames lists the workloads in their documented order.
var workloadNames = []string{"wide-draw", "churn-small", "cluster-span"}

// Inputs is everything a run sends, derived from the workload and the seed
// alone: the preload and the op stream (op i is a pure function of seed
// and i, so the open-loop and closed-loop phases draw from one stream).
type Inputs struct {
	W       *Workload
	Seed    uint64
	Preload []float64        // keys in insertion order
	Sorted  []float64        // Preload in key order
	Weights []float64        // Weights[i] belongs to Preload[i] (weighted only)
	perm    []int32          // update key order (weighted only)
	doomed  map[float64]bool // preload keys the first deletes remove
}

// stream derives an independent RNG for one purpose and index.
func (in *Inputs) stream(purpose, i uint64) *xrand.RNG {
	return xrand.New(in.Seed*0x9e3779b97f4a7c15 ^ purpose<<56 ^ i)
}

const (
	purposePreload = iota + 1
	purposeOp
	purposeFresh
	purposePerm
	purposeDesignated
)

// Generate builds the inputs of workload w for seed.
func Generate(w *Workload, seed uint64) *Inputs {
	in := &Inputs{W: w, Seed: seed}
	rng := in.stream(purposePreload, 0)
	in.Preload = make([]float64, 0, w.Keys)
	for {
		for len(in.Preload) < w.Keys {
			in.Preload = append(in.Preload, rng.Float64()*KeySpace)
		}
		in.Sorted = slices.Sorted(slices.Values(in.Preload))
		dups := map[float64]bool{}
		for i := 1; i < len(in.Sorted); i++ {
			if in.Sorted[i] == in.Sorted[i-1] {
				dups[in.Sorted[i]] = true
			}
		}
		if len(dups) == 0 {
			break
		}
		// Keep the first occurrence of each duplicate and draw again.
		in.Preload = slices.DeleteFunc(in.Preload, func(k float64) bool {
			first, dup := dups[k]
			if !dup {
				return false
			}
			dups[k] = false
			return !first
		})
	}
	if w.Weighted {
		in.Weights = make([]float64, w.Keys)
		for i := range in.Weights {
			in.Weights[i] = pareto(rng)
		}
		p := in.stream(purposePerm, 0)
		in.perm = make([]int32, w.Keys)
		for i := range in.perm {
			in.perm[i] = int32(i)
		}
		p.Shuffle(len(in.perm), func(i, j int) { in.perm[i], in.perm[j] = in.perm[j], in.perm[i] })
	} else {
		in.doomed = map[float64]bool{}
		for _, k := range in.Preload[len(in.Preload)-min(len(in.Preload), fifoLag*writeKeys):] {
			in.doomed[k] = true
		}
	}
	return in
}

// pareto draws a Pareto(alpha=1.5, xmin=1) weight.
func pareto(rng *xrand.RNG) float64 {
	return math.Pow(1-rng.Float64(), -1/1.5)
}

// Op returns op i of the stream.
func (in *Inputs) Op(i int) op {
	w := in.W
	if i%w.WriteMod == w.WriteMod-1 {
		return in.writeOp(i / w.WriteMod)
	}
	rng := in.stream(purposeOp, uint64(i))
	lo, hi := in.sampleRange(rng)
	return op{kind: opSample, lo: lo, hi: hi, t: w.T}
}

// sampleRange draws a range of the workload's width distribution that
// holds at least one preload key no write ever deletes, so no sample
// request can meet an empty range.
func (in *Inputs) sampleRange(rng *xrand.RNG) (lo, hi float64) {
	w := in.W
	for {
		var frac float64
		if w.LogWidth {
			frac = math.Exp(math.Log(w.MinFrac) + rng.Float64()*(math.Log(w.MaxFrac)-math.Log(w.MinFrac)))
		} else {
			frac = w.MinFrac + rng.Float64()*(w.MaxFrac-w.MinFrac)
		}
		width := frac * KeySpace
		if w.Cluster {
			// Every range crosses the partition boundary.
			a := max(0, splitAt-width)
			b := min(splitAt, KeySpace-width)
			lo = a + rng.Float64()*(b-a)
		} else {
			lo = rng.Float64() * (KeySpace - width)
		}
		hi = lo + width
		for i := sort.SearchFloat64s(in.Sorted, lo); i < len(in.Sorted) && in.Sorted[i] <= hi; i++ {
			if !in.doomed[in.Sorted[i]] {
				return lo, hi
			}
		}
	}
}

// writeOp returns write j: updates on weighted workloads, otherwise
// alternating inserts of fresh keys and deletes of the oldest fresh keys.
func (in *Inputs) writeOp(j int) op {
	if in.W.Weighted {
		o := op{kind: opUpdate, keys: make([]float64, writeKeys), weights: make([]float64, writeKeys)}
		rng := in.stream(purposeFresh, uint64(j))
		for k := range writeKeys {
			idx := in.perm[(j*writeKeys+k)%len(in.perm)]
			o.keys[k] = in.Preload[idx]
			o.weights[k] = pareto(rng)
		}
		return o
	}
	pair := j / 2
	if j%2 == 0 {
		return op{kind: opInsert, keys: in.FreshKeys(pair)}
	}
	return op{kind: opDelete, keys: in.deleteKeys(pair)}
}

// FreshKeys returns the keys insert number pair adds.
func (in *Inputs) FreshKeys(pair int) []float64 {
	rng := in.stream(purposeFresh, uint64(pair))
	keys := make([]float64, writeKeys)
	for k := range keys {
		keys[k] = rng.Float64() * KeySpace
	}
	return keys
}

// deleteKeys returns the keys delete number pair removes: the keys of the
// insert fifoLag pairs earlier, or for the first fifoLag deletes, the last
// preload keys in insertion order.
func (in *Inputs) deleteKeys(pair int) []float64 {
	if pair >= fifoLag {
		return in.FreshKeys(pair - fifoLag)
	}
	base := len(in.Preload) - fifoLag*writeKeys + pair*writeKeys
	return slices.Clone(in.Preload[base : base+writeKeys])
}

// DesignatedRange returns the repeated query of the distribution check.
func (in *Inputs) DesignatedRange() (lo, hi float64) {
	rng := in.stream(purposeDesignated, 0)
	width := in.W.Designated * KeySpace
	if in.W.Cluster {
		lo = splitAt - width*(0.25+0.5*rng.Float64())
	} else {
		lo = rng.Float64() * (KeySpace - width)
	}
	return lo, lo + width
}

func lookupWorkload(name string) (*Workload, error) {
	w, ok := workloads[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
	}
	return w, nil
}
