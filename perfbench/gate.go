package main

import (
	"fmt"
	"slices"
	"sort"

	"github.com/irsgo/irs/internal/stats"
)

// gateAlpha is the significance level of the distribution checks.
const gateAlpha = 1e-6

// Gate is the correctness gate: every sample answer must hold exactly t
// keys, each inside [lo, hi] and a member of the generated key set
// (preload ∪ every inserted key).
type Gate struct {
	members [][]float64 // sorted key sets
	checked int         // samples checked
	fails   int
	first   []string
}

// NewGate builds a gate over the preload (sorted) and the inserted keys.
func NewGate(sortedPreload []float64, inserted []float64) *Gate {
	return &Gate{members: [][]float64{sortedPreload, slices.Sorted(slices.Values(inserted))}}
}

func (g *Gate) member(x float64) bool {
	for _, keys := range g.members {
		if i := sort.SearchFloat64s(keys, x); i < len(keys) && keys[i] == x {
			return true
		}
	}
	return false
}

func (g *Gate) fail(format string, args ...any) {
	g.fails++
	if len(g.first) < 5 {
		g.first = append(g.first, fmt.Sprintf(format, args...))
	}
}

// CheckSample checks one answered sample request.
func (g *Gate) CheckSample(lo, hi float64, t int, got []float64) {
	if len(got) != t {
		g.fail("sample [%v, %v] t=%d returned %d samples", lo, hi, t, len(got))
	}
	for _, x := range got {
		g.checked++
		if x < lo || x > hi {
			g.fail("sample %v outside [%v, %v]", x, lo, hi)
		} else if !g.member(x) {
			g.fail("sample %v is not a generated key", x)
		}
	}
}

// CheckPhase checks every answered sample request of a phase.
func (g *Gate) CheckPhase(ph *Phase) {
	for _, o := range ph.Outs {
		if o.op.kind == opSample && o.err == nil && !o.unsendable {
			g.CheckSample(o.op.lo, o.op.hi, o.op.t, o.samples)
		}
	}
}

// Err reports the gate's verdict.
func (g *Gate) Err() error {
	if g.fails == 0 {
		return nil
	}
	return fmt.Errorf("correctness gate: %d failures, first: %v", g.fails, g.first)
}

// DistributionCheck tests samples drawn from one range against the exact
// distribution over that range's members: uniform when weights is nil,
// weight-proportional otherwise. members is sorted; weights[i] belongs to
// members[i]. Members are grouped, in key order, into up to 64 cells of
// near-equal mass; the chi-square test runs at alpha 1e-6.
func DistributionCheck(members, weights []float64, samples []float64) (stats.GOFResult, error) {
	if len(members) < 2 {
		return stats.GOFResult{}, fmt.Errorf("distribution check: %d members in range, want >= 2", len(members))
	}
	w := func(i int) float64 {
		if weights == nil {
			return 1
		}
		return weights[i]
	}
	total := 0.0
	for i := range members {
		total += w(i)
	}
	cells := min(64, len(members), max(2, len(samples)/20))
	cellOf := make([]int, len(members))
	probs := make([]float64, 0, cells)
	acc, cell := 0.0, 0.0
	for i := range members {
		cellOf[i] = len(probs)
		acc += w(i)
		cell += w(i)
		if acc >= float64(len(probs)+1)*total/float64(cells) || i == len(members)-1 {
			probs = append(probs, cell/total)
			cell = 0
		}
	}
	counts := make([]int, len(probs))
	for _, x := range samples {
		i := sort.SearchFloat64s(members, x)
		if i == len(members) || members[i] != x {
			return stats.GOFResult{}, fmt.Errorf("distribution check: sample %v is not a member of the range", x)
		}
		counts[cellOf[i]]++
	}
	res, err := stats.ChiSquareTest(counts, probs, gateAlpha)
	if err != nil {
		return res, fmt.Errorf("distribution check: %w", err)
	}
	if res.Reject {
		return res, fmt.Errorf("distribution check: chi-square %.1f > critical %.1f (df %d, alpha %g, %d samples)",
			res.Stat, res.Critical, res.DF, res.Alpha, len(samples))
	}
	return res, nil
}
