package main

import (
	"math"
	"slices"
	"sort"
	"time"
)

// Pct is a nearest-rank percentile together with the sample count behind
// it and how many samples lie above it. A percentile with fewer than
// minBeyond samples above it is marked unsupported in the run record.
type Pct struct {
	P         float64 `json:"p"`
	Value     float64 `json:"value"`
	N         int     `json:"n"`
	Beyond    int     `json:"beyond"`
	Supported bool    `json:"supported"`
}

// minBeyond is how many samples must lie above a supported percentile.
const minBeyond = 10

// Percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// xs: the smallest value with at least p% of the samples at or below it.
// xs is sorted in place. With no samples the value is NaN.
func Percentile(xs []float64, p float64) Pct {
	if len(xs) == 0 {
		return Pct{P: p, Value: math.NaN()}
	}
	if !sort.Float64sAreSorted(xs) {
		slices.Sort(xs)
	}
	rank := int(math.Ceil(p / 100 * float64(len(xs))))
	rank = min(max(rank, 1), len(xs))
	beyond := len(xs) - rank
	return Pct{P: p, Value: xs[rank-1], N: len(xs), Beyond: beyond, Supported: beyond >= minBeyond}
}

// Median returns the nearest-rank median of xs (sorting a copy).
func Median(xs []float64) float64 {
	return Percentile(slices.Clone(xs), 50).Value
}

func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// BestWindow splits a phase into consecutive windows of width win (by
// due time) and returns the lowest of the windows' p-th percentiles of the
// successful requests of the given kinds, with the total sample count.
// Windows with fewer than minN such requests are skipped. On a shared
// host, stalls from other tenants land on most windows to some degree;
// the quietest window is the steadiest estimate of what the system itself
// costs, and a change to the system moves every window.
func BestWindow(ph *Phase, win time.Duration, p float64, minN int, kinds ...opKind) (value float64, n int) {
	per, n := windowPercentiles(ph, win, p, minN, kinds...)
	if len(per) == 0 {
		return math.NaN(), n
	}
	return slices.Min(per), n
}

// windowPercentiles returns each window's p-th percentile.
func windowPercentiles(ph *Phase, win time.Duration, p float64, minN int, kinds ...opKind) (per []float64, n int) {
	byWin := map[int][]float64{}
	for _, o := range ph.Outs {
		if o.err != nil || o.unsendable || !slices.Contains(kinds, o.op.kind) {
			continue
		}
		w := int(o.due / win)
		byWin[w] = append(byWin[w], micros(o.latency()))
		n++
	}
	for _, xs := range byWin {
		if len(xs) >= minN {
			per = append(per, Percentile(xs, p).Value)
		}
	}
	return per, n
}

// CPUWindow is one interval between CPU readings of a load phase.
type CPUWindow struct {
	// UsPerReq is the daemons' CPU microseconds per successful request
	// due in the interval.
	UsPerReq float64 `json:"us_per_req"`
	// StealFrac is the share of the host's CPU time the hypervisor gave
	// to other guests during the interval.
	StealFrac float64 `json:"steal_frac"`
}

// WindowCPU splits a phase at the CPU readings and returns every interval
// between consecutive readings that holds at least minN successful
// requests due in it. Most of a request's work happens within a
// millisecond or so of its due time, so at intervals of a second the
// attribution error is small.
func WindowCPU(ph *Phase, marks []cpuMark, minN int) []CPUWindow {
	counts := make([]int, len(marks))
	for _, o := range ph.Outs {
		if o.err != nil || o.unsendable {
			continue
		}
		at := ph.Start.Add(o.due)
		i := sort.Search(len(marks), func(i int) bool { return marks[i].at.After(at) })
		if i > 0 && i < len(marks) {
			counts[i]++
		}
	}
	var per []CPUWindow
	for i := 1; i < len(marks); i++ {
		if counts[i] < minN {
			continue
		}
		w := CPUWindow{UsPerReq: (marks[i].cpu - marks[i-1].cpu) / float64(counts[i]) * 1e6}
		if ticks := marks[i].ticks - marks[i-1].ticks; ticks > 0 {
			w.StealFrac = (marks[i].steal - marks[i-1].steal) / ticks
		}
		per = append(per, w)
	}
	return per
}

// QuietCPU returns the median CPU per request over the windows whose
// steal share is at most the median window's: the quieter half of the
// phase, or more when windows tie. While the hypervisor runs other guests
// on the host's CPUs, CPU per request reads off in both directions: on
// churn-small requests bunch up and the daemons wake less often per
// request, so it reads low; on wide-draw the engine's memory reads slow
// down, so it reads high (by 9 and 4 % in the windows with a steal share
// above 0.14 of one run of each). Leaving those windows out measures the
// daemons on a quiet host, as sample_p50_us does with its quietest
// window. With no windows the value is NaN.
func QuietCPU(ws []CPUWindow) float64 {
	steals := make([]float64, len(ws))
	for i, w := range ws {
		steals[i] = w.StealFrac
	}
	cut := Median(steals)
	var xs []float64
	for _, w := range ws {
		if w.StealFrac <= cut {
			xs = append(xs, w.UsPerReq)
		}
	}
	return Median(xs)
}
