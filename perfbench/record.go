package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"

	"github.com/irsgo/irs/internal/stats"
)

// Host identifies the machine and the code a run measured.
type Host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	Go         string `json:"go"`
	GitRev     string `json:"git_rev"`
	// SourceSHA256 digests the Go sources and module files of the tree,
	// identifying the code when the checkout is not a git repository.
	SourceSHA256 string `json:"source_sha256"`
}

// PhaseRecord summarizes one load phase with the sample count behind
// every percentile.
type PhaseRecord struct {
	Seconds   float64              `json:"seconds"`
	Completed int                  `json:"completed"`
	Ops       map[string]*OpCounts `json:"ops"`
	SampleP50 Pct                  `json:"sample_p50_us"`
	SampleP90 Pct                  `json:"sample_p90_us"`
	SampleP99 Pct                  `json:"sample_p99_us"`
	WriteP50  Pct                  `json:"write_p50_us"`
	WriteP99  Pct                  `json:"write_p99_us"`
	LagP99    Pct                  `json:"gen_lag_p99_us"`
	ErrorFrac float64              `json:"error_frac"`
}

// Record is the run record printed before the result line.
type Record struct {
	Workload string                  `json:"workload"`
	Seed     uint64                  `json:"seed"`
	Trace    int                     `json:"trace"`
	Host     Host                    `json:"host"`
	Setups   []float64               `json:"setups_wall_s,omitempty"`
	SetupCPU []float64               `json:"setups_cpu_s,omitempty"`
	OpenCPU  []CPUWindow             `json:"open_cpu_windows,omitempty"`
	Phases   map[string]*PhaseRecord `json:"phases"`
	Live     map[string]Metric       `json:"live_counters,omitempty"`
	// EndToEnd holds every end-to-end figure of a --trace 0 run, including
	// those BENCHMARK.json does not gate (tails, peak throughput, errors).
	EndToEnd      map[string]any   `json:"end_to_end,omitempty"`
	LagP99        *Pct             `json:"gen_lag_p99_us,omitempty"`
	Designated    *stats.GOFResult `json:"designated_chi_square,omitempty"`
	GateChecked   int              `json:"gate_samples_checked"`
	RecoveryS     float64          `json:"recovery_s,omitempty"`
	RecoveredKeys int              `json:"recovered_keys,omitempty"`
	ExpectedKeys  int              `json:"expected_keys,omitempty"`
	ErrorFrac     float64          `json:"error_frac"`
	// StealFrac is the share of the host's CPU time the hypervisor gave to
	// other guests during the run (from /proc/stat); high values explain
	// slow runs on shared hosts.
	StealFrac float64 `json:"host_steal_frac"`
	Error     string  `json:"error,omitempty"`

	stealStart, ticksStart float64
}

func NewRecord(w *Workload, seed uint64, trace int) *Record {
	r := &Record{Workload: w.Name, Seed: seed, Trace: trace, Host: hostInfo(), Phases: map[string]*PhaseRecord{}}
	r.stealStart, r.ticksStart = hostTicks()
	return r
}

func (r *Record) notePhase(name string, ph *Phase) {
	p := &PhaseRecord{Seconds: ph.Dur.Seconds(), Completed: ph.Completed, Ops: map[string]*OpCounts{}}
	tally(p.Ops, ph)
	p.SampleP50 = Percentile(latencies(ph, opSample), 50)
	p.SampleP90 = Percentile(latencies(ph, opSample), 90)
	p.SampleP99 = Percentile(latencies(ph, opSample), 99)
	p.WriteP50 = Percentile(latencies(ph, opInsert, opDelete, opUpdate), 50)
	p.WriteP99 = Percentile(latencies(ph, opInsert, opDelete, opUpdate), 99)
	p.LagP99 = Percentile(lags(ph), 99)
	bad, all := 0, 0
	for _, c := range p.Ops {
		bad += c.Failed + c.Refused + c.Unsendable
		all += c.Attempted
	}
	if all > 0 {
		p.ErrorFrac = float64(bad) / float64(all)
	}
	r.Phases[name] = p
}

func (r *Record) sum(f func(*OpCounts) int) int {
	n := 0
	for _, p := range r.Phases {
		for _, c := range p.Ops {
			n += f(c)
		}
	}
	return n
}

func (r *Record) attempted() int { return max(1, r.sum(func(c *OpCounts) int { return c.Attempted })) }
func (r *Record) failed() int {
	return r.sum(func(c *OpCounts) int { return c.Failed + c.Refused + c.Unsendable })
}
func (r *Record) unsendable() int { return r.sum(func(c *OpCounts) int { return c.Unsendable }) }

func (r *Record) finish(err error) {
	r.ErrorFrac = float64(r.failed()) / float64(r.attempted())
	if steal, ticks := hostTicks(); ticks > r.ticksStart {
		r.StealFrac = (steal - r.stealStart) / (ticks - r.ticksStart)
	}
	if err != nil {
		r.Error = err.Error()
	}
}

func hostInfo() Host {
	h := Host{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(), GitRev: "none"}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		h.GitRev = strings.TrimSpace(string(out))
	}
	h.SourceSHA256 = sourceDigest(".")
	return h
}

// hostTicks returns the host's steal time and its total CPU time (the
// sum of the aggregate counters of /proc/stat: user, nice, system, idle,
// iowait, irq, softirq, steal, ...), in clock ticks; zeros when unreadable.
func hostTicks() (steal, total float64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	for i, f := range strings.Fields(line)[1:] {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return 0, 0
		}
		if i == 7 {
			steal = v
		}
		total += v
	}
	return steal, total
}

// sourceDigest hashes every .go, go.mod and go.sum file under root (paths
// and contents, in path order), skipping hidden directories.
func sourceDigest(root string) string {
	var paths []string
	filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if n := d.Name(); !d.IsDir() && (strings.HasSuffix(n, ".go") || n == "go.mod" || n == "go.sum") {
			paths = append(paths, p)
		}
		return nil
	})
	slices.Sort(paths)
	h := sha256.New()
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		h.Write([]byte(p))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}
