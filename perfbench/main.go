// Command perfbench is the repository benchmark: it starts irsd (and, for
// the cluster workload, irsrouter over two irsd partitions) with their
// shipped defaults, preloads them with seeded keys, drives one workload
// from this process, checks every answer, and prints one JSON result line.
//
//	perfbench -bin DIR -work DIR --workload wide-draw --seed 1 --seconds 26 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of the live daemons.
// With --trace 1 it reports per-layer metrics: live counters scraped from
// /metrics at phase boundaries, plus a traced replay of the same inputs
// through the same layers assembled in this process (see ladder.go).
// perfbench/run.sh builds the binaries and runs this from a checkout.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"

	"github.com/irsgo/irs/client"
	"github.com/irsgo/irs/server/irsnet"
)

// Metric is one reported figure.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// WindowFigure is a quietest-window median in the run record, with the
// sample count over all windows and the window width.
type WindowFigure struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
	WindowS float64 `json:"window_s"`
}

// Result is the last line of standard output.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// latencyWindow is the window width of sample_p50_us and write_p50_us:
// the lowest of the per-window medians. One-second windows hold 285 to
// 1500 sample requests at the workloads' rates, and on the shared host the
// benchmark was built on they gave the steadiest latency figure.
const latencyWindow = time.Second

// cpuWindow is the interval of the daemons' CPU readings in the open-loop
// phase. cpu_us_per_req is the median CPU per request over the quieter
// half of these windows (QuietCPU), so a burst of load from other tenants
// on a shared host moves a few windows, not the figure.
const cpuWindow = time.Second

// maxLagP99 is the generator lag beyond which a run is invalid.
const maxLagP99 = 100 * time.Millisecond

// errInvalid marks a run whose generator fell behind or that is missing a
// measurement.
var errInvalid = errors.New("invalid run")

func main() { os.Exit(run()) }

func run() int {
	var (
		name    = flag.String("workload", "", "workload: wide-draw, churn-small or cluster-span")
		seed    = flag.Uint64("seed", 1, "input seed")
		seconds = flag.Float64("seconds", 16, "measured seconds per run")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics")
		bin     = flag.String("bin", "", "directory holding the irsd and irsrouter binaries")
		work    = flag.String("work", "", "scratch directory for logs and data directories")
	)
	flag.Parse()
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))
	w, err := lookupWorkload(*name)
	if err == nil && (*bin == "" || *work == "") {
		err = errors.New("-bin and -work are required")
	}
	if err == nil && *trace != 0 && *trace != 1 {
		err = fmt.Errorf("--trace %d: want 0 or 1", *trace)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	if err := os.RemoveAll(*work); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if err := os.MkdirAll(*work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}

	in := Generate(w, *seed)
	rec := NewRecord(w, *seed, *trace)
	dur := time.Duration(*seconds * float64(time.Second))
	var metrics map[string]Metric
	if *trace == 0 {
		metrics, err = EndToEnd(in, *bin, *work, dur, rec)
	} else {
		metrics, err = PerLayer(in, *bin, *work, dur, rec)
	}
	rec.finish(err)
	line, _ := json.Marshal(map[string]any{"record": rec})
	fmt.Println(string(line))
	if err != nil && !errors.Is(err, errGate) {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if metrics == nil {
		metrics = map[string]Metric{}
	}
	res := Result{Correct: err == nil, Attempted: rec.attempted(), Failed: rec.failed(), Metrics: metrics}
	line, _ = json.Marshal(res)
	fmt.Println(string(line))
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// errGate marks a correctness-gate failure: the result line is still
// printed, with correct=false, and the exit code is non-zero.
var errGate = errors.New("correctness gate failed")

// EndToEnd runs the live deployment untraced: setup (several times),
// the closed-loop peak phase, the open-loop phase, the correctness gate,
// and for durable workloads a SIGKILL restart.
func EndToEnd(in *Inputs, bin, work string, dur time.Duration, rec *Record) (map[string]Metric, error) {
	w := in.W
	openDur := time.Duration(float64(dur) * 0.75)
	closedDur := dur - openDur
	live, err := runLive(in, bin, work, w.Setups, openDur, closedDur, rec, false)
	if err != nil {
		return nil, err
	}
	open := live.Open
	p50, n := BestWindow(open, latencyWindow, 50, 20, opSample)
	w50, nw := BestWindow(open, latencyWindow, 50, 10, opInsert, opDelete, opUpdate)
	m := map[string]Metric{
		"setup_s":        {Median(live.SetupCPU), "s"},
		"cpu_us_per_req": {QuietCPU(live.OpenCPU), "us"},
		"rss_mib":        {live.RSS, "MiB"},
		"sample_p50_us":  {p50, "us"},
	}
	// Every end-to-end figure, gated or not, goes into the run record by
	// name with its unit and the sample count behind it.
	all := map[string]any{
		"setup_wall_s":         Metric{Median(live.Setups), "s"},
		"cpu_us_per_req_phase": Metric{(live.CPU["open"] - live.CPU["closed"]) / float64(succeeded(open)) * 1e6, "us"},
		"sample_p50_us":        WindowFigure{p50, "us", n, latencyWindow.Seconds()},
		"sample_p50_pooled_us": Percentile(latencies(open, opSample), 50),
		"sample_p99_us":        Percentile(latencies(open, opSample), 99),
		"write_p50_us":         WindowFigure{w50, "us", nw, latencyWindow.Seconds()},
		"write_p50_pooled_us":  Percentile(latencies(open, opInsert, opDelete, opUpdate), 50),
		"write_p99_us":         Percentile(latencies(open, opInsert, opDelete, opUpdate), 99),
		"peak_rps":             Metric{float64(live.Closed.Completed) / live.Closed.Dur.Seconds(), "1/s"},
		"peak_cpu_us_per_req":  Metric{(live.CPU["closed"] - live.CPU["start"]) / float64(succeeded(live.Closed)) * 1e6, "us"},
		"error_frac":           Metric{float64(rec.failed()) / float64(rec.attempted()), "ratio"},
		"recovery_s":           Metric{rec.RecoveryS, "s"},
	}
	for k, v := range m {
		if _, ok := all[k]; !ok {
			all[k] = v
		}
	}
	rec.EndToEnd = all
	for k, v := range m {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || v.Value <= 0 {
			return nil, fmt.Errorf("%w: %s on %s measured %v", errInvalid, k, w.Name, v.Value)
		}
	}
	return m, nil
}

// Live is the record of one run against the live daemons.
type Live struct {
	Setups       []float64 // wall seconds per set-up
	SetupCPU     []float64 // the daemons' CPU seconds per set-up
	Open, Closed *Phase
	// OpenCPU holds the daemons' CPU microseconds per request and the
	// host's steal share in each cpuWindow of the open-loop phase.
	OpenCPU    []CPUWindow
	RSS        float64
	Counters   map[string]Counters // scrapes at phase boundaries
	CPU        map[string]float64  // daemons' CPU seconds at phase boundaries
	Deployment *Deployment         // still running when keep is set
}

// runLive deploys, preloads (nSetups times; the last deployment serves
// the run) and drives workload in.W: the closed-loop phase unless
// closedDur is 0, the open-loop phase, the correctness gate and, for durable
// workloads, a SIGKILL restart. The deployment is torn down before
// returning unless keep is set; the traced run of the cluster workload
// reuses its nodes.
func runLive(in *Inputs, bin, work string, nSetups int, openDur, closedDur time.Duration, rec *Record, keep bool) (live *Live, err error) {
	w := in.W
	live = &Live{Counters: map[string]Counters{}, CPU: map[string]float64{}}
	var d *Deployment
	defer func() {
		if d != nil && (err != nil || !keep) {
			d.Close()
		}
	}()
	for range nSetups {
		if d != nil {
			d.Close()
		}
		dataDir, err := freshDataDir(work, "data")
		if err != nil {
			return nil, err
		}
		start := time.Now()
		if d, err = Deploy(w, bin, work, dataDir); err != nil {
			return nil, err
		}
		if err := d.Preload(in); err != nil {
			return nil, err
		}
		live.Setups = append(live.Setups, time.Since(start).Seconds())
		cpu, err := d.CPUSeconds()
		if err != nil {
			return nil, err
		}
		live.SetupCPU = append(live.SetupCPU, cpu)
	}
	rec.Setups, rec.SetupCPU = live.Setups, live.SetupCPU

	scrapeAt := func(name string) error {
		c, err := scrapeAll(d.Daemons())
		live.Counters[name] = c
		if err != nil {
			return err
		}
		live.CPU[name], err = d.CPUSeconds()
		return err
	}
	if err := scrapeAt("start"); err != nil {
		return nil, err
	}
	ledger := NewLedger(in)
	// The closed-loop phase runs first. At saturation it takes the fresh
	// deployment through its heap growth and warm-up in a few seconds, so
	// the open-loop phase, which gives the gated figures, starts in a
	// steady state instead of drifting down over its first windows.
	openFrom, first := "start", 0
	if closedDur > 0 {
		// Two single-connection clients, one per in-flight window, replace
		// the open-loop client for the phase: still 2 connections.
		d.front.Close()
		conns := make([]client.Conn, 2)
		for i := range conns {
			conns[i] = irsnet.NewClient(d.Front().tcp, irsnet.Options{Conns: 1})
		}
		live.Closed = ClosedLoop(conns, in, 0, w.Window, closedDur)
		for _, c := range conns {
			c.Close()
		}
		d.front = irsnet.NewClient(d.Front().tcp, irsnet.Options{Conns: 2})
		if err := scrapeAt("closed"); err != nil {
			return nil, err
		}
		rec.notePhase("closed", live.Closed)
		ledger.Note(live.Closed)
		// ClosedLoop hands out op indices from a cursor and records every
		// op it starts, so the ones it used are [0, len(Outs)).
		openFrom, first = "closed", len(live.Closed.Outs)
	}
	nOpen := int(w.Rate * openDur.Seconds())
	stopCPU := d.SampleCPU(cpuWindow)
	live.Open = OpenLoop(d.front, in, first, nOpen, w.Rate, nil)
	live.OpenCPU = WindowCPU(live.Open, stopCPU(), 20)
	rec.OpenCPU = live.OpenCPU
	if err := scrapeAt("open"); err != nil {
		return nil, err
	}
	rec.notePhase("open", live.Open)
	ledger.Note(live.Open)
	rec.Live = liveCounters(live.Counters[openFrom], live.Counters["open"], live.Open, w)

	gate := NewGate(in.Sorted, ledger.fresh)
	gate.CheckPhase(live.Open)
	if live.Closed != nil {
		gate.CheckPhase(live.Closed)
	}
	// No request of the workloads may fail or be refused: a deployment
	// that sheds load answers fast and would otherwise read as cheaper.
	if bad := rec.failed() - rec.unsendable(); bad > 0 {
		gate.fail("%d requests failed or were refused", bad)
	}
	gof, derr := Designated(d.front, in, ledger, gate)
	rec.Designated = &gof
	if live.RSS, err = d.RSSMiB(); err != nil {
		return nil, err
	}
	if w.Durable {
		took, n, err := d.Restart()
		if err != nil {
			return nil, err
		}
		rec.RecoveryS = took.Seconds()
		rec.RecoveredKeys = n
		rec.ExpectedKeys = len(in.Preload) + ledger.Inserted - ledger.Removed
		if err := ledger.CheckCount(n); err != nil {
			gate.fail("%v", err)
		}
	}
	if derr != nil {
		gate.fail("%v", derr)
	}
	rec.GateChecked = gate.checked
	if gerr := gate.Err(); gerr != nil {
		return live, fmt.Errorf("%w: %v", errGate, gerr)
	}
	lag := Percentile(lags(live.Open), 99)
	rec.LagP99 = &lag
	if lag.Value > micros(maxLagP99) || rec.unsendable() > 0 {
		return nil, fmt.Errorf("%w: generator fell behind (lag p99 %.0fus, %d unsendable)", errInvalid, lag.Value, rec.unsendable())
	}
	if keep {
		live.Deployment = d
	}
	return live, nil
}

// liveCounters derives the live per-layer counts over one phase from
// the scrapes at its boundaries. The router's own request counter counts
// the probe calls of each spanning sample.
func liveCounters(before, after Counters, ph *Phase, w *Workload) map[string]Metric {
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	d := func(name string) float64 { return delta(before, after, name) }
	requests := d("irsd_dataset_sample_requests_total") + d("irsd_dataset_insert_requests_total")
	routed := 0.0
	if w.Cluster {
		routed = float64(len(ph.Outs))
	}
	return map[string]Metric{
		"server.coalesce_ratio_live":          {ratio(d("irsd_dataset_sample_requests_total"), d("irsd_dataset_sample_batches_total")), "ratio"},
		"server.rejected_frac_live":           {ratio(d("irsd_dataset_sample_rejected_total")+d("irsd_dataset_insert_rejected_total"), requests), "ratio"},
		"persist.records_per_fsync_live":      {ratio(d("irsd_wal_records_total"), d("irsd_wal_syncs_total")), "ratio"},
		"persist.wal_bytes_per_key_live":      {ratio(d("irsd_wal_bytes_total"), d("irsd_wal_entries_total")), "B"},
		"cluster.node_calls_per_request_live": {ratio(d("irsd_cluster_partition_requests_total"), routed), "count"},
	}
}
