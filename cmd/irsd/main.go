// Command irsd is the IRS sampling daemon: it serves named unweighted or
// weighted datasets over HTTP/JSON, coalescing concurrently-arriving
// sample requests into single SampleMany batches (and insert requests into
// single InsertBatch calls) against the concurrent sharded structures.
//
// Usage:
//
//	irsd -addr 127.0.0.1:8080 -datasets events,logs:weighted
//	irsd -addr 127.0.0.1:0 -datasets demo -preload 100000
//	irsd -addr 127.0.0.1:8080 -datasets events -data-dir /var/lib/irsd
//
// Endpoints (see package github.com/irsgo/irs/server for the protocol and
// a typed client):
//
//	POST /sample    {"dataset":"events","lo":0,"hi":9,"t":3}
//	POST /insert    {"dataset":"events","keys":[1,2,3]}
//	POST /delete    {"dataset":"events","keys":[1]}
//	POST /update    {"dataset":"prio","items":[{"key":1,"weight":9}]}
//	POST /snapshot  {"dataset":"events"}
//	GET  /stats
//	GET  /datasets            list datasets with lifecycle state
//	POST /datasets            {"dataset":"new","weighted":true}
//	DELETE /datasets/{name}   drop a dataset (?snapshot=true for a final snapshot)
//
// With -config the dataset list comes from a config file instead of
// -datasets (same element grammar, one per line or comma, # comments;
// partition lines are ignored so one file can drive irsd and irsrouter).
// SIGHUP — or a changed mtime when -config-poll is set — re-reads the
// file and applies the diff atomically: validation failures keep the
// running config, new datasets are added, removed ones are drained and
// dropped (durable state gets a final snapshot). The config file is
// authoritative: datasets added over POST /datasets but absent from the
// file are dropped on the next reload.
//
// With -data-dir set, every dataset is durable: mutations are written
// ahead to a per-dataset WAL under <data-dir>/<name> (fsync policy from
// -fsync), snapshots compact the log (on demand via /snapshot and
// periodically via -snapshot-every), and a restart on the same directory
// recovers the exact dataset state — newest snapshot plus WAL tail, with
// a torn final record truncated. Exactly one irsd may own a data
// directory at a time.
//
// With -tcp-addr set, the daemon additionally serves the persistent
// multiplexed binary transport (package server/irsnet) on that address:
// long-lived TCP connections carrying the binary sample/insert frames
// with pipelined request IDs — the kernel-close transport for hot-path
// clients. The chosen address is printed as "irsd: tcp on ...".
//
// With -addr ending in :0 the kernel picks a free port; the chosen address
// is printed as "irsd: serving on http://..." so wrappers can scrape it.
// SIGINT/SIGTERM trigger a graceful stop: both listeners close, in-flight
// and queued requests are answered, WALs are synced, then the process
// exits 0.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sync"
	"syscall"
	"time"

	irs "github.com/irsgo/irs"
	"github.com/irsgo/irs/internal/spec"
	"github.com/irsgo/irs/server"
	"github.com/irsgo/irs/server/irsnet"
)

// version is the build identity reported by /stats, /metrics, and the
// boot log; release builds stamp it with
//
//	go build -ldflags "-X main.version=v1.2.3" ./cmd/irsd
var version = "dev"

func main() { os.Exit(run()) }

// newLogger builds the daemon's structured logger: slog text for humans
// and grep, JSON for log pipelines. Operational logging goes through
// this; the two machine-scraped stdout lines ("irsd: tcp on ...",
// "irsd: serving on http://...", "irsd: drained, bye") stay plain
// prints — wrappers parse them.
func newLogger(format string) *slog.Logger {
	if format == "json" {
		return slog.New(slog.NewJSONHandler(os.Stderr, nil))
	}
	return slog.New(slog.NewTextHandler(os.Stderr, nil))
}

func run() int {
	var (
		addr       = flag.String("addr", "127.0.0.1:8080", "listen address (port 0 picks a free port)")
		tcpAddr    = flag.String("tcp-addr", "", "persistent binary TCP listen address (empty disables; port 0 picks a free port)")
		tcpReadBuf = flag.Int("tcp-read-buf", 0, "per-connection read buffer for the binary TCP transport, bytes (0 = default 32 KiB)")
		datasets   = flag.String("datasets", "demo", "comma-separated name[:weighted|:unweighted] specs")
		shards     = flag.Int("shards", runtime.GOMAXPROCS(0), "target shard count per dataset")
		seed       = flag.Uint64("seed", 1, "seed anchoring each dataset's sampling streams")
		preload    = flag.Int("preload", 0, "keys preloaded per dataset, uniform in [0, 1e6)")
		queue      = flag.Int("queue", 0, "pending-request bound per dataset and path (0 = default)")
		maxBatch   = flag.Int("max-batch", 0, "max coalesced requests per backend call (0 = default)")
		window     = flag.Duration("coalesce-window", 0, "linger time for batch-mates (0 = only requests already queued; values under 1ms wait at least 1ms on an idle daemon)")
		flushers   = flag.Int("flushers", 0, "parallel backend calls per dataset and path (0 = GOMAXPROCS)")

		readHdrTimeout = flag.Duration("read-header-timeout", 5*time.Second, "HTTP header read deadline per request (guards against slowloris connections)")
		idleTimeout    = flag.Duration("idle-timeout", 2*time.Minute, "HTTP keep-alive idle connection deadline")

		dataDir     = flag.String("data-dir", "", "durability root: one WAL+snapshot directory per dataset (empty = memory-only)")
		fsync       = flag.String("fsync", "always", "WAL fsync policy: always, interval, or none")
		fsyncIvl    = flag.Duration("fsync-interval", 100*time.Millisecond, "background fsync period under -fsync interval")
		snapEvery   = flag.Duration("snapshot-every", 15*time.Minute, "background snapshot/compaction period for durable datasets (0 disables)")
		recoverConc = flag.Int("recover-concurrency", 0, "durable datasets recovered in parallel at boot (0 = GOMAXPROCS)")

		config     = flag.String("config", "", "config file in the -datasets spec grammar (one spec per line, '#' comments); mutually exclusive with -datasets, reloaded on SIGHUP")
		configPoll = flag.Duration("config-poll", 0, "poll the -config file's mtime this often and reload on change (0 disables; SIGHUP always works)")

		logFormat   = flag.String("log-format", "text", "structured log encoding: text or json")
		enablePprof = flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/ on the HTTP address")
	)
	flag.Parse()

	// Reject contradictory flag combinations before any state is touched:
	// a durability knob that silently does nothing is worse than an error.
	explicit := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
	if err := validateFlags(explicit, *dataDir, *fsync, *readHdrTimeout, *idleTimeout, *recoverConc, *tcpAddr, *tcpReadBuf, *logFormat, *config, *configPoll); err != nil {
		// The logger's format flag may itself be the invalid one; text is
		// always a safe spelling for the complaint.
		newLogger("text").Error("invalid flags", "err", err)
		return 2
	}
	logger := newLogger(*logFormat)
	logger.Info("irsd starting", "version", version, "go", runtime.Version(), "pid", os.Getpid())

	s := server.New(server.Config{
		QueueDepth:     *queue,
		MaxBatch:       *maxBatch,
		CoalesceWindow: *window,
		Flushers:       *flushers,
	})
	s.SetVersion(version)
	if *enablePprof {
		s.EnablePprof()
	}
	var policy server.SyncPolicy
	if *dataDir != "" {
		var perr error
		if policy, perr = server.ParseSyncPolicy(*fsync); perr != nil {
			logger.Error("boot failed", "err", perr)
			return 1
		}
	}

	// The boot dataset list comes from -config when given, -datasets
	// otherwise — same grammar either way. Partitions in the file belong to
	// irsrouter and are ignored here, so one file can describe a whole
	// deployment.
	list, err := bootDatasets(*config, *datasets)
	if err != nil {
		logger.Error("boot failed", "err", err)
		return 1
	}
	if err := addDatasetList(s, logger, list, *shards, *seed, *preload, *dataDir, policy, *fsyncIvl, *recoverConc); err != nil {
		logger.Error("boot failed", "err", err)
		// Datasets registered before the failing one may already hold open
		// WALs (and a durable preload may have appended records): sync and
		// close them instead of dropping the tail on the floor.
		if cerr := s.Close(); cerr != nil {
			logger.Error("close failed", "err", cerr)
		}
		return 1
	}
	// Runtime-created datasets (POST /datasets, config reload) get the
	// exact shape a boot-time one would: same shards, seed, and durability
	// knobs, minus the preload (a boot convenience, not a lifecycle one).
	s.SetProvisioner(func(name string, weighted bool) error {
		sp := spec.Dataset{Name: name, Weighted: weighted}
		if *dataDir == "" {
			return addMemoryDataset(s, sp, *shards, *seed, 0)
		}
		return addDurableDataset(s, logger, sp, *shards, *seed, 0, *dataDir, policy, *fsyncIvl)
	})
	// The boot configuration is epoch 1; each successful reload advances it.
	s.NoteReload(true)
	// Boot recovery (and any preload) is complete: the daemon is ready the
	// moment the listeners open. /readyz gates on exactly this.
	s.SetReady()

	// Background snapshots bound WAL replay time after a crash; each run
	// compacts the segments it covers.
	snapStop := make(chan struct{})
	snapDone := make(chan struct{})
	if *dataDir != "" && *snapEvery > 0 {
		go func() {
			defer close(snapDone)
			t := time.NewTicker(*snapEvery)
			defer t.Stop()
			for {
				select {
				case <-t.C:
					// The registry is live — runtime adds and drops change the
					// list — so every tick snapshots whatever is registered now.
					// A dataset dropped between listing and snapshotting answers
					// unknown_dataset; skip it, the drop already took its final
					// snapshot.
					for _, name := range s.Datasets() {
						info, err := s.Snapshot(name)
						switch {
						case err == nil:
							logger.Info("snapshot committed", "dataset", name, "items", info.Items, "wal_seq", info.Seq)
						case errors.Is(err, server.ErrNotDurable), errors.Is(err, server.ErrUnknownDataset):
						default:
							logger.Error("background snapshot failed", "dataset", name, "err", err)
						}
					}
				case <-snapStop:
					return
				}
			}
		}()
	} else {
		close(snapDone)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		logger.Error("listen failed", "addr", *addr, "err", err)
		close(snapStop)
		<-snapDone
		// Durable datasets already recovered (and possibly preloaded):
		// sync and close their WALs even though serving never started.
		if cerr := s.Close(); cerr != nil {
			logger.Error("close failed", "err", cerr)
		}
		return 1
	}
	// The TCP listener binds before serving starts on either transport, so
	// a bad -tcp-addr fails boot instead of surfacing mid-flight.
	var tln net.Listener
	if *tcpAddr != "" {
		tln, err = net.Listen("tcp", *tcpAddr)
		if err != nil {
			logger.Error("tcp listen failed", "addr", *tcpAddr, "err", err)
			_ = ln.Close()
			close(snapStop)
			<-snapDone
			if cerr := s.Close(); cerr != nil {
				logger.Error("close failed", "err", cerr)
			}
			return 1
		}
		// The tcp line prints before the serving line so scripts waiting
		// for "serving on" can scrape both addresses in one pass.
		fmt.Printf("irsd: tcp on %s\n", tln.Addr())
	}
	// Printed (not just logged) so scripts can scrape the resolved address
	// when -addr asked for a kernel-assigned port.
	fmt.Printf("irsd: serving on http://%s\n", ln.Addr())

	// The zero-valued http.Server has no deadlines at all: one client
	// trickling header bytes holds a connection (and its goroutine) forever.
	httpSrv := &http.Server{
		Handler:           s,
		ReadHeaderTimeout: *readHdrTimeout,
		IdleTimeout:       *idleTimeout,
	}
	done := make(chan error, 1)
	go func() { done <- httpSrv.Serve(ln) }()

	var tcpSrv *irsnet.Server
	var tcpDone chan error // nil (never selected) when -tcp-addr is unset
	if tln != nil {
		tcpSrv = irsnet.NewServerOpts(s, irsnet.ServerOptions{ReadBufferSize: *tcpReadBuf})
		// The TCP transport's connection and latency series join /metrics.
		s.RegisterMetrics(tcpSrv)
		tcpDone = make(chan error, 1)
		go func() { tcpDone <- tcpSrv.Serve(tln) }()
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	exit := 0
	var serveErr, tcpErr error
	// shutdownBoth drains both transports: listeners close, requests
	// already read are answered and written, then the connections close.
	// Safe to call after either Serve has already returned.
	shutdownBoth := func() {
		// Readiness drops the moment drain begins — before the listeners
		// close — so orchestrators stop routing while in-flight requests
		// still complete.
		s.SetDraining()
		shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(shutCtx); err != nil {
			logger.Error("http shutdown failed", "err", err)
		}
		if tcpSrv != nil {
			if err := tcpSrv.Shutdown(shutCtx); err != nil {
				logger.Error("tcp shutdown failed", "err", err)
			}
		}
	}
	// Config hot-reload triggers: SIGHUP always (when -config is set), plus
	// an optional mtime poll. Both funnel into applying the file's dataset
	// list against the live registry; a bad file is rejected whole and the
	// running configuration stays in force.
	hup := make(chan os.Signal, 1)
	var pollC <-chan time.Time
	var lastMod time.Time
	if *config != "" {
		signal.Notify(hup, syscall.SIGHUP)
		defer signal.Stop(hup)
		if st, err := os.Stat(*config); err == nil {
			lastMod = st.ModTime()
		}
		if *configPoll > 0 {
			pt := time.NewTicker(*configPoll)
			defer pt.Stop()
			pollC = pt.C
		}
	}
serve:
	for {
		select {
		case <-ctx.Done():
			logger.Info("signal received, draining")
			shutdownBoth()
			serveErr = <-done
			if tcpDone != nil {
				tcpErr = <-tcpDone
			}
			break serve
		case serveErr = <-done:
			// HTTP serve failed on its own (listener torn down, accept error):
			// exactly the case that used to log.Fatalf past the drain below and
			// lose the last fsync interval's WAL records. Drain the other
			// transport and fall through to the same close sequence.
			shutdownBoth()
			if tcpDone != nil {
				tcpErr = <-tcpDone
			}
			break serve
		case tcpErr = <-tcpDone:
			// TCP accept failed; mirror the HTTP failure path.
			shutdownBoth()
			serveErr = <-done
			break serve
		case <-hup:
			logger.Info("SIGHUP received, reloading config", "config", *config)
			reloadConfig(s, logger, *config)
		case <-pollC:
			st, err := os.Stat(*config)
			if err != nil || st.ModTime().Equal(lastMod) {
				continue
			}
			lastMod = st.ModTime()
			logger.Info("config file changed, reloading", "config", *config)
			reloadConfig(s, logger, *config)
		}
	}
	if serveErr != nil && !errors.Is(serveErr, http.ErrServerClosed) {
		logger.Error("http serve failed", "err", serveErr)
		exit = 1
	}
	if tcpErr != nil {
		logger.Error("tcp serve failed", "err", tcpErr)
		exit = 1
	}
	close(snapStop)
	<-snapDone
	// Drain the coalescers (every accepted request is answered), then sync
	// and close the WALs.
	if err := s.Close(); err != nil {
		logger.Error("close failed", "err", err)
		if exit == 0 {
			exit = 1
		}
	}
	fmt.Println("irsd: drained, bye")
	return exit
}

// validateFlags rejects flag combinations irsd used to ignore silently:
// durability knobs given without -data-dir, a background fsync period
// given under a policy that never uses it, and HTTP timeouts that would
// re-open the unbounded-connection hole the defaults exist to close.
// explicit holds the flag names the user actually set on the command line
// (flag.Visit), so defaults never trip the validation.
func validateFlags(explicit map[string]bool, dataDir, fsyncPolicy string, readHeaderTimeout, idleTimeout time.Duration, recoverConc int, tcpAddr string, tcpReadBuf int, logFormat, config string, configPoll time.Duration) error {
	if logFormat != "text" && logFormat != "json" {
		return fmt.Errorf("-log-format %q: want text or json", logFormat)
	}
	if explicit["config"] && explicit["datasets"] {
		return errors.New("-config and -datasets are mutually exclusive (the config file is the dataset list)")
	}
	if configPoll < 0 {
		return errors.New("-config-poll must be >= 0 (0 disables polling)")
	}
	if explicit["config-poll"] && config == "" {
		return errors.New("-config-poll has no effect without -config (there is no file to watch)")
	}
	if readHeaderTimeout <= 0 {
		return errors.New("-read-header-timeout must be positive (a zero http.Server timeout means no limit: any client trickling header bytes pins a connection forever)")
	}
	if idleTimeout <= 0 {
		return errors.New("-idle-timeout must be positive (a zero http.Server timeout means no limit: idle keep-alive connections accumulate forever)")
	}
	if recoverConc < 0 {
		return errors.New("-recover-concurrency must be >= 0 (0 means GOMAXPROCS)")
	}
	if tcpReadBuf < 0 {
		return errors.New("-tcp-read-buf must be >= 0 (0 means the default size)")
	}
	if explicit["tcp-read-buf"] && tcpAddr == "" {
		return errors.New("-tcp-read-buf has no effect without -tcp-addr (the binary TCP transport is disabled)")
	}
	if dataDir == "" {
		for _, name := range []string{"fsync", "fsync-interval", "snapshot-every", "recover-concurrency"} {
			if explicit[name] {
				return fmt.Errorf("-%s has no effect without -data-dir (datasets are memory-only)", name)
			}
		}
		return nil
	}
	if explicit["fsync-interval"] && fsyncPolicy != "interval" {
		return fmt.Errorf("-fsync-interval has no effect with -fsync %s (use -fsync interval)", fsyncPolicy)
	}
	return nil
}

// kindOf renders a dataset spec's kind for log lines.
func kindOf(sp spec.Dataset) string {
	if sp.Weighted {
		return "weighted"
	}
	return "unweighted"
}

// bootDatasets resolves the boot dataset list: the -config file when
// given (its partitions, if any, belong to irsrouter and are skipped),
// the -datasets specs otherwise. A config with no datasets is a boot
// error — an irsd serving nothing is a misconfiguration, not a choice.
func bootDatasets(config, datasets string) ([]spec.Dataset, error) {
	if config == "" {
		return spec.ParseDatasets(datasets)
	}
	f, err := spec.Load(config)
	if err != nil {
		return nil, err
	}
	if len(f.Datasets) == 0 {
		return nil, fmt.Errorf("config %s: no datasets", config)
	}
	return f.Datasets, nil
}

// addDatasetList registers each dataset — durable when dataDir is set,
// memory-only otherwise — optionally preloaded with uniform keys. Durable
// datasets recover concurrently (bounded by recoverConc; 0 means
// GOMAXPROCS), so a daemon serving many datasets boots in the time of its
// largest, not their sum.
func addDatasetList(s *server.Server, logger *slog.Logger, list []spec.Dataset, shards int, seed uint64, preload int, dataDir string, policy server.SyncPolicy, fsyncIvl time.Duration, recoverConc int) error {
	if dataDir == "" {
		for _, sp := range list {
			if err := addMemoryDataset(s, sp, shards, seed, preload); err != nil {
				return err
			}
			logger.Info("dataset registered", "dataset", sp.Name, "kind", kindOf(sp), "shards", shards, "preload", preload)
		}
		return nil
	}
	// Recover durable datasets in parallel: each owns its directory, and
	// dataset registration (core.add) is mutex-protected, so the only
	// coordination needed is the concurrency bound.
	if recoverConc <= 0 {
		recoverConc = runtime.GOMAXPROCS(0)
	}
	sem := make(chan struct{}, recoverConc)
	errs := make([]error, len(list))
	var wg sync.WaitGroup
	for i, sp := range list {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			errs[i] = addDurableDataset(s, logger, sp, shards, seed, preload, dataDir, policy, fsyncIvl)
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// reloadConfig applies the config file against the live registry: datasets
// named by the file but not registered are created (through the same
// provisioner the admin endpoint uses), registered datasets the file no
// longer names are drained and dropped (durable ones with a final
// compacting snapshot). The reload is atomic with respect to validation —
// an unreadable or malformed file, an empty dataset list, or a kind
// change on a live dataset rejects the whole file and the running
// configuration stays exactly as it was, counted as
// irsd_config_reloads_total{status="error"}.
//
// The file is authoritative: a dataset added at runtime via POST /datasets
// but absent from the file is dropped by the next reload. Keep the file
// and the admin surface in agreement, or use only one of them.
func reloadConfig(s *server.Server, logger *slog.Logger, path string) {
	fail := func(err error) {
		s.NoteReload(false)
		logger.Error("config reload rejected, keeping current config", "config", path, "err", err)
	}
	f, err := spec.Load(path)
	if err != nil {
		fail(err)
		return
	}
	if len(f.Datasets) == 0 {
		fail(fmt.Errorf("config %s: no datasets", path))
		return
	}
	cur := make(map[string]string) // live name -> kind
	for _, ds := range s.Stats().Datasets {
		cur[ds.Name] = ds.Kind
	}
	for _, d := range f.Datasets {
		if kind, live := cur[d.Name]; live && (kind == "weighted") != d.Weighted {
			fail(fmt.Errorf("dataset %q: cannot change kind %s -> %s across a reload (drop it first)", d.Name, kind, kindOf(d)))
			return
		}
	}
	// Adds go first so a failing add can roll back to the pre-reload
	// registry before anything was dropped.
	var added []string
	for _, d := range f.Datasets {
		if _, live := cur[d.Name]; live {
			continue
		}
		if err := s.AddDataset(d.Name, d.Weighted); err != nil {
			for _, name := range added {
				if rerr := s.RemoveDataset(name, false); rerr != nil {
					logger.Error("rollback drop failed", "dataset", name, "err", rerr)
				}
			}
			fail(fmt.Errorf("dataset %q: %w", d.Name, err))
			return
		}
		added = append(added, d.Name)
	}
	want := make(map[string]bool, len(f.Datasets))
	for _, d := range f.Datasets {
		want[d.Name] = true
	}
	var dropped []string
	ok := true
	for name := range cur {
		if want[name] {
			continue
		}
		// The final snapshot both compacts the WAL and makes the drop's
		// drain durable in one segment-bounded unit.
		if err := s.RemoveDataset(name, true); err != nil {
			logger.Error("config reload: drop failed", "dataset", name, "err", err)
			ok = false
			continue
		}
		dropped = append(dropped, name)
	}
	s.NoteReload(ok)
	logger.Info("config reloaded", "config", path, "added", added, "dropped", dropped,
		"datasets", len(f.Datasets), "epoch", s.ConfigEpoch(), "ok", ok)
}

// addMemoryDataset registers one memory-only dataset (the pre-durability
// irsd behavior). Both kinds surface preload and registration failures
// with the dataset name attached: the weighted batch insert can reject
// invalid weights, the unweighted one cannot fail by construction, and
// any error either path produces reaches the boot log the same way.
func addMemoryDataset(s *server.Server, sp spec.Dataset, shards int, seed uint64, preload int) error {
	name := sp.Name
	rng := irs.NewRNG(seed)
	if sp.Weighted {
		w := irs.NewWeightedConcurrent[float64](shards, seed)
		if preload > 0 {
			if err := w.InsertBatch(preloadItems(rng, preload)); err != nil {
				return fmt.Errorf("dataset %q: preload: %w", name, err)
			}
		}
		if err := s.AddWeighted(name, w); err != nil {
			return fmt.Errorf("dataset %q: %w", name, err)
		}
		return nil
	}
	c := irs.NewConcurrentSeeded[float64](shards, seed)
	if preload > 0 {
		c.InsertBatch(preloadKeys(rng, preload))
	}
	if err := s.AddUnweighted(name, c); err != nil {
		return fmt.Errorf("dataset %q: %w", name, err)
	}
	return nil
}

// addDurableDataset recovers one dataset from <dataDir>/<name> and
// registers it durable. Preloading only applies when the directory held
// nothing (a restart must not re-preload on top of recovered data); the
// preload bypasses the WAL, so it is made durable by an immediate
// snapshot — all before the listener starts.
func addDurableDataset(s *server.Server, logger *slog.Logger, sp spec.Dataset, shards int, seed uint64, preload int, dataDir string, policy server.SyncPolicy, fsyncIvl time.Duration) error {
	name := sp.Name
	opts := server.DurableOptions{
		Dir:          filepath.Join(dataDir, name),
		Sync:         policy,
		SyncInterval: fsyncIvl,
		Shards:       shards,
		Seed:         seed,
	}
	rng := irs.NewRNG(seed)
	var recovered server.Recovery
	var length int
	// Preload only a directory with no history at all: a recovered dataset
	// that happens to be empty (everything deliberately deleted) must stay
	// empty across restarts.
	fresh := func(rec server.Recovery) bool {
		return rec.SnapshotSeq == 0 && rec.RecordsReplayed == 0
	}
	if sp.Weighted {
		w, rec, err := s.AddDurableWeighted(name, opts)
		if err != nil {
			return fmt.Errorf("dataset %q: %w", name, err)
		}
		recovered = rec
		if fresh(rec) && preload > 0 {
			if err := w.InsertBatch(preloadItems(rng, preload)); err != nil {
				return fmt.Errorf("dataset %q: preload: %w", name, err)
			}
			if _, err := s.Snapshot(name); err != nil {
				return fmt.Errorf("dataset %q: preload snapshot: %w", name, err)
			}
		}
		length = w.Len()
	} else {
		c, rec, err := s.AddDurableUnweighted(name, opts)
		if err != nil {
			return fmt.Errorf("dataset %q: %w", name, err)
		}
		recovered = rec
		if fresh(rec) && preload > 0 {
			c.InsertBatch(preloadKeys(rng, preload))
			if _, err := s.Snapshot(name); err != nil {
				return fmt.Errorf("dataset %q: preload snapshot: %w", name, err)
			}
		}
		length = c.Len()
	}
	logger.Info("dataset recovered", "dataset", name, "kind", kindOf(sp), "items", length,
		"snapshot_seq", recovered.SnapshotSeq, "snapshot_entries", recovered.SnapshotEntries,
		"wal_records", recovered.RecordsReplayed, "torn_tail", recovered.TornTail)
	return nil
}

func preloadKeys(rng *irs.RNG, n int) []float64 {
	keys := make([]float64, n)
	for i := range keys {
		keys[i] = rng.Float64Range(0, 1e6)
	}
	return keys
}

func preloadItems(rng *irs.RNG, n int) []irs.WeightedItem[float64] {
	items := make([]irs.WeightedItem[float64], n)
	for i := range items {
		items[i] = irs.WeightedItem[float64]{Key: rng.Float64Range(0, 1e6), Weight: 1 + rng.Float64()}
	}
	return items
}
