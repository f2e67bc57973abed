package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// proc is one daemon the benchmark started: its HTTP and TCP addresses as
// printed on stdout, and its exit.
type proc struct {
	name string
	cmd  *exec.Cmd
	http string // base URL
	tcp  string // host:port
	done chan struct{}
}

var httpc = &http.Client{Timeout: 10 * time.Second}

// daemonNice lowers the daemons' CPU priority below the load generator's.
// Both share the host's CPUs; a real client runs elsewhere, so the
// generator must not be the one that waits for a CPU.
const daemonNice = 10

// startProc starts bin with args and waits until it has printed both of
// its listen addresses. Its stderr goes to <work>/<name>.log.
func startProc(work, name, bin string, args ...string) (*proc, error) {
	logf, err := os.OpenFile(filepath.Join(work, name+".log"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command("nice", append([]string{"-n", strconv.Itoa(daemonNice), bin}, args...)...)
	cmd.Stderr = logf
	// A benchmark killed from outside takes its daemons with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		logf.Close()
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, err
	}
	p := &proc{name: name, cmd: cmd, done: make(chan struct{})}
	addrs := make(chan [2]string, 1)
	go func() {
		sc := bufio.NewScanner(out)
		var a [2]string
		sent := false
		for sc.Scan() {
			line := sc.Text()
			if _, v, ok := strings.Cut(line, ": serving on "); ok {
				a[0] = v
			}
			if _, v, ok := strings.Cut(line, ": tcp on "); ok {
				a[1] = v
			}
			if !sent && a[0] != "" && a[1] != "" {
				addrs <- a
				sent = true
			}
		}
		io.Copy(io.Discard, out)
		cmd.Wait()
		logf.Close()
		close(p.done)
	}()
	select {
	case a := <-addrs:
		p.http, p.tcp = a[0], a[1]
		return p, nil
	case <-p.done:
		return nil, fmt.Errorf("%s exited before serving (see %s.log)", name, name)
	case <-time.After(60 * time.Second):
		p.kill()
		return nil, fmt.Errorf("%s did not print its addresses within 60s", name)
	}
}

// kill sends SIGKILL and waits for the process to end.
func (p *proc) kill() {
	p.cmd.Process.Signal(syscall.SIGKILL)
	<-p.done
}

// vmHWMMiB reads the process's peak resident set size from /proc.
func (p *proc) vmHWMMiB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// cpuSeconds returns the CPU time the process's threads have run, from
// the nanosecond counters of /proc/<pid>/task/*/schedstat (the clock-tick
// counters of /proc/<pid>/stat are too coarse for a 0.1 s set-up).
func (p *proc) cpuSeconds() (float64, error) {
	dir := fmt.Sprintf("/proc/%d/task", p.cmd.Process.Pid)
	tasks, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var ns float64
	for _, t := range tasks {
		b, err := os.ReadFile(filepath.Join(dir, t.Name(), "schedstat"))
		if err != nil {
			continue // the thread exited after the listing
		}
		f := strings.Fields(string(b))
		if len(f) == 0 {
			return 0, fmt.Errorf("empty schedstat for task %s", t.Name())
		}
		v, err := strconv.ParseFloat(f[0], 64)
		if err != nil {
			return 0, err
		}
		ns += v
	}
	return ns / 1e9, nil
}

// waitReady polls /readyz until it answers 200.
func waitReady(base string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	c := &http.Client{Timeout: time.Second}
	for {
		resp, err := c.Get(base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s/readyz not ready after %v (last error %v)", base, timeout, err)
		}
		time.Sleep(time.Millisecond)
	}
}

// Counters is one /metrics scrape: series (name plus labels) to value.
type Counters map[string]float64

// scrape fetches and parses a daemon's /metrics exposition.
func scrape(base string) (Counters, error) {
	resp, err := httpc.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	c := Counters{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		c[line[:i]] = v
	}
	return c, sc.Err()
}

// Sum adds every series of the metric family name.
func (c Counters) Sum(name string) float64 {
	s := 0.0
	for k, v := range c {
		if k == name || strings.HasPrefix(k, name+"{") {
			s += v
		}
	}
	return s
}

// scrapeAll sums the scrapes of several daemons series by series.
func scrapeAll(ps []*proc) (Counters, error) {
	all := Counters{}
	for _, p := range ps {
		c, err := scrape(p.http)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.name, err)
		}
		for k, v := range c {
			all[k] += v
		}
	}
	return all, nil
}

// delta returns after minus before for the family name.
func delta(before, after Counters, name string) float64 {
	return after.Sum(name) - before.Sum(name)
}
