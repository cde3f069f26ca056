package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// proc is one daemon child: its command, the addresses it logged once
// bound, and the directory it owns.
type proc struct {
	name        string
	cmd         *exec.Cmd
	addr        string // IBP or L-Bone listen address
	metricsAddr string // HTTP /metrics address ("" when off)
	dir         string // pack directory (depots only)
	exited      chan struct{}
	killed      bool
}

// pid returns the child's process ID.
func (p *proc) pid() int { return p.cmd.Process.Pid }

// stack is one running shipped stack: an lbone-server and N pack depots,
// all children of this process, all on loopback ports they chose.
type stack struct {
	bin    string
	dir    string
	lbone  *proc
	depots []*proc

	mu    sync.Mutex
	procs []*proc
}

// startTimeout bounds how long a daemon may take to log its bound address.
const startTimeout = 20 * time.Second

// startStack launches the lbone-server and n depots (pack backend, metrics
// on, registered through -lbone) and returns once every depot has logged
// its registration. dir must be empty; the stack owns it.
func startStack(bin, dir string, n int) (*stack, error) {
	s := &stack{bin: bin, dir: dir}
	// Tracked from birth, so an interrupt during setup stops it too.
	track(s, "")
	secret := filepath.Join(dir, "secret")
	if err := os.WriteFile(secret, []byte("perfstack-secret-0123456789"), 0o600); err != nil {
		s.stop()
		return nil, err
	}
	lb, err := s.spawn("lbone-server", "lbone-server", []string{"listening"},
		"-listen", "127.0.0.1:0", "-log-json")
	if err != nil {
		s.stop()
		return nil, err
	}
	s.lbone = lb
	// Depots start concurrently: each registers on its own, and setup time
	// is then bounded by the slowest depot rather than their sum.
	s.depots = make([]*proc, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		pdir := filepath.Join(dir, fmt.Sprintf("depot%d", i))
		if err := os.MkdirAll(pdir, 0o755); err != nil {
			s.stop()
			return nil, err
		}
		wg.Add(1)
		go func(i int, pdir string) {
			defer wg.Done()
			d, err := s.spawn(fmt.Sprintf("depot%d", i), "ibp-depot",
				[]string{"serving", "metrics listening", "registered with L-Bone"},
				"-listen", "127.0.0.1:0", "-backend", "pack", "-dir", pdir,
				"-secret-file", secret, "-lbone", lb.addr,
				"-name", fmt.Sprintf("D%d", i), "-site", depotSites[i%len(depotSites)],
				"-metrics-listen", "127.0.0.1:0", "-log-json")
			if d != nil {
				d.dir = pdir
			}
			s.depots[i], errs[i] = d, err
		}(i, pdir)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		s.stop()
		return nil, err
	}
	return s, nil
}

// spawn starts one daemon and waits until it has logged every message in
// want. Addresses are read from the log lines, never guessed: every daemon
// binds port 0.
func (s *stack) spawn(name, binary string, want []string, args ...string) (*proc, error) {
	cmd := exec.Command(filepath.Join(s.bin, binary), args...)
	// A child must not outlive this process even when it dies by SIGKILL.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL, Setpgid: true}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(filepath.Join(s.dir, name+".log"))
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	p := &proc{name: name, cmd: cmd, exited: make(chan struct{})}
	s.mu.Lock()
	s.procs = append(s.procs, p)
	s.mu.Unlock()
	fmt.Fprintf(os.Stderr, "perfstack: started %s pid=%d\n", name, p.pid())

	type logged struct{ msg, addr, url string }
	lines := make(chan logged)
	waiting := make(chan struct{})
	defer close(waiting)
	go func() {
		// Drain the daemon's log for its whole life (a full pipe would
		// block it), copying every line to its log file.
		defer logf.Close()
		defer close(lines)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			logf.Write(append(sc.Bytes(), '\n'))
			var rec struct {
				Msg  string `json:"msg"`
				Addr string `json:"addr"`
				URL  string `json:"url"`
			}
			if json.Unmarshal(sc.Bytes(), &rec) == nil && rec.Msg != "" {
				select {
				case lines <- logged{rec.Msg, rec.Addr, rec.URL}:
				case <-waiting:
				}
			}
		}
		io.Copy(logf, stderr)
	}()
	go func() {
		cmd.Wait()
		close(p.exited)
	}()

	pending := map[string]bool{}
	for _, w := range want {
		pending[w] = true
	}
	timeout := time.NewTimer(startTimeout)
	defer timeout.Stop()
	for len(pending) > 0 {
		select {
		case l, ok := <-lines:
			if !ok {
				return p, fmt.Errorf("%s exited before logging %v (see %s.log)", name, keys(pending), name)
			}
			if !pending[l.msg] {
				continue
			}
			delete(pending, l.msg)
			switch l.msg {
			case "serving", "listening":
				p.addr = l.addr
			case "metrics listening":
				p.metricsAddr = strings.TrimSuffix(strings.TrimPrefix(l.url, "http://"), "/metrics")
			}
		case <-timeout.C:
			return p, fmt.Errorf("%s did not log %v within %v", name, keys(pending), startTimeout)
		}
	}
	return p, nil
}

func keys(m map[string]bool) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}

// kill SIGKILLs one daemon and waits until it has exited. The L-Bone keeps
// listing a killed depot until its registration TTL runs out, as in the
// paper's outages.
func (p *proc) kill() {
	p.killed = true
	p.cmd.Process.Kill()
	<-p.exited
}

// stop kills every child and waits for each to exit. It is safe to call
// more than once.
func (s *stack) stop() {
	untrack(s, "")
	s.mu.Lock()
	procs := s.procs
	s.procs = nil
	s.mu.Unlock()
	for _, p := range procs {
		p.cmd.Process.Kill()
	}
	for _, p := range procs {
		<-p.exited
	}
}

// pids lists the children started so far.
func (s *stack) pids() []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []int
	for _, p := range s.procs {
		out = append(out, p.pid())
	}
	return out
}

// liveDepots returns the depots that have not been killed.
func (s *stack) liveDepots() []*proc {
	var out []*proc
	for _, d := range s.depots {
		if !d.killed {
			out = append(out, d)
		}
	}
	return out
}

// scrape reads one daemon's /metrics and returns each sample keyed by
// name plus its rendered labels, e.g. `ibp_depot_ops_total{verb="load"}`.
func scrape(metricsAddr string) (map[string]float64, error) {
	cl := http.Client{Timeout: 5 * time.Second}
	resp, err := cl.Get("http://" + metricsAddr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape %s: %s", metricsAddr, resp.Status)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		// "<name>{labels} <value>[ # exemplar]"
		if i := strings.Index(line, " # "); i >= 0 {
			line = line[:i]
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		out[line[:sp]] = v
	}
	return out, sc.Err()
}

// depotCounters sums the named samples over every live depot's /metrics.
func (s *stack) depotCounters() (map[string]float64, error) {
	sum := map[string]float64{}
	for _, d := range s.liveDepots() {
		m, err := scrape(d.metricsAddr)
		if err != nil {
			return nil, err
		}
		for k, v := range m {
			if strings.HasPrefix(k, "ibp_depot_") {
				sum[k] += v
			}
		}
	}
	return sum, nil
}

// procStat reads a process's CPU time (user+system) and peak resident set
// (VmHWM) from /proc.
func procStat(pid int) (cpu time.Duration, hwmBytes int64, err error) {
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	rest := string(stat)
	if i := strings.LastIndexByte(rest, ')'); i >= 0 {
		rest = rest[i+2:]
	}
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, _ := strconv.ParseInt(f[11], 10, 64)
	st, _ := strconv.ParseInt(f[12], 10, 64)
	// USER_HZ is 100 on every Linux this runs on.
	cpu = time.Duration(ut+st) * 10 * time.Millisecond
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return cpu, 0, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			kb, _ := strconv.ParseInt(strings.Fields(line)[1], 10, 64)
			hwmBytes = kb << 10
		}
	}
	return cpu, hwmBytes, nil
}

// diskUsage sums st_blocks (allocated bytes, so sparse bundle files count
// only what they hold) and counts pack bundle files under dir.
func diskUsage(dir string) (allocated int64, bundles int, journal int64) {
	filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() {
			return nil
		}
		if st, ok := info.Sys().(*syscall.Stat_t); ok {
			allocated += st.Blocks * 512
		}
		name := info.Name()
		if strings.HasPrefix(name, "bundle-") && strings.HasSuffix(name, ".pack") {
			bundles++
		}
		if name == "journal.jsonl" {
			journal += info.Size()
		}
		return nil
	})
	return allocated, bundles, journal
}

// depotDisk sums diskUsage over every depot directory, killed depots
// included (their files stay on disk).
func (s *stack) depotDisk() (allocated int64, bundles int, journal int64) {
	for _, d := range s.depots {
		a, b, j := diskUsage(d.dir)
		allocated += a
		bundles += b
		journal += j
	}
	return allocated, bundles, journal
}
