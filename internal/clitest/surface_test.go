package clitest

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"os/exec"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// logged is a daemon started with -log-json whose stderr is kept line by
// line.
type logged struct {
	name   string
	cmd    *exec.Cmd
	mu     sync.Mutex
	lines  []string
	exited chan struct{}
	err    error // Wait's result, once exited is closed
}

// startLogged starts a daemon and keeps its stderr; the daemon is killed
// at test end if still running.
func startLogged(t *testing.T, name string, args ...string) *logged {
	t.Helper()
	d := &logged{name: name, cmd: exec.Command(bin(name), args...), exited: make(chan struct{})}
	stderr, err := d.cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := d.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	scanned := make(chan struct{})
	go func() {
		defer close(scanned)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			d.mu.Lock()
			d.lines = append(d.lines, sc.Text())
			d.mu.Unlock()
		}
	}()
	go func() {
		<-scanned
		d.err = d.cmd.Wait()
		close(d.exited)
	}()
	t.Cleanup(func() {
		d.cmd.Process.Kill()
		<-d.exited
		if t.Failed() {
			t.Logf("%s log:\n%s", name, strings.Join(d.log(), "\n"))
		}
	})
	return d
}

func (d *logged) log() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]string(nil), d.lines...)
}

// field waits for the JSON record with message msg and returns its key
// attribute.
func (d *logged) field(t *testing.T, msg, key string) string {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		for _, line := range d.log() {
			var rec map[string]any
			if json.Unmarshal([]byte(line), &rec) == nil && rec["msg"] == msg {
				if v, ok := rec[key].(string); ok {
					return v
				}
			}
		}
		select {
		case <-d.exited:
			t.Fatalf("%s exited before logging %q", d.name, msg)
		case <-time.After(20 * time.Millisecond):
		}
	}
	t.Fatalf("%s never logged %q with %s", d.name, msg, key)
	return ""
}

// stop sends SIGTERM and requires a clean exit.
func (d *logged) stop(t *testing.T) {
	t.Helper()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case <-d.exited:
		if d.err != nil {
			t.Errorf("%s: unclean exit after SIGTERM: %v", d.name, d.err)
		}
	case <-time.After(15 * time.Second):
		t.Fatalf("%s did not exit within 15s of SIGTERM", d.name)
	}
}

// get fetches url and returns its status and body.
func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(body)
}

// TestDaemonsShareOneSurface starts every daemon binary with -log-json and
// a port-0 scrape address, reads the scrape URL from its log, and checks
// that each serves the same surface: build identity and flight-ring drop
// accounting on /metrics, a healthy /healthz, and the trace handler (not
// the mux's 404) behind /trace/. Every stderr line must be JSON.
func TestDaemonsShareOneSurface(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real binaries")
	}
	const any0 = "127.0.0.1:0"
	lb := startLogged(t, "lbone-server", "-listen", any0, "-metrics-listen", any0, "-log-json")
	lboneAddr := lb.field(t, "listening", "addr")
	depot := startLogged(t, "ibp-depot", "-listen", any0, "-capacity", "1048576",
		"-lbone", lboneAddr, "-metrics-listen", any0, "-log-json")
	depotAddr := depot.field(t, "serving", "addr")
	depotURL := depot.field(t, "metrics listening", "url")
	daemons := []*logged{
		lb,
		depot,
		startLogged(t, "nws-server", "-listen", any0, "-lbone", lboneAddr,
			"-metrics-listen", any0, "-log-json"),
		startLogged(t, "maintaind", "-lbone", lboneAddr, "-interval", "1h",
			"-probe-interval", "1h", "-metrics-listen", any0, "-log-json"),
		startLogged(t, "stackmon", "run", "-depots", depotAddr, "-lbone", lboneAddr,
			"-interval", "1h", "-metrics-listen", any0, "-log-json"),
		startLogged(t, "obsd", "-listen", any0, "-interval", "1h",
			"-static", strings.TrimSuffix(strings.TrimPrefix(depotURL, "http://"), "/metrics"),
			"-log-json"),
	}
	for _, d := range daemons {
		component := d.name
		base := strings.TrimSuffix(d.field(t, "metrics listening", "url"), "/metrics")
		code, body := get(t, base+"/metrics")
		if code != http.StatusOK {
			t.Errorf("%s /metrics = %d", component, code)
		}
		for _, want := range []string{`build_info{component="` + component + `"`, "obs_ring_dropped_total"} {
			if !strings.Contains(body, want) {
				t.Errorf("%s /metrics lacks %s", component, want)
			}
		}
		if code, _ := get(t, base+"/healthz"); code != http.StatusOK {
			t.Errorf("%s /healthz = %d, want 200", component, code)
		}
		if code, body := get(t, base+"/trace/not-hex"); code != http.StatusBadRequest {
			t.Errorf("%s /trace/not-hex = %d %q, want the trace handler's 400", component, code, body)
		}
	}

	// Stop the registry last: the others deregister from it on the way out.
	for _, d := range daemons[1:] {
		d.stop(t)
	}
	lb.stop(t)
	for _, d := range daemons {
		for _, line := range d.log() {
			if !json.Valid([]byte(line)) {
				t.Errorf("%s printed a non-JSON stderr line: %s", d.name, line)
			}
		}
	}
}
