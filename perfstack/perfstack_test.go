package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"testing"
)

// binDir holds ibp-depot, lbone-server, xnd and perfstack, built once by
// TestMain from this checkout's source.
var binDir string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "perfstack-bin-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	cmd := exec.Command("go", "build", "-o", dir+"/",
		"repro/cmd/ibp-depot", "repro/cmd/lbone-server", "repro/cmd/xnd", ".")
	cmd.Env = append(os.Environ(), "GOFLAGS=-mod=mod", "GOTOOLCHAIN=local")
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		fmt.Fprintln(os.Stderr, "building binaries:", err)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	binDir = dir
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// TestSeedDeterminesInputs: one seed gives the same preload, op list and
// contents twice; another seed gives different ones.
func TestSeedDeterminesInputs(t *testing.T) {
	draw := func(workload string, seed uint64) ([]int, []genOp, []byte) {
		g := newGenerator(workload, seed)
		sizes := g.preload()
		var ops []genOp
		for i := 0; i < 2000; i++ {
			ops = append(ops, g.next())
		}
		return sizes, ops, content(seed, 3, 1000)
	}
	for _, w := range []string{"bulk", "small", "degraded"} {
		s1, o1, c1 := draw(w, 7)
		s2, o2, c2 := draw(w, 7)
		if !reflect.DeepEqual(s1, s2) || !reflect.DeepEqual(o1, o2) || !reflect.DeepEqual(c1, c2) {
			t.Errorf("%s: seed 7 drew different inputs twice", w)
		}
		s3, o3, c3 := draw(w, 8)
		if reflect.DeepEqual(c1, c3) {
			t.Errorf("%s: seeds 7 and 8 drew the same contents", w)
		}
		if w != "bulk" && (reflect.DeepEqual(s1, s3) && reflect.DeepEqual(o1, o3)) {
			t.Errorf("%s: seeds 7 and 8 drew the same preload and op list", w)
		}
	}
}

// TestGeneratedMix checks the small and degraded mixes and size ranges.
func TestGeneratedMix(t *testing.T) {
	g := newGenerator("small", 1)
	sizes := g.preload()
	if len(sizes) != smallPreload {
		t.Fatalf("small preload: %d objects, want %d", len(sizes), smallPreload)
	}
	uploads, hot := 0, 0
	const n = 20000
	for i := 0; i < n; i++ {
		op := g.next()
		switch op.Kind {
		case kindUpload:
			uploads++
			if op.Size < smallMin || op.Size > smallMax {
				t.Fatalf("upload size %d outside [%d,%d]", op.Size, smallMin, smallMax)
			}
		case kindDownload:
			if op.Obj < 10 {
				hot++
			}
		}
	}
	if share := float64(uploads) / n; share < 0.23 || share > 0.27 {
		t.Errorf("upload share %.3f, want about 0.25", share)
	}
	// Zipf(1) over ~9,000 objects puts about a quarter of picks on the
	// ten hottest.
	if share := float64(hot) / float64(n-uploads); share < 0.15 || share > 0.40 {
		t.Errorf("share of downloads on the 10 hottest objects %.3f, want Zipf(1)-like", share)
	}
	counts := map[string]int{}
	g = newGenerator("degraded", 1)
	g.preload()
	for i := 0; i < n; i++ {
		counts[g.next().Kind]++
	}
	for kind, want := range map[string]float64{kindDownload: 0.4, kindCoded: 0.4, kindUpload: 0.1, kindRepair: 0.1} {
		if got := float64(counts[kind]) / n; got < want-0.02 || got > want+0.02 {
			t.Errorf("degraded %s share %.3f, want %.2f", kind, got, want)
		}
	}
}

// TestWrongDigestFailsOps feeds one wrong digest: the download of that
// object must count as failed, so the byte check cannot pass silently.
func TestWrongDigestFailsOps(t *testing.T) {
	res, err := run(config{workload: "bulk", seed: 1, seconds: 1, bin: binDir, workDir: t.TempDir(), corruptDigest: true})
	if err != nil {
		t.Fatal(err)
	}
	attempted, failed := res.counts()
	if failed != 1 {
		t.Fatalf("%d of %d ops failed, want exactly the one with the wrong digest", failed, attempted)
	}
	if r := res.e2eExtras()["e2e.failed_ops_ratio"]; r <= 0 {
		t.Fatalf("failed_ops_ratio = %v, want > 0", r)
	}

	res, err = run(config{workload: "bulk", seed: 1, seconds: 1, bin: binDir, workDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if attempted, failed := res.counts(); failed != 0 || attempted == 0 {
		t.Fatalf("clean run: %d of %d ops failed", failed, attempted)
	}
}

// gone reports whether pid no longer exists.
func gone(pid int) bool {
	return errors.Is(syscall.Kill(pid, 0), syscall.ESRCH)
}

// runDirs lists the run directories left in work.
func runDirs(t *testing.T, work string) []string {
	t.Helper()
	m, err := filepath.Glob(filepath.Join(work, "run-*"))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestFailedRunLeavesNothing: a run that fails after its stacks are up
// leaves no child process and no directory behind.
func TestFailedRunLeavesNothing(t *testing.T) {
	work := t.TempDir()
	var pids []int
	_, err := run(config{
		workload: "degraded", seed: 1, seconds: 1, bin: binDir, workDir: work,
		failAfterSetup: true,
		onStack:        func(s *stack) { pids = append(pids, s.pids()...) },
	})
	if err == nil {
		t.Fatal("run succeeded; want the injected failure")
	}
	sp := specs["degraded"]
	if want := sp.setups * (1 + sp.depots); len(pids) != want {
		t.Fatalf("saw %d children, want %d", len(pids), want)
	}
	for _, pid := range pids {
		if !gone(pid) {
			t.Errorf("child %d survived the failed run", pid)
		}
	}
	if d := runDirs(t, work); len(d) != 0 {
		t.Errorf("run directories survived: %v", d)
	}
}

// TestInterruptLeavesNothing: SIGINT mid-measurement stops every child and
// removes the run directory.
func TestInterruptLeavesNothing(t *testing.T) {
	work := t.TempDir()
	cmd := exec.Command(filepath.Join(binDir, "perfstack"), "-bin", binDir, "-work", work,
		"--workload", "bulk", "--seed", "1", "--seconds", "60", "--trace", "0")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stdout = io.Discard
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	started := regexp.MustCompile(`started \S+ pid=(\d+)`)
	var pids []int
	sc := bufio.NewScanner(stderr)
	for sc.Scan() {
		if m := started.FindStringSubmatch(sc.Text()); m != nil {
			pid, _ := strconv.Atoi(m[1])
			pids = append(pids, pid)
		}
		if strings.Contains(sc.Text(), "measuring") {
			break
		}
	}
	if err := cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, stderr)
	err = cmd.Wait()
	if err == nil {
		t.Fatal("interrupted run exited 0")
	}
	if len(pids) == 0 {
		t.Fatal("no children seen")
	}
	for _, pid := range pids {
		if !gone(pid) {
			t.Errorf("child %d survived the interrupt", pid)
		}
	}
	if d := runDirs(t, work); len(d) != 0 {
		t.Errorf("run directories survived: %v", d)
	}
}

// depotDelta returns the per-verb ibp_depot_ops_total and the
// ibp_depot_connects_total change between two scrapes.
func depotDelta(before, after map[string]float64) map[string]float64 {
	out := map[string]float64{}
	for k, v := range after {
		if strings.HasPrefix(k, "ibp_depot_ops_total") || k == "ibp_depot_connects_total" {
			if d := v - before[k]; d != 0 {
				out[k] = d
			}
		}
	}
	return out
}

// TestClientMatchesShippedXnd runs the real xnd binary once for each op
// shape the benchmark drives, against the same stack, and checks that the
// depots see the same per-verb ops and connections from xnd as from the
// benchmark client. It fails if the benchmark client ever pools, batches
// or hedges differently from shipped xnd.
func TestClientMatchesShippedXnd(t *testing.T) {
	for _, workload := range []string{"bulk", "small", "degraded"} {
		t.Run(workload, func(t *testing.T) { parity(t, workload) })
	}
}

func parity(t *testing.T, workload string) {
	dir := t.TempDir()
	st, err := startStack(binDir, dir, specs[workload].depots)
	if err != nil {
		t.Fatal(err)
	}
	defer st.stop()
	r := &runner{
		cfg:  config{workload: workload, seed: 3, noCleanup: true},
		spec: specs[workload],
		st:   st,
		gen:  newGenerator(workload, 3),
		pop:  &population{objs: map[int]*object{}},
		logW: io.Discard,
	}
	if err := r.preload(st, r.pop); err != nil {
		t.Fatal(err)
	}
	if workload == "degraded" {
		if err := r.degrade(); err != nil {
			t.Fatal(err)
		}
	}
	xnd := func(args ...string) {
		t.Helper()
		cmd := exec.Command(filepath.Join(binDir, "xnd"), args...)
		cmd.Dir = dir
		cmd.Env = append(os.Environ(), "XND_LBONE="+st.lbone.addr, "XND_SITE="+clientSite)
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("xnd %v: %v\n%s", args, err, out)
		}
	}
	scrapeAll := func() map[string]float64 {
		t.Helper()
		m, err := st.depotCounters()
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	writeObj := func(name string, data []byte) string {
		t.Helper()
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	// compare runs one op through the benchmark client (fresh, like one
	// xnd invocation), then the same op through xnd.
	compare := func(shape string, op genOp, xndArgs func() []string) {
		t.Helper()
		m0 := scrapeAll()
		recs := r.do(newClient(st.lbone.addr, io.Discard, false), op)
		for _, rec := range recs {
			if rec.failed {
				t.Fatalf("%s: benchmark op failed", shape)
			}
		}
		m1 := scrapeAll()
		xnd(xndArgs()...)
		m2 := scrapeAll()
		bench, shipped := depotDelta(m0, m1), depotDelta(m1, m2)
		t.Logf("%s: depots saw %v from each", shape, bench)
		if len(bench) == 0 || !reflect.DeepEqual(bench, shipped) {
			t.Errorf("%s: depots saw\n  benchmark client: %v\n  xnd:              %v", shape, bench, shipped)
		}
	}
	size := map[string]int{"bulk": bulkSize, "small": 10 << 10, "degraded": degradedSize}[workload]
	frags := map[string]string{"bulk": "4", "small": "1", "degraded": "3"}[workload]
	obj := r.gen.pop
	compare("upload", genOp{Kind: kindUpload, Obj: obj, Size: size}, func() []string {
		in := writeObj("up.dat", content(r.cfg.seed, obj, size))
		return []string{"upload", "-replicas", "2", "-fragments", frags, "-o", filepath.Join(dir, "up.xnd"), in}
	})
	downloads := []genOp{{Kind: kindDownload, Obj: obj}}
	if workload == "degraded" {
		downloads = []genOp{{Kind: kindDownload, Obj: 0}, {Kind: kindCoded, Obj: degradedPerKind}}
	}
	for _, op := range downloads {
		compare(op.Kind, op, func() []string {
			x := writeObj("dl.xnd", r.pop.get(op.Obj).xnd)
			return []string{"download", "-o", filepath.Join(dir, "dl.dat"), x}
		})
	}
	if workload == "degraded" {
		compare("repair", genOp{Kind: kindRepair, Obj: 1}, func() []string {
			x := writeObj("rp.xnd", r.pop.get(1).xnd)
			return []string{"maintain", "-o", filepath.Join(dir, "rp.out.xnd"), x}
		})
	}
}

// TestBenchmarkJSONListsEveryMetric: BENCHMARK.json names exactly the
// metrics the program prints, with the same units and directions.
func TestBenchmarkJSONListsEveryMetric(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(doc.EndToEnd, endToEndDefs) {
		t.Errorf("end_to_end in BENCHMARK.json differs from endToEndDefs")
	}
	if !reflect.DeepEqual(doc.PerLayer, perLayerDefs) {
		t.Errorf("per_layer in BENCHMARK.json differs from perLayerDefs")
	}
	for _, w := range doc.Workloads {
		if _, ok := specs[w.Name]; !ok {
			t.Errorf("workload %q has no spec", w.Name)
		}
	}
	if len(doc.Workloads) != len(specs) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program has %d", len(doc.Workloads), len(specs))
	}
}
