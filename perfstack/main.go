// Command perfstack is the repository benchmark: it starts the shipped
// stack as separate processes — one lbone-server and pack-backend
// ibp-depot daemons registered with it, metrics on — drives it from this
// one load-generator process through a client built the way `xnd` builds
// its own, checks every downloaded byte against the digest recorded at
// upload, and prints one JSON result line.
//
// Run it from the repository root through run.sh, which builds the
// binaries first:
//
//	bash perfstack/run.sh --workload small --seed 1 --seconds 10 --trace 0
//
// Workloads:
//
//	bulk      1 client, 4 depots: upload a 16 MiB file (2 replicas x 4
//	          fragments, checksums, sequential), download it, verify it,
//	          delete it.
//	small     2 clients, 4 depots, 4,000 preloaded objects: 25% uploads of
//	          4-64 KiB (log-uniform, 2 x 1), 75% Zipf(1) downloads.
//	degraded  1 client, 6 depots, one SIGKILLed but still listed: 40%
//	          replicated (2 x 3) and 40% RS(4,2) 1 MiB downloads, 10%
//	          uploads, 10% core.Maintain repairs; every op on a fresh client.
//
// --trace 0 prints the end-to-end metrics. --trace 1 runs an untraced
// phase and then a traced one of the same length on the same stack, and
// prints the per-layer metrics: the traced phase's layer breakdown plus
// process, depot and client counters read around the untraced phase.
// Spans stay in memory and are written once, at the end, to
// .bench_build/trace-<workload>-seed<n>.jsonl.
//
// The tests (cd perfstack && go test ./...) build the binaries and check
// that the benchmark client causes the same depot traffic as shipped
// `xnd`, that a wrong digest fails an op, that one seed always gives the
// same inputs, and that no daemon or directory outlives a failed or
// interrupted run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
)

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfstack: "+format+"\n", args...)
}

func main() {
	workload := flag.String("workload", "", "bulk, small or degraded")
	seed := flag.Uint64("seed", 1, "workload seed: the only source of sizes, contents, op mix and picks")
	seconds := flag.Float64("seconds", 10, "how long each measured phase runs")
	trace := flag.Int("trace", 0, "1 = report per-layer metrics from a traced phase")
	bin := flag.String("bin", ".bench_build/bin", "directory holding the ibp-depot and lbone-server binaries")
	work := flag.String("work", ".bench_build", "scratch directory for the stack's files")
	flag.Parse()

	// Interrupted runs stop their daemons and remove their files too.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sig
		logf("%v: stopping the stack", s)
		cleanupAll()
		os.Exit(130)
	}()

	binDir, err := filepath.Abs(*bin)
	if err != nil {
		logf("%v", err)
		os.Exit(1)
	}
	res, err := run(config{
		workload: *workload,
		seed:     *seed,
		seconds:  *seconds,
		trace:    *trace == 1,
		bin:      binDir,
		workDir:  *work,
	})
	if err != nil {
		logf("%v", err)
		os.Exit(1)
	}
	attempted, failed := res.counts()
	var metrics map[string]metric
	if *trace == 1 {
		metrics = res.perLayer()
		for _, n := range res.notes {
			logf("note: %s", n)
		}
		logf("trace written to %s", res.traceFile)
	} else {
		metrics = res.endToEnd()
	}
	fmt.Fprintf(os.Stderr, "perfstack: %s seed %d: %d ops attempted, %d failed; setups %v\n",
		*workload, *seed, attempted, failed, res.setups)
	e2e := res.endToEnd()
	for k, v := range res.e2eExtras() {
		e2e[k] = metric{Value: v}
	}
	fmt.Fprint(os.Stderr, res.summary(e2e))
	if *trace == 1 {
		fmt.Fprint(os.Stderr, res.summary(metrics))
	}
	for k, m := range metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			logf("note: %s is not a number (%v); reported as 0", k, m.Value)
			metrics[k] = metric{Unit: m.Unit}
		}
	}
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{failed == 0 && attempted > 0, attempted, failed, metrics})
	if err != nil {
		logf("%v", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}
