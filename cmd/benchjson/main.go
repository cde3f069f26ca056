// Command benchjson converts `go test -bench` output into JSON. It reads
// the benchmark log on stdin, echoes it to stderr so progress stays
// visible, and writes a JSON array of results to stdout:
//
//	go test -bench 'UploadDownload' . | benchjson > BENCH_upload_download.json
//
// Each result carries name, iterations, ns_per_op, and — when the bench
// reports them — mb_per_s, bytes_per_op, allocs_per_op, and any custom
// metrics (vsec/dl, success%, ...) under "extra".
//
// With -check it doubles as a regression gate: after parsing it compares
// one metric of each named bench (-name takes a comma-separated list)
// against a committed baseline file and exits 1 when a new value
// regresses by more than -max-regress (a fraction;
// 0.20 = 20%). Counting metrics like allocs/op barely jitter between
// runs, so a gate on them catches a reintroduced per-op allocation
// without the noise problems of gating on throughput:
//
//	go test -bench 'UploadDownload' -benchmem . \
//	    | benchjson -check BENCH_upload_download.json \
//	        -name UploadDownload/upload,UploadDownload/download -metric allocs_per_op \
//	        -max-regress 0.20 > /dev/null
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
)

type result struct {
	Name        string             `json:"name"`
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	MBPerS      float64            `json:"mb_per_s,omitempty"`
	BytesPerOp  int64              `json:"bytes_per_op,omitempty"`
	AllocsPerOp int64              `json:"allocs_per_op,omitempty"`
	Extra       map[string]float64 `json:"extra,omitempty"`
}

func main() {
	checkFile := flag.String("check", "", "baseline JSON file to gate against (empty: no gate)")
	checkName := flag.String("name", "", "comma-separated bench names to compare (GOMAXPROCS suffix ignored)")
	checkMetric := flag.String("metric", "allocs_per_op", "metric to compare: ns_per_op, mb_per_s, bytes_per_op, allocs_per_op, or an extra key")
	maxRegress := flag.Float64("max-regress", 0.20, "allowed fractional regression before exiting 1")
	flag.Parse()

	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var out []result
	seen := map[string]int{}
	for sc.Scan() {
		line := sc.Text()
		fmt.Fprintln(os.Stderr, line)
		r, ok := parseLine(line)
		if !ok {
			continue
		}
		// `go test -count=N` repeats every bench N times; keep the run
		// with the lowest ns/op per name. On a shared machine exogenous
		// noise (steal time, writeback) contaminates whole runs at a
		// time, and the quietest run is the reproducible one — the same
		// reasoning that has timeit report the minimum. Keeping the
		// whole row (not per-metric minima) keeps its metrics coherent.
		if i, dup := seen[r.Name]; dup {
			if r.NsPerOp < out[i].NsPerOp {
				out[i] = r
			}
			continue
		}
		seen[r.Name] = len(out)
		out = append(out, r)
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: reading stdin: %v\n", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	if *checkFile != "" {
		failed := false
		for _, name := range strings.Split(*checkName, ",") {
			if err := check(out, *checkFile, name, *checkMetric, *maxRegress); err != nil {
				fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
				failed = true
			}
		}
		if failed {
			os.Exit(1)
		}
	}
}

// check compares one metric of one bench against the baseline file and
// returns an error when it regressed beyond the allowed fraction. For
// mb_per_s higher is better; for every other metric lower is better.
func check(results []result, baselinePath, name, metric string, allowed float64) error {
	raw, err := os.ReadFile(baselinePath)
	if err != nil {
		return fmt.Errorf("reading baseline: %w", err)
	}
	var baseline []result
	if err := json.Unmarshal(raw, &baseline); err != nil {
		return fmt.Errorf("parsing baseline %s: %w", baselinePath, err)
	}
	base, ok := find(baseline, name)
	if !ok {
		return fmt.Errorf("baseline %s has no bench %q", baselinePath, name)
	}
	cur, ok := find(results, name)
	if !ok {
		return fmt.Errorf("current run has no bench %q", name)
	}
	bv, err := metricOf(base, metric)
	if err != nil {
		return fmt.Errorf("baseline: %w", err)
	}
	cv, err := metricOf(cur, metric)
	if err != nil {
		return fmt.Errorf("current run: %w", err)
	}
	if bv == 0 {
		return fmt.Errorf("baseline %s %s is zero; cannot compute regression", name, metric)
	}
	regress := cv/bv - 1 // lower is better: growth is regression
	if metric == "mb_per_s" {
		regress = 1 - cv/bv
	}
	if regress > allowed {
		return fmt.Errorf("%s %s regressed %.1f%% (baseline %.2f, now %.2f; allowed %.0f%%)",
			name, metric, 100*regress, bv, cv, 100*allowed)
	}
	fmt.Fprintf(os.Stderr, "benchjson: check ok: %s %s baseline %.2f, now %.2f (%+.1f%%, allowed +%.0f%%)\n",
		name, metric, bv, cv, 100*regress, 100*allowed)
	return nil
}

// find matches a bench by name. An exact match wins; otherwise a recorded
// name also matches with its trailing -GOMAXPROCS suffix stripped, so a
// query for "UploadDownload/download" finds "UploadDownload/download-8"
// from a multi-core machine. (The stripped form is only a fallback: bench
// names that legitimately end in digits, like SmallObject/live-1000000,
// are found by the exact match first.)
func find(rs []result, name string) (result, bool) {
	for _, r := range rs {
		if r.Name == name {
			return r, true
		}
	}
	for _, r := range rs {
		if i := strings.LastIndex(r.Name, "-"); i >= 0 && r.Name[:i] == name {
			if _, err := strconv.Atoi(r.Name[i+1:]); err == nil {
				return r, true
			}
		}
	}
	return result{}, false
}

func metricOf(r result, metric string) (float64, error) {
	switch metric {
	case "ns_per_op":
		return r.NsPerOp, nil
	case "mb_per_s":
		return r.MBPerS, nil
	case "bytes_per_op":
		return float64(r.BytesPerOp), nil
	case "allocs_per_op":
		return float64(r.AllocsPerOp), nil
	default:
		if v, ok := r.Extra[metric]; ok {
			return v, nil
		}
		return 0, fmt.Errorf("bench %s has no metric %q", r.Name, metric)
	}
}

// parseLine handles one `go test -bench` result line, e.g.
//
//	BenchmarkUploadDownload/upload-8  100  10474025 ns/op  100.11 MB/s  12 B/op  3 allocs/op
func parseLine(line string) (result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return result{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return result{}, false
	}
	r := result{Name: strings.TrimPrefix(fields[0], "Benchmark"), Iterations: iters}
	// The rest is (value, unit) pairs.
	sawNs := false
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			continue
		}
		switch unit := fields[i+1]; unit {
		case "ns/op":
			r.NsPerOp = v
			sawNs = true
		case "MB/s":
			r.MBPerS = v
		case "B/op":
			r.BytesPerOp = int64(v)
		case "allocs/op":
			r.AllocsPerOp = int64(v)
		default:
			if r.Extra == nil {
				r.Extra = map[string]float64{}
			}
			r.Extra[unit] = v
		}
	}
	return r, sawNs
}
