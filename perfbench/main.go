// Command perfbench is the repository's benchmark. It runs one named
// workload of the simulator for a fixed host-time budget and prints, as
// the last line of its output, one JSON object with the run's
// correctness verdict and its metrics: the end-to-end metrics by
// default, or with -trace 1 the per-layer metrics of a separate traced
// run. README.md lists every metric and workload.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload compute --seed 1 --seconds 20 --trace 0
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// pinnedJSON holds the expected digests of each workload's outcome,
// keyed by workload and then by seed.
//
//go:embed digests.json
var pinnedJSON []byte

// guardedEnv are the variables that make sim.Config silently switch the
// simulator into another mode (strict oracle, intra-run workers, audit,
// attribution); a timed run under any of them would measure a different
// program.
var guardedEnv = []string{"FQMS_STRICT", "FQMS_WORKERS", "FQMS_AUDIT", "FQMS_INTERFERENCE"}

// result is the last line a run prints.
type result struct {
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

func main() {
	name := flag.String("workload", "compute", "workload to run: compute, saturated or isolation")
	seed := flag.Uint64("seed", 1, "seed for the workload's trace generators (sim.Config.Seed)")
	seconds := flag.Int("seconds", 20, "host seconds to measure for")
	traced := flag.Int("trace", 0, "1 runs the traced run and reports per-layer metrics")
	spanDir := flag.String("spans", ".bench_build/spans", "directory for the traced run's span files")
	flag.Parse()
	os.Exit(run(os.Stdout, os.Stderr, *name, *seed, *seconds, *traced == 1, *spanDir))
}

// run executes one benchmark run and returns the exit code.
func run(stdout, stderr io.Writer, name string, seed uint64, seconds int, traced bool, spanDir string) int {
	fmt.Fprintf(stdout, "host: go=%s gomaxprocs=%d numcpu=%d cpu=%q\n",
		runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), cpuModel())
	for _, v := range guardedEnv {
		if os.Getenv(v) != "" {
			fmt.Fprintf(stderr, "perfbench: refusing to time a run with %s set: it changes how the simulator runs; unset it\n", v)
			printResult(stdout, result{Attempted: 1, Failed: 1, Metrics: metricSet{}})
			return 1
		}
	}
	w, err := workloadByName(name)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if seconds < 1 {
		fmt.Fprintln(stderr, "perfbench: -seconds must be at least 1")
		return 2
	}
	pinned, err := pinnedDigests(pinnedJSON, w.name, seed)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	b := &bench{w: w, seed: seed, budget: time.Duration(seconds) * time.Second, pinned: pinned, log: stderr}
	var res result
	if traced {
		b.rec = newSpans()
		res = b.traced()
		// One file per workload, overwritten by each traced run: a
		// saturated run records over half a million spans.
		file := filepath.Join(spanDir, w.name+".json")
		if err := b.rec.write(file, w.name, seed); err != nil {
			fmt.Fprintln(stderr, "perfbench: writing spans:", err)
			return 1
		}
		fmt.Fprintf(stdout, "spans: %d written to %s\n", len(b.rec.list), file)
	} else {
		res = b.untraced()
	}
	fmt.Fprintf(stdout, "workload=%s seed=%d attempted=%d failed=%d failed_frac=%g\n",
		w.name, seed, res.Attempted, res.Failed, float64(res.Failed)/float64(res.Attempted))
	if b.first != nil {
		fmt.Fprintf(stdout, "digests: result=%s interference=%s\n", b.first.dig.Result, b.first.dig.Interference)
	}
	printResult(stdout, res)
	return 0
}

func printResult(w io.Writer, r result) {
	b, err := json.Marshal(r)
	if err != nil {
		// A metricSet of float64 values only fails to encode on a NaN
		// or an infinity, which no finished run produces.
		panic(err)
	}
	fmt.Fprintln(w, string(b))
}

// pinnedDigests returns the pinned digests of workload at seed, or nil
// when none are pinned; a strict-oracle run is then the reference.
func pinnedDigests(raw []byte, workload string, seed uint64) (*digests, error) {
	var all map[string]map[string]digests
	if err := json.Unmarshal(raw, &all); err != nil {
		return nil, fmt.Errorf("digests.json: %w", err)
	}
	d, ok := all[workload][fmt.Sprint(seed)]
	if !ok {
		return nil, nil
	}
	return &d, nil
}
