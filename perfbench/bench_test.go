package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"runtime/pprof"
	"sort"
	"strings"
	"testing"
	"time"
)

// small shrinks a workload to a few thousand cycles per repeat, so
// tests exercise the real configuration quickly.
func small(t *testing.T, name string) workload {
	t.Helper()
	w, err := workloadByName(name)
	if err != nil {
		t.Fatal(err)
	}
	w.warmup, w.sliceCycles, w.slices = 2_000, 1_000, 5
	return w
}

func TestPlantedWrongDigestFails(t *testing.T) {
	w := small(t, "isolation")
	good, err := runRepeat(w, 7, runOpts{instruments: true}, -1)
	if err != nil {
		t.Fatal(err)
	}
	if good.dig.Interference == "" {
		t.Fatal("isolation repeat has no interference digest")
	}
	wrongResult := good.dig
	wrongResult.Result = strings.Repeat("0", 64)
	wrongMatrix := good.dig
	wrongMatrix.Interference = strings.Repeat("0", 64)
	for _, tc := range []struct {
		name   string
		pinned *digests
		ok     bool
	}{
		{"pinned", &good.dig, true},
		{"wrong result", &wrongResult, false},
		{"wrong interference", &wrongMatrix, false},
		{"strict reference", nil, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := &bench{w: w, seed: 7, pinned: tc.pinned, log: io.Discard}
			res := b.untraced()
			if res.Correct != tc.ok {
				t.Errorf("correct = %v, want %v (attempted %d, failed %d)", res.Correct, tc.ok, res.Attempted, res.Failed)
			}
			if !tc.ok && res.Failed != res.Attempted {
				t.Errorf("failed %d of %d repeats; a wrong digest fails every one", res.Failed, res.Attempted)
			}
		})
	}
}

func TestDeterminismCheck(t *testing.T) {
	b := &bench{w: small(t, "compute"), log: io.Discard}
	r := repeat{dig: digests{Result: "a"}, counts: counts{Retired: 10}}
	if !b.check("fast", r, nil) {
		t.Fatal("first repeat rejected")
	}
	if !b.check("fast", r, nil) {
		t.Fatal("identical repeat rejected")
	}
	// Another kind may differ in counts but never in the Result.
	other := r
	other.counts.NACKs = 5
	if !b.check("strict", other, nil) {
		t.Fatal("strict repeat with its own counts rejected")
	}
	drift := r
	drift.counts.Retired = 11
	if b.check("fast", drift, nil) {
		t.Error("a changed exact count was accepted")
	}
	diverged := other
	diverged.dig.Result = "b"
	if b.check("strict", diverged, nil) {
		t.Error("a changed Result digest was accepted")
	}
	if b.attempted != 5 || b.failed != 2 {
		t.Errorf("attempted %d failed %d, want 5 and 2", b.attempted, b.failed)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, tc := range []struct{ q, want float64 }{
		{0, 1}, {0.5, 3}, {0.9, 4.6}, {1, 5}, {0.25, 2},
	} {
		if got := quantile(xs, tc.q); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of an even count = %v, want 2.5", got)
	}
	if xs[0] != 5 {
		t.Error("quantile reordered its input")
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of nothing is not NaN")
	}
}

func TestSampleLayer(t *testing.T) {
	for _, tc := range []struct{ fn, file, outer, outerFile, want string }{
		{"repro/internal/memctrl.(*Controller).bankSchedule", "/x/internal/memctrl/memctrl.go", "", "", "memctrl"},
		{"repro/internal/memctrl.(*intfTracker).drain", "/x/internal/memctrl/interference.go", "repro/internal/memctrl.(*intfTracker).drain", "/x/internal/memctrl/interference.go", "instruments"},
		{"repro/internal/memctrl.(*FairnessMonitor).Sample", "/x/internal/memctrl/fairmon.go", "repro/internal/memctrl.(*FairnessMonitor).Sample", "/x/internal/memctrl/fairmon.go", "instruments"},
		{"repro/internal/metrics.(*Sampler).Sample", "/x/internal/metrics/sampler.go", "repro/internal/metrics.(*Sampler).Sample", "/x/internal/metrics/sampler.go", "instruments"},
		// An instruments hook inlined into the controller is the
		// controller's code.
		{"repro/internal/memctrl.(*intfTracker).patchFallback", "/x/internal/memctrl/interference.go", "repro/internal/memctrl.(*Controller).bankSchedule", "/x/internal/memctrl/memctrl.go", "memctrl"},
		{"repro/internal/trace.(*rng).next", "/x/internal/trace/trace.go", "repro/internal/cpu.(*Core).dispatch", "/x/internal/cpu/cpu.go", "trace"},
		{"repro/internal/core.(*VTMS).FinishTime", "", "", "", "core"},
		{"repro/internal/dram.(*Channel).EarliestIssue", "", "", "", "dram"},
		{"repro/internal/cache.(*Hierarchy).Access", "", "", "", "cache"},
		{"repro/internal/sim.(*System).Step", "", "", "", "sim"},
		{"runtime.mallocgc", "", "", "", "runtime"},
		{"internal/runtime/maps.(*Map).getWithKeySmall", "", "", "", "runtime"},
		{"repro/internal/addrmap.(*XOR).Decode", "", "", "", "other"},
		{"main.runRepeat", "", "", "", "other"},
		{"", "", "", "", "other"},
	} {
		if got := sampleLayer(tc.fn, tc.file, tc.outer, tc.outerFile); got != tc.want {
			t.Errorf("sampleLayer(%q, %q) = %q, want %q", tc.fn, tc.outer, got, tc.want)
		}
	}
}

// spin burns CPU in this package, so its samples land in "other".
func spin(d time.Duration) uint64 {
	x := uint64(1)
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
	}
	return x
}

func TestSelfSamplesBucketsAProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiler unavailable:", err)
	}
	sinkKey += int64(spin(500 * time.Millisecond))
	pprof.StopCPUProfile()
	got, err := selfSamples(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, v := range got {
		total += v
	}
	if total < 10 || got["other"]*2 < total {
		t.Errorf("spinning in the benchmark's own code gave %v; want most of >= 10 samples in other", got)
	}
	if _, err := selfSamples([]byte("not a profile")); err == nil {
		t.Error("garbage decoded as a profile")
	}
}

// TestMetricsMatchBenchmarkJSON runs both modes and checks that each
// emits exactly the metrics BENCHMARK.json names, with their units.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var ours []string
	for _, w := range workloads {
		ours = append(ours, w.name)
	}
	if strings.Join(names, ",") != strings.Join(ours, ",") {
		t.Errorf("BENCHMARK.json workloads %v, benchmark %v", names, ours)
	}
	for _, mode := range []struct {
		traced bool
		want   []struct{ Name, Unit string }
	}{{false, spec.EndToEnd}, {true, spec.PerLayer}} {
		var out bytes.Buffer
		if code := run(&out, io.Discard, "compute", 1, 1, mode.traced, t.TempDir()); code != 0 {
			t.Fatalf("traced=%v: exit code %d", mode.traced, code)
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("traced=%v: correct %v, attempted %d, failed %d", mode.traced, res.Correct, res.Attempted, res.Failed)
		}
		want := map[string]string{}
		for _, m := range mode.want {
			want[m.Name] = m.Unit
		}
		var missing, extra []string
		for name, unit := range want {
			got, ok := res.Metrics[name]
			if !ok {
				missing = append(missing, name)
			} else if got.Unit != unit {
				t.Errorf("traced=%v: %s in %q, BENCHMARK.json says %q", mode.traced, name, got.Unit, unit)
			}
		}
		for name := range res.Metrics {
			if _, ok := want[name]; !ok {
				extra = append(extra, name)
			}
		}
		sort.Strings(missing)
		sort.Strings(extra)
		if len(missing) > 0 || len(extra) > 0 {
			t.Errorf("traced=%v: not emitted %v; not in BENCHMARK.json %v", mode.traced, missing, extra)
		}
	}
}

func TestEnvironmentGuardRefusesToTime(t *testing.T) {
	for _, v := range guardedEnv {
		t.Run(v, func(t *testing.T) {
			t.Setenv(v, "1")
			var out, errs bytes.Buffer
			if code := run(&out, &errs, "compute", 1, 1, false, t.TempDir()); code == 0 {
				t.Error("exit code 0 with", v, "set")
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatal(err)
			}
			if res.Correct || res.Failed != 1 || len(res.Metrics) != 0 {
				t.Errorf("result %+v, want one failed run and no metrics", res)
			}
			if !strings.Contains(errs.String(), v) {
				t.Errorf("message %q does not name %s", errs.String(), v)
			}
		})
	}
}
