package main

import (
	"fmt"

	"repro/internal/dram"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/trace"
)

// workload is one named benchmark input: a system configuration plus
// the fixed simulated-cycle shape of one repeat. The shape is a
// property of the workload, never of the host, so every commit and
// every host simulates exactly the same cycles per repeat.
type workload struct {
	name     string
	benches  []string
	channels int
	// instruments turns on the opt-in observability layers: delay
	// attribution, the metrics registry, and epoch sampling with the
	// fairness monitor.
	instruments bool

	warmup      int64 // cycles stepped before BeginMeasurement
	sliceCycles int64 // cycles per timed Step slice
	slices      int   // timed slices per repeat
}

// workloads lists the benchmark's inputs; BENCHMARK.json names the
// same three, and README.md says why each was chosen.
var workloads = []workload{
	{
		name:    "compute",
		benches: []string{"crafty", "crafty", "crafty", "crafty"}, channels: 1,
		warmup: 100_000, sliceCycles: 20_000, slices: 40,
	},
	{
		name:    "saturated",
		benches: []string{"art", "art", "art", "art"}, channels: 4,
		warmup: 50_000, sliceCycles: 5_000, slices: 40,
	},
	{
		name:    "isolation",
		benches: []string{"vpr", "stream", "bankhammer", "rowthrash"}, channels: 1,
		instruments: true,
		warmup:      100_000, sliceCycles: 8_000, slices: 40,
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// windowCycles is the measured span of one repeat.
func (w workload) windowCycles() int64 { return w.sliceCycles * int64(w.slices) }

// rate is a repeat's simulated Mcycles per CPU second over its window.
func (w workload) rate(r repeat) float64 { return float64(w.windowCycles()) / r.window / 1e6 }

func (w workload) profiles() ([]trace.Profile, error) {
	ps := make([]trace.Profile, len(w.benches))
	for i, n := range w.benches {
		p, err := trace.ByName(n)
		if err != nil {
			return nil, err
		}
		ps[i] = p
	}
	return ps, nil
}

// config builds the workload's sim.Config. instruments overrides the
// workload's own instrument setting (the traced run measures the
// workload with them toggled); strict selects the per-cycle oracle.
func (w workload) config(seed uint64, instruments, strict bool) (sim.Config, error) {
	ps, err := w.profiles()
	if err != nil {
		return sim.Config{}, err
	}
	cfg := sim.Config{
		Workload: ps,
		Policy:   sim.FQVFTF,
		Seed:     seed,
		Strict:   strict,
	}
	cfg.Mem.Channels = w.channels
	if instruments {
		cfg.Interference = true
		cfg.Metrics = metrics.New()
		cfg.SampleInterval = metrics.DefaultSampleInterval
	}
	return cfg, nil
}

// geom is the address geometry sim.New hands the trace generators, for
// replays that must draw the same instruction streams.
func (w workload) geom() trace.Geom {
	d := dram.DefaultConfig()
	return trace.Geom{
		Channels: w.channels,
		Ranks:    d.Ranks,
		Banks:    d.BanksPerRank,
		Rows:     d.RowsPerBank,
		Cols:     d.ColsPerRow,
	}
}
