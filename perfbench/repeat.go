package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"runtime/pprof"
	"time"

	"repro/internal/dram"
	"repro/internal/sim"
)

// counts are the exact per-layer work counts of one repeat's measured
// window, read from the layers' public fields. Every repeat of a
// workload at one seed must produce the same counts bit for bit; a
// difference is a determinism bug.
type counts struct {
	Cycles, Cores int64

	Retired, StallCycles int64 // cpu

	L1DHits, L1DMisses, L2Hits, L2Misses, MSHRFullNACKs int64 // cache

	Accepted, NACKs, ReadsDone, ReadLatSum int64 // memctrl
	RowHits, RowConflicts, RowClosed       int64

	Cmds [6]int64 // dram, by dram.Kind

	DataBusUtil, BankUtil float64 // dram, from sim.Result
}

// snapCounts reads the cumulative counters; a window's counts are the
// difference of two snapshots.
func snapCounts(s *sim.System, n int) counts {
	c := counts{Cycles: s.Cycle(), Cores: int64(n)}
	ctrl := s.Controller()
	for i := 0; i < n; i++ {
		cr := s.Core(i)
		c.Retired += cr.Retired
		c.StallCycles += cr.StallCycles
		h := cr.Hierarchy()
		c.L1DHits += h.L1D().Hits
		c.L1DMisses += h.L1D().Misses
		c.L2Hits += h.L2().Hits
		c.L2Misses += h.L2().Misses
		c.MSHRFullNACKs += h.MSHRFullNACK
		st := ctrl.Stats(i)
		c.Accepted += st.ReadsAccepted + st.WritesAccepted
		c.NACKs += st.ReadNACKs + st.WriteNACKs
		c.ReadsDone += st.ReadsDone
		c.ReadLatSum += st.ReadLatencySum
		c.RowHits += st.RowHits
		c.RowConflicts += st.RowConflicts
		c.RowClosed += st.RowClosed
	}
	for k := range c.Cmds {
		c.Cmds[k] = ctrl.CommandCount(dram.Kind(k))
	}
	return c
}

func (c counts) minus(b counts) counts {
	d := c
	d.Cycles -= b.Cycles
	d.Retired -= b.Retired
	d.StallCycles -= b.StallCycles
	d.L1DHits -= b.L1DHits
	d.L1DMisses -= b.L1DMisses
	d.L2Hits -= b.L2Hits
	d.L2Misses -= b.L2Misses
	d.MSHRFullNACKs -= b.MSHRFullNACKs
	d.Accepted -= b.Accepted
	d.NACKs -= b.NACKs
	d.ReadsDone -= b.ReadsDone
	d.ReadLatSum -= b.ReadLatSum
	d.RowHits -= b.RowHits
	d.RowConflicts -= b.RowConflicts
	d.RowClosed -= b.RowClosed
	for k := range d.Cmds {
		d.Cmds[k] -= b.Cmds[k]
	}
	return d
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// metrics renders the counts as per-layer metrics.
func (c counts) metrics(out metricSet) {
	out.add("cpu.retired", float64(c.Retired), "count")
	out.add("cpu.stall_frac", ratio(c.StallCycles, c.Cycles*c.Cores), "fraction")
	out.add("cache.l1d_hit_rate", ratio(c.L1DHits, c.L1DHits+c.L1DMisses), "fraction")
	out.add("cache.l2_hit_rate", ratio(c.L2Hits, c.L2Hits+c.L2Misses), "fraction")
	out.add("cache.l2_misses", float64(c.L2Misses), "count")
	out.add("cache.mshr_full_nacks", float64(c.MSHRFullNACKs), "count")
	out.add("memctrl.accepted", float64(c.Accepted), "count")
	out.add("memctrl.nacks", float64(c.NACKs), "count")
	out.add("memctrl.accept_ratio", ratio(c.Accepted, c.Accepted+c.NACKs), "fraction")
	out.add("memctrl.read_wait_cycles_mean", ratio(c.ReadLatSum, c.ReadsDone), "cycles")
	out.add("memctrl.row_hit_rate", ratio(c.RowHits, c.RowHits+c.RowConflicts+c.RowClosed), "fraction")
	out.add("dram.cmds.act", float64(c.Cmds[dram.KindActivate]), "count")
	out.add("dram.cmds.rd", float64(c.Cmds[dram.KindRead]), "count")
	out.add("dram.cmds.wr", float64(c.Cmds[dram.KindWrite]), "count")
	out.add("dram.cmds.pre", float64(c.Cmds[dram.KindPrecharge]), "count")
	out.add("dram.cmds.ref", float64(c.Cmds[dram.KindRefresh]), "count")
	out.add("dram.data_bus_util", c.DataBusUtil, "fraction")
	out.add("dram.bank_util", c.BankUtil, "fraction")
}

// digests identify a repeat's simulated outcome: the sim.Result, and
// for instrumented runs the windowed interference matrix.
type digests struct {
	Result       string `json:"result"`
	Interference string `json:"interference,omitempty"`
}

func digestOf(v any) (string, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// runOpts selects how one repeat runs.
type runOpts struct {
	strict      bool   // per-cycle oracle instead of the fast path
	instruments bool   // the opt-in instruments on or off
	rec         *spans // non-nil: record spans and CPU-profile the window
}

// repeat is the outcome of one fresh system: sim.New, warmup, and a
// measured window of fixed-length slices. Its timings are process CPU
// time (cpuTime); spans keep wall time.
type repeat struct {
	setup      float64   // CPU seconds: sim.New plus warmup
	heap       float64   // live heap bytes the system holds after setup
	window     float64   // CPU seconds stepping the measured window
	windowWall float64   // wall seconds stepping the measured window
	slices     []float64 // CPU seconds per slice
	mallocs    uint64    // heap allocations during the window
	counts     counts
	dig        digests
	profile    []byte // pprof CPU profile of the window (traced repeats)
}

// runRepeat simulates one repeat of w. Panics inside the simulator are
// returned as errors so the run can count the repeat as failed.
func runRepeat(w workload, seed uint64, o runOpts, parent int32) (r repeat, err error) {
	defer func() {
		if p := recover(); p != nil {
			if o.rec != nil {
				pprof.StopCPUProfile()
			}
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	cfg, err := w.config(seed, o.instruments, o.strict)
	if err != nil {
		return r, err
	}
	n := len(cfg.Workload)
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	heap0 := ms.HeapAlloc

	t0, c0 := time.Now(), cpuTime()
	s, err := sim.New(cfg)
	if err != nil {
		return r, err
	}
	defer s.Close()
	s.Step(w.warmup)
	r.setup = (cpuTime() - c0).Seconds()
	s.BeginMeasurement()
	o.rec.add("setup", parent, t0, time.Now(), 0, w.warmup)

	runtime.GC()
	runtime.ReadMemStats(&ms)
	r.heap = float64(ms.HeapAlloc) - float64(heap0)

	var prof bytes.Buffer
	if o.rec != nil {
		o.rec.chainReads(s)
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return r, fmt.Errorf("start CPU profile: %w", err)
		}
	}
	base := snapCounts(s, n)
	r.slices = make([]float64, w.slices)
	runtime.ReadMemStats(&ms)
	mallocs0 := ms.Mallocs
	start, cstart := time.Now(), cpuTime()
	prev, cprev := start, cstart
	for i := range r.slices {
		cyc0 := s.Cycle()
		if o.rec != nil {
			o.rec.slice = o.rec.open("slice", parent, prev)
		}
		s.Step(w.sliceCycles)
		now, cnow := time.Now(), cpuTime()
		if o.rec != nil {
			o.rec.close(o.rec.slice, now, cyc0, s.Cycle())
		}
		r.slices[i] = (cnow - cprev).Seconds()
		prev, cprev = now, cnow
	}
	r.window = (cprev - cstart).Seconds()
	r.windowWall = prev.Sub(start).Seconds()
	runtime.ReadMemStats(&ms)
	r.mallocs = ms.Mallocs - mallocs0
	if o.rec != nil {
		pprof.StopCPUProfile()
		r.profile = prof.Bytes()
	}

	s.FinishAudit()
	res := s.Results()
	r.counts = snapCounts(s, n).minus(base)
	r.counts.DataBusUtil, r.counts.BankUtil = res.DataBusUtil, res.BankUtil
	if r.dig.Result, err = digestOf(res); err != nil {
		return r, err
	}
	if intf, ok := s.Interference(); ok {
		if r.dig.Interference, err = digestOf(intf); err != nil {
			return r, err
		}
	}
	return r, nil
}
