package main

import (
	"fmt"
	"io"
	"time"
)

// minRepeats is the fewest repeats an untraced run makes, however
// short its budget: the determinism check needs two, and slice_ms_p90
// needs at least 100 slices.
const minRepeats = 3

// bench runs one workload at one seed and checks every repeat.
type bench struct {
	w      workload
	seed   uint64
	budget time.Duration
	pinned *digests // nil: a strict-oracle repeat is the reference
	log    io.Writer
	rec    *spans // traced run only

	attempted, failed, good int
	first                   *repeat // the first good repeat: digest reference
	// kinds holds the first good repeat of each kind. Exact counts and
	// the interference matrix must repeat exactly within a kind only:
	// the fast path skips the acceptance retries the strict loop makes,
	// epoch sampling changes where it skips, and the strict loop
	// examines waiting requests every cycle, so memctrl.nacks and the
	// matrix cells differ between kinds while the Result does not.
	kinds map[string]*repeat
}

// check records a finished repeat: it must not have failed, its Result
// digest must equal the first good repeat's, and its exact counts and
// interference digest those of the first good repeat of its kind. It
// returns whether the repeat is good.
func (b *bench) check(kind string, r repeat, err error) bool {
	b.attempted++
	if err == nil && b.first != nil && r.dig.Result != b.first.dig.Result {
		err = fmt.Errorf("determinism: result digest %s, first repeat %s", r.dig.Result, b.first.dig.Result)
	}
	if k, ok := b.kinds[kind]; ok && err == nil {
		if r.dig.Interference != k.dig.Interference {
			err = fmt.Errorf("determinism: interference digest %s, first %s repeat %s", r.dig.Interference, kind, k.dig.Interference)
		} else if r.counts != k.counts {
			err = fmt.Errorf("determinism: exact counts %+v, first %s repeat %+v", r.counts, kind, k.counts)
		}
	}
	if err != nil {
		b.failed++
		fmt.Fprintf(b.log, "perfbench: %s %s repeat %d failed: %v\n", b.w.name, kind, b.attempted, err)
		return false
	}
	fmt.Fprintf(b.log, "perfbench: %s %s repeat %d: setup %.3f s, window %.3f s (wall %.3f s), %.4f Mcycles/s\n",
		b.w.name, kind, b.attempted, r.setup, r.window, r.windowWall, b.w.rate(r))
	rp := &r
	if b.first == nil {
		b.first = rp
	}
	if b.kinds == nil {
		b.kinds = map[string]*repeat{}
	}
	if _, ok := b.kinds[kind]; !ok {
		b.kinds[kind] = rp
	}
	b.good++
	return true
}

// verify checks the first good fast repeat against the pinned digests
// or, for an unpinned seed, its Result against a strict-oracle
// repeat's; the strict loop attributes interference differently, so
// only pinned digests fix the matrix. Every good repeat carries the
// same Result digest, so on a mismatch, or when the reference cannot be
// had, they all count as failed. haveStrict says strict repeats already
// passed check, which makes them the reference for an unpinned seed.
func (b *bench) verify(haveStrict bool) {
	fast, ok := b.kinds["fast"]
	if !ok {
		return
	}
	var err error
	if b.pinned != nil {
		if fast.dig != *b.pinned {
			err = fmt.Errorf("digests %+v, pinned %+v", fast.dig, *b.pinned)
		}
	} else if !haveStrict {
		b.attempted++
		var ref repeat
		ref, err = runRepeat(b.w, b.seed, runOpts{strict: true, instruments: b.w.instruments}, -1)
		if err == nil && ref.dig.Result != fast.dig.Result {
			err = fmt.Errorf("result digest %s, strict oracle %s", fast.dig.Result, ref.dig.Result)
		}
		if err != nil {
			b.failed++
			err = fmt.Errorf("strict-oracle reference: %w", err)
		}
	}
	if err != nil {
		fmt.Fprintf(b.log, "perfbench: %s seed %d: %v\n", b.w.name, b.seed, err)
		b.failed += b.good
		b.good = 0
	}
}

func (b *bench) result(m metricSet) result {
	return result{
		Correct:   b.failed == 0 && b.good > 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   m,
	}
}

// untraced measures the end-to-end metrics: fresh repeats of the
// workload, untraced and unprofiled, each after a run of the
// calibration kernel, until the budget is spent. Timings are scaled to
// the reference host speed by the median kernel time (calibrate.go).
func (b *bench) untraced() result {
	var fast []repeat
	var cals []float64
	cal := newCalibrator()
	start := time.Now()
	for n := 0; n < minRepeats || time.Since(start) < b.budget; n++ {
		cals = append(cals, cal.run())
		r, err := runRepeat(b.w, b.seed, runOpts{instruments: b.w.instruments}, -1)
		if b.check("fast", r, err) {
			fast = append(fast, r)
		}
		if b.attempted >= 2*minRepeats && b.good == 0 {
			break // every repeat fails; more would only burn the budget
		}
	}
	b.verify(false)
	m := metricSet{}
	if len(fast) == 0 {
		return b.result(m)
	}
	var rates, slices, setups, heaps []float64
	for _, r := range fast {
		rates = append(rates, b.w.rate(r))
		slices = append(slices, r.slices...)
		setups = append(setups, r.setup)
		heaps = append(heaps, r.heap)
	}
	for i := range slices {
		slices[i] *= 1e3
	}
	// slow > 1 means the host ran slower than the reference speed.
	slow := median(cals) / calibrationRefSeconds
	rate, p50, p90, setup := median(rates), quantile(slices, 0.5), quantile(slices, 0.9), median(setups)
	fmt.Fprintf(b.log, "perfbench: %s unscaled: sim_mcycles_per_s=%.4f slice_ms_p50=%.3f slice_ms_p90=%.3f setup_s=%.4f; host slowness %.4f\n",
		b.w.name, rate, p50, p90, setup, slow)
	m.add("sim_mcycles_per_s", rate*slow, "Mcycles/s")
	m.add("slice_ms_p50", p50/slow, "ms")
	m.add("slice_ms_p90", p90/slow, "ms")
	m.add("setup_s", setup/slow, "s")
	m.add("heap_mb", median(heaps)/1e6, "MB")
	return b.result(m)
}
