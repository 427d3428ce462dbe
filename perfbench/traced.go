package main

import (
	"fmt"
	"time"
)

// traced is the separate traced run behind the per-layer metrics. It
// repeats rounds until the budget is spent; each round runs
//
//   - an untraced fast repeat, the base of the tracing overhead and of
//     the fast-over-strict ratio;
//   - a traced fast repeat: spans for every slice and read completion,
//     and a CPU profile of the window whose self samples are bucketed
//     by layer;
//   - a strict-oracle repeat on the same slices;
//   - a repeat with the workload's instruments toggled;
//   - one batch of every layer replay.
//
// Every repeat must reproduce the same digests and exact counts.
// Ratios and replay costs are medians over rounds.
func (b *bench) traced() result {
	samples := map[string]int64{}
	var untracedRate, tracedRate, fastOverStrict, instrOverhead []float64
	var mallocs uint64
	replays := map[string][]float64{}
	rate := b.w.rate
	rp, err := newReplayer(b.w, b.seed)
	if err != nil {
		b.attempted++
		b.failed++
		fmt.Fprintf(b.log, "perfbench: %s replay inputs: %v\n", b.w.name, err)
		return b.result(metricSet{})
	}

	start := time.Now()
	for round := 0; round == 0 || time.Since(start) < b.budget; round++ {
		t0 := time.Now()
		rs := b.rec.open("round", -1, t0)
		// kind groups repeats whose exact counts must agree (see
		// bench.kinds); tracing does not change the simulation.
		repeatSpan := func(name, kind string, o runOpts) (repeat, bool) {
			id := b.rec.open("repeat."+name, rs, time.Now())
			r, err := runRepeat(b.w, b.seed, o, id)
			b.rec.close(id, time.Now(), b.w.windowCycles(), 0)
			return r, b.check(kind, r, err)
		}

		fast, okFast := repeatSpan("fast", "fast", runOpts{instruments: b.w.instruments})
		tr, okTr := repeatSpan("traced", "fast", runOpts{instruments: b.w.instruments, rec: b.rec})
		b.rec.slice = -1
		strict, okStrict := repeatSpan("strict", "strict", runOpts{strict: true, instruments: b.w.instruments})
		toggled, okTog := repeatSpan("instruments_toggled", "toggled", runOpts{instruments: !b.w.instruments})
		if okFast {
			untracedRate = append(untracedRate, rate(fast))
			mallocs += fast.mallocs
		}
		if okTr {
			tracedRate = append(tracedRate, rate(tr))
			if s, err := selfSamples(tr.profile); err != nil {
				fmt.Fprintf(b.log, "perfbench: %s profile: %v\n", b.w.name, err)
				b.failed++
			} else {
				for k, v := range s {
					samples[k] += v
				}
			}
		}
		if okFast && okStrict {
			fastOverStrict = append(fastOverStrict, strict.window/fast.window)
		}
		if okFast && okTog {
			on, off := fast, toggled
			if !b.w.instruments {
				on, off = toggled, fast
			}
			instrOverhead = append(instrOverhead, rate(off)/rate(on))
		}
		b.replayRound(rp, rs, replays)
		b.rec.close(rs, time.Now(), int64(round), 0)
	}
	b.verify(true)

	m := metricSet{}
	if r, ok := b.kinds["fast"]; ok {
		r.counts.metrics(m)
	}
	var total int64
	for _, v := range samples {
		total += v
	}
	for _, l := range layers {
		m.add(l+".self_frac", ratio(samples[l], total), "fraction")
	}
	for name, xs := range replays {
		if len(xs) > 0 {
			m.add(name, median(xs), "ns")
		}
	}
	if len(fastOverStrict) > 0 {
		m.add("sim.fast_over_strict", median(fastOverStrict), "ratio")
	}
	if len(instrOverhead) > 0 {
		m.add("instruments.overhead", median(instrOverhead), "ratio")
	}
	if n := len(untracedRate); n > 0 {
		m.add("runtime.allocs_per_mcycle", float64(mallocs)/(float64(b.w.windowCycles())*float64(n)/1e6), "1/Mcycle")
	}
	if len(untracedRate) > 0 && len(tracedRate) > 0 {
		m.add("bench.trace_overhead", median(untracedRate)/median(tracedRate), "ratio")
	}
	fmt.Fprintf(b.log, "perfbench: %s traced: %d profile samples\n", b.w.name, total)
	return b.result(m)
}

// replayRound runs one batch of every layer replay, each under its own
// span, and appends each cost per operation to out by metric name. The
// cache replay runs before memctrl (it records the miss stream) and
// memctrl before core and dram (the depth-16 run records requests).
func (b *bench) replayRound(rp *replayer, parent int32, out map[string][]float64) {
	batch := func(name string, f func() (float64, int64, error)) {
		t0 := time.Now()
		b.attempted++
		v, ops, err := safeReplay(f)
		b.rec.add("replay."+name, parent, t0, time.Now(), ops, 0)
		if err != nil {
			b.failed++
			fmt.Fprintf(b.log, "perfbench: %s replay %s: %v\n", b.w.name, name, err)
			return
		}
		out[name] = append(out[name], v)
	}
	batch("trace.ns_per_next", rp.traceNext)
	batch("cache.ns_per_access", rp.cacheAccess)
	batch("cpu.replay_ns_per_instr", rp.cpuTick)
	for _, d := range memDepths {
		d := d
		batch(fmt.Sprintf("memctrl.ns_per_tick.q%d", d), func() (float64, int64, error) { return rp.memTick(d) })
	}
	var key float64
	batch("core.ns_per_finish_time", func() (float64, int64, error) {
		finish, k, calls, err := rp.coreKeys()
		key = k
		return finish, calls, err
	})
	if key > 0 {
		out["core.ns_per_key"] = append(out["core.ns_per_key"], key)
	}
	batch("dram.ns_per_issue", rp.dramIssue)
}

// safeReplay runs a replay, returning a panic inside a layer as an error.
func safeReplay(f func() (float64, int64, error)) (v float64, ops int64, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	return f()
}
