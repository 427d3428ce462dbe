package main

import (
	"fmt"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/dram"
	"repro/internal/memctrl"
	"repro/internal/trace"
)

// Each replay calls one layer's public functions on inputs drawn from
// the workload's own profiles and seed, so a layer's cost per operation
// is measured apart from the rest of the simulator, in process CPU time
// (cpuTime). Each does a fixed amount of work per batch; the traced run
// times several batches and reports the median.
const (
	replayNextPerCore   = 250_000 // trace: Generator.Next calls
	replayInstrPerCore  = 250_000 // cache: instructions whose accesses are replayed
	replayCPUWarmup     = 60_000  // cpu: untimed Core.Tick cycles per core
	replayCPUCycles     = 60_000  // cpu: timed Core.Tick cycles per core
	replayFillLatency   = 200     // cpu: cycles from an L2 miss to its fill
	replayMemRequests   = 20_000  // memctrl: accepted requests per depth
	replayCoreCalls     = 400_000 // core: FinishTime and Key calls each
	replayDRAMCommands  = 200_000 // dram: commands issued
	replayKeptRequests  = 20_000  // requests recorded for the core and dram replays
	replayDrainCapCycle = 10_000_000
)

// memDepths are the controller occupancies the memctrl replay holds.
var memDepths = []int{4, 16, 64}

// memReq is one entry of the recorded miss and writeback stream.
type memReq struct {
	thread int
	addr   uint64
	write  bool
}

// replayer holds a workload's replay inputs and the requests recorded
// from its own memctrl replay.
type replayer struct {
	w        workload
	seed     uint64
	profiles []trace.Profile
	accesses [][]access // per core, the cache replay's input
	stream   []memReq   // cache replay's misses and writebacks, interleaved
	reqs     []core.Request
	mcfg     memctrl.Config
}

type access struct {
	class cache.AccessClass
	addr  uint64
}

func newReplayer(w workload, seed uint64) (*replayer, error) {
	ps, err := w.profiles()
	if err != nil {
		return nil, err
	}
	mcfg := memctrl.DefaultConfig(len(ps))
	mcfg.Channels = w.channels
	r := &replayer{w: w, seed: seed, profiles: ps, mcfg: mcfg,
		reqs: make([]core.Request, 0, replayKeptRequests)}
	// Draw each core's memory accesses once, untimed.
	r.accesses = make([][]access, len(ps))
	for i := range ps {
		gen, err := r.generator(i)
		if err != nil {
			return nil, err
		}
		var ins trace.Instr
		for n := 0; n < replayInstrPerCore; n++ {
			gen.Next(&ins)
			switch ins.Kind {
			case trace.KindLoad:
				r.accesses[i] = append(r.accesses[i], access{cache.ClassLoad, ins.Addr})
			case trace.KindStore:
				r.accesses[i] = append(r.accesses[i], access{cache.ClassStore, ins.Addr})
			}
		}
	}
	return r, nil
}

// generator builds core i's trace generator exactly as sim.New does.
func (r *replayer) generator(i int) (*trace.Generator, error) {
	return trace.NewGeneratorGeom(r.profiles[i], i, r.seed+1, r.w.geom())
}

func (r *replayer) hierarchyConfig(i int) cache.HierarchyConfig {
	if r.profiles[i].Agent == trace.AgentStream {
		return cache.StreamHierarchyConfig()
	}
	return cache.DefaultHierarchyConfig()
}

func (r *replayer) cpuConfig(i int) cpu.Config {
	if r.profiles[i].Agent == trace.AgentStream {
		return cpu.StreamConfig()
	}
	return cpu.DefaultConfig()
}

// traceNext times Generator.Next; it returns ns per call.
func (r *replayer) traceNext() (float64, int64, error) {
	gens := make([]*trace.Generator, len(r.profiles))
	for i := range gens {
		g, err := r.generator(i)
		if err != nil {
			return 0, 0, err
		}
		gens[i] = g
	}
	var ins trace.Instr
	var sum uint64
	start := cpuTime()
	for _, g := range gens {
		for n := 0; n < replayNextPerCore; n++ {
			g.Next(&ins)
			sum += ins.Addr
		}
	}
	el := (cpuTime() - start)
	sinkKey += int64(sum)
	calls := int64(len(gens) * replayNextPerCore)
	return float64(el.Nanoseconds()) / float64(calls), calls, nil
}

// cacheAccess times Hierarchy.Access, NextFetch and Fill on each core's
// access stream, filling every miss at once; the first half of each
// stream warms the caches untimed. It records the misses and
// writebacks of the whole stream, interleaved across cores, as the
// memctrl replay's input.
func (r *replayer) cacheAccess() (float64, int64, error) {
	hiers := make([]*cache.Hierarchy, len(r.profiles))
	for i := range hiers {
		h, err := cache.NewHierarchy(r.hierarchyConfig(i))
		if err != nil {
			return 0, 0, err
		}
		hiers[i] = h
	}
	perCore := make([][]memReq, len(hiers))
	var ops int64
	var el time.Duration
	for i, h := range hiers {
		out := perCore[i]
		warm := len(r.accesses[i]) / 2
		var start time.Duration
		for j, a := range r.accesses[i] {
			if j == warm {
				start = cpuTime()
			}
			h.Access(a.class, a.addr)
			for {
				addr, tok, ok := h.NextFetch()
				if !ok {
					break
				}
				h.FetchAccepted()
				out = append(out, memReq{i, addr, false})
				h.Fill(tok)
			}
			for {
				addr, ok := h.NextWriteback()
				if !ok {
					break
				}
				h.WritebackAccepted()
				out = append(out, memReq{i, addr, true})
			}
		}
		el += (cpuTime() - start)
		ops += int64(len(r.accesses[i]) - warm)
		perCore[i] = out
	}
	if ops == 0 {
		return 0, 0, fmt.Errorf("cache replay: no memory accesses")
	}
	r.stream = r.stream[:0]
	for k := 0; ; k++ {
		more := false
		for i := range perCore {
			if k < len(perCore[i]) {
				r.stream = append(r.stream, perCore[i][k])
				more = true
			}
		}
		if !more {
			break
		}
	}
	if len(r.stream) == 0 {
		return 0, 0, fmt.Errorf("cache replay: no misses to record")
	}
	return float64(el.Nanoseconds()) / float64(ops), ops, nil
}

// cpuTick times Core.Tick over each core's own hierarchy, with every
// L2 miss filled a fixed latency later; it returns ns per retired
// instruction. Each core first runs untimed until its caches are warm.
func (r *replayer) cpuTick() (float64, int64, error) {
	type fill struct {
		at  int64
		tok int
	}
	cores := make([]*cpu.Core, len(r.profiles))
	for i := range cores {
		gen, err := r.generator(i)
		if err != nil {
			return 0, 0, err
		}
		h, err := cache.NewHierarchy(r.hierarchyConfig(i))
		if err != nil {
			return 0, 0, err
		}
		if cores[i], err = cpu.New(i, r.cpuConfig(i), gen, h); err != nil {
			return 0, 0, err
		}
	}
	fills := make([]fill, 0, 256)
	var retired int64
	var el time.Duration
	for _, c := range cores {
		h := c.Hierarchy()
		fills = fills[:0]
		head := 0
		var start time.Duration
		var retired0 int64
		for now := int64(0); now < replayCPUWarmup+replayCPUCycles; now++ {
			if now == replayCPUWarmup {
				start, retired0 = cpuTime(), c.Retired
			}
			for head < len(fills) && fills[head].at <= now {
				h.Fill(fills[head].tok)
				c.OnFill(fills[head].tok, now)
				head++
			}
			if head == len(fills) {
				fills, head = fills[:0], 0
			}
			c.Tick(now)
			for {
				_, tok, ok := h.NextFetch()
				if !ok {
					break
				}
				h.FetchAccepted()
				fills = append(fills, fill{now + replayFillLatency, tok})
			}
			for {
				if _, ok := h.NextWriteback(); !ok {
					break
				}
				h.WritebackAccepted()
			}
		}
		el += (cpuTime() - start)
		retired += c.Retired - retired0
	}
	if retired == 0 {
		return 0, 0, fmt.Errorf("cpu replay: nothing retired")
	}
	return float64(el.Nanoseconds()) / float64(retired), retired, nil
}

// memTick times a standalone controller's Accept and Tick on the
// recorded stream, topping its occupancy up to depth requests each
// cycle; it returns ns per Tick. Every accepted request must complete.
// The depth-16 run records completed reads for the core and dram
// replays, into a buffer allocated once so every round does the same
// work.
func (r *replayer) memTick(depth int) (float64, int64, error) {
	if len(r.stream) == 0 {
		return 0, 0, fmt.Errorf("memctrl replay: no recorded stream")
	}
	n := len(r.profiles)
	shares := equalShares(n)
	policy := core.NewFQVFTF(shares, r.mcfg.TotalBanks(), r.mcfg.DRAM.Timing)
	ctrl, err := memctrl.New(r.mcfg, policy)
	if err != nil {
		return 0, 0, err
	}
	ctrl.SetEventDriven(true)
	record := depth == 16
	if record {
		r.reqs = r.reqs[:0]
	}
	var readsDone int64
	ctrl.OnReadDone = func(req *core.Request, _ int64) {
		readsDone++
		if record && len(r.reqs) < replayKeptRequests {
			r.reqs = append(r.reqs, *req)
		}
	}
	held := func() int {
		sum := 0
		for t := 0; t < n; t++ {
			rd, wr := ctrl.Occupancy(t)
			sum += rd + wr
		}
		return sum
	}
	var accepted, ticks, now int64
	next := 0
	start := cpuTime()
	for accepted < replayMemRequests {
		for h := held(); h < depth && accepted < replayMemRequests; h++ {
			e := r.stream[next]
			if !ctrl.Accept(e.thread, e.addr, e.write, now) {
				break
			}
			accepted++
			if next++; next == len(r.stream) {
				next = 0
			}
		}
		ctrl.Tick(now)
		ticks++
		now++
	}
	for held() > 0 {
		if now > replayDrainCapCycle {
			return 0, 0, fmt.Errorf("memctrl replay q%d: %d requests still held at cycle %d", depth, held(), now)
		}
		ctrl.Tick(now)
		ticks++
		now++
	}
	el := (cpuTime() - start)
	var done, writes int64
	for t := 0; t < n; t++ {
		st := ctrl.Stats(t)
		done += st.ReadsDone + st.WritesDone
		writes += st.WritesDone
	}
	if done != accepted || readsDone+writes != accepted {
		return 0, 0, fmt.Errorf("memctrl replay q%d: %d accepted, %d reads and %d writes done", depth, accepted, readsDone, writes)
	}
	return float64(el.Nanoseconds()) / float64(ticks), ticks, nil
}

func equalShares(n int) []core.Share {
	s := make([]core.Share, n)
	for i := range s {
		s[i] = core.EqualShare(n)
	}
	return s
}

var bankStates = [3]core.BankState{core.BankHit, core.BankClosed, core.BankConflict}

// coreKeys times VTMS.FinishTime and FQ-VFTF's Policy.Key on the
// recorded requests, cycling through the three bank states; it returns
// ns per call of each.
func (r *replayer) coreKeys() (finish, key float64, calls int64, err error) {
	if len(r.reqs) == 0 {
		return 0, 0, 0, fmt.Errorf("core replay: no recorded requests")
	}
	n := len(r.profiles)
	nb, nch, tm := r.mcfg.TotalBanks(), r.w.channels, r.mcfg.DRAM.Timing
	shares := equalShares(n)
	vt := make([]*core.VTMS, n)
	for t := range vt {
		vt[t] = core.NewVTMS(t, shares[t], nb, tm)
		vt[t].SetChannels(nch)
	}
	policy := core.NewFQVFTF(shares, nb, tm)
	policy.SetChannels(nch)
	reqs := make([]core.Request, len(r.reqs))
	copy(reqs, r.reqs)
	for i := range reqs {
		reqs[i].KeyFrozen = false
	}

	var acc core.VTime
	start := cpuTime()
	for calls = 0; calls < replayCoreCalls; {
		for i := range reqs {
			q := &reqs[i]
			acc += vt[q.Thread].FinishTime(q.Arrival, q.GlobalBank, q.Channel, q.IsWrite, bankStates[i%3])
		}
		calls += int64(len(reqs))
	}
	finish = float64((cpuTime() - start).Nanoseconds()) / float64(calls)

	var sum int64
	start = cpuTime()
	var kcalls int64
	for kcalls < replayCoreCalls {
		for i := range reqs {
			sum += policy.Key(&reqs[i], bankStates[i%3])
		}
		kcalls += int64(len(reqs))
	}
	key = float64((cpuTime() - start).Nanoseconds()) / float64(kcalls)
	sinkKey += int64(acc) + sum
	return finish, key, calls + kcalls, nil
}

// dramIssue times Channel.EarliestIssue plus Issue on the recorded
// requests' banks and rows, opening and closing rows as each needs; it
// returns ns per command.
func (r *replayer) dramIssue() (float64, int64, error) {
	if len(r.reqs) == 0 {
		return 0, 0, fmt.Errorf("dram replay: no recorded requests")
	}
	chans := make([]*dram.Channel, r.w.channels)
	for i := range chans {
		ch, err := dram.NewChannel(r.mcfg.DRAM)
		if err != nil {
			return 0, 0, err
		}
		chans[i] = ch
	}
	perRank := r.mcfg.DRAM.BanksPerRank
	var now, cmds int64
	var last [8]int64
	issue := func(ch *dram.Channel, kind dram.Kind, b, row int) {
		at := ch.EarliestIssue(kind, b)
		if at < now {
			at = now
		}
		last[kind&7] = ch.Issue(kind, b, row, at)
		now = at
		cmds++
	}
	start := cpuTime()
	for cmds < replayDRAMCommands {
		for i := range r.reqs {
			q := &r.reqs[i]
			ch, b := chans[q.Channel], q.Rank*perRank+q.Bank
			row, open := ch.BankOpen(b)
			if open && row != q.Row {
				issue(ch, dram.KindPrecharge, b, row)
				open = false
			}
			if !open {
				issue(ch, dram.KindActivate, b, q.Row)
			}
			if q.IsWrite {
				issue(ch, dram.KindWrite, b, q.Row)
			} else {
				issue(ch, dram.KindRead, b, q.Row)
			}
		}
	}
	el := (cpuTime() - start)
	sinkKey += last[dram.KindRead]
	return float64(el.Nanoseconds()) / float64(cmds), cmds, nil
}

// sinkKey keeps replayed results live so the compiler cannot drop the
// calls that produce them.
var sinkKey int64
