package metrics

import "sync"

// The epoch sampler turns the registry's cumulative metrics into a
// bounded time series. The simulator calls Sample on epoch boundaries
// (exact multiples of the configured cycle interval); each call
// snapshots the registry, differences it against the previous epoch,
// and appends one Sample to a ring.
//
// Concurrency contract: Sample and NextSampleAt are called only from
// the simulation goroutine, which is also the only mutator of the
// registry — so Func metrics are always evaluated on the goroutine
// that owns the state they read. Everything a concurrent reader (the
// telemetry HTTP server) can touch — the ring, the published latest
// snapshot, the epoch count — is guarded by a mutex. A scrape never
// reads the live registry.

// DefaultSampleInterval is the default epoch length in cycles. At
// simulator throughputs of tens of Msimcycles/s this is thousands of
// snapshots per second, cheap next to simulating the epoch itself.
const DefaultSampleInterval = 10_000

// DefaultSampleCapacity is the default ring size: the most recent
// epochs retained for the /series endpoint and timeline exports.
const DefaultSampleCapacity = 4096

// SamplerConfig configures an epoch sampler.
type SamplerConfig struct {
	// Interval is the epoch length in cycles (<= 0 selects
	// DefaultSampleInterval). Samples land on exact multiples.
	Interval int64

	// Capacity bounds the retained samples; the ring keeps the most
	// recent Capacity epochs (<= 0 selects DefaultSampleCapacity).
	Capacity int
}

// HistogramDelta is one histogram's per-epoch activity: the
// observations recorded during the epoch, as count/sum plus the
// non-empty log2 buckets ([right-edge, count] pairs, like
// HistogramStats.Buckets but covering only this epoch).
type HistogramDelta struct {
	Count   int64      `json:"count"`
	Sum     int64      `json:"sum"`
	Buckets [][2]int64 `json:"buckets,omitempty"`
}

// Sample is one epoch of registry activity. Counters hold per-epoch
// deltas (rates once divided by the interval); Gauges hold
// point-in-time values at the boundary (Func metrics included);
// Histograms hold per-epoch observation deltas.
type Sample struct {
	// Epoch is the 0-based sample index (epoch 0 is the baseline
	// sample at cycle 0 when the caller takes one).
	Epoch int64 `json:"epoch"`

	// Cycle is the boundary this sample was taken at: the sample
	// covers activity in (prevCycle, Cycle].
	Cycle int64 `json:"cycle"`

	Counters   map[string]int64          `json:"counters,omitempty"`
	Gauges     map[string]int64          `json:"gauges,omitempty"`
	Histograms map[string]HistogramDelta `json:"histograms,omitempty"`
}

// histPrev is the cumulative state of one histogram at the previous
// epoch boundary.
type histPrev struct {
	counts [histBuckets]int64
	n, sum int64
}

// Sampler snapshots a Registry on epoch boundaries and retains the
// per-epoch deltas in a bounded ring.
type Sampler struct {
	reg      *Registry
	interval int64
	nextAt   int64

	// Previous-boundary cumulative values, indexed by registry item
	// position (items register at construction time, before sampling
	// starts; late registrations difference against zero).
	prevCounter []int64
	prevHist    []histPrev

	mu     sync.Mutex
	ring   []Sample
	start  int   // index of the oldest retained sample
	count  int   // retained samples
	epochs int64 // samples taken ever
	latest Snapshot
	has    bool
}

// NewSampler returns a sampler over the registry. It takes no sample
// until the caller does; callers that want an immediately scrapeable
// exposition take a baseline sample at cycle 0.
func NewSampler(reg *Registry, cfg SamplerConfig) *Sampler {
	if cfg.Interval <= 0 {
		cfg.Interval = DefaultSampleInterval
	}
	if cfg.Capacity <= 0 {
		cfg.Capacity = DefaultSampleCapacity
	}
	return &Sampler{
		reg:      reg,
		interval: cfg.Interval,
		nextAt:   cfg.Interval,
		ring:     make([]Sample, 0, cfg.Capacity),
	}
}

// Interval returns the epoch length in cycles.
func (s *Sampler) Interval() int64 { return s.interval }

// NextSampleAt returns the next epoch boundary; the simulation calls
// Sample when its cycle counter reaches it.
func (s *Sampler) NextSampleAt() int64 { return s.nextAt }

// Sample snapshots the registry at the given cycle and appends the
// epoch's deltas to the ring. It must be called from the simulation
// goroutine (Func metrics are evaluated here and only here).
func (s *Sampler) Sample(cycle int64) {
	items := s.reg.items
	for len(s.prevCounter) < len(items) {
		s.prevCounter = append(s.prevCounter, 0)
		s.prevHist = append(s.prevHist, histPrev{})
	}
	sm := Sample{
		Cycle:      cycle,
		Counters:   make(map[string]int64),
		Gauges:     make(map[string]int64),
		Histograms: make(map[string]HistogramDelta),
	}
	latest := Snapshot{
		Counters:   make(map[string]int64, len(items)),
		Gauges:     make(map[string]int64, len(items)),
		Histograms: make(map[string]HistogramStats, len(items)),
	}
	for i, it := range items {
		switch it.kind {
		case kindCounter:
			v := it.c.Value()
			sm.Counters[it.name] = v - s.prevCounter[i]
			s.prevCounter[i] = v
			latest.Counters[it.name] = v
		case kindGauge:
			v := it.g.Value()
			sm.Gauges[it.name] = v
			latest.Gauges[it.name] = v
		case kindFunc:
			v := it.fn()
			sm.Gauges[it.name] = v
			latest.Gauges[it.name] = v
		case kindHistogram:
			h := it.h
			prev := &s.prevHist[i]
			d := HistogramDelta{Count: h.n - prev.n, Sum: h.sum - prev.sum}
			for b := 0; b < histBuckets; b++ {
				if dc := h.counts[b] - prev.counts[b]; dc != 0 {
					edge := int64(0)
					if b > 0 {
						edge = int64(1) << uint(b)
					}
					d.Buckets = append(d.Buckets, [2]int64{edge, dc})
				}
			}
			prev.counts = h.counts
			prev.n, prev.sum = h.n, h.sum
			sm.Histograms[it.name] = d
			latest.Histograms[it.name] = histStats(h)
		}
	}
	for s.nextAt <= cycle {
		s.nextAt += s.interval
	}

	s.mu.Lock()
	sm.Epoch = s.epochs
	s.epochs++
	if len(s.ring) < cap(s.ring) {
		s.ring = append(s.ring, sm)
	} else {
		// Ring full: overwrite the oldest.
		s.ring[s.start] = sm
		s.start = (s.start + 1) % len(s.ring)
	}
	s.count = len(s.ring)
	s.latest = latest
	s.has = true
	s.mu.Unlock()
}

// Epochs returns how many samples have been taken ever (including any
// that have since been evicted from the ring).
func (s *Sampler) Epochs() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.epochs
}

// Latest returns the most recent cumulative snapshot (the published
// copy, safe to read while the simulation runs). ok is false until the
// first sample is taken.
func (s *Sampler) Latest() (snap Snapshot, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.latest, s.has
}

// Samples returns the retained samples at boundary cycles strictly
// greater than sinceCycle, oldest first (pass a negative value for
// all). The result is a copy and safe to use concurrently with
// sampling.
func (s *Sampler) Samples(sinceCycle int64) []Sample {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Sample, 0, s.count)
	for i := 0; i < s.count; i++ {
		sm := s.ring[(s.start+i)%len(s.ring)]
		if sm.Cycle > sinceCycle {
			out = append(out, sm)
		}
	}
	return out
}
