package sim

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"

	"repro/internal/snapshot"
)

// maxTransitQueue caps decoded transit-queue lengths. Real queues hold
// at most a few dozen entries (bounded by MSHR and write-buffer
// capacity); the cap only guards hostile snapshots.
const maxTransitQueue = 1 << 16

// saveFingerprint writes the configuration identity a snapshot belongs
// to. Restore verifies it against the freshly constructed system before
// reading any component state, so a snapshot restored under the wrong
// policy, workload, geometry, or mode fails with a clear error instead
// of a confusing component mismatch deep in the stream.
func (s *System) saveFingerprint(w *snapshot.Writer) {
	w.Section("sim.Config")
	w.Int(len(s.cores))
	for _, p := range s.cfg.Workload {
		w.String(p.Name)
	}
	for _, sh := range s.cfg.Shares {
		w.Int(sh.Num)
		w.Int(sh.Den)
	}
	w.String(s.ctrl.Policy().Name())
	w.U64(s.cfg.Seed)
	w.Bool(s.cfg.Strict)
	w.Bool(s.cfg.Audit)
	w.Bool(s.cfg.Interference)
	w.I64(s.cfg.SampleInterval)
	w.Int(s.cfg.SampleCapacity)
	w.Int(s.cfg.ReqTransit)
	w.Int(s.cfg.RespTransit)
	w.Int(s.ctrl.Channels())
	w.Int(s.cfg.Mem.TotalBanks())
}

// checkFingerprint reads a fingerprint written by saveFingerprint and
// verifies it against this system's configuration.
func (s *System) checkFingerprint(r *snapshot.Reader) error {
	r.Section("sim.Config")
	n := r.Int()
	if r.Err() == nil && n != len(s.cores) {
		r.Fail("sim.Config: snapshot has %d cores, config has %d", n, len(s.cores))
	}
	if err := r.Err(); err != nil {
		return err
	}
	for i, p := range s.cfg.Workload {
		name := r.String(snapshot.MaxString)
		if r.Err() == nil && name != p.Name {
			r.Fail("sim.Config: core %d workload %q, config has %q", i, name, p.Name)
		}
	}
	for i, sh := range s.cfg.Shares {
		num, den := r.Int(), r.Int()
		if r.Err() == nil && (num != sh.Num || den != sh.Den) {
			r.Fail("sim.Config: core %d share %d/%d, config has %d/%d", i, num, den, sh.Num, sh.Den)
		}
	}
	policy := r.String(snapshot.MaxString)
	if r.Err() == nil && policy != s.ctrl.Policy().Name() {
		r.Fail("sim.Config: snapshot policy %q, config has %q", policy, s.ctrl.Policy().Name())
	}
	seed := r.U64()
	if r.Err() == nil && seed != s.cfg.Seed {
		r.Fail("sim.Config: snapshot seed %d, config has %d", seed, s.cfg.Seed)
	}
	strict, auditOn, intf := r.Bool(), r.Bool(), r.Bool()
	if r.Err() == nil && (strict != s.cfg.Strict || auditOn != s.cfg.Audit || intf != s.cfg.Interference) {
		r.Fail("sim.Config: snapshot strict=%v audit=%v interference=%v, config has strict=%v audit=%v interference=%v",
			strict, auditOn, intf, s.cfg.Strict, s.cfg.Audit, s.cfg.Interference)
	}
	si, sc := r.I64(), r.Int()
	if r.Err() == nil && (si != s.cfg.SampleInterval || sc != s.cfg.SampleCapacity) {
		r.Fail("sim.Config: snapshot sampling %d/%d, config has %d/%d",
			si, sc, s.cfg.SampleInterval, s.cfg.SampleCapacity)
	}
	rq, rp := r.Int(), r.Int()
	if r.Err() == nil && (rq != s.cfg.ReqTransit || rp != s.cfg.RespTransit) {
		r.Fail("sim.Config: snapshot transits %d/%d, config has %d/%d",
			rq, rp, s.cfg.ReqTransit, s.cfg.RespTransit)
	}
	nch, nbk := r.Int(), r.Int()
	if r.Err() == nil && (nch != s.ctrl.Channels() || nbk != s.cfg.Mem.TotalBanks()) {
		r.Fail("sim.Config: snapshot geometry %d channels x %d banks, config has %d x %d",
			nch, nbk, s.ctrl.Channels(), s.cfg.Mem.TotalBanks())
	}
	return r.Err()
}

// saveTimedQueue writes the live (unconsumed) region only, so the
// serialized form is independent of the queue's internal head position
// and identical to what an uninterrupted run would hold.
func saveTimedQueue(w *snapshot.Writer, q *timedQueue) {
	live := q.buf[q.head:]
	w.Len(len(live))
	for _, e := range live {
		w.U64(e.addr)
		w.I64(e.at)
	}
}

func loadTimedQueue(r *snapshot.Reader) timedQueue {
	n := r.Len(maxTransitQueue)
	if n == 0 {
		return timedQueue{}
	}
	q := make([]timedAddr, n)
	for i := range q {
		q[i].addr = r.U64()
		q[i].at = r.I64()
	}
	return timedQueue{buf: q}
}

// MeasurementStarted reports whether BeginMeasurement has been called —
// i.e. whether this system is inside its measurement window. A restored
// system resumes on the same side of the boundary as the original.
func (s *System) MeasurementStarted() bool { return s.snap.retired != nil }

// Checkpoint serializes the complete simulator state to w: cycle
// counters, every core (ROB, LSQ, MSHRs, caches, trace cursor), the
// transit queues, the memory controller (queues, DRAM timing, policy
// virtual clocks, wake lists, auditor), the metrics registry, and the
// epoch samplers. The format is versioned and self-describing; Restore
// with the same Config resumes bit-identically — cycle-for-cycle and
// byte-for-byte in every artifact — with an uninterrupted run.
//
// Systems with a streaming trace sink (Config.Trace) refuse to
// checkpoint: the events already written cannot be replayed into the
// resumed process's sink, so a resumed timeline would be silently
// truncated.
func (s *System) Checkpoint(w io.Writer) error {
	if s.cfg.Trace != nil {
		return fmt.Errorf("sim: cannot checkpoint with a streaming trace sink attached")
	}
	sw := snapshot.NewWriter(w)
	s.saveFingerprint(sw)
	sw.Section("sim.System")
	sw.I64(s.cycle)
	sw.I64(s.epochNext)
	for i := range s.cores {
		saveTimedQueue(sw, &s.fetchQ[i])
		saveTimedQueue(sw, &s.wbQ[i])
		saveTimedQueue(sw, &s.respQ[i])
	}
	sw.Bool(s.snap.retired != nil)
	if s.snap.retired != nil {
		sw.I64(s.snap.cycle)
		sw.I64s(s.snap.retired)
		sw.I64s(s.snap.stalls)
		sw.I64s(s.snap.readsDone)
		sw.I64s(s.snap.readLatSum)
		sw.I64s(s.snap.busCycles)
		sw.I64(s.snap.dataBusBusy)
		sw.I64(s.snap.bankBusy)
		sw.I64s(s.snap.rowHits)
		sw.I64s(s.snap.rowConf)
		sw.I64s(s.snap.rowClosed)
	}
	for _, c := range s.cores {
		c.SaveState(sw)
	}
	s.ctrl.SaveState(sw)
	sw.Bool(s.cfg.Metrics != nil)
	if s.cfg.Metrics != nil {
		s.cfg.Metrics.SaveState(sw)
	}
	sw.Bool(s.sampler != nil)
	if s.sampler != nil {
		s.sampler.SaveState(sw)
		s.fair.SaveState(sw)
	}
	return sw.Flush()
}

// Restore constructs a fresh system from cfg and loads a snapshot
// written by Checkpoint into it. The snapshot's configuration
// fingerprint must match cfg; component geometry is additionally
// verified section by section. On any error the returned system is
// invalid and must be discarded.
//
// Restore never panics on hostile or corrupted input: all lengths are
// capped before allocation, all indices are validated before use, and a
// recover backstop converts anything residual into an error.
func Restore(cfg Config, rd io.Reader) (s *System, err error) {
	defer func() {
		if p := recover(); p != nil {
			s, err = nil, fmt.Errorf("sim: restore: corrupt snapshot: %v", p)
		}
	}()
	s, err = New(cfg)
	if err != nil {
		return nil, err
	}
	r, err := snapshot.NewReader(bufio.NewReader(rd))
	if err != nil {
		return nil, err
	}
	if err := s.checkFingerprint(r); err != nil {
		return nil, err
	}
	r.Section("sim.System")
	cycle := r.I64()
	epochNext := r.I64()
	fetchQ := make([]timedQueue, len(s.cores))
	wbQ := make([]timedQueue, len(s.cores))
	respQ := make([]timedQueue, len(s.cores))
	for i := range s.cores {
		fetchQ[i] = loadTimedQueue(r)
		wbQ[i] = loadTimedQueue(r)
		respQ[i] = loadTimedQueue(r)
	}
	measuring := r.Bool()
	var snap baselineState
	if measuring {
		n := len(s.cores)
		snap.cycle = r.I64()
		snap.retired = r.I64s(n)
		snap.stalls = r.I64s(n)
		snap.readsDone = r.I64s(n)
		snap.readLatSum = r.I64s(n)
		snap.busCycles = r.I64s(n)
		snap.dataBusBusy = r.I64()
		snap.bankBusy = r.I64()
		snap.rowHits = r.I64s(n)
		snap.rowConf = r.I64s(n)
		snap.rowClosed = r.I64s(n)
		if r.Err() == nil && (len(snap.retired) != n || len(snap.stalls) != n ||
			len(snap.readsDone) != n || len(snap.readLatSum) != n || len(snap.busCycles) != n ||
			len(snap.rowHits) != n || len(snap.rowConf) != n || len(snap.rowClosed) != n) {
			r.Fail("sim.System: measurement baseline does not cover %d cores", n)
		}
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	for _, c := range s.cores {
		if err := c.LoadState(r); err != nil {
			return nil, err
		}
	}
	if err := s.ctrl.LoadState(r); err != nil {
		return nil, err
	}
	hasMetrics := r.Bool()
	if r.Err() == nil && hasMetrics != (s.cfg.Metrics != nil) {
		r.Fail("sim.System: snapshot metrics flag %v, config registry %v", hasMetrics, s.cfg.Metrics != nil)
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	if hasMetrics {
		if err := s.cfg.Metrics.LoadState(r); err != nil {
			return nil, err
		}
	}
	hasSampler := r.Bool()
	if r.Err() == nil && hasSampler != (s.sampler != nil) {
		r.Fail("sim.System: snapshot sampler flag %v, config sampling %v", hasSampler, s.sampler != nil)
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	if hasSampler {
		if err := s.sampler.LoadState(r); err != nil {
			return nil, err
		}
		if err := s.fair.LoadState(r); err != nil {
			return nil, err
		}
	}
	s.cycle = cycle
	s.epochNext = epochNext
	copy(s.fetchQ, fetchQ)
	copy(s.wbQ, wbQ)
	copy(s.respQ, respQ)
	if measuring {
		s.snap = baseline(snap)
	}
	return s, nil
}

// baselineState mirrors baseline so Restore can stage the decoded
// measurement baseline before committing it.
type baselineState baseline

// CheckpointFile writes a checkpoint atomically through
// snapshot.WriteFile, so a crash mid-write never leaves a truncated
// snapshot where a resumable one is expected.
func (s *System) CheckpointFile(path string) error {
	var buf bytes.Buffer
	if err := s.Checkpoint(&buf); err != nil {
		return err
	}
	return snapshot.WriteFile(path, buf.Bytes())
}

// RestoreFile restores a system from a checkpoint file written by
// CheckpointFile.
func RestoreFile(cfg Config, path string) (*System, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Restore(cfg, f)
}
