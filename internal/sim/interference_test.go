package sim

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/memctrl"
	"repro/internal/trace"
)

// intfRowSums collapses the attribution matrix to each victim's total
// attributed wait. For every request serviced inside the window that
// total is its measured queueing latency (the audited conservation
// invariant), so fast and strict runs — whose schedules are identical
// — can differ only by the attributed-so-far prefix of the handful of
// requests in flight at the window edges: the event-driven path
// charges a wait at the request's next examination, the strict oracle
// every cycle.
func intfRowSums(s memctrl.InterferenceSnapshot) []int64 {
	sums := make([]int64, s.Threads)
	for v, row := range s.Matrix {
		for _, n := range row {
			sums[v] += n
		}
	}
	return sums
}

// TestInterferenceObservationOnly is the tentpole's safety contract:
// enabling delay attribution must not change a single simulated
// outcome. Across the post-2006 arena lineage, in fast and strict
// modes, the Result and controller fingerprint with
// attribution on must equal the run with it off bit for bit. Every run
// carries the invariant auditor, so the attribution conservation check
// (charged cycles == queueing delay, at every CAS issue) rides along
// on all policies and modes for free.
func TestInterferenceObservationOnly(t *testing.T) {
	if testing.Short() {
		t.Skip("equivalence sweep is slow")
	}
	art, err := trace.ByName("art")
	if err != nil {
		t.Fatal(err)
	}
	vpr, err := trace.ByName("vpr")
	if err != nil {
		t.Fatal(err)
	}
	policies := []struct {
		name    string
		factory PolicyFactory
	}{
		{"FR-FCFS", FRFCFS},
		{"FR-VFTF", FRVFTF},
		{"FQ-VFTF", FQVFTF},
		{"BLISS", BLISS},
		{"SLOW-FAIR", SLOWFAIR},
		{"BANK-BW", BANKBW},
	}
	modes := []struct {
		name   string
		strict bool
	}{
		{"fast", false},
		{"strict", true},
	}
	const warmup, window = 20_000, 80_000
	for _, p := range policies {
		p := p
		t.Run(p.name, func(t *testing.T) {
			t.Parallel()
			run := func(strict bool, intf bool) (Result, controllerFingerprint, memctrl.InterferenceSnapshot) {
				cfg := Config{
					Workload:     []trace.Profile{art, vpr},
					Policy:       p.factory,
					Seed:         13,
					Strict:       strict,
					Audit:        true,
					Interference: intf,
				}
				cfg.Mem.Channels = 2
				s, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				s.Step(warmup)
				s.BeginMeasurement()
				s.Step(window)
				s.FinishAudit()
				ctrl := s.Controller()
				fp := fingerprint(ctrl)
				snap, _ := s.Interference()
				return s.Results(), fp, snap
			}
			snaps := make(map[string]memctrl.InterferenceSnapshot)
			for _, m := range modes {
				off, offFP, _ := run(m.strict, false)
				on, onFP, snap := run(m.strict, true)
				if !reflect.DeepEqual(off, on) {
					t.Errorf("%s: attribution changed the Result:\n off: %+v\n on:  %+v", m.name, off, on)
				}
				if !reflect.DeepEqual(offFP, onFP) {
					t.Errorf("%s: attribution changed the controller state:\n off: %+v\n on:  %+v", m.name, offFP, onFP)
				}
				if snap.Total <= 0 {
					t.Errorf("%s: a contended 2-thread run attributed no wait cycles", m.name)
				}
				snaps[m.name] = snap
			}
			// The strict oracle examines at every cycle, so only the
			// per-victim totals must agree with the fast path.
			fastSums, strictSums := intfRowSums(snaps["fast"]), intfRowSums(snaps["strict"])
			for v := range fastSums {
				diff := fastSums[v] - strictSums[v]
				if diff < 0 {
					diff = -diff
				}
				// Slack covers only the in-flight window-edge tails; any
				// real double-count or leak inside the window is orders of
				// magnitude larger (and the audit would already have fired).
				if slack := strictSums[v]/1_000 + 64; diff > slack {
					t.Errorf("victim %d attributed totals diverge beyond edge laziness: fast %d strict %d",
						v, fastSums[v], strictSums[v])
				}
			}
		})
	}
}

// TestInterferenceCheckpointRestore runs the checkpoint/restore
// contract with attribution on: an interrupted run must rejoin the
// uninterrupted one on every observable, including the final
// checkpoint bytes (which now carry the attribution section) and the
// measurement-window attribution matrix itself.
func TestInterferenceCheckpointRestore(t *testing.T) {
	art, err := trace.ByName("art")
	if err != nil {
		t.Fatal(err)
	}
	vpr, err := trace.ByName("vpr")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Workload:       []trace.Profile{art, vpr},
		Policy:         FQVFTF,
		Seed:           29,
		Audit:          true,
		Interference:   true,
		SampleInterval: 1_000,
	}
	const warmup, preCk, postCk = 2_000, 3_001, 4_999

	ref, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref.Step(warmup)
	ref.BeginMeasurement()
	ref.Step(preCk + postCk)
	ref.FinishAudit()
	want := captureRun(t, ref)
	wantIntf, _ := ref.Interference()

	first, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	first.Step(warmup)
	first.BeginMeasurement()
	first.Step(preCk)
	var buf bytes.Buffer
	if err := first.Checkpoint(&buf); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	resumed, err := Restore(cfg, bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	resumed.Step(postCk)
	resumed.FinishAudit()
	got := captureRun(t, resumed)
	gotIntf, ok := resumed.Interference()
	if !ok {
		t.Fatal("restored system lost its attribution state")
	}
	compareRuns(t, "interference-restore", got, want)
	if !reflect.DeepEqual(gotIntf, wantIntf) {
		t.Errorf("attribution matrix diverged after restore\n got: %+v\nwant: %+v", gotIntf, wantIntf)
	}
	if wantIntf.Cross <= 0 {
		t.Error("measurement window recorded no cross-thread interference on a contended mix")
	}
}

// TestInterferenceRestoreConfigMismatch: a checkpoint taken with
// attribution on must refuse to restore into a config with it off —
// the tracker's per-slot state would silently desync mid-request.
func TestInterferenceRestoreConfigMismatch(t *testing.T) {
	art, err := trace.ByName("art")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Workload:     []trace.Profile{art, art},
		Policy:       FRFCFS,
		Seed:         3,
		Interference: true,
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Step(5_000)
	var buf bytes.Buffer
	if err := s.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	off := cfg
	off.Interference = false
	if _, err := Restore(off, bytes.NewReader(buf.Bytes())); err == nil {
		t.Error("restore accepted a checkpoint whose interference setting mismatches the config")
	}
}

// TestStepZeroSteadyStateAllocsInterference holds the attribution
// layer to the controller's zero-alloc bar: the per-slot accounting
// and span staging must recycle their buffers once warm.
func TestStepZeroSteadyStateAllocsInterference(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc measurement is slow")
	}
	art, err := trace.ByName("art")
	if err != nil {
		t.Fatal(err)
	}
	vpr, err := trace.ByName("vpr")
	if err != nil {
		t.Fatal(err)
	}
	// "serial" names the single-threaded dispatch every Step uses.
	t.Run("serial", func(t *testing.T) {
		cfg := Config{
			Workload:     []trace.Profile{art, vpr, art, vpr},
			Policy:       FQVFTF,
			Seed:         37,
			Interference: true,
		}
		cfg.Mem.Channels = 2
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		s.Step(200_000)
		avg := testing.AllocsPerRun(10, func() {
			s.Step(5_000)
		})
		if avg != 0 {
			t.Errorf("Step allocates %.1f objects per 5k cycles with attribution on, want 0", avg)
		}
	})
}
