package exp

import (
	"errors"
	"os"
	"testing"
	"time"

	"repro/internal/sim"
)

// TestQuick is the CI race-detector smoke test: it drives parallelDo
// and the Runner's concurrent memoization (shared memo map, in-flight
// waits, and cycle accounting) with overlapping keys, which is exactly
// the state `go test -race` needs to see under contention. It is
// deliberately small enough to finish in seconds under -race.
func TestQuick(t *testing.T) {
	r := NewRunner(Config{Warmup: 5_000, Window: 20_000, Parallel: 4})
	jobs := []func() error{
		func() error { _, err := r.Solo("crafty", 1); return err },
		func() error { _, err := r.Solo("crafty", 1); return err }, // memo collision
		func() error { _, err := r.Solo("art", 1); return err },
		func() error { _, err := r.CoRun([]string{"vpr", "art"}, "FQ-VFTF"); return err },
		func() error { _, err := r.CoRun([]string{"vpr", "art"}, "FQ-VFTF"); return err },
		func() error { _, err := r.CoRun([]string{"vpr", "art"}, "FR-FCFS"); return err },
	}
	if err := r.parallelDo(len(jobs), func(i int) error { return jobs[i]() }); err != nil {
		t.Fatal(err)
	}

	keys := r.sortedKeys()
	if len(keys) != 4 {
		t.Errorf("memo keys = %v, want 4 distinct runs", keys)
	}
	// Each distinct key is simulated exactly once.
	if got := r.SimulatedCycles(); got != 4*25_000 {
		t.Errorf("SimulatedCycles = %d, want %d", got, 4*25_000)
	}

	// Memoized recall returns identical results without re-simulating.
	before := r.SimulatedCycles()
	a, err := r.Solo("crafty", 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.Solo("crafty", 1)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("memoized recall diverged: %+v vs %+v", a, b)
	}
	if got := r.SimulatedCycles(); got != before {
		t.Errorf("memoized recall simulated %d extra cycles", got-before)
	}

	// parallelDo surfaces a worker's error.
	boom := errors.New("boom")
	if err := parallelDo(3, 8, func(i int) error {
		if i == 5 {
			return boom
		}
		return nil
	}); !errors.Is(err, boom) {
		t.Errorf("parallelDo error = %v, want boom", err)
	}
}

// TestRunOncePerKey has eight callers ask for the same solo baseline at
// once, as every Figure 5 subject asks for solo/art/x2. The key must be
// simulated once (the others wait for its result), and with a
// checkpoint directory the one run must leave exactly one result
// artifact, mode 0644, with no temporary file and no checkpoint behind.
func TestRunOncePerKey(t *testing.T) {
	dir := t.TempDir()
	r := NewRunner(Config{Warmup: 5_000, Window: 20_000, CheckpointDir: dir})
	type outcome struct {
		tr  sim.ThreadResult
		err error
	}
	const callers = 8
	start := make(chan struct{})
	out := make(chan outcome, callers)
	for i := 0; i < callers; i++ {
		go func() {
			<-start
			tr, err := r.Solo("art", 2)
			out <- outcome{tr, err}
		}()
	}
	close(start)
	deadline := time.After(2 * time.Minute)
	var first sim.ThreadResult
	for i := 0; i < callers; i++ {
		select {
		case o := <-out:
			if o.err != nil {
				t.Fatal(o.err)
			}
			if i == 0 {
				first = o.tr
			} else if o.tr != first {
				t.Errorf("caller results differ: %+v vs %+v", o.tr, first)
			}
		case <-deadline:
			t.Fatalf("%d of %d callers still waiting after 2m", callers-i, callers)
		}
	}
	if got := r.SimulatedCycles(); got != 25_000 {
		t.Errorf("SimulatedCycles = %d, want 25000 (one run)", got)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "solo_art_x2.result.json" {
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Fatalf("checkpoint dir holds %v, want only solo_art_x2.result.json", names)
	}
	fi, err := entries[0].Info()
	if err != nil {
		t.Fatal(err)
	}
	if mode := fi.Mode().Perm(); mode != 0o644 {
		t.Errorf("result artifact mode %v, want 0644", mode)
	}
}

// TestParallelDoJoinsAllErrors injects two independent failures and
// demands both survive to the caller — the old first-error-wins
// collection silently dropped every failure after the lowest index.
func TestParallelDoJoinsAllErrors(t *testing.T) {
	errA := errors.New("worker 2: bad workload")
	errB := errors.New("worker 6: bad policy")
	err := parallelDo(0, 8, func(i int) error {
		switch i {
		case 2:
			return errA
		case 6:
			return errB
		}
		return nil
	})
	if !errors.Is(err, errA) {
		t.Errorf("joined error %v lost the first failure", err)
	}
	if !errors.Is(err, errB) {
		t.Errorf("joined error %v lost the second failure", err)
	}
	if err := parallelDo(2, 4, func(int) error { return nil }); err != nil {
		t.Errorf("all-success parallelDo = %v, want nil", err)
	}
}

// TestWorkerBudget checks that Parallel sets the run-level concurrency,
// with 0 (or less) selecting the default of 8.
func TestWorkerBudget(t *testing.T) {
	for _, tc := range []struct {
		parallel, want int
	}{
		{0, 8},
		{-1, 8},
		{1, 1},
		{3, 3},
	} {
		r := NewRunner(Config{Warmup: 1, Window: 1, Parallel: tc.parallel})
		if r.runWorkers != tc.want {
			t.Errorf("Parallel=%d: runWorkers = %d, want %d", tc.parallel, r.runWorkers, tc.want)
		}
	}
}
