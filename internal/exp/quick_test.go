package exp

import (
	"errors"
	"testing"
)

// TestQuick is the CI race-detector smoke test: it drives parallelDo
// and the Runner's concurrent memoization (shared memo map, cycle
// accounting, and the limit semaphore) with overlapping keys, which is
// exactly the state `go test -race` needs to see under contention. It
// is deliberately small enough to finish in seconds under -race.
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
	// Duplicate keys may race past the memo double-check and simulate
	// twice; the accounting must cover at least the distinct runs.
	if got := r.SimulatedCycles(); got < 4*25_000 {
		t.Errorf("SimulatedCycles = %d, want >= %d", got, 4*25_000)
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
