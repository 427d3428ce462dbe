package main

// The host's speed drifts by tens of percent over minutes on a shared
// machine, as neighbours load the same physical cores, caches and
// memory. A fixed calibration kernel, timed before every repeat, slows
// down with the host, and the end-to-end timings are reported scaled by
// it, so drift cancels while a change in the simulator's own speed does
// not. The kernel belongs to the benchmark and never changes with the
// program.
//
// The kernel has two parts, because the simulator feels both kinds of
// contention: a branchy integer loop, and random read-modify-writes over
// a 4 MB table. Through an 8-minute stretch in which the host's speed
// swung by 40%, block medians of the simulator scaled by the two parts
// together spread 7-11%; scaled by the integer loop alone, 17%; by the
// table alone, 24-30%.

// calibrationRefSeconds is the kernel's CPU time that defines the
// reference host speed: a run whose kernel takes this long reports its
// timings unscaled. It is about the kernel's time on a 2-CPU Xeon host
// with go1.24.0.
const calibrationRefSeconds = 0.115

const (
	calibrationALUIters   = 10_000_000
	calibrationTableIters = 4_000_000
	calibrationTableWords = 1 << 19 // 4 MB
)

// calibrator owns the kernel's table, allocated once per run. The
// table holds no pointers, so the garbage collector never scans it.
type calibrator struct {
	table []uint64
	sink  uint64
}

func newCalibrator() *calibrator { return &calibrator{table: make([]uint64, calibrationTableWords)} }

// run times the kernel and returns its CPU seconds.
func (c *calibrator) run() float64 {
	start := cpuTime()
	x := uint64(88172645463325252)
	var acc uint64
	for i := 0; i < calibrationALUIters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		if x&7 < 3 {
			acc += x >> 3
		} else {
			acc ^= x
		}
	}
	for i := 0; i < calibrationTableIters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := x & (calibrationTableWords - 1)
		c.table[j] += x
		if c.table[j]&3 == 0 {
			acc++
		}
	}
	c.sink += acc
	return (cpuTime() - start).Seconds()
}
