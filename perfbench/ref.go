package main

import (
	"runtime"
	"sync"
	"time"
)

// On a shared host the speed the machine gets moves by a quarter or more
// for minutes at a time, as other tenants come and go, and every phase of
// a run moves with it: ten runs of the same code can read two speeds. So
// the run also measures a fixed piece of the benchmark's own CPU work, the
// reference, at fixed points of every round, and the gated metrics are
// expressed in its unit: one ref is the median CPU time the reference took
// in the run (about 21 ms on the reference host). A change to the program
// cannot move the reference; a slow spell of the host moves both.

// refSamples is how many times the reference runs at each of its points.
const refSamples = 3

// refWork runs the reference once — on nproc goroutines, each a seeded
// walk over a 128 KiB table with a 4096-entry map beside it, so it has the
// cache footprint of the simulator's hot loop rather than of a pure ALU
// loop — and returns the CPU time it took.
func refWork() time.Duration {
	n := runtime.NumCPU()
	var wg sync.WaitGroup
	sink := make([]uint64, n)
	start := cpuTime()
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			t := make([]uint32, 1<<15)
			m := make(map[uint32]uint32, 4096)
			x := uint64(w + 1)
			var buf []uint64
			for i := 0; i < 400_000; i++ {
				x = x*6364136223846793005 + 1442695040888963407
				k := uint32(x >> 33)
				t[k&(1<<15-1)] += uint32(x)
				m[k&4095] += t[(k>>7)&(1<<15-1)]
				if i&63 == 0 {
					buf = append(buf[:0], x, uint64(len(m)))
				}
			}
			sink[w] = x + uint64(len(buf))
		}()
	}
	wg.Wait()
	return cpuTime() - start
}

// sampleRef runs the reference refSamples times into res.
func (res *result) sampleRef() {
	for i := 0; i < refSamples; i++ {
		res.refs = append(res.refs, float64(refWork())/float64(time.Millisecond))
	}
}

// normalized maps each gated metric in ref units to the raw metric it
// is computed from, and whether the raw one is a time (divided by the
// ref) or a rate (multiplied by it).
var normalized = []struct {
	name, raw string
	time      bool
}{
	{"grid_cold_ref", "grid_cold_s", true},
	{"crash_ref", "crash_s", true},
	{"run_ops_per_ref", "run_ops_per_cpu_s", false},
	{"advance_ops_per_ref", "advance_ops_per_cpu_s", false},
	{"resume_ops_per_ref", "resume_ops_per_cpu_s", false},
}

// normalize sets the gated metrics from their raw values and the run's
// ref.
func (res *result) normalize() {
	ref := median(res.refs)
	res.e2e["ref_ms"], res.n["ref_ms"], res.rounds["ref_ms"] = ref, len(res.refs), res.refs
	refS := ref / 1000
	for _, m := range normalized {
		v := res.e2e[m.raw] * refS
		if m.time {
			v = res.e2e[m.raw] / refS
		}
		res.e2e[m.name], res.n[m.name] = v, res.n[m.raw]
	}
}
