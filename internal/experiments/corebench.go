package experiments

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"strings"
	"time"

	"lightwsp/internal/baseline"
	"lightwsp/internal/compiler"
	"lightwsp/internal/machine"
	"lightwsp/internal/workload"
)

// This file benchmarks the cycle loop itself rather than anything the paper
// measures: every workload runs twice on identical systems — once on the
// naive per-cycle reference stepper, once on the event/epoch fast path —
// and the two runs are verified byte-identical before any number is
// reported. No probe sink is attached, so the figures are the honest
// simulation-throughput numbers the experiment harness sees.

// CoreBenchEntry is one workload × scheme cell of the stepper benchmark.
type CoreBenchEntry struct {
	Suite  string `json:"suite"`
	App    string `json:"app"`
	Scheme string `json:"scheme"`
	// Cycles is the simulated cycle count (identical for both steppers).
	Cycles uint64 `json:"cycles"`
	// NaiveWallSec and FastWallSec are the wall-clock seconds of the naive
	// and event/epoch runs.
	NaiveWallSec float64 `json:"naive_wall_sec"`
	FastWallSec  float64 `json:"fast_wall_sec"`
	// NaiveCPS and FastCPS are simulated cycles per wall-clock second.
	NaiveCPS float64 `json:"naive_cycles_per_sec"`
	FastCPS  float64 `json:"fast_cycles_per_sec"`
	// Speedup is NaiveWallSec / FastWallSec.
	Speedup float64 `json:"speedup"`
	// FFRatio is the fraction of simulated cycles the event/epoch scheduler
	// fast-forwarded past instead of ticking.
	FFRatio float64 `json:"fast_forward_ratio"`
	// FFJumps is how many fast-forward jumps the scheduler took.
	FFJumps uint64 `json:"fast_forward_jumps"`
}

// CoreBenchReport is the full stepper benchmark: per-workload entries plus
// the aggregate speedup (geometric mean, the CI guardrail's metric).
type CoreBenchReport struct {
	Entries []CoreBenchEntry `json:"entries"`
	// GeomeanSpeedup is the geometric mean of every entry's speedup.
	GeomeanSpeedup float64 `json:"geomean_speedup"`
}

// CoreBenchProfiles resolves a comma-separated application list against the
// evaluation profiles (empty selects all of them). Names appearing in two
// suites (lbm, namd) select both entries.
func CoreBenchProfiles(names string) ([]workload.Profile, error) {
	if names == "" {
		return workload.Profiles(), nil
	}
	want := map[string]bool{}
	for _, n := range strings.Split(names, ",") {
		if n = strings.TrimSpace(n); n != "" {
			want[n] = true
		}
	}
	var out []workload.Profile
	matched := map[string]bool{}
	for _, p := range workload.Profiles() {
		if want[p.Name] {
			out = append(out, p)
			matched[p.Name] = true
		}
	}
	for n := range want {
		if !matched[n] {
			return nil, fmt.Errorf("corebench: unknown application %q", n)
		}
	}
	return out, nil
}

// CoreBench runs every profile under LightWSP and the non-persistent
// baseline on both steppers, verifies the runs byte-identical, and returns
// the timing report. Any observable divergence is an error — a benchmark
// number from a wrong simulation is worse than no number.
func CoreBench(ctx context.Context, profiles []workload.Profile) (*CoreBenchReport, error) {
	rep := &CoreBenchReport{}
	logSpeedup := 0.0
	for _, p := range profiles {
		for _, sch := range []machine.Scheme{LightWSP(), baseline.Baseline()} {
			e, err := coreBenchOne(ctx, p, sch)
			if err != nil {
				return nil, err
			}
			rep.Entries = append(rep.Entries, e)
			logSpeedup += math.Log(e.Speedup)
		}
	}
	if n := len(rep.Entries); n > 0 {
		rep.GeomeanSpeedup = math.Exp(logSpeedup / float64(n))
	}
	return rep, nil
}

// coreBenchOne times one (profile, scheme) cell: naive then fast, equal
// inputs, verified equal outputs.
func coreBenchOne(ctx context.Context, p workload.Profile, sch machine.Scheme) (CoreBenchEntry, error) {
	cfg, ccfg := ResolveConfigs(p, compiler.Config{})
	rt, err := NewRuntime(p, sch, cfg, ccfg, nil)
	if err != nil {
		return CoreBenchEntry{}, err
	}
	run := func(naive bool) (*machine.System, float64, error) {
		sys, err := rt.NewSystem()
		if err != nil {
			return nil, 0, err
		}
		sys.SetNaiveStepper(naive)
		start := time.Now()
		if err := sys.RunContext(ctx, MaxRunCycles); err != nil {
			return nil, 0, fmt.Errorf("%s/%s under %s: %w", p.Suite, p.Name, sch.Name, err)
		}
		return sys, time.Since(start).Seconds(), nil
	}
	nSys, nWall, err := run(true)
	if err != nil {
		return CoreBenchEntry{}, err
	}
	fSys, fWall, err := run(false)
	if err != nil {
		return CoreBenchEntry{}, err
	}
	if !reflect.DeepEqual(nSys.Stats, fSys.Stats) || !nSys.PM().Equal(fSys.PM()) ||
		!reflect.DeepEqual(nSys.Output, fSys.Output) {
		return CoreBenchEntry{}, fmt.Errorf(
			"corebench: %s/%s under %s: fast path diverges from the naive stepper", p.Suite, p.Name, sch.Name)
	}
	skipped, jumps := fSys.FastForwardStats()
	e := CoreBenchEntry{
		Suite: string(p.Suite), App: p.Name, Scheme: sch.Name,
		Cycles:       fSys.Stats.Cycles,
		NaiveWallSec: nWall, FastWallSec: fWall,
		FFJumps: jumps,
	}
	if nWall > 0 {
		e.NaiveCPS = float64(e.Cycles) / nWall
	}
	if fWall > 0 {
		e.FastCPS = float64(e.Cycles) / fWall
		e.Speedup = nWall / fWall
	}
	if e.Cycles > 0 {
		e.FFRatio = float64(skipped) / float64(e.Cycles)
	}
	return e, nil
}

// String renders the benchmark as an aligned table.
func (r *CoreBenchReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Event/epoch stepper benchmark (naive vs fast, byte-identical verified)\n")
	fmt.Fprintf(&b, "%-8s %-10s %-10s %12s %10s %10s %8s %6s\n",
		"suite", "app", "scheme", "cycles", "naiveMc/s", "fastMc/s", "speedup", "ff%")
	for _, e := range r.Entries {
		fmt.Fprintf(&b, "%-8s %-10s %-10s %12d %10.2f %10.2f %7.2fx %5.1f%%\n",
			e.Suite, e.App, e.Scheme, e.Cycles,
			e.NaiveCPS/1e6, e.FastCPS/1e6, e.Speedup, e.FFRatio*100)
	}
	fmt.Fprintf(&b, "geomean speedup: %.2fx\n", r.GeomeanSpeedup)
	return b.String()
}
