package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/pprof"
	"sort"
	"sync"
	"time"

	"lightwsp/internal/compiler"
	"lightwsp/internal/experiments"
	"lightwsp/internal/machine"
	"lightwsp/internal/metrics"
	"lightwsp/internal/workload"
)

// Warm passes are short and sensitive to disk noise, so each round runs
// them in three groups — after the grid, after the crash phase and after
// the serve phase — of warmReps passes each, and a group's value is the
// median of its passes.
const warmReps = 5

func specKey(s experiments.RunSpec) string {
	return fmt.Sprintf("%s/%s/%s", s.Profile.Suite, s.Profile.Name, s.Scheme.Name)
}

// gridRound is one round's grid: the cold results and the tiers the warm
// passes read.
type gridRound struct {
	ctx      context.Context
	dir      string
	specs    []experiments.RunSpec
	want     map[string]*machine.Stats
	l1, l2   experiments.Store
	l1t, l2t *storeTiming
	rec      *recorder
	tiers    []*experiments.TieredStore
	counters []experiments.Counters
	empties  int // empty L1 directories made for warm L2 passes
}

func (g *gridRound) blobs(name string, t *storeTiming) experiments.Store {
	return wrapStore(experiments.NewBlobCache(filepath.Join(g.dir, name)), t)
}

// l2dir is the directory of the round's L2 store.
func (g *gridRound) l2dir() string { return filepath.Join(g.dir, "l2") }

// runner returns a fresh Runner over l1 and the round's L2.
func (g *gridRound) runner(l1 experiments.Store) *experiments.Runner {
	ts := experiments.NewTieredStore(l1, g.l2)
	g.tiers = append(g.tiers, ts)
	r := experiments.NewRunner()
	r.SetWorkers(runtime.NumCPU())
	r.SetStore(ts)
	return r.WithContext(g.ctx)
}

// gridPhase resolves the class's fixed fig7 slice cold through a fresh
// Runner over a fresh L1+L2 TieredStore, with Runner.Prefetch in every
// round. With a recorder both store tiers are wrapped in timers; with deep
// it then resolves the same run set again by direct calls into workload,
// compiler and machine, and checks those results against the Runner's.
func gridPhase(ctx context.Context, c class, dir string, rec *recorder, deep bool, res *result) (*gridRound, error) {
	specs, err := gridSpecs(c)
	if err != nil {
		return nil, err
	}
	g := &gridRound{ctx: ctx, dir: dir, specs: specs, want: map[string]*machine.Stats{}, rec: rec}
	if rec != nil {
		g.l1t, g.l2t = &storeTiming{}, &storeTiming{}
	}
	g.l1, g.l2 = g.blobs("l1", g.l1t), g.blobs("l2", g.l2t)

	cold := g.runner(g.l1)
	runtime.GC()
	sp := rec.begin(rec.newOp(), "grid_cold", -1)
	start := time.Now()
	err = cold.Prefetch(specs)
	res.set("grid_cold_s", time.Since(start).Seconds(), 1)
	rec.end(sp)
	if err != nil {
		return nil, fmt.Errorf("grid cold pass: %w", err)
	}
	res.attempted += len(specs)
	if rec != nil {
		queueWait(cold, g.l1t, start, res)
	}
	for _, s := range specs {
		st, err := cold.Run(s.Profile, s.Scheme, s.Compiler)
		if err != nil {
			return nil, err
		}
		g.want[specKey(s)] = st
	}
	g.counters = append(g.counters, cold.Counters())
	if n := cold.Counters().Fresh; n != len(specs) {
		res.fail("grid: cold pass simulated %d of %d runs", n, len(specs))
	}
	digest, totals := simDigest(g.want)
	res.note("sim.digest %d  sim.cycles %d  sim.instructions %d  sim.persist_entries %d  (%d runs; simulated caches start empty in every run)",
		digest, totals.Cycles, totals.Instructions, totals.PersistEntries, len(g.want))
	if !deep {
		return g, nil
	}
	res.layer["sim.digest"] = float64(digest)
	res.layer["sim.cycles"] = float64(totals.Cycles)
	res.layer["sim.instructions"] = float64(totals.Instructions)
	res.layer["sim.persist_entries"] = float64(totals.PersistEntries)
	direct, err := directPass(ctx, specs, rec, res)
	if err != nil {
		return nil, err
	}
	for _, s := range specs {
		if !reflect.DeepEqual(direct[specKey(s)], *g.want[specKey(s)]) {
			res.fail("grid: direct-call stats of %s differ from the Runner's", specKey(s))
		}
	}
	return g, nil
}

// warm runs one group of warm passes: warmReps from L1 (a fresh Runner
// over the same tiers), then warmReps from L2 behind a fresh empty L1.
// Every warm result must equal its cold result, and none may simulate.
func (g *gridRound) warm(res *result) error {
	pass := func(name string, l1 experiments.Store) (float64, error) {
		r := g.runner(l1)
		runtime.GC()
		sp := g.rec.begin(g.rec.newOp(), name, -1)
		start := time.Now()
		err := r.Prefetch(g.specs)
		ms := float64(time.Since(start)) / float64(time.Millisecond)
		g.rec.end(sp)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
		res.attempted += len(g.specs)
		for _, s := range g.specs {
			st, err := r.Run(s.Profile, s.Scheme, s.Compiler)
			if err != nil || !reflect.DeepEqual(*st, *g.want[specKey(s)]) {
				res.fail("%s: %s differs from its cold result (%v)", name, specKey(s), err)
			}
		}
		if n := r.Counters().Fresh; n != 0 {
			res.fail("%s: %d runs were simulated again", name, n)
		}
		g.counters = append(g.counters, r.Counters())
		return ms, nil
	}
	var l1, l2 []float64
	for i := 0; i < warmReps; i++ {
		ms, err := pass("grid_warm_l1", g.l1)
		if err != nil {
			return err
		}
		l1 = append(l1, ms)
	}
	for i := 0; i < warmReps; i++ {
		g.empties++
		ms, err := pass("grid_warm_l2", g.blobs(fmt.Sprintf("l1-empty-%d", g.empties), g.l1t))
		if err != nil {
			return err
		}
		l2 = append(l2, ms)
	}
	res.set("grid_warm_l1_ms", median(l1), warmReps)
	res.set("grid_warm_l2_ms", median(l2), warmReps)
	return nil
}

// layers reports the traced round's Runner and store-tier metrics.
func (g *gridRound) layers(res *result) {
	var sum experiments.Counters
	for _, c := range g.counters {
		sum.Fresh += c.Fresh
		sum.DiskHits += c.DiskHits
		sum.MemHits += c.MemHits
		sum.LeaseJoins += c.LeaseJoins
	}
	res.layer["runner.fresh"] = float64(sum.Fresh)
	res.layer["runner.disk_hits"] = float64(sum.DiskHits)
	res.layer["runner.mem_hits"] = float64(sum.MemHits)
	res.layer["runner.lease_joins"] = float64(sum.LeaseJoins)
	var l1Hits, l2Hits, misses uint64
	for _, ts := range g.tiers {
		l1Hits += ts.Counters().L1Hits.Load()
		l2Hits += ts.Counters().L2Hits.Load()
		misses += ts.Counters().Misses.Load()
	}
	res.layer["store.l1_hits"] = float64(l1Hits)
	res.layer["store.l2_hits"] = float64(l2Hits)
	res.layer["store.misses"] = float64(misses)
	for tier, t := range map[string]*storeTiming{"l1": g.l1t, "l2": g.l2t} {
		res.setLayer("store."+tier+".read_ms", t.reads.q(0.5), t.reads.n())
		res.setLayer("store."+tier+".write_ms", t.writes.q(0.5), t.writes.n())
		res.layer["store."+tier+".reads"] = float64(t.reads.n())
		res.layer["store."+tier+".writes"] = float64(t.writes.n())
	}
}

// queueWait reports the cold pass's per-run queue wait: Prefetch starts
// every Run at once, and a fresh Run's result is written to L1 as it
// completes, so a run's latency is its L1 write time less the pass's start,
// and its queue wait that latency less the manifest's resolution time.
func queueWait(r *experiments.Runner, l1 *storeTiming, start time.Time, res *result) {
	var wait samples
	for _, m := range r.Manifests() {
		if at, ok := l1.writtenAt(m.KeyHash); ok {
			wait.add(at.Sub(start) - time.Duration(m.WallSeconds*float64(time.Second)))
		}
	}
	res.setLayer("runner.queue_wait_ms", wait.q(0.5), wait.n())
}

// directPass resolves the run set by calling workload.Build,
// compiler.Compile, machine.NewSystem (with the metrics sink the Runner
// attaches) and RunContext directly on nproc workers, under a CPU profile,
// with process-wide allocation counts taken around the pass.
func directPass(ctx context.Context, specs []experiments.RunSpec, rec *recorder, res *result) (map[string]machine.Stats, error) {
	type perScheme struct {
		cycles uint64
		run    time.Duration
	}
	var (
		mu       sync.Mutex
		out      = map[string]machine.Stats{}
		schemes  = map[string]*perScheme{}
		cycles   uint64
		skipped  uint64
		jumps    uint64
		firstErr error
	)
	one := func(s experiments.RunSpec) error {
		cfg, ccfg := experiments.ResolveConfigs(s.Profile, s.Compiler)
		op := rec.newOp()
		root := rec.begin(op, "grid.run", -1)
		defer rec.end(root)
		sp := rec.begin(op, "workload.build", root)
		prog, err := workload.Build(s.Profile)
		rec.end(sp)
		if err != nil {
			return err
		}
		if s.Scheme.Instrumented {
			sp = rec.begin(op, "compiler.compile", root)
			cr, err := compiler.Compile(prog, ccfg)
			rec.end(sp)
			if err != nil {
				return err
			}
			prog = cr.Prog
		}
		sp = rec.begin(op, "machine.new_system", root)
		sys, err := machine.NewSystem(prog, cfg, s.Scheme)
		if err == nil {
			sys.SetProbeSink(metrics.New())
		}
		rec.end(sp)
		if err != nil {
			return err
		}
		sp = rec.begin(op, "machine.run", root)
		start := time.Now()
		err = sys.RunContext(ctx, experiments.MaxRunCycles)
		d := time.Since(start)
		rec.end(sp)
		if err != nil {
			return err
		}
		sk, j := sys.FastForwardStats()
		mu.Lock()
		defer mu.Unlock()
		out[specKey(s)] = sys.Stats
		ps := schemes[s.Scheme.Name]
		if ps == nil {
			ps = &perScheme{}
			schemes[s.Scheme.Name] = ps
		}
		ps.cycles += sys.Stats.Cycles
		ps.run += d
		cycles += sys.Stats.Cycles
		skipped += sk
		jumps += j
		return nil
	}

	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, err
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	jobs := make(chan experiments.RunSpec)
	var wg sync.WaitGroup
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := range jobs {
				if err := one(s); err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = fmt.Errorf("direct %s: %w", specKey(s), err)
					}
					mu.Unlock()
				}
			}
		}()
	}
	for _, s := range specs {
		jobs <- s
	}
	close(jobs)
	wg.Wait()
	runtime.ReadMemStats(&after)
	pprof.StopCPUProfile()
	if firstErr != nil {
		return nil, firstErr
	}

	agg := rec.aggregate()
	ms := func(name string) float64 {
		if lt := agg[name]; lt != nil {
			return float64(lt.Total) / float64(time.Millisecond)
		}
		return 0
	}
	res.layer["workload.build_ms"] = ms("workload.build")
	res.layer["compiler.compile_ms"] = ms("compiler.compile")
	res.layer["machine.run_s"] = ms("machine.run") / 1000
	res.layer["machine.run_share"] = ms("machine.run") / ms("grid.run")
	res.note("grid blocking time per run op: machine.run %.1f%%, workload.build %.3f%%, compiler.compile %.3f%%, machine.new_system %.3f%%",
		100*ms("machine.run")/ms("grid.run"), 100*ms("workload.build")/ms("grid.run"),
		100*ms("compiler.compile")/ms("grid.run"), 100*ms("machine.new_system")/ms("grid.run"))
	for _, sch := range fig7Schemes() {
		if ps := schemes[sch.Name]; ps != nil && ps.run > 0 {
			res.layer["machine.mcycles_per_s."+sch.Name] = float64(ps.cycles) / ps.run.Seconds() / 1e6
		}
	}
	kcycles := float64(cycles) / 1000
	res.layer["machine.ff_ratio"] = float64(skipped) / float64(cycles)
	res.layer["machine.ff_jumps"] = float64(jumps)
	res.layer["machine.allocs_per_kcycle"] = float64(after.Mallocs-before.Mallocs) / kcycles
	res.layer["machine.bytes_per_kcycle"] = float64(after.TotalAlloc-before.TotalAlloc) / kcycles
	shares, err := cpuShares(prof.Bytes())
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	for _, pkg := range profiledPackages {
		res.layer["cpu.share."+pkg] = shares[pkg]
	}
	return out, nil
}

// simDigest hashes every run's machine.Stats in key order and totals the
// modelled counters: a change to the host code alone must leave all of
// these identical.
func simDigest(runs map[string]*machine.Stats) (uint64, machine.Stats) {
	keys := make([]string, 0, len(runs))
	for k := range runs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := sha256.New()
	var tot machine.Stats
	for _, k := range keys {
		st := runs[k]
		b, _ := json.Marshal(st) // Stats is plain numbers; Marshal cannot fail
		h.Write([]byte(k))
		h.Write(b)
		tot.Cycles += st.Cycles
		tot.Instructions += st.Instructions
		tot.PersistEntries += st.PersistEntries
	}
	// 48 bits, so the digest survives a float64 round trip exactly.
	var buf [8]byte
	copy(buf[2:], h.Sum(nil)[:6])
	return binary.BigEndian.Uint64(buf[:]), tot
}
