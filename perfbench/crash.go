package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"lightwsp/internal/core"
	"lightwsp/internal/crashfuzz"
	"lightwsp/internal/experiments"
	"lightwsp/internal/recovery"
	"lightwsp/internal/workload"
)

// cutsPerProfile is how many cut cycles per campaign profile the traced
// run replays step by step for the crash breakdown.
const cutsPerProfile = 4

// crashPhase runs the class's crash-fuzzing campaigns with the benchmark
// seed and no verdict cache. Each injection is one op; a divergence is a
// failed op. With deep it then replays a seeded sample of cuts call by call
// to split an injection's cost into its stages.
func crashPhase(ctx context.Context, c class, seed int64, rec *recorder, deep bool, res *result) error {
	plan, err := crashPlan(c, seed)
	if err != nil {
		return err
	}
	var injections, covered int
	runtime.GC()
	start := time.Now()
	for _, cfg := range plan {
		cfg.Workers = runtime.NumCPU()
		sp := rec.begin(rec.newOp(), "crashfuzz.campaign", -1)
		r, err := crashfuzz.RunContext(ctx, cfg)
		rec.end(sp)
		if err != nil {
			return fmt.Errorf("crash campaign %s: %w", cfg.Profile.Name, err)
		}
		injections += r.Injections
		covered += r.CyclesCovered
		res.attempted += r.Injections
		if r.Divergences > 0 {
			res.failed += r.Divergences
			res.check(fmt.Sprintf("crash: %s diverged %d time(s)", cfg.Profile.Name, r.Divergences))
		}
		res.note("crash %s: %s, %d injections, %d cycles covered, %d divergences",
			cfg.Profile.Name, r.Mode, r.Injections, r.CyclesCovered, r.Divergences)
	}
	res.set("crash_s", time.Since(start).Seconds(), injections)
	if !deep {
		return nil
	}
	res.layer["crash.injections"] = float64(injections)
	res.layer["crash.cycles_covered"] = float64(covered)
	return crashBreakdown(ctx, plan, seed, rec, res)
}

// crashBreakdown replays seeded cuts through the public runtime calls —
// NewSystem, RunUntilContext(cut), PowerFail, Recover, RunContext, then
// the equivalence check — timing each stage.
func crashBreakdown(ctx context.Context, plan []crashfuzz.Config, seed int64, rec *recorder, res *result) error {
	var prefixCycles, totalCycles uint64
	for _, cfg := range plan {
		mcfg, ccfg := experiments.ResolveConfigs(cfg.Profile, cfg.Compiler)
		prog, err := workload.Build(cfg.Profile)
		if err != nil {
			return err
		}
		rt, err := core.NewRuntime(prog, ccfg, mcfg)
		if err != nil {
			return err
		}
		oracle, err := rt.NewSystem()
		if err != nil {
			return err
		}
		if err := oracle.RunContext(ctx, experiments.MaxRunCycles); err != nil {
			return err
		}
		for _, cut := range cutSample(seed, oracle.Stats.Cycles, cutsPerProfile) {
			op := rec.newOp()
			root := rec.begin(op, "crash.injection", -1)
			sp := rec.begin(op, "crash.prefix", root)
			sys, err := rt.NewSystem()
			if err != nil {
				return err
			}
			done, err := sys.RunUntilContext(ctx, cut)
			rec.end(sp)
			if err != nil || done {
				return fmt.Errorf("crash breakdown: %s ended before cut %d (%v)", cfg.Profile.Name, cut, err)
			}
			sp = rec.begin(op, "crash.drain", root)
			rep := sys.PowerFail()
			rec.end(sp)
			sp = rec.begin(op, "crash.recover", root)
			rsys, err := rt.Recover(sys.PM(), rep.RegionCounter)
			rec.end(sp)
			if err != nil {
				return fmt.Errorf("crash breakdown: recover %s at %d: %w", cfg.Profile.Name, cut, err)
			}
			sp = rec.begin(op, "crash.resume", root)
			err = rsys.RunContext(ctx, experiments.MaxRunCycles)
			rec.end(sp)
			if err != nil {
				return err
			}
			sp = rec.begin(op, "crash.verify", root)
			verr := recovery.VerifyPMMatchesArch(rsys.PM(), rsys.Arch())
			if verr == nil && mcfg.Threads == 1 {
				verr = recovery.VerifyEquivalence(rsys.PM(), oracle.PM())
			}
			rec.end(sp)
			rec.end(root)
			res.attempted++
			if verr != nil {
				res.failed++
				res.check(fmt.Sprintf("crash: %s cut at %d: %v", cfg.Profile.Name, cut, verr))
			}
			prefixCycles += cut
			totalCycles += cut + rsys.Stats.Cycles
		}
	}
	agg := rec.aggregate()
	for _, stage := range []string{"prefix", "drain", "recover", "resume", "verify"} {
		if lt := agg["crash."+stage]; lt != nil {
			res.layer["crash."+stage+"_s"] = lt.Total.Seconds()
		}
	}
	res.layer["crash.prefix_cycle_share"] = float64(prefixCycles) / float64(totalCycles)
	return nil
}
