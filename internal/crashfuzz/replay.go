package crashfuzz

import (
	"context"
	"fmt"

	"lightwsp/internal/core"
	"lightwsp/internal/faults"
	"lightwsp/internal/mem"
)

// Schedule is one failure schedule: a sequence of power-cut cycles. Cut i
// fires when the machine of segment i — the initial run for i = 0, the i-th
// recovered machine afterwards — reaches that cycle of its own counter
// (recovered machines restart at cycle 0). A cut of 0 therefore cuts power
// the instant the previous recovery hands off, before a single cycle
// executes: the model's tightest "failure during recovery itself".
//
// A cut whose cycle lies beyond the segment's completion never fires (the
// run finishes first); the replay then skips the remaining cuts.
type Schedule []uint64

// String renders the schedule compactly for logs and error messages.
func (s Schedule) String() string {
	return fmt.Sprintf("%v", []uint64(s))
}

// clone returns an independent copy.
func (s Schedule) clone() Schedule { return append(Schedule{}, s...) }

// Replay executes one failure schedule against a compiled runtime: run to
// each cut cycle and take the runtime's power-cut step (§IV-F drain, then
// recovery), with corrupt — the test-only broken-recovery hook — applied to
// the drained image; after the last cut the machine runs to completion. The
// result's Rollbacks counts the cuts that fired (a schedule can outlive its
// program). An enabled fault plan attaches a fresh injector to every
// segment — the initial machine and each recovered one — so each segment's
// fault pattern depends only on the plan and the segment's own cycle
// counter, never on earlier cuts; the oracle stays fault-free. Replays are
// deterministic: the same runtime, schedule and plan always produce the
// same final machine. Cancellation is honored at cycle-batch granularity.
func Replay(ctx context.Context, rt *core.Runtime, sched Schedule, maxCycles uint64, corrupt func(*mem.Image), plan faults.Plan) (*core.CrashResult, error) {
	sys, err := rt.NewSystem()
	if err != nil {
		return nil, err
	}
	sys.SetFaultInjector(faults.New(plan))
	var hook func(*mem.Image) error
	if corrupt != nil {
		hook = func(pm *mem.Image) error {
			corrupt(pm)
			return nil
		}
	}
	res := &core.CrashResult{}
	for _, cut := range sched {
		done, err := sys.RunUntilContext(ctx, cut)
		if err != nil {
			return nil, err
		}
		if done {
			break // completed before the cut could fire
		}
		if sys, res.Report, err = rt.Cut(sys, hook); err != nil {
			return nil, fmt.Errorf("crashfuzz: recover after cut at cycle %d: %w", cut, err)
		}
		sys.SetFaultInjector(faults.New(plan))
		res.Failed = true
		res.Rollbacks++
	}
	if err := sys.RunContext(ctx, maxCycles); err != nil {
		return nil, fmt.Errorf("crashfuzz: replay %v: %w", sched, err)
	}
	res.Recovered = sys
	return res, nil
}
