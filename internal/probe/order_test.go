package probe_test

import (
	"strings"
	"testing"

	"lightwsp/internal/compiler"
	"lightwsp/internal/isa"
	"lightwsp/internal/machine"
	"lightwsp/internal/probe"
)

// flush is a WPQFlush event for the checker tests.
func flush(mc int, region, addr uint64) probe.Event {
	return probe.Event{Kind: probe.WPQFlush, Core: -1, MC: mc, Region: region, Addr: addr}
}

// check streams events through a fresh checker and returns its verdict.
func check(numMCs int, events ...probe.Event) error {
	o := probe.NewRegionOrder(numMCs)
	for _, e := range events {
		o.Emit(e)
	}
	return o.Err()
}

func TestVerifyRegionOrderDetectsViolations(t *testing.T) {
	legal := []probe.Event{
		flush(0, 1, 0x10),
		flush(1, 3, 0x40), // other MC may run ahead
		flush(0, 2, 0x18),
		// Only flushes are ordered: an enqueue of an older region is not a
		// persist and must not count.
		{Kind: probe.WPQEnqueue, MC: 0, Region: 1, Addr: 0x10},
	}
	if err := check(2, legal...); err != nil {
		t.Fatalf("legal stream rejected: %v", err)
	}
	if err := check(2, flush(0, 2, 0x10), flush(0, 1, 0x18)); err == nil {
		t.Fatal("per-controller regression accepted")
	}
	if err := check(2, flush(0, 2, 0x10), flush(1, 1, 0x10)); err == nil {
		t.Fatal("same-address regression accepted")
	}
	if err := check(2, flush(5, 1, 0)); err == nil {
		t.Fatal("out-of-range controller accepted")
	}

	// The first violation sticks: later legal flushes do not clear it.
	o := probe.NewRegionOrder(1)
	for _, e := range []probe.Event{flush(0, 2, 0x10), flush(0, 1, 0x18), flush(0, 3, 0x20)} {
		o.Emit(e)
	}
	if err := o.Err(); err == nil || !strings.Contains(err.Error(), "region 1 after region 2") {
		t.Fatalf("first violation lost: %v", err)
	}
}

// lockProg builds a multi-threaded locked-counter program: the canonical
// conflicting-access pattern of Fig. 4.
func lockProg(t *testing.T) *isa.Program {
	t.Helper()
	b := isa.NewBuilder("lk")
	b.Func("main")
	b.MovImm(3, 0x40000)
	b.MovImm(4, 0x40008)
	b.MovImm(7, 0)
	b.MovImm(8, 5)
	loop := b.NewBlock()
	b.LockAcquire(3, 0)
	b.Load(5, 4, 0)
	b.AddImm(5, 5, 1)
	b.Store(4, 0, 5)
	b.LockRelease(3, 0)
	b.AddImm(7, 7, 1)
	b.CmpLT(9, 7, 8)
	b.Branch(9, loop, loop+1)
	b.NewBlock()
	b.Halt()
	b.SwitchTo(0)
	b.Jump(loop)
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// runLockProg runs the locked-counter program under sch with a persist-order
// checker attached, plus a tally of flushes to the shared counter.
func runLockProg(t *testing.T, threads int, sch machine.Scheme) (order *probe.RegionOrder, counterFlushes int) {
	t.Helper()
	res, err := compiler.Compile(lockProg(t), compiler.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := machine.DefaultConfig()
	cfg.Threads = threads
	sys, err := machine.NewSystem(res.Prog, cfg, sch)
	if err != nil {
		t.Fatal(err)
	}
	order = probe.NewRegionOrder(cfg.NumMCs)
	sys.SetProbeSink(probe.Multi(order, probe.SinkFunc(func(e probe.Event) {
		if e.Kind == probe.WPQFlush && e.Addr == 0x40008 {
			counterFlushes++
		}
	})))
	if !sys.Run(10_000_000) {
		t.Fatal("run did not complete")
	}
	return order, counterFlushes
}

func TestLightWSPRunSatisfiesRegionOrder(t *testing.T) {
	order, counterFlushes := runLockProg(t, 4, machine.Scheme{
		Name: "lightwsp", Instrumented: true, UsePersistPath: true,
		EntryBytes: 8, GatedWPQ: true, UseDRAMCache: true,
	})
	// The shared counter's per-address cursor is what proves the
	// happens-before order of Fig. 4; it must actually have been exercised.
	if counterFlushes == 0 {
		t.Fatal("the shared counter never reached PM")
	}
	if err := order.Err(); err != nil {
		t.Fatalf("LRPO invariant violated on a real run: %v", err)
	}
	if !strings.Contains(order.Summary(), "PM writes") {
		t.Fatal("summary malformed")
	}
}

func TestCWSPSpeculationViolatesPerMCOrder(t *testing.T) {
	// cWSP's FIFO speculation flushes out of region order by design —
	// that is exactly why it needs undo logging. The checker must catch
	// it on a contended run: this is the sabotage case proving the
	// checker fails on a real violation. The simulation is deterministic,
	// so the violation is always there to find.
	order, _ := runLockProg(t, 8, machine.Scheme{
		Name: "cwsp", Instrumented: true, StripCheckpoints: true,
		UsePersistPath: true, EntryBytes: 8, UseDRAMCache: true,
	})
	if order.Err() == nil {
		t.Fatal("cWSP's out-of-order speculative flushes passed the checker")
	}
}
