package recovery

import (
	"testing"

	"lightwsp/internal/compiler"
	"lightwsp/internal/isa"
	"lightwsp/internal/machine"
	"lightwsp/internal/mem"
)

// accumProg builds a program whose result depends on every iteration: sum
// 1..n into rAcc, publishing the running total each step. Any lost or
// duplicated recovery work changes the final word.
func accumProg(t *testing.T, n int) *isa.Program {
	t.Helper()
	b := isa.NewBuilder("accum")
	b.Func("main")
	b.MovImm(1, 0x2000)
	b.MovImm(2, 0) // i
	b.MovImm(3, int64(n))
	b.MovImm(4, 0) // acc
	loop := b.NewBlock()
	b.AddImm(2, 2, 1)
	b.Add(4, 4, 2)
	b.Store(1, 0, 4)
	b.CmpLT(5, 2, 3)
	b.Branch(5, loop, loop+1)
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

func lightwspScheme() machine.Scheme {
	return machine.Scheme{Name: "lightwsp", Instrumented: true, UsePersistPath: true,
		EntryBytes: 8, GatedWPQ: true, UseDRAMCache: true}
}

// failAndRecover cuts power on sys and hands back the recovered system.
func failAndRecover(t *testing.T, sys *machine.System, res *compiler.Result, cfg machine.Config) *machine.System {
	t.Helper()
	rep := sys.PowerFail()
	next, err := Recover(res.Prog, cfg, lightwspScheme(), sys.PM(), res.Recipes, rep.RegionCounter)
	if err != nil {
		t.Fatal(err)
	}
	return next
}

func TestDoubleFailureRoundTrip(t *testing.T) {
	// Two successive power failures — fail, recover, run a little, fail
	// again, recover again — must still converge to the failure-free
	// result: persistence is all-or-nothing per region regardless of how
	// many times the chain is cut.
	const n = 64
	res, err := compiler.Compile(accumProg(t, n), compiler.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := machine.DefaultConfig()
	cfg.Threads = 1

	oracle, err := machine.NewSystem(res.Prog, cfg, lightwspScheme())
	if err != nil {
		t.Fatal(err)
	}
	if !oracle.Run(10_000_000) {
		t.Fatal("oracle run did not complete")
	}
	want := oracle.PM().Read(0x2000)
	if want != n*(n+1)/2 {
		t.Fatalf("oracle result %d, want %d", want, n*(n+1)/2)
	}

	for _, cuts := range [][2]uint64{{40, 40}, {100, 30}, {250, 1}} {
		sys, err := machine.NewSystem(res.Prog, cfg, lightwspScheme())
		if err != nil {
			t.Fatal(err)
		}
		sys.RunUntil(cuts[0])
		sys = failAndRecover(t, sys, res, cfg)
		sys.RunUntil(cuts[1])
		sys = failAndRecover(t, sys, res, cfg)
		if !sys.Run(10_000_000) {
			t.Fatalf("cuts %v: final run did not complete", cuts)
		}
		if err := VerifyEquivalence(sys.PM(), oracle.PM()); err != nil {
			t.Fatalf("cuts %v: %v", cuts, err)
		}
	}
}

func TestFailureDuringRecoveryRoundTrip(t *testing.T) {
	// The tightest double failure: power is cut the instant recovery hands
	// off, before the recovered machine executes one cycle. The crash image
	// must survive unchanged through the second failure, and the third
	// machine must still finish with the oracle's state.
	res, err := compiler.Compile(accumProg(t, 48), compiler.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := machine.DefaultConfig()
	cfg.Threads = 1

	oracle, err := machine.NewSystem(res.Prog, cfg, lightwspScheme())
	if err != nil {
		t.Fatal(err)
	}
	if !oracle.Run(10_000_000) {
		t.Fatal("oracle run did not complete")
	}

	sys, err := machine.NewSystem(res.Prog, cfg, lightwspScheme())
	if err != nil {
		t.Fatal(err)
	}
	sys.RunUntil(120)
	sys = failAndRecover(t, sys, res, cfg)
	crash := sys.PM().Clone()
	// Cut again at cycle 0 of the recovered machine: a failure during
	// recovery itself.
	sys = failAndRecover(t, sys, res, cfg)
	if err := VerifyEquivalence(sys.PM(), crash); err != nil {
		t.Fatalf("zero-cycle failure perturbed the crash image: %v", err)
	}
	if !sys.Run(10_000_000) {
		t.Fatal("final run did not complete")
	}
	if err := VerifyEquivalence(sys.PM(), oracle.PM()); err != nil {
		t.Fatal(err)
	}
	if err := VerifyPMMatchesArch(sys.PM(), sys.Arch()); err != nil {
		t.Fatal(err)
	}
}

func TestVerifyPMMatchesArch(t *testing.T) {
	pm, arch := mem.NewImage(), mem.NewImage()
	pm.Write(0x100, 7)
	arch.Write(0x100, 7)
	if err := VerifyPMMatchesArch(pm, arch); err != nil {
		t.Fatal(err)
	}
	// Reserved-range state (checkpoints, stacks) is not program data.
	pm.Write(mem.CkptAddr(0, 3), 1234)
	if err := VerifyPMMatchesArch(pm, arch); err != nil {
		t.Fatalf("reserved-range difference should be ignored: %v", err)
	}
	arch.Write(0x108, 9)
	if err := VerifyPMMatchesArch(pm, arch); err == nil {
		t.Fatal("lost program data accepted")
	}
}

// TestVerifyCrash pins the shared crash verdict. A finished run passes
// against its own failure-free image; a user word flipped in the final PM
// breaks PM ≡ architectural state at any thread count; a user word flipped
// in the failure-free image only counts for a single-threaded run, where
// the word-for-word comparison applies.
func TestVerifyCrash(t *testing.T) {
	const word = 0x2000 // accumProg's published total
	flip := func(img *mem.Image) { img.Write(word, img.Read(word)^1) }
	cases := []struct {
		name    string
		final   func(*mem.Image) // mutates the finished run's PM
		clean   func(*mem.Image) // mutates the failure-free image
		fails1  bool
		failsMT bool
	}{
		{name: "clean run", fails1: false, failsMT: false},
		{name: "flipped PM word", final: flip, fails1: true, failsMT: true},
		{name: "flipped oracle word", clean: flip, fails1: true, failsMT: false},
	}
	for _, threads := range []int{1, 8} {
		cfg := machine.DefaultConfig()
		cfg.Threads = threads
		if cfg.Cores < threads {
			cfg.Cores = threads
		}
		res, err := compiler.Compile(accumProg(t, 40), compiler.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range cases {
			sys, err := machine.NewSystem(res.Prog, cfg, lightwspScheme())
			if err != nil {
				t.Fatal(err)
			}
			if !sys.Run(10_000_000) {
				t.Fatalf("%d threads: run did not finish", threads)
			}
			clean := sys.PM().Clone()
			if tc.final != nil {
				tc.final(sys.PM())
			}
			if tc.clean != nil {
				tc.clean(clean)
			}
			want := tc.fails1
			if threads > 1 {
				want = tc.failsMT
			}
			if err := VerifyCrash(sys, clean, threads); (err != nil) != want {
				t.Errorf("%s at %d threads: verdict %v, want failure=%v", tc.name, threads, err, want)
			}
		}
	}
}
