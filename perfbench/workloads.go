package main

import (
	"fmt"
	"math/rand"

	"lightwsp/internal/baseline"
	"lightwsp/internal/compiler"
	"lightwsp/internal/crashfuzz"
	"lightwsp/internal/experiments"
	"lightwsp/internal/machine"
	"lightwsp/internal/workload"
)

// class is one benchmark workload: an input class that every phase (paper
// grid, crash campaign, fleet serving) draws its programs from. The two
// classes differ in the property the simulator's cost depends on most:
// single-threaded SPEC codes, which the fast-forward scheduler partly
// skips, versus 8-thread codes, which carry NoC and WPQ contention.
type class struct {
	name string
	// grid is the fixed slice of the fig7 run set (each profile under the
	// four fig7 schemes). It does not depend on the seed. Its runs are
	// short next to the pass (under a second each), so the order in which
	// the pool happens to start them moves the pass's end little.
	grid []profileRef
	// hot is the serve phase's run hot set (each under the four schemes);
	// every entry is also in grid, whose cold results are the reference
	// the served bytes are checked against.
	hot []profileRef
	// session is the profile durable sessions advance through, advance
	// cycles at a time; a session is finished after sessionLen advances,
	// short of the program's end, so no advance finds it done.
	session    profileRef
	advance    uint64
	sessionLen int
	// smoke is fuzzed exhaustively; sampled is fuzzed at a fixed budget.
	smoke   string
	sampled profileRef
}

type profileRef struct{ suite, name string }

var classes = []class{
	{
		name: "spec",
		grid: []profileRef{
			{"CPU2006", "lbm"}, {"CPU2017", "leela"}, {"CPU2006", "namd"},
			{"CPU2006", "hmmer"}, {"CPU2006", "mcf"},
		},
		hot:     []profileRef{{"CPU2017", "leela"}, {"CPU2006", "namd"}},
		session: profileRef{"CPU2006", "hmmer"},
		advance: 10_000,
		// hmmer ends at 734,634 cycles.
		sessionLen: 64,
		smoke:      "fuzz-st",
		sampled:    profileRef{"CPU2006", "hmmer"},
	},
	{
		name: "parallel",
		grid: []profileRef{
			{"STAMP", "intruder"}, {"NPB", "ep"}, {"SPLASH3", "water-ns"}, {"SPLASH3", "water-sp"},
		},
		hot:     []profileRef{{"STAMP", "intruder"}, {"NPB", "ep"}},
		session: profileRef{"STAMP", "intruder"},
		// Eight cores make each cycle several times dearer, so the
		// advance is shorter and an advance op costs about what spec's does.
		advance: 2_000,
		// intruder ends at 224,105 cycles.
		sessionLen: 96,
		smoke:      "fuzz-mt",
		sampled:    profileRef{"STAMP", "intruder"},
	},
}

func classByName(name string) (class, bool) {
	for _, c := range classes {
		if c.name == name {
			return c, true
		}
	}
	return class{}, false
}

func (r profileRef) profile() (workload.Profile, error) {
	p, ok := workload.Find(r.suite, r.name)
	if !ok {
		return workload.Profile{}, fmt.Errorf("unknown profile %s/%s", r.suite, r.name)
	}
	return p, nil
}

// fig7Schemes are the four schemes of the paper's Fig. 7, in a fixed order.
func fig7Schemes() []machine.Scheme {
	return []machine.Scheme{baseline.Baseline(), baseline.Capri(), baseline.PPA(), experiments.LightWSP()}
}

// gridSpecs is the class's fixed grid run set: every profile under every
// fig7 scheme with the default compiler configuration, as Fig7 asks for.
func gridSpecs(c class) ([]experiments.RunSpec, error) {
	var specs []experiments.RunSpec
	for _, ref := range c.grid {
		p, err := ref.profile()
		if err != nil {
			return nil, err
		}
		for _, sch := range fig7Schemes() {
			specs = append(specs, experiments.RunSpec{Profile: p, Scheme: sch, Compiler: compiler.Config{}})
		}
	}
	return specs, nil
}

// Crash campaign sizes: the smoke profile is fuzzed at every cycle; the
// evaluation profile at this many random cycles plus this many probe-guided
// ones (each with its two neighbours).
const (
	sampledInjections  = 4
	sampledInteresting = 2
)

// rounds is how many times one run repeats every phase, interleaved, so a
// burst of host noise lands in one round; bestRound folds the rounds into
// the run's value.
const rounds = 3

// roundSeed derives the seed of one round from the benchmark seed.
func roundSeed(seed int64, round int) int64 { return seed*rounds + int64(round) }

// crashPlan is the class's campaign set. The seed is the benchmark's seed,
// so the sampled cut cycles change with it and nothing else does.
func crashPlan(c class, seed int64) ([]crashfuzz.Config, error) {
	var smoke workload.Profile
	for _, p := range workload.FuzzSmokeProfiles() {
		if p.Name == c.smoke {
			smoke = p
		}
	}
	if smoke.Name == "" {
		return nil, fmt.Errorf("unknown smoke profile %s", c.smoke)
	}
	sampled, err := c.sampled.profile()
	if err != nil {
		return nil, err
	}
	return []crashfuzz.Config{
		{Profile: smoke, Seed: seed},
		{Profile: sampled, Seed: seed, MaxInjections: sampledInjections, MaxInteresting: sampledInteresting},
	}, nil
}

// cutSample picks n cut cycles in [1, total) for the traced crash
// breakdown, from the benchmark seed.
func cutSample(seed int64, total uint64, n int) []uint64 {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	cuts := make([]uint64, n)
	for i := range cuts {
		cuts[i] = 1 + rng.Uint64()%(total-1)
	}
	return cuts
}

// resumeMaxBack bounds how far back a resume starts: 1 to resumeMaxBack
// events before the end of one of the client's sessions. Nothing in the
// repository records how real clients use sessions, so this, like the
// advance length, session length (class) and snapshot cadence
// (newSession), is an assumption, chosen to keep every op's cost
// stationary.
const resumeMaxBack = 8

type opKind int

const (
	opRun opKind = iota
	opAdvance
	opResume
)

var opKinds = []opKind{opRun, opAdvance, opResume}

func (k opKind) String() string {
	return [...]string{"run", "advance", "resume"}[k]
}

// op is one generated serve operation. Every field is drawn from the
// seeded generator; a field the op's kind does not use is ignored. What
// pick and back resolve to depends on the client's sessions, whose number
// and length depend on timing; the draws themselves do not.
type op struct {
	kind opKind
	node int // which fleet node the request is sent to
	key  int // run: index into the hot key list
	pick int // resume: which of the client's sessions, modulo their number
	back int // resume: how many events before the session's end to start
}

// opGen yields one client's op sequence for one op kind.
type opGen struct {
	kind opKind
	rng  *rand.Rand
	keys int
}

func newOpGen(seed int64, client int, kind opKind, keys int) *opGen {
	return &opGen{kind: kind, rng: rand.New(rand.NewSource(seed*7919 + int64(client)*31 + int64(kind))), keys: keys}
}

func (g *opGen) next() op {
	return op{
		kind: g.kind,
		node: g.rng.Intn(fleetNodes),
		key:  g.rng.Intn(g.keys),
		pick: g.rng.Intn(1 << 30),
		back: 1 + g.rng.Intn(resumeMaxBack),
	}
}
