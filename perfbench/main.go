// Command perfbench is the repository's benchmark. One run resolves a
// fixed slice of the paper grid cold and warm, runs crash-fuzzing
// campaigns, and drives an in-process two-node serving fleet through the
// public client package, all on the programs of one workload class, then
// prints every end-to-end metric and checks every output. With -trace 1 it
// runs the same workload untraced and then traced, and prints the
// per-layer metrics plus the tracing overhead instead.
//
//	go run . -workload spec -seed 1 -seconds 9 -trace 0
//
// The last line of standard output is the JSON result; the lines before
// it are a readable report with sample counts and provenance. See
// README.md for the metrics and what each should move.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"lightwsp/internal/machine"
)

// metricDef is one reported metric; the lists below mirror
// BENCHMARK.json (a test keeps the two in step).
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"grid_cold_ref", "ref", "lower"},
	{"crash_ref", "ref", "lower"},
	{"run_ops_per_ref", "ops/ref", "higher"},
	{"advance_ops_per_ref", "ops/ref", "higher"},
	{"resume_ops_per_ref", "ops/ref", "higher"},
}

// reportOnly are measured exactly like endToEnd and printed in the report,
// and the traced run lists them with the per-layer metrics, but they are
// not in the untraced result. The first six are the raw values behind the
// gated ref-unit metrics, which follow the host's speed (see ref.go), and
// the reference itself; the rest spread 20-45% between quartiles over ten
// runs on a shared two-core host (fsync latency, CPU contention between
// ops, the CPU time the host hands out), wider than any bound a benchmark
// may set.
var reportOnly = []metricDef{
	{"grid_cold_s", "s", "lower"},
	{"crash_s", "s", "lower"},
	{"run_ops_per_cpu_s", "ops/cpu-s", "higher"},
	{"advance_ops_per_cpu_s", "ops/cpu-s", "higher"},
	{"resume_ops_per_cpu_s", "ops/cpu-s", "higher"},
	{"ref_ms", "ms", "lower"},
	{"run_ops_per_s", "ops/s", "higher"},
	{"advance_ops_per_s", "ops/s", "higher"},
	{"resume_ops_per_s", "ops/s", "higher"},
	{"grid_warm_l1_ms", "ms", "lower"},
	{"grid_warm_l2_ms", "ms", "lower"},
	{"run_p50_ms", "ms", "lower"},
	{"run_p99_ms", "ms", "lower"},
	{"advance_p50_ms", "ms", "lower"},
	{"advance_p99_ms", "ms", "lower"},
	{"resume_p50_ms", "ms", "lower"},
	{"resume_p90_ms", "ms", "lower"},
}

var perLayer = func() []metricDef {
	m := append([]metricDef(nil), reportOnly...)
	m = append(m, []metricDef{
		{"workload.build_ms", "ms", "lower"},
		{"compiler.compile_ms", "ms", "lower"},
		{"machine.run_s", "s", "lower"},
		{"machine.run_share", "ratio", "lower"},
	}...)
	for _, s := range fig7Schemes() {
		m = append(m, metricDef{"machine.mcycles_per_s." + s.Name, "Mcycles/s", "higher"})
	}
	m = append(m,
		metricDef{"machine.ff_ratio", "ratio", "higher"},
		metricDef{"machine.ff_jumps", "count", "lower"},
		metricDef{"machine.allocs_per_kcycle", "allocs/kcycle", "lower"},
		metricDef{"machine.bytes_per_kcycle", "B/kcycle", "lower"},
	)
	for _, p := range profiledPackages {
		m = append(m, metricDef{"cpu.share." + p, "ratio", "lower"})
	}
	m = append(m, []metricDef{
		{"sim.cycles", "count", "lower"},
		{"sim.instructions", "count", "lower"},
		{"sim.persist_entries", "count", "lower"},
		{"sim.digest", "hash", "lower"},
		{"runner.queue_wait_ms", "ms", "lower"},
		{"runner.fresh", "count", "lower"},
		{"runner.disk_hits", "count", "higher"},
		{"runner.mem_hits", "count", "higher"},
		{"runner.lease_joins", "count", "lower"},
		{"store.l1.read_ms", "ms", "lower"},
		{"store.l1.write_ms", "ms", "lower"},
		{"store.l2.read_ms", "ms", "lower"},
		{"store.l2.write_ms", "ms", "lower"},
		{"store.l1.reads", "count", "lower"},
		{"store.l1.writes", "count", "lower"},
		{"store.l2.reads", "count", "lower"},
		{"store.l2.writes", "count", "lower"},
		{"store.l1_hits", "count", "higher"},
		{"store.l2_hits", "count", "higher"},
		{"store.misses", "count", "lower"},
		{"crash.prefix_s", "s", "lower"},
		{"crash.drain_s", "s", "lower"},
		{"crash.recover_s", "s", "lower"},
		{"crash.resume_s", "s", "lower"},
		{"crash.verify_s", "s", "lower"},
		{"crash.prefix_cycle_share", "ratio", "lower"},
		{"crash.injections", "count", "higher"},
		{"crash.cycles_covered", "count", "higher"},
		{"http.run_ms", "ms", "lower"},
		{"http.advance_ms", "ms", "lower"},
		{"http.resume_ms", "ms", "lower"},
		{"fleet.forward_share", "ratio", "lower"},
		{"fleet.forwarded_p50_ms", "ms", "lower"},
		{"fleet.local_p50_ms", "ms", "lower"},
		{"server.rejected_429", "count", "lower"},
		{"server.fresh_runs", "count", "lower"},
		{"server.mem_hits", "count", "higher"},
		{"server.disk_hits", "count", "higher"},
		{"serve.l2.read_ms", "ms", "lower"},
		{"serve.l2.write_ms", "ms", "lower"},
		{"session.journal_sync_ms", "ms", "lower"},
		{"session.write_ms", "ms", "lower"},
		{"session.snapshots", "count", "lower"},
	}...)
	for _, e := range overheadMetrics {
		m = append(m, metricDef{"trace.overhead." + e, "ratio", "lower"})
	}
	return m
}()

// overheadMetrics are the raw metrics behind the gated ones whose
// traced/untraced ratio the traced run reports as its overhead.
var overheadMetrics = []string{"grid_cold_s", "crash_s", "run_ops_per_cpu_s", "advance_ops_per_cpu_s", "resume_ops_per_cpu_s"}

// result is one measured run of a workload.
type result struct {
	// rounds holds each end-to-end metric's value per round; e2e the
	// run's value (bestRound, or the pooled quantile for tails).
	rounds    map[string][]float64
	pooled    map[string]*tail
	e2e       map[string]float64
	layer     map[string]float64
	n         map[string]int // sample count behind each metric
	attempted int
	failed    int
	checks    []string // failed output checks
	notes     []string
	first     map[string]*machine.Stats // round 0's cold grid results
	refs      []float64                 // reference CPU times, ms (ref.go)
}

func newResult() *result {
	return &result{rounds: map[string][]float64{}, pooled: map[string]*tail{}, e2e: map[string]float64{},
		layer: map[string]float64{}, n: map[string]int{}}
}

// tail is a tail-latency metric: its quantile over every round's samples.
type tail struct {
	q float64
	v []float64
}

// setTail records one round's q-quantile of s and pools its samples: one
// round holds too few samples beyond a 99th percentile for a steady value.
func (r *result) setTail(name string, q float64, s *samples) {
	r.set(name, s.q(q), s.n())
	t := r.pooled[name]
	if t == nil {
		t = &tail{q: q}
		r.pooled[name] = t
	}
	s.mu.Lock()
	t.v = append(t.v, s.v...)
	s.mu.Unlock()
}

// set records one round's value of an end-to-end metric and the samples
// behind it.
func (r *result) set(name string, v float64, n int) {
	r.rounds[name] = append(r.rounds[name], v)
	r.n[name] += n
}

func (r *result) setLayer(name string, v float64, n int) { r.layer[name], r.n[name] = v, n }

// fail counts one failed op with its reason.
func (r *result) fail(format string, args ...any) {
	r.failed++
	r.check(fmt.Sprintf(format, args...))
}

// check records a failed output check (the op is counted by the caller).
func (r *result) check(msg string) { r.checks = append(r.checks, msg) }

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// round runs every phase of one workload once, interleaved with warm grid
// passes, into res. A recorder makes it a traced round (timed seams and
// spans); deep adds the traced run's analysis passes — the direct grid
// pass and the crash cut breakdown — after the phase each belongs to.
func (res *result) round(ctx context.Context, c class, seed int64, r, seconds int, dir string, rec *recorder, deep bool) error {
	rdir := filepath.Join(dir, fmt.Sprintf("round%d", r))
	defer os.RemoveAll(rdir)
	// Write back what earlier rounds (or the build) left dirty, so the
	// kernel's flush does not land inside this round's timings.
	syscall.Sync()
	res.sampleRef()
	defer res.sampleRef()
	g, err := gridPhase(ctx, c, filepath.Join(rdir, "grid"), rec, deep, res)
	if err != nil {
		return err
	}
	if res.first == nil {
		res.first = g.want
	} else if !reflect.DeepEqual(g.want, res.first) {
		res.fail("grid: round %d's cold results differ from the first round's", r)
	}
	if err := g.warm(res); err != nil {
		return err
	}
	if err := crashPhase(ctx, c, roundSeed(seed, r), rec, deep, res); err != nil {
		return err
	}
	if err := g.warm(res); err != nil {
		return err
	}
	res.sampleRef()
	loop := time.Duration(seconds) * time.Second / rounds
	if err := servePhase(ctx, c, roundSeed(seed, r), filepath.Join(rdir, "serve"), g.l2dir(), loop, g.want, rec != nil, res); err != nil {
		return err
	}
	if err := g.warm(res); err != nil {
		return err
	}
	if rec != nil {
		g.layers(res)
	}
	return nil
}

// fold turns the rounds into the run's values.
func (res *result) fold() {
	res.set("peak_rss_mb", peakRSSMB(), 1)
	for _, d := range slices.Concat(endToEnd, reportOnly) {
		res.e2e[d.Name] = bestRound(d, res.rounds[d.Name])
		if t := res.pooled[d.Name]; t != nil {
			res.e2e[d.Name] = quantile(t.v, t.q)
		}
	}
	res.normalize()
}

// bestRound folds a metric's round values into the run's value: the best
// round, since noise from other tenants of a shared host only ever makes a
// round slower, so the least-disturbed round is the steadiest estimate of
// the program's own cost. Set-up time is the median of all its set-ups.
func bestRound(d metricDef, vs []float64) float64 {
	switch {
	case len(vs) == 0:
		return 0
	case d.Name == "setup_s":
		return median(vs)
	case d.Better == "higher":
		return slices.Max(vs)
	}
	return slices.Min(vs)
}

// cpuTime is the CPU time the process has used, user plus system, over
// all its threads. It leaves out what wall time also counts: the time the
// hypervisor of a shared host withholds from the machine (steal) and the
// time the process waits on a disk that other tenants share.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB reads the process's peak resident set from /proc.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	wl := flag.String("workload", "", "workload: spec or parallel")
	seed := flag.Int64("seed", 1, "seed for the serve op sequence and the crash campaigns")
	seconds := flag.Int("seconds", 10, "length of the serve closed loop")
	trace := flag.Int("trace", 0, "1: run untraced, then traced, and print the per-layer metrics")
	flag.Parse()
	c, ok := classByName(*wl)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "usage: perfbench -workload spec|parallel -seed N -seconds N -trace 0|1\n")
		os.Exit(2)
	}
	if err := run(c, *seed, *seconds, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// workDir holds a run's stores, session directories and span files; it is
// relative to the checkout root, and git ignores it.
const workDir = ".bench_build/run"

// tracePairs is how many untraced and traced rounds a traced run
// alternates; the overhead compares the same statistic over each side's
// rounds.
const tracePairs = 2

func run(c class, seed int64, seconds int, traced bool) error {
	work := workDir
	ctx := context.Background()
	dir := filepath.Join(work, fmt.Sprintf("%s-%d-%d", c.name, seed, os.Getpid()))
	defer os.RemoveAll(dir)
	res := newResult()
	report := []*result{res}
	prov := provenance(seed)
	var rec *recorder
	if !traced {
		for r := 0; r < rounds; r++ {
			if err := res.round(ctx, c, seed, r, seconds, filepath.Join(dir, "untraced"), nil, false); err != nil {
				return err
			}
		}
	} else {
		// Untraced and traced rounds alternate on the same round seeds, so
		// a slow spell of the host lands on both sides; the last traced
		// round also runs the analysis passes, after its timed phases.
		rec = newRecorder()
		tr := newResult()
		report = append(report, tr)
		for r := 0; r < tracePairs; r++ {
			if err := res.round(ctx, c, seed, r, seconds, filepath.Join(dir, "untraced"), nil, false); err != nil {
				return err
			}
			if err := tr.round(ctx, c, seed, r, seconds, filepath.Join(dir, "traced"), rec, r == tracePairs-1); err != nil {
				return err
			}
		}
	}
	for _, r := range report {
		r.fold()
	}
	out := output{Metrics: map[string]metricOut{}}
	defs, vals := endToEnd, res.e2e
	if traced {
		tr := report[1]
		var over []string
		for _, m := range overheadMetrics {
			// Positive when tracing makes the metric worse.
			o := tr.e2e[m]/res.e2e[m] - 1
			if strings.Contains(m, "_ops_per_") {
				o = res.e2e[m]/tr.e2e[m] - 1
			}
			tr.layer["trace.overhead."+m] = o
			over = append(over, fmt.Sprintf("%s %+.1f%% (untraced %.4g, traced %.4g)", m, 100*o, res.rounds[m], tr.rounds[m]))
		}
		prov["trace_overhead"] = strings.Join(over, "; ")
		spans := filepath.Join(work, "traces", fmt.Sprintf("%s-seed%d.spans.json", c.name, seed))
		if err := rec.writeFile(spans); err != nil {
			return err
		}
		prov["spans"] = spans
		for _, d := range reportOnly {
			tr.layer[d.Name] = res.e2e[d.Name]
		}
		defs, vals = perLayer, tr.layer
	}

	var checks []string
	for i, r := range report {
		label := "untraced"
		if i == 1 {
			label = "traced"
		}
		for _, n := range r.notes {
			fmt.Printf("[%s] %s\n", label, n)
		}
		for _, d := range endToEnd {
			fmt.Printf("[%s] %-22s %14.4f %-6s n=%-6d rounds %.4g\n", label, d.Name, r.e2e[d.Name], d.Unit, r.n[d.Name], r.rounds[d.Name])
		}
		for _, d := range reportOnly {
			fmt.Printf("[%s] %-22s %14.4f %-6s n=%-6d rounds %.4g (report only)\n", label, d.Name, r.e2e[d.Name], d.Unit, r.n[d.Name], r.rounds[d.Name])
		}
		out.Attempted += r.attempted
		out.Failed += r.failed
		checks = append(checks, r.checks...)
	}
	for _, msg := range checks {
		fmt.Println("CHECK FAILED:", msg)
	}
	if traced {
		for _, d := range perLayer {
			from := report[1] // the report-only values come from the untraced rounds
			if slices.Contains(reportOnly, d) {
				from = report[0]
			}
			n := ""
			if k, ok := from.n[d.Name]; ok {
				n = fmt.Sprintf(" n=%d", k)
			}
			fmt.Printf("[layer] %-34s %16.6g %s%s\n", d.Name, vals[d.Name], d.Unit, n)
		}
		rec.printSummary()
	}
	pj, _ := json.Marshal(prov) // a map of strings always marshals
	fmt.Printf("provenance %s\n", pj)

	missing := false
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok {
			missing = true
			fmt.Fprintf(os.Stderr, "perfbench: metric %s was not measured\n", d.Name)
		}
		out.Metrics[d.Name] = metricOut{Value: v, Unit: d.Unit}
	}
	out.Correct = len(checks) == 0 && out.Failed == 0 && !missing
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// provenance identifies the host, toolchain and source a result came from.
func provenance(seed int64) map[string]string {
	p := map[string]string{
		"nproc":      strconv.Itoa(runtime.NumCPU()),
		"gomaxprocs": strconv.Itoa(runtime.GOMAXPROCS(0)),
		"go":         runtime.Version(),
		"seed":       strconv.FormatInt(seed, 10),
		"source":     sourceDigest(),
		"time":       time.Now().UTC().Format(time.RFC3339),
	}
	desc := "none (not a git checkout)"
	if b, err := exec.Command("git", "describe", "--always", "--dirty", "--tags").Output(); err == nil {
		desc = strings.TrimSpace(string(b))
	}
	p["git_describe"] = desc
	return p
}

// sourceDigest hashes every Go source and go.mod under the working
// directory, so results from checkouts without git history still name
// the code they measured.
func sourceDigest() string {
	var files []string
	filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", f, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
