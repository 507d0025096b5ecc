package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lightwsp/internal/compiler"
	"lightwsp/internal/experiments"
	"lightwsp/internal/machine"
)

// testClass is a small class for the serve tests: a cheap hot set and
// short session advances.
var testClass = class{
	name:       "test",
	hot:        []profileRef{{"CPU2006", "fuzz-st"}},
	session:    profileRef{"CPU2006", "hmmer"},
	advance:    2_000,
	sessionLen: 4,
}

// tamperTransport corrupts one digit of every matching response body once
// switched on: JSON stays well-formed, the bytes no longer match.
type tamperTransport struct {
	inner http.RoundTripper
	path  func(string) bool
	on    atomic.Bool
}

func (t *tamperTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := t.inner.RoundTrip(req)
	if err != nil || !t.on.Load() || !t.path(req.URL.Path) {
		return resp, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	for i := len(body) - 1; i >= 0; i-- {
		if c := body[i]; c >= '0' && c <= '9' {
			body[i] = '0' + (c-'0'+1)%10
			break
		}
	}
	resp.Body = io.NopCloser(bytes.NewReader(body))
	resp.ContentLength = int64(len(body))
	return resp, nil
}

// hotWant resolves the class's hot set directly, as the grid phase would.
func hotWant(t *testing.T, c class) map[string]*machine.Stats {
	t.Helper()
	r := experiments.NewRunner()
	want := map[string]*machine.Stats{}
	for _, ref := range c.hot {
		p, err := ref.profile()
		if err != nil {
			t.Fatal(err)
		}
		for _, sch := range fig7Schemes() {
			st, err := r.Run(p, sch, compiler.Config{})
			if err != nil {
				t.Fatal(err)
			}
			want[specKey(experiments.RunSpec{Profile: p, Scheme: sch})] = st
		}
	}
	return want
}

// TestTamperedOutputsCountAsFailures is the output check's sabotage test:
// a corrupted stats payload and a corrupted stream byte must each be
// counted as a failed op, while the same ops untampered pass.
func TestTamperedOutputsCountAsFailures(t *testing.T) {
	ctx := context.Background()
	base := &http.Transport{}
	defer base.CloseIdleConnections()
	runs := &tamperTransport{inner: base, path: func(p string) bool { return p == "/v1/run" }}
	streams := &tamperTransport{inner: runs, path: func(p string) bool { return opClass(p) == "resume" }}
	setup := &serveTally{}
	env, err := bootServe(ctx, testClass, 1, t.TempDir(), streams, false, setup)
	if env != nil {
		defer env.close()
	}
	if err != nil {
		t.Fatal(err)
	}
	if err := env.warmHot(ctx, testClass, hotWant(t, testClass), setup); err != nil {
		t.Fatal(err)
	}
	if setup.failed != 0 {
		t.Fatalf("untampered set-up failed: %v", setup.firstErrs)
	}
	bc := env.clients[0]
	step := func(o op, wantFailed int) {
		t.Helper()
		tally := &serveTally{}
		bc.do(ctx, o, env, tally)
		if tally.failed != wantFailed {
			t.Fatalf("%v op: %d failed, want %d (%v)", o.kind, tally.failed, wantFailed, tally.firstErrs)
		}
	}

	step(op{kind: opRun, node: 0}, 0)
	step(op{kind: opRun, node: 1}, 0)
	runs.on.Store(true)
	step(op{kind: opRun, node: 0}, 1)
	step(op{kind: opRun, node: 1}, 1)
	runs.on.Store(false)

	step(op{kind: opAdvance, node: 0}, 0)
	step(op{kind: opAdvance, node: 1}, 0)
	step(op{kind: opAdvance, node: 0}, 0)
	step(op{kind: opAdvance, node: 1}, 0)
	step(op{kind: opAdvance, node: 0}, 0)
	if len(bc.done) != 1 || len(bc.resumable()) != 2 {
		t.Fatalf("after 5 advances of 4-advance sessions: %d finished, %d resumable", len(bc.done), len(bc.resumable()))
	}
	step(op{kind: opResume, node: 0, back: 3}, 0)
	streams.on.Store(true)
	step(op{kind: opResume, node: 0, back: 3}, 1)
	step(op{kind: opResume, node: 1, back: 1}, 1)
	verify := &serveTally{}
	bc.verify(ctx, verify)
	if verify.failed != 2 {
		t.Fatalf("two sessions' corrupted resume-from-0 streams: %d failed, want 2 (%v)", verify.failed, verify.firstErrs)
	}
}

// TestSameStreamRejectsAnyDifference checks the stream comparison itself.
func TestSameStreamRejectsAnyDifference(t *testing.T) {
	live := [][]byte{[]byte(`{"seq":1}`), []byte(`{"seq":2}`)}
	if err := sameStream([][]byte{[]byte(`{"seq":1}`), []byte(`{"seq":2}`)}, live); err != nil {
		t.Fatalf("identical streams rejected: %v", err)
	}
	if sameStream([][]byte{[]byte(`{"seq":1}`), []byte(`{"seq":3}`)}, live) == nil {
		t.Fatal("a changed byte passed")
	}
	if sameStream(live[:1], live) == nil {
		t.Fatal("a missing event passed")
	}
}

// TestWrappedStoreKeepsLeaseGate: two Runners, each over its own L1 and
// one shared leasing BlobCache L2, every tier wrapped in the timing
// wrapper, resolve the same key while one of them holds the run's lease,
// and simulate it exactly once. A wrapper that hid the lease capability
// would let both simulate, which the second case shows the test catches.
//
// The second Runner starts once the first one's lease record is on disk:
// BlobCache.Claim treats a lease file it reads between the leader's
// exclusive create and its record write as expired and breaks it, so two
// claims racing inside that window can both lead. That is a property of
// the store, not of the wrapper under test.
func TestWrappedStoreKeepsLeaseGate(t *testing.T) {
	p, err := profileRef{"CPU2006", "hmmer"}.profile()
	if err != nil {
		t.Fatal(err)
	}
	sch := experiments.LightWSP()
	fresh := func(wrap func(experiments.Store) experiments.Store, leased bool) int {
		l2dir := t.TempDir()
		l2 := wrap(experiments.NewBlobCache(l2dir))
		var runners []*experiments.Runner
		for i := 0; i < 2; i++ {
			r := experiments.NewRunner()
			r.SetStore(wrap(experiments.NewTieredStore(wrap(experiments.NewBlobCache(t.TempDir())), l2)))
			runners = append(runners, r)
		}
		var wg sync.WaitGroup
		for i, r := range runners {
			if i > 0 && leased {
				waitForLease(t, filepath.Join(l2dir, "leases"))
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := r.Run(p, sch, compiler.Config{}); err != nil {
					t.Error(err)
				}
			}()
		}
		wg.Wait()
		return runners[0].Counters().Fresh + runners[1].Counters().Fresh
	}

	timing := &storeTiming{}
	if n := fresh(func(s experiments.Store) experiments.Store { return wrapStore(s, timing) }, true); n != 1 {
		t.Fatalf("wrapped stores: %d fresh simulations of one key, want 1", n)
	}
	if timing.reads.n() == 0 || timing.writes.n() == 0 {
		t.Fatal("the wrapper timed nothing")
	}
	hide := func(s experiments.Store) experiments.Store { return struct{ experiments.Store }{s} }
	if n := fresh(hide, false); n != 2 {
		t.Fatalf("a wrapper hiding the lease gate gave %d fresh simulations, want 2", n)
	}
}

// waitForLease blocks until a lease record with content exists in dir.
func waitForLease(t *testing.T, dir string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		entries, _ := os.ReadDir(dir)
		for _, e := range entries {
			if b, err := os.ReadFile(filepath.Join(dir, e.Name())); err == nil && len(b) > 0 {
				return
			}
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("the first Runner never took the run's lease")
}

// TestWrappedStoreForwardsObserver: the storage-counter seam reaches the
// wrapped store, and a wrapper leases exactly when its store does.
func TestWrappedStoreForwardsObserver(t *testing.T) {
	dir := t.TempDir()
	bc := experiments.NewBlobCache(dir)
	w := wrapStore(bc, &storeTiming{})
	if _, ok := w.(experiments.Leaser); !ok {
		t.Fatal("wrapping a leasing store dropped Leaser")
	}
	if _, ok := wrapStore(struct{ experiments.Store }{bc}, &storeTiming{}).(experiments.Leaser); ok {
		t.Fatal("wrapping a non-leasing store added Leaser")
	}
	counters := &experiments.StorageCounters{}
	w.(interface {
		SetObserver(*slog.Logger, *experiments.StorageCounters)
	}).SetObserver(nil, counters)
	if err := os.WriteFile(filepath.Join(dir, "0123abcd.json"), []byte("not a sealed blob"), 0o644); err != nil {
		t.Fatal(err)
	}
	var v any
	if w.ReadJSON("0123abcd", &v) {
		t.Fatal("a corrupt blob read back")
	}
	if counters.Quarantined.Load()+counters.LegacyEvictions.Load() == 0 {
		t.Fatal("the observer's counters saw nothing: SetObserver was not forwarded")
	}
}

// TestSeededLoad: the serve op sequence, the crash campaign plan and the
// traced cut sample come from the seed alone; the grid run set is fixed.
func TestSeededLoad(t *testing.T) {
	ops := func(seed int64) []op {
		var out []op
		for client := 0; client < serveClients; client++ {
			for _, k := range opKinds {
				g := newOpGen(seed, client, k, 8)
				for i := 0; i < 200; i++ {
					out = append(out, g.next())
				}
			}
		}
		return out
	}
	plan := func(seed int64) []any {
		c, _ := classByName("spec")
		p, err := crashPlan(c, seed)
		if err != nil {
			t.Fatal(err)
		}
		return []any{p, cutSample(seed, 734_634, cutsPerProfile), roundSeed(seed, 1)}
	}
	if !reflect.DeepEqual(ops(7), ops(7)) || !reflect.DeepEqual(plan(7), plan(7)) {
		t.Fatal("the same seed gave different load")
	}
	if reflect.DeepEqual(ops(7), ops(8)) || reflect.DeepEqual(plan(7), plan(8)) {
		t.Fatal("different seeds gave the same load")
	}
	for _, c := range classes {
		a, _ := gridSpecs(c)
		b, _ := gridSpecs(c)
		if len(a) == 0 || !reflect.DeepEqual(keys(a), keys(b)) {
			t.Fatalf("%s: grid run set is not fixed", c.name)
		}
	}
}

func keys(specs []experiments.RunSpec) []string {
	var out []string
	for _, s := range specs {
		out = append(out, specKey(s))
	}
	return out
}

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json's metric lists and
// workloads in step with what the benchmark prints.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bj.PerLayer, perLayer) {
		t.Errorf("per_layer in BENCHMARK.json differs from perLayer")
	}
	if !reflect.DeepEqual(bj.EndToEnd, endToEnd) {
		t.Errorf("end_to_end in BENCHMARK.json differs from endToEnd")
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, c := range classes {
		want = append(want, c.name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("workloads %v, want %v", names, want)
	}
}
