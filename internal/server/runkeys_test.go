package server

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
	"testing"

	"lightwsp/internal/baseline"
	"lightwsp/internal/compiler"
	"lightwsp/internal/crashfuzz"
	"lightwsp/internal/experiments"
	"lightwsp/internal/machine"
	"lightwsp/internal/workload"
)

// keyTap is a Runner store that records every run-key hash the Runner asks
// it for and then cancels the asking run, so a whole grid's keys are
// collected without simulating it. The read always misses; the cancel ends
// the run at its first cycle batch.
type keyTap struct {
	mu     sync.Mutex
	hashes map[string]bool
	cancel context.CancelFunc
}

func (k *keyTap) ReadJSON(hash string, out any) bool {
	k.mu.Lock()
	defer k.mu.Unlock()
	k.hashes[hash] = true
	k.cancel()
	return false
}

func (k *keyTap) WriteJSON(string, any) {}
func (k *keyTap) Remove(string)         {}

// digest folds a sorted set of strings into a short stable fingerprint.
func digest(set map[string]bool) string {
	var all []string
	for h := range set {
		all = append(all, h)
	}
	sort.Strings(all)
	sum := sha256.Sum256([]byte(strings.Join(all, "\n")))
	return fmt.Sprintf("%d:%s", len(all), hex.EncodeToString(sum[:8]))
}

// goldenRunKeys pins what each entry point resolves a run description to.
// Every value is a canonical run-key hash (or a digest over a set of them),
// except the session stream and the failure response, which expose no key
// and are pinned by their deterministic output instead: both depend on
// every resolved machine and compiler field.
var goldenRunKeys = map[string]string{
	"runner/fig7":                "156:e4407e94ec7ee7b9",
	"crashfuzz/CPU2006/fuzz-st":  "7ae12de2dcd74aab181a43bf0cfafa0a696c189af931cf24f62e602bc4425e55",
	"crashfuzz/STAMP/fuzz-mt":    "82490c54c5b68b5bbbea4c4d76701e9f9714e01cab1afa9b276cf9562acc4973",
	"crashfuzz/machine-override": "236b54d70cf8767112e1cea687d99eab64564cba42ee47e625cfa425f8cf5b42",
	"server/run/lightwsp":        "7ae12de2dcd74aab181a43bf0cfafa0a696c189af931cf24f62e602bc4425e55",
	"server/run/baseline":        "a77dc7f6321d17d03fe2e7cd641e317b50698294c8a47d98d06211626ccdfd55",
	"server/run-with-failure":    "{Suite:CPU2006 App:fuzz-st Failed:true Discarded:0 Cycles:1932 Consistent:true}",
	"session/cpu2006/fuzz-st":    "11:6dec0f15a8dd880b",
}

// TestEntryPointRunKeysGolden proves the run keys (and, where no key is
// exposed, the deterministic output) that the Runner, crashfuzz, the
// server's run and failure handlers and durable sessions resolve for fixed
// inputs. Any change to how a profile becomes a configured machine shows up
// here as a changed value.
func TestEntryPointRunKeysGolden(t *testing.T) {
	got := map[string]string{}
	ctx := context.Background()

	// The fig7 grid through the Runner, one spec at a time.
	tap := &keyTap{hashes: map[string]bool{}}
	r := experiments.NewRunner()
	r.SetWorkers(1)
	r.SetStore(tap)
	for _, p := range workload.Profiles() {
		for _, sch := range []machine.Scheme{baseline.Baseline(), baseline.Capri(), baseline.PPA(), experiments.LightWSP()} {
			rctx, cancel := context.WithCancel(ctx)
			tap.mu.Lock()
			tap.cancel = cancel
			tap.mu.Unlock()
			if _, err := r.WithContext(rctx).Run(p, sch, compiler.Config{}); err == nil {
				t.Fatalf("%s/%s under %s: the tap did not stop the run", p.Suite, p.Name, sch.Name)
			}
			cancel()
		}
	}
	got["runner/fig7"] = digest(tap.hashes)

	// The crashfuzz smoke set, each campaign cut down to one sampled cut:
	// the key does not depend on the schedule.
	cheap := crashfuzz.Config{Seed: 1, ExhaustiveThreshold: 1, MaxInjections: 1, MaxInteresting: 1, Workers: 1}
	for _, p := range workload.FuzzSmokeProfiles() {
		cfg := cheap
		cfg.Profile = p
		res, err := crashfuzz.RunContext(ctx, cfg)
		if err != nil {
			t.Fatal(err)
		}
		got[fmt.Sprintf("crashfuzz/%s/%s", p.Suite, p.Name)] = res.KeyHash
	}
	cfg := cheap
	cfg.Profile = workload.FuzzSmokeProfiles()[0]
	cfg.Machine = experiments.ScaledConfig()
	cfg.Machine.WPQEntries = 48
	res, err := crashfuzz.RunContext(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got["crashfuzz/machine-override"] = res.KeyHash

	// The server's run and failure handlers.
	_, ts := newTestServer(t, Config{Workers: 1})
	for _, scheme := range []string{"lightwsp", "baseline"} {
		status, body, _ := post(t, ts.URL+"/v1/run", RunRequest{Suite: "cpu2006", App: "fuzz-st", Scheme: scheme})
		if status != http.StatusOK {
			t.Fatalf("run %s: status %d: %s", scheme, status, body)
		}
		var resp RunResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			t.Fatal(err)
		}
		got["server/run/"+scheme] = resp.KeyHash
	}
	status, body, _ := post(t, ts.URL+"/v1/run-with-failure",
		FailureRequest{Suite: "cpu2006", App: "fuzz-st", FailCycle: 700})
	if status != http.StatusOK {
		t.Fatalf("run-with-failure: status %d: %s", status, body)
	}
	var fresp FailureResponse
	if err := json.Unmarshal(body, &fresp); err != nil {
		t.Fatal(err)
	}
	got["server/run-with-failure"] = fmt.Sprintf("%+v", fresp)

	// A durable session advanced across two cadence snapshots: its stream
	// carries every cut, drain and recovery boot.
	st, err := experiments.OpenSessionStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	s, err := st.Create("golden", experiments.SessionSpec{Suite: "cpu2006", App: "fuzz-st", SnapshotEvery: 700})
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	n := 0
	emit := func(ev experiments.SessionEvent) error {
		n++
		return json.NewEncoder(h).Encode(ev)
	}
	if err := s.Advance(ctx, 2000, emit, nil); err != nil {
		t.Fatal(err)
	}
	got["session/cpu2006/fuzz-st"] = fmt.Sprintf("%d:%s", n, hex.EncodeToString(h.Sum(nil)[:8]))

	for name, want := range goldenRunKeys {
		if got[name] != want {
			t.Errorf("%s: got %q, want %q", name, got[name], want)
		}
	}
	if t.Failed() {
		keys := make([]string, 0, len(got))
		for k := range got {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			t.Logf("%q: %q,", k, got[k])
		}
	}
}
