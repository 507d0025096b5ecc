package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"lightwsp/internal/experiments"
	"lightwsp/internal/fleet"
)

// fleetNode is one in-process fleet member: a Server plus its HTTP front.
type fleetNode struct {
	srv *Server
	ts  *httptest.Server
	url string
}

// newFleet boots n fleet members that share the L2 directory store (and,
// when sessionDir is non-empty, one session directory — the shared-storage
// topology the CI lane uses). With ring set they also know each other
// through the rendezvous ring; without it every node serves solo and only
// the shared L2 ties them together. Listeners are created first so every
// node's Config can name the full membership before any of them serves.
func newFleet(t *testing.T, n int, sessionDir string, ring bool) []*fleetNode {
	t.Helper()
	l2dir := t.TempDir()
	nodes := make([]*fleetNode, n)
	peers := make([]string, n)
	for i := range nodes {
		ts := httptest.NewUnstartedServer(nil)
		nodes[i] = &fleetNode{ts: ts, url: "http://" + ts.Listener.Addr().String()}
		peers[i] = nodes[i].url
	}
	for i, nd := range nodes {
		cfg := Config{
			Workers: 2,
			// A session's owner absorbs the whole fleet's traffic for it
			// (direct + forwarded); give the gate room for the fan-in.
			QueueDepth: 32,
			CacheDir:   t.TempDir(),
			SessionDir: sessionDir,
			L2:         experiments.NewBlobCache(l2dir),
		}
		if ring {
			cfg.FleetSelf, cfg.FleetPeers = peers[i], peers
		}
		nd.srv = New(cfg)
		nd.ts.Config.Handler = nd.srv.Handler()
		nd.ts.Start()
		t.Cleanup(nd.ts.Close)
	}
	return nodes
}

// fleetFresh sums fresh-simulation counts across the given nodes.
func fleetFresh(nodes []*fleetNode) int {
	total := 0
	for _, nd := range nodes {
		if nd == nil {
			continue
		}
		total += nd.srv.runner.Counters().Fresh
	}
	return total
}

// TestFleetRunServedLocallyOnce sends the same run request to every node
// concurrently, with and without the ring: each node answers itself (its
// own X-LightWSP-Served-By; no Served-By when solo), every answer is
// byte-identical, and the store lease over the shared L2 holds the fleet to
// exactly one fresh simulation. Runs are never forwarded, so the ring must
// not change the outcome.
func TestFleetRunServedLocallyOnce(t *testing.T) {
	for _, ring := range []bool{true, false} {
		name := "ring"
		if !ring {
			name = "no-ring"
		}
		t.Run(name, func(t *testing.T) {
			nodes := newFleet(t, 3, "", ring)

			const perNode = 3
			bodies := make([][]byte, len(nodes)*perNode)
			var wg sync.WaitGroup
			for i, nd := range nodes {
				want := ""
				if ring {
					want = nd.url
				}
				for j := 0; j < perNode; j++ {
					wg.Add(1)
					go func(slot int, url, want string) {
						defer wg.Done()
						status, body, hdr := post(t, url+"/v1/run", fuzzStRun)
						if status != http.StatusOK {
							t.Errorf("run via %s: status %d: %s", url, status, body)
							return
						}
						if got := hdr.Get(fleet.ServedByHeader); got != want {
							t.Errorf("run via %s served by %q, want %q", url, got, want)
						}
						if hdr.Get(fleet.ForwardedHeader) != "" {
							t.Errorf("run via %s was forwarded", url)
						}
						bodies[slot] = body
					}(i*perNode+j, nd.url, want)
				}
			}
			wg.Wait()
			if t.Failed() {
				return
			}
			for i := 1; i < len(bodies); i++ {
				if !bytes.Equal(bodies[0], bodies[i]) {
					t.Fatalf("answer %d differs:\n%s\n%s", i, bodies[0], bodies[i])
				}
			}
			if got := fleetFresh(nodes); got != 1 {
				t.Fatalf("fleet ran %d fresh simulations for one key, want exactly 1 (lease singleflight)", got)
			}
		})
	}
}

// TestFleetNodeKillRehash kills the node that served a run and re-asks the
// survivors: each serves locally, and the shared L2 hands it the dead
// node's cached result — byte-identical, zero new simulations.
func TestFleetNodeKillRehash(t *testing.T) {
	nodes := newFleet(t, 3, "", true)

	status, first, hdr := post(t, nodes[0].url+"/v1/run", fuzzStRun)
	if status != http.StatusOK {
		t.Fatalf("first run: status %d: %s", status, first)
	}
	if got := hdr.Get(fleet.ServedByHeader); got != nodes[0].url {
		t.Fatalf("first run served by %q, want the node asked (%s)", got, nodes[0].url)
	}
	nodes[0].ts.Close()
	survivors := nodes[1:]

	for _, nd := range survivors {
		status, body, hdr := post(t, nd.url+"/v1/run", fuzzStRun)
		if status != http.StatusOK {
			t.Fatalf("post-kill run via %s: status %d: %s", nd.url, status, body)
		}
		if !bytes.Equal(first, body) {
			t.Fatalf("survivor's answer differs from the dead node's:\n%s\n%s", first, body)
		}
		if got := hdr.Get(fleet.ServedByHeader); got != nd.url {
			t.Fatalf("post-kill request via %s served by %q", nd.url, got)
		}
	}
	if got := fleetFresh(survivors); got != 0 {
		t.Fatalf("survivors ran %d fresh simulations, want 0 (L2 hit)", got)
	}
}

// TestFleetSessionResumesOnNewOwner advances a session through the fleet,
// kills the node that owns it, and resumes through a survivor: the shared
// session directory plus L2 snapshots let the new node reopen the session
// and replay its stream byte-identically.
func TestFleetSessionResumesOnNewOwner(t *testing.T) {
	sessionDir := t.TempDir()
	nodes := newFleet(t, 3, sessionDir, true)

	create := SessionCreateRequest{
		ID: "fleet-sess", Suite: "cpu2006", App: "fuzz-st",
		Scheme: "lightwsp", SnapshotEvery: 600,
	}
	status, body, hdr := post(t, nodes[0].url+"/v1/session", create)
	if status != http.StatusCreated {
		t.Fatalf("create: status %d: %s", status, body)
	}
	owner := hdr.Get(fleet.ServedByHeader)

	status, live := postStream(t, nodes[0].url+"/v1/session/fleet-sess/advance",
		SessionAdvanceRequest{Target: 1300})
	if status != http.StatusOK || len(live) == 0 {
		t.Fatalf("advance: status %d, %d lines", status, len(live))
	}

	var victim *fleetNode
	survivors := nodes[:0:0]
	for _, nd := range nodes {
		if nd.url == owner {
			victim = nd
		} else {
			survivors = append(survivors, nd)
		}
	}
	if victim == nil {
		t.Fatalf("session owner %q is not a fleet member", owner)
	}
	// Abandon the owner the way a SIGKILL would: its SessionStore never
	// closes, the survivors reopen the shared directory cold.
	victim.ts.Close()

	nd := survivors[0]
	status, raw, _ := post(t, nd.url+"/v1/session/fleet-sess/resume",
		SessionResumeRequest{LastSeq: 0})
	if status != http.StatusOK {
		t.Fatalf("resume via survivor: status %d: %s", status, raw)
	}
	lines := strings.Split(strings.TrimRight(string(raw), "\n"), "\n")
	if len(lines) == 0 || !strings.Contains(lines[0], `"type":"resume"`) {
		t.Fatalf("resume stream missing header: %v", lines)
	}
	replay := lines[1:]
	if len(replay) != len(live) {
		t.Fatalf("survivor replayed %d events, owner streamed %d", len(replay), len(live))
	}
	for i := range live {
		if replay[i] != live[i] {
			t.Fatalf("event %d differs after failover:\nowner:    %s\nsurvivor: %s",
				i, live[i], replay[i])
		}
	}

	// The survivor now reports the session at its exact position.
	var st experiments.SessionStatus
	resp, err := http.Get(nd.url + "/v1/session/fleet-sess")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status after failover: %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.ID != "fleet-sess" || st.Total != 1300 {
		t.Fatalf("failed-over session at %+v, want total 1300", st)
	}
}
