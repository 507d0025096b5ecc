package fleet

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
)

// fakeNode is a minimal backend: /healthz honoring a togglable health bit,
// /stats with fixed gauges, and an echo of every /v1/* request that
// identifies the node and replays the received body.
type fakeNode struct {
	name    string
	healthy atomic.Bool
	hits    atomic.Uint64
	ts      *httptest.Server
}

func newFakeNode(t *testing.T, name string) *fakeNode {
	n := &fakeNode{name: name}
	n.healthy.Store(true)
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		if !n.healthy.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		w.Write([]byte(`{"status":"ok"}`))
	})
	mux.HandleFunc("/stats", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintf(w, `{"in_flight":3,"queued":1,"draining":false}`)
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		n.hits.Add(1)
		body, _ := io.ReadAll(r.Body)
		w.Header().Set("X-Node", n.name)
		fmt.Fprintf(w, `{"node":%q,"path":%q,"body":%q}`, n.name, r.URL.Path, body)
	})
	n.ts = httptest.NewServer(mux)
	t.Cleanup(n.ts.Close)
	return n
}

func newTestFleet(t *testing.T, n int) ([]*fakeNode, *Router) {
	nodes := make([]*fakeNode, n)
	urls := make([]string, n)
	for i := range nodes {
		nodes[i] = newFakeNode(t, fmt.Sprintf("node%d", i))
		urls[i] = nodes[i].ts.URL
	}
	return nodes, NewRouter(RouterConfig{Nodes: urls})
}

// TestRouterKeyAffinity proves the lb's two routing rules: every operation
// on one session lands on the same backend, and identical run requests
// spread round-robin over every healthy backend (any node serves any run).
func TestRouterKeyAffinity(t *testing.T) {
	_, rt := newTestFleet(t, 3)
	lb := httptest.NewServer(rt)
	defer lb.Close()

	route := func(path, body string) string {
		t.Helper()
		resp, err := http.Post(lb.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out struct{ Node string }
		json.NewDecoder(resp.Body).Decode(&out)
		return out.Node
	}

	owner := route("/v1/session", `{"id":"sess-1","suite":"cpu2006","app":"mcf"}`)
	for i := 0; i < 6; i++ {
		if got := route("/v1/session/sess-1/advance", `{"target":1000}`); got != owner {
			t.Fatalf("session op %d routed to %s, its creation to %s", i, got, owner)
		}
	}

	served := map[string]int{}
	for i := 0; i < 9; i++ {
		served[route("/v1/run", `{"suite":"cpu2006","app":"mcf","scheme":"lightwsp"}`)]++
	}
	if len(served) != 3 {
		t.Fatalf("9 identical runs reached %d of 3 nodes: %v", len(served), served)
	}
	for node, n := range served {
		if n != 3 {
			t.Fatalf("runs not round-robin: %s served %d of 9 (%v)", node, n, served)
		}
	}
}

// TestRouterBodyReplay proves the routed body survives the body-peek: the
// backend receives exactly what the client sent.
func TestRouterBodyReplay(t *testing.T) {
	_, rt := newTestFleet(t, 2)
	lb := httptest.NewServer(rt)
	defer lb.Close()

	const sent = `{"suite":"cpu2006","app":"mcf","scheme":"lightwsp","timeout_ms":1234}`
	resp, err := http.Post(lb.URL+"/v1/run", "application/json", strings.NewReader(sent))
	if err != nil {
		t.Fatal(err)
	}
	var out struct{ Body string }
	json.NewDecoder(resp.Body).Decode(&out)
	resp.Body.Close()
	if out.Body != sent {
		t.Fatalf("backend saw body %q, client sent %q", out.Body, sent)
	}
}

// TestRouterSessionAffinity proves session paths route by the ID segment.
func TestRouterSessionAffinity(t *testing.T) {
	_, rt := newTestFleet(t, 3)
	lb := httptest.NewServer(rt)
	defer lb.Close()

	paths := []string{
		"/v1/session/sess-1",
		"/v1/session/sess-1/advance",
		"/v1/session/sess-1/resume",
	}
	want := ""
	for _, p := range paths {
		resp, err := http.Post(lb.URL+p, "application/json", strings.NewReader(`{}`))
		if err != nil {
			t.Fatal(err)
		}
		var out struct{ Node string }
		json.NewDecoder(resp.Body).Decode(&out)
		resp.Body.Close()
		if want == "" {
			want = out.Node
		} else if out.Node != want {
			t.Fatalf("path %s routed to %s, earlier session ops to %s", p, out.Node, want)
		}
	}
}

// TestRouterEjectsUnhealthy proves a 503-on-/healthz node leaves the ring
// on the next probe and its session keys reroute, then return when it
// recovers.
func TestRouterEjectsUnhealthy(t *testing.T) {
	nodes, rt := newTestFleet(t, 3)
	lb := httptest.NewServer(rt)
	defer lb.Close()

	getOwner := func() string {
		resp, err := http.Post(lb.URL+"/v1/session/sess-1/advance", "application/json",
			strings.NewReader(`{"target":1000}`))
		if err != nil {
			t.Fatal(err)
		}
		var out struct{ Node string }
		json.NewDecoder(resp.Body).Decode(&out)
		resp.Body.Close()
		return out.Node
	}

	owner := getOwner()
	var ownerNode *fakeNode
	for _, n := range nodes {
		if n.name == owner {
			ownerNode = n
		}
	}
	ownerNode.healthy.Store(false)
	rt.CheckNow()
	if rt.Healthy() != true {
		t.Fatal("fleet with 2 healthy nodes reported unhealthy")
	}
	after := getOwner()
	if after == owner {
		t.Fatalf("key still routed to ejected node %s", owner)
	}
	ownerNode.healthy.Store(true)
	rt.CheckNow()
	if back := getOwner(); back != owner {
		t.Fatalf("recovered node did not regain its key: owner %s, got %s", owner, back)
	}
}

// TestRouterFailover proves a run request whose first candidate is dead
// fails over before the poller notices, with its buffered body replayed
// intact, and the dead node is ejected. Runs go round-robin, so one lap of
// requests reaches the killed node's turn.
func TestRouterFailover(t *testing.T) {
	nodes, rt := newTestFleet(t, 3)
	lb := httptest.NewServer(rt)
	defer lb.Close()

	const body = `{"suite":"cpu2006","app":"mcf","scheme":"lightwsp"}`
	run := func() (int, string, string) {
		t.Helper()
		resp, err := http.Post(lb.URL+"/v1/run", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out struct{ Node, Body string }
		json.NewDecoder(resp.Body).Decode(&out)
		return resp.StatusCode, out.Node, out.Body
	}
	_, dead, _ := run()
	for _, n := range nodes {
		if n.name == dead {
			n.ts.Close() // kill it without telling the poller
		}
	}
	for i := 0; i < len(nodes); i++ {
		status, node, got := run()
		if status != http.StatusOK || node == dead || node == "" {
			t.Fatalf("request %d: status %d node %q (dead node %q)", i, status, node, dead)
		}
		if got != body {
			t.Fatalf("request %d: backend saw body %q, client sent %q", i, got, body)
		}
	}
	if rt.failovers.Load() == 0 {
		t.Fatal("failover counter not incremented")
	}
	for _, st := range rt.Status() {
		if st.Healthy && nodeName(nodes, st.URL) == dead {
			t.Fatalf("dead node %s still in the ring", dead)
		}
	}
}

// nodeName maps a backend URL back to its fake node's name.
func nodeName(nodes []*fakeNode, url string) string {
	for _, n := range nodes {
		if n.ts.URL == url {
			return n.name
		}
	}
	return ""
}

// TestRouterNoNodes proves total outage answers 503 with Retry-After.
func TestRouterNoNodes(t *testing.T) {
	nodes, rt := newTestFleet(t, 2)
	for _, n := range nodes {
		n.healthy.Store(false)
	}
	rt.CheckNow()
	lb := httptest.NewServer(rt)
	defer lb.Close()

	resp, err := http.Post(lb.URL+"/v1/run", "application/json",
		strings.NewReader(`{"suite":"cpu2006","app":"mcf","scheme":"lightwsp"}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
}

// TestRouterBackpressurePassthrough proves a backend 429 (and its
// Retry-After) reaches the client verbatim — admission stays with nodes.
func TestRouterBackpressurePassthrough(t *testing.T) {
	busy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			w.Write([]byte("ok"))
			return
		}
		w.Header().Set("Retry-After", "7")
		w.WriteHeader(http.StatusTooManyRequests)
		w.Write([]byte(`{"error":"server busy"}`))
	}))
	defer busy.Close()

	rt := NewRouter(RouterConfig{Nodes: []string{busy.URL}})
	lb := httptest.NewServer(rt)
	defer lb.Close()

	resp, err := http.Post(lb.URL+"/v1/run", "application/json",
		strings.NewReader(`{"suite":"cpu2006","app":"mcf","scheme":"lightwsp"}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") != "7" {
		t.Fatalf("Retry-After %q, want 7", resp.Header.Get("Retry-After"))
	}
	if !strings.Contains(string(body), "server busy") {
		t.Fatalf("backend error body lost: %q", body)
	}
}

// TestRouterMetrics smoke-checks the Prometheus exposition.
func TestRouterMetrics(t *testing.T) {
	nodes, rt := newTestFleet(t, 2)
	rt.CheckNow()
	nodes[0].healthy.Store(false)
	rt.CheckNow()

	var sb strings.Builder
	if err := rt.WriteProm(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"lightwsp_lb_node_up{",
		"lightwsp_lb_ring_size 1",
		"lightwsp_lb_rebalances_total 1",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}
