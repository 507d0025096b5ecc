package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"lightwsp/client"
	"lightwsp/internal/experiments"
	"lightwsp/internal/hostfs"
	"lightwsp/internal/machine"
	"lightwsp/internal/server"
)

// Two closed-loop clients drive a two-node fleet.
const (
	serveClients = 2
	fleetNodes   = 2
)

// fleetNode is one in-process server on a loopback listener.
type fleetNode struct {
	srv  *server.Server
	hs   *http.Server
	url  string
	done chan struct{}
}

// hotKey is one run of the serve hot set and the exact stats bytes the
// server must answer with: the grid's cold result for the same key,
// encoded the way the server encodes a RunResponse.
type hotKey struct {
	suite, app, scheme string
	want               []byte
}

// serveEnv is one set-up fleet plus its clients' sessions.
type serveEnv struct {
	dir     string
	nodes   []*fleetNode
	hot     []hotKey
	clients []*benchClient
	fs      *timedFS
	l2      *storeTiming
	hop     *hopTransport
}

// serveTally counts serve ops. Failures are counted, never fatal: a
// non-2xx answer, a transport error or a failed output check is one
// failed op.
type serveTally struct {
	mu                sync.Mutex
	attempted, failed int
	firstErrs         []string
	lat               [3]samples // per opKind, successful ops only
	snapshots         atomic.Int64
}

func (t *serveTally) done(err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if err == nil {
		return
	}
	t.failed++
	if len(t.firstErrs) < 5 {
		t.firstErrs = append(t.firstErrs, err.Error())
	}
}

// benchClient is one closed-loop client: a seeded op generator per op
// kind, one client.Client per fleet node, its current durable session and
// the sessions it has finished.
type benchClient struct {
	id    int
	c     []*client.Client
	gens  []*opGen // indexed by opKind
	cur   *session
	done  []*session
	nSess int
	sc    string // session profile suite
	sa    string // session profile app
	step  uint64 // cycles per advance
	slen  int    // advances per session
}

// session is one durable session as its client saw it: live holds the raw
// NDJSON events every advance streamed, in order, and seqs their sequence
// numbers.
type session struct {
	id    string
	node  int // the node it was created on
	total uint64
	advs  int
	live  [][]byte
	seqs  []uint64
}

// startFleet boots the fleet: listeners first, so every node's config can
// name the full membership, then one server.New per node, each with its
// own cache and session directories, all sharing one L2 directory store.
func startFleet(dir string, sessFS hostfs.FS, l2t *storeTiming) ([]*fleetNode, error) {
	l2 := wrapStore(experiments.NewBlobCache(filepath.Join(dir, "l2")), l2t)
	lns := make([]net.Listener, fleetNodes)
	peers := make([]string, fleetNodes)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:i] {
				l.Close()
			}
			return nil, err
		}
		lns[i], peers[i] = ln, "http://"+ln.Addr().String()
	}
	nodes := make([]*fleetNode, fleetNodes)
	for i := range nodes {
		cfg := server.Config{
			Workers:    runtime.NumCPU(),
			CacheDir:   filepath.Join(dir, fmt.Sprintf("node%d", i), "cache"),
			SessionDir: filepath.Join(dir, fmt.Sprintf("node%d", i), "sessions"),
			FleetSelf:  peers[i],
			FleetPeers: peers,
			L2:         l2,
			SessionFS:  sessFS,
		}
		srv := server.New(cfg)
		nd := &fleetNode{srv: srv, hs: &http.Server{Handler: srv.Handler()}, url: peers[i], done: make(chan struct{})}
		go func(ln net.Listener) {
			defer close(nd.done)
			nd.hs.Serve(ln) // returns http.ErrServerClosed on Shutdown
		}(lns[i])
		nodes[i] = nd
	}
	return nodes, nil
}

// stopFleet drains every node, shuts its listener and waits for it.
func stopFleet(nodes []*fleetNode) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, nd := range nodes {
		if err := nd.srv.Drain(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: drain:", err)
		}
		nd.hs.Shutdown(ctx)
		<-nd.done
	}
}

// bootServe is the serve phase's set-up: it boots the fleet and creates
// each client's first session.
func bootServe(ctx context.Context, c class, seed int64, dir string, base http.RoundTripper,
	traced bool, tally *serveTally) (*serveEnv, error) {
	env := &serveEnv{dir: dir}
	var sessFS hostfs.FS
	rt := base
	if traced {
		env.fs = &timedFS{FS: hostfs.Disk()}
		env.l2 = &storeTiming{}
		env.hop = newHopTransport(base)
		sessFS, rt = env.fs, env.hop
	}
	nodes, err := startFleet(dir, sessFS, env.l2)
	if err != nil {
		return nil, err
	}
	env.nodes = nodes
	sp, err := c.session.profile()
	if err != nil {
		return env, err
	}
	hc := &http.Client{Transport: rt}
	for i := 0; i < serveClients; i++ {
		bc := &benchClient{id: i, sc: string(sp.Suite), sa: sp.Name, step: c.advance, slen: c.sessionLen}
		for _, k := range opKinds {
			bc.gens = append(bc.gens, newOpGen(seed, i, k, len(c.hot)*len(fig7Schemes())))
		}
		for _, nd := range nodes {
			bc.c = append(bc.c, client.New(nd.url, client.WithHTTPClient(hc)))
		}
		env.clients = append(env.clients, bc)
		tally.done(bc.newSession(ctx))
	}
	return env, nil
}

// warmHot resolves the hot set through the fleet, every answer checked
// against the grid's cold result for its key. Each client resolves every
// other key, so both nodes' workers simulate at once.
func (env *serveEnv) warmHot(ctx context.Context, c class, want map[string]*machine.Stats, tally *serveTally) error {
	for _, ref := range c.hot {
		p, err := ref.profile()
		if err != nil {
			return err
		}
		for _, sch := range fig7Schemes() {
			st := want[specKey(experiments.RunSpec{Profile: p, Scheme: sch})]
			if st == nil {
				return fmt.Errorf("hot key %s/%s/%s is not in the grid", p.Suite, p.Name, sch.Name)
			}
			// The server writes RunResponse with a tab-indented encoder, so
			// the stats object sits at depth one.
			b, err := json.MarshalIndent(st, "\t", "\t")
			if err != nil {
				return err
			}
			env.hot = append(env.hot, hotKey{suite: string(p.Suite), app: p.Name, scheme: sch.Name, want: b})
		}
	}
	var wg sync.WaitGroup
	for _, bc := range env.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := bc.id; k < len(env.hot); k += serveClients {
				tally.done(bc.run(ctx, env.hot[k], k%fleetNodes))
			}
		}()
	}
	wg.Wait()
	return nil
}

// copyBlobs copies every blob file at the top of directory from into
// directory to.
func copyBlobs(from, to string) error {
	files, err := filepath.Glob(filepath.Join(from, "*.json"))
	if err != nil {
		return err
	}
	if err := os.MkdirAll(to, 0o755); err != nil {
		return err
	}
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(to, filepath.Base(f)), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}

func (env *serveEnv) close() {
	if env.nodes != nil {
		stopFleet(env.nodes)
	}
	os.RemoveAll(env.dir)
}

// run requests one hot key from the given node and checks the stats bytes.
func (bc *benchClient) run(ctx context.Context, k hotKey, node int) error {
	r, err := bc.c[node].Run(ctx, k.suite, k.app, k.scheme)
	if err != nil {
		return fmt.Errorf("run %s/%s/%s: %w", k.suite, k.app, k.scheme, err)
	}
	if !bytes.Equal(r.Stats, k.want) {
		return fmt.Errorf("run %s/%s/%s: stats bytes differ from the direct Runner's result", k.suite, k.app, k.scheme)
	}
	return nil
}

func (bc *benchClient) newSession(ctx context.Context) error {
	bc.nSess++
	bc.cur = &session{id: fmt.Sprintf("c%d-s%d", bc.id, bc.nSess), node: bc.nSess % fleetNodes}
	_, err := bc.c[bc.cur.node].CreateSession(ctx, bc.cur.id, client.SessionSpec{
		Suite: bc.sc, App: bc.sa, Scheme: "lightwsp", SnapshotEvery: 4 * bc.step,
	})
	if err != nil {
		return fmt.Errorf("create session %s: %w", bc.cur.id, err)
	}
	return nil
}

func (bc *benchClient) advance(ctx context.Context, node int) error {
	s := bc.cur
	target := s.total + bc.step
	err := bc.c[node].Advance(ctx, s.id, target, func(ev client.StreamEvent) error {
		s.live = append(s.live, ev.Raw)
		s.seqs = append(s.seqs, ev.Seq)
		return nil
	})
	if err != nil {
		return fmt.Errorf("advance %s to %d: %w", s.id, target, err)
	}
	s.total = target
	s.advs++
	return nil
}

// rollover files the current session as finished once it has had its
// full length of advances and starts the next one, so no advance reaches
// the program's end.
func (bc *benchClient) rollover(ctx context.Context, tally *serveTally) {
	if bc.cur.advs < bc.slen {
		return
	}
	bc.done = append(bc.done, bc.cur)
	tally.done(bc.newSession(ctx))
}

// resume replays session s from back events before its end and checks the
// replay is byte-identical to what the advances streamed from that point.
func (bc *benchClient) resume(ctx context.Context, s *session, node, back int) error {
	from := max(len(s.live)-back, 0)
	var lastSeq uint64
	if from > 0 {
		lastSeq = s.seqs[from-1]
	}
	var got [][]byte
	err := bc.c[node].Resume(ctx, s.id, lastSeq, func(ev client.StreamEvent) error {
		if ev.Type != "resume" { // the one unnumbered header line
			got = append(got, ev.Raw)
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("resume %s from seq %d: %w", s.id, lastSeq, err)
	}
	return sameStream(got, s.live[from:])
}

// sameStream reports whether a replayed stream is byte-identical to the
// live one.
func sameStream(got, want [][]byte) error {
	if len(got) != len(want) {
		return fmt.Errorf("stream: replay has %d events, live stream had %d", len(got), len(want))
	}
	for i := range got {
		if !bytes.Equal(got[i], want[i]) {
			return fmt.Errorf("stream: event %d differs: %s vs %s", i, got[i], want[i])
		}
	}
	return nil
}

// resumable lists the client's sessions that have streamed events: the
// finished ones and the current one.
func (bc *benchClient) resumable() []*session {
	if len(bc.cur.live) == 0 {
		return bc.done
	}
	return append(bc.done[:len(bc.done):len(bc.done)], bc.cur)
}

// ensureResumable advances the current session to its end, untimed, if
// the client has no finished session to resume.
func (bc *benchClient) ensureResumable(ctx context.Context, tally *serveTally) {
	for len(bc.done) == 0 {
		err := bc.advance(ctx, bc.cur.node)
		tally.done(err)
		if err != nil {
			return
		}
		bc.rollover(ctx, tally)
	}
}

// check verifies one session end to end — its whole stream replayed from
// seq 0 must equal the concatenated advances — then deletes it.
func (bc *benchClient) check(ctx context.Context, s *session, tally *serveTally) {
	tally.done(bc.resume(ctx, s, s.node, len(s.live)))
	st, err := bc.c[0].Session(ctx, s.id)
	if err == nil {
		tally.snapshots.Add(int64(st.Snapshots))
	}
	tally.done(err)
	tally.done(bc.c[1].DeleteSession(ctx, s.id))
}

// retire checks and deletes the client's finished sessions but the
// newest, which resumes read. Run between timed segments, it keeps the
// number of open sessions, and so the live heap the garbage collector
// paces itself by, from growing with the length of the run.
func (bc *benchClient) retire(ctx context.Context, tally *serveTally) {
	if len(bc.done) < 2 {
		return
	}
	for _, s := range bc.done[:len(bc.done)-1] {
		bc.check(ctx, s, tally)
	}
	bc.done = bc.done[len(bc.done)-1:]
}

// verify checks and deletes every session the client advanced, the
// current one too.
func (bc *benchClient) verify(ctx context.Context, tally *serveTally) {
	for _, s := range bc.resumable() {
		bc.check(ctx, s, tally)
	}
	bc.done, bc.cur = nil, &session{}
}

// do executes one generated op and records its latency.
func (bc *benchClient) do(ctx context.Context, o op, env *serveEnv, tally *serveTally) {
	start := time.Now()
	var err error
	switch o.kind {
	case opRun:
		err = bc.run(ctx, env.hot[o.key%len(env.hot)], o.node)
	case opAdvance:
		err = bc.advance(ctx, o.node)
	case opResume:
		// Only finished sessions, all of one length, so what a resume
		// replays does not depend on how far the current one has got.
		err = bc.resume(ctx, bc.done[o.pick%len(bc.done)], o.node, o.back)
	}
	d := time.Since(start)
	tally.done(err)
	if err == nil {
		tally.lat[o.kind].add(d)
	}
	if o.kind == opAdvance {
		bc.rollover(ctx, tally)
	}
}

// segment runs every client's closed loop of one op kind for d, each
// client sending its next request only when its last one has completed,
// and returns how many ops of the kind completed, how long it took and
// how much CPU time the process (clients and fleet) used meanwhile.
func (env *serveEnv) segment(ctx context.Context, kind opKind, d time.Duration, tally *serveTally) (int, time.Duration, time.Duration) {
	lat := &tally.lat[kind]
	before := lat.n()
	runtime.GC()
	cpu := cpuTime()
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for _, bc := range env.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) && ctx.Err() == nil {
				bc.do(ctx, bc.gens[kind].next(), env, tally)
			}
		}()
	}
	wg.Wait()
	return lat.n() - before, time.Since(start), cpuTime() - cpu
}

// setupReps is how many times each round boots the fleet; setup_s is the
// median over every boot of the run. serveSlices is how many slices each
// op kind's closed loop is cut into.
const (
	setupReps   = 20
	serveSlices = 3
)

// servePhase times the serve set-up setupReps times (setup_s), keeps the
// last fleet, warms its hot set from the grid's L2, and then, after one
// untimed warm-up slice per kind, runs closed-loop segments of one op kind
// each — run, advance, resume, serveSlices times over — for a third of
// loop per kind. Each kind's throughput is its completed ops over the CPU
// time its segments used (and, report only, over their wall time). Every
// session is verified and the fleet is torn down.
func servePhase(ctx context.Context, c class, seed int64, dir, gridL2 string, loop time.Duration, want map[string]*machine.Stats,
	traced bool, res *result) error {
	base := &http.Transport{MaxIdleConnsPerHost: 4}
	defer base.CloseIdleConnections()
	tally := &serveTally{}
	var env *serveEnv
	defer func() {
		if env != nil {
			env.close()
		}
	}()
	for i := 0; i < setupReps; i++ {
		if env != nil {
			env.close()
		}
		runtime.GC()
		start := time.Now()
		var err error
		env, err = bootServe(ctx, c, seed, dir, base, traced, tally)
		if err != nil {
			return fmt.Errorf("serve set-up: %w", err)
		}
		res.set("setup_s", time.Since(start).Seconds(), 1)
	}
	// The grid's L2 already holds the hot set's results. Seeding the
	// fleet's shared tier with them makes the untimed warm-up a round of
	// L2 reads and promotions instead of a second simulation of what
	// grid_cold_s has timed.
	if err := copyBlobs(gridL2, filepath.Join(dir, "l2")); err != nil {
		return fmt.Errorf("serve: seed L2: %w", err)
	}
	if err := env.warmHot(ctx, c, want, tally); err != nil {
		return fmt.Errorf("serve hot set: %w", err)
	}

	// Each kind's time is cut into serveSlices slices, interleaved with
	// the other kinds', so a burst of host noise falls on all three. One
	// untimed slice of each kind first opens the connections and brings
	// the session population and the heap to the level they keep.
	seg := loop / time.Duration(len(opKinds)*serveSlices)
	var ops [3]int
	var busy, cpu [3]time.Duration
	for i := -1; i < serveSlices; i++ {
		for _, kind := range opKinds {
			for _, bc := range env.clients {
				bc.retire(ctx, tally)
				if kind == opResume {
					bc.ensureResumable(ctx, tally)
				}
			}
			n, d, used := env.segment(ctx, kind, seg, tally)
			if i < 0 {
				tally.lat[kind].reset()
				continue
			}
			ops[kind] += n
			busy[kind] += d
			cpu[kind] += used
		}
	}
	for _, kind := range opKinds {
		res.set(kind.String()+"_ops_per_s", float64(ops[kind])/busy[kind].Seconds(), ops[kind])
		res.set(kind.String()+"_ops_per_cpu_s", float64(ops[kind])/cpu[kind].Seconds(), ops[kind])
	}
	for _, bc := range env.clients {
		bc.verify(ctx, tally)
	}

	res.attempted += tally.attempted
	res.failed += tally.failed
	for _, e := range tally.firstErrs {
		res.check("serve: " + e)
	}
	run, adv, rsm := &tally.lat[opRun], &tally.lat[opAdvance], &tally.lat[opResume]
	res.set("run_p50_ms", run.q(0.50), run.n())
	res.setTail("run_p99_ms", 0.99, run)
	res.set("advance_p50_ms", adv.q(0.50), adv.n())
	res.setTail("advance_p99_ms", 0.99, adv)
	res.set("resume_p50_ms", rsm.q(0.50), rsm.n())
	res.setTail("resume_p90_ms", 0.90, rsm)
	if !traced {
		return nil
	}
	for _, k := range []string{"run", "advance", "resume"} {
		s := env.hop.roundTrips[k]
		res.setLayer("http."+k+"_ms", s.q(0.5), s.n())
	}
	fw, lo := env.hop.forwarded.n(), env.hop.local.n()
	if fw+lo > 0 {
		res.layer["fleet.forward_share"] = float64(fw) / float64(fw+lo)
	}
	res.setLayer("fleet.forwarded_p50_ms", env.hop.forwarded.q(0.5), fw)
	res.setLayer("fleet.local_p50_ms", env.hop.local.q(0.5), lo)
	res.layer["server.rejected_429"] = float64(env.hop.rejected429.Load())
	res.setLayer("session.journal_sync_ms", env.fs.journalSyncs.q(0.5), env.fs.journalSyncs.n())
	res.setLayer("session.write_ms", env.fs.writes.q(0.5), env.fs.writes.n())
	res.layer["session.snapshots"] = float64(tally.snapshots.Load())
	res.setLayer("serve.l2.read_ms", env.l2.reads.q(0.5), env.l2.reads.n())
	res.setLayer("serve.l2.write_ms", env.l2.writes.q(0.5), env.l2.writes.n())
	var fresh, mem, disk int
	for _, nd := range env.nodes {
		st, err := client.New(nd.url, client.WithHTTPClient(&http.Client{Transport: base})).Stats(ctx)
		if err != nil {
			return fmt.Errorf("serve: /stats: %w", err)
		}
		fresh += st.FreshRuns
		mem += st.MemCacheHits
		disk += st.DiskCacheHits
	}
	res.layer["server.fresh_runs"] = float64(fresh)
	res.layer["server.mem_hits"] = float64(mem)
	res.layer["server.disk_hits"] = float64(disk)
	return nil
}
