package main

import (
	"io/fs"
	"log/slog"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"lightwsp/internal/experiments"
	"lightwsp/internal/hostfs"
)

// timedStore wraps an experiments.Store and times every read and write.
// It changes no behaviour: the observer seam is forwarded, and wrapStore
// returns a leasing wrapper exactly when the inner store leases, so the
// Runner's fleet-wide lease gate sees the same capability either way.
type timedStore struct {
	inner experiments.Store
	t     *storeTiming
}

// timedLeaser is a timedStore over a store that arbitrates leases.
type timedLeaser struct {
	*timedStore
	leaser experiments.Leaser
}

// storeTiming is what a wrapped store measured: read and write latencies,
// and when each key's last write completed.
type storeTiming struct {
	reads, writes samples
	mu            sync.Mutex
	written       map[string]time.Time
}

// writtenAt reports when the last write of hash completed.
func (t *storeTiming) writtenAt(hash string) (time.Time, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	at, ok := t.written[hash]
	return at, ok
}

// wrapStore returns st timed into t. With a nil t it returns st itself.
func wrapStore(st experiments.Store, t *storeTiming) experiments.Store {
	if t == nil {
		return st
	}
	ts := &timedStore{inner: st, t: t}
	if l, ok := st.(experiments.Leaser); ok {
		return &timedLeaser{timedStore: ts, leaser: l}
	}
	return ts
}

func (s *timedStore) ReadJSON(hash string, out any) bool {
	start := time.Now()
	ok := s.inner.ReadJSON(hash, out)
	s.t.reads.add(time.Since(start))
	return ok
}

func (s *timedStore) WriteJSON(hash string, v any) {
	start := time.Now()
	s.inner.WriteJSON(hash, v)
	end := time.Now()
	s.t.writes.add(end.Sub(start))
	s.t.mu.Lock()
	if s.t.written == nil {
		s.t.written = map[string]time.Time{}
	}
	s.t.written[hash] = end
	s.t.mu.Unlock()
}

func (s *timedStore) Remove(hash string) { s.inner.Remove(hash) }

// SetObserver forwards the storage-counter seam to the inner store.
func (s *timedStore) SetObserver(log *slog.Logger, counters *experiments.StorageCounters) {
	if o, ok := s.inner.(interface {
		SetObserver(*slog.Logger, *experiments.StorageCounters)
	}); ok {
		o.SetObserver(log, counters)
	}
}

func (s *timedLeaser) Claim(name, owner string, ttl time.Duration) bool {
	return s.leaser.Claim(name, owner, ttl)
}

func (s *timedLeaser) Renew(name, owner string, ttl time.Duration) bool {
	return s.leaser.Renew(name, owner, ttl)
}

func (s *timedLeaser) Release(name, owner string) { s.leaser.Release(name, owner) }

// timedFS wraps the host filesystem beneath a session store and times the
// durable layer's writes and the journal's fsyncs.
type timedFS struct {
	hostfs.FS
	writes, journalSyncs samples
}

// journalName is the session journal's file name (experiments/session.go).
const journalName = "journal.ndjson"

func (f *timedFS) OpenFile(name string, flag int, perm fs.FileMode) (hostfs.File, error) {
	file, err := f.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &timedFile{File: file, fs: f, journal: filepath.Base(name) == journalName}, nil
}

func (f *timedFS) CreateTemp(dir, pattern string) (hostfs.File, error) {
	file, err := f.FS.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &timedFile{File: file, fs: f}, nil
}

type timedFile struct {
	hostfs.File
	fs      *timedFS
	journal bool
}

func (t *timedFile) Write(p []byte) (int, error) {
	start := time.Now()
	n, err := t.File.Write(p)
	t.fs.writes.add(time.Since(start))
	return n, err
}

func (t *timedFile) Sync() error {
	start := time.Now()
	err := t.File.Sync()
	if t.journal {
		t.fs.journalSyncs.add(time.Since(start))
	}
	return err
}

// hopTransport wraps the client's HTTP transport: it times each round
// trip to the response headers and records, per op class, whether the
// fleet forwarded the request (X-LightWSP-Forwarded / Served-By) and how
// often admission refused it with 429. The op class is read from the
// request path.
type hopTransport struct {
	inner http.RoundTripper

	roundTrips       map[string]*samples
	forwarded, local samples
	rejected429      atomic.Int64
}

func newHopTransport(inner http.RoundTripper) *hopTransport {
	t := &hopTransport{inner: inner, roundTrips: map[string]*samples{}}
	for _, k := range []string{"run", "advance", "resume"} {
		t.roundTrips[k] = &samples{}
	}
	return t
}

func (t *hopTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	class := opClass(req.URL.Path)
	start := time.Now()
	resp, err := t.inner.RoundTrip(req)
	d := time.Since(start)
	if err != nil {
		return nil, err
	}
	if s := t.roundTrips[class]; s != nil {
		s.add(d)
	}
	if resp.StatusCode == http.StatusTooManyRequests {
		t.rejected429.Add(1)
	}
	if class == "run" {
		// A forwarded response names a different node than the one asked.
		if by := resp.Header.Get("X-LightWSP-Served-By"); by != "" && by != "http://"+req.URL.Host {
			t.forwarded.add(d)
		} else {
			t.local.add(d)
		}
	}
	return resp, nil
}

// opClass maps a request path to its op class ("" for set-up and
// session-lifecycle requests).
func opClass(path string) string {
	switch {
	case path == "/v1/run":
		return "run"
	case strings.HasSuffix(path, "/advance"):
		return "advance"
	case strings.HasSuffix(path, "/resume"):
		return "resume"
	}
	return ""
}
