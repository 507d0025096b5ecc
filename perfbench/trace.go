package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's own
// code. Spans of one operation share op; parent indexes the span that
// caused this one (-1 for an operation's root).
type span struct {
	Op     int64         `json:"op"`
	Name   string        `json:"name"`
	Parent int           `json:"parent"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// recorder holds the spans of a traced run in memory; they are written out
// when the run ends. A nil *recorder records nothing, so untraced runs pay
// one nil check per boundary.
type recorder struct {
	origin time.Time
	ops    atomic.Int64
	mu     sync.Mutex
	spans  []span
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

// newOp returns a fresh operation ID.
func (r *recorder) newOp() int64 {
	if r == nil {
		return 0
	}
	return r.ops.Add(1)
}

// begin opens a span and returns its index (-1 when not tracing).
func (r *recorder) begin(op int64, name string, parent int) int {
	if r == nil {
		return -1
	}
	now := time.Since(r.origin)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Op: op, Name: name, Parent: parent, Start: now, End: -1})
	return len(r.spans) - 1
}

// end closes the span begin returned.
func (r *recorder) end(i int) {
	if r == nil || i < 0 {
		return
	}
	now := time.Since(r.origin)
	r.mu.Lock()
	r.spans[i].End = now
	r.mu.Unlock()
}

// layerTime is one span name's aggregate: how often it ran, its summed
// duration, and its summed self time (duration minus the part of it that
// child spans cover).
type layerTime struct {
	Count int           `json:"count"`
	Total time.Duration `json:"total_ns"`
	Self  time.Duration `json:"self_ns"`
}

// aggregate folds the recorded spans into per-name totals.
func (r *recorder) aggregate() map[string]*layerTime {
	r.mu.Lock()
	spans := append([]span(nil), r.spans...)
	r.mu.Unlock()
	children := map[int][]int{}
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := map[string]*layerTime{}
	for i, s := range spans {
		if s.End < 0 {
			continue
		}
		lt := out[s.Name]
		if lt == nil {
			lt = &layerTime{}
			out[s.Name] = lt
		}
		d := s.End - s.Start
		lt.Count++
		lt.Total += d
		lt.Self += d - covered(s, spans, children[i])
	}
	return out
}

// covered is how much of parent's interval the given child spans cover,
// counting overlapping children once.
func covered(parent span, spans []span, kids []int) time.Duration {
	type iv struct{ a, b time.Duration }
	var ivs []iv
	for _, k := range kids {
		c := spans[k]
		if c.End < 0 {
			continue
		}
		a, b := max(c.Start, parent.Start), min(c.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total time.Duration
	var curA, curB time.Duration = -1, -1
	for _, v := range ivs {
		if v.a > curB {
			if curB > curA {
				total += curB - curA
			}
			curA, curB = v.a, v.b
			continue
		}
		curB = max(curB, v.b)
	}
	if curB > curA {
		total += curB - curA
	}
	return total
}

// writeFile writes every span, and each span name's aggregate, as JSON.
func (r *recorder) writeFile(path string) error {
	agg := r.aggregate()
	r.mu.Lock()
	data, err := json.Marshal(struct {
		Spans  []span                `json:"spans"`
		ByName map[string]*layerTime `json:"by_name"`
	}{r.spans, agg})
	r.mu.Unlock()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// printSummary prints each span name's count, total and self time.
func (r *recorder) printSummary() {
	agg := r.aggregate()
	names := make([]string, 0, len(agg))
	for n := range agg {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		lt := agg[n]
		fmt.Printf("[span] %-22s n=%-6d total %12.3f ms  self %12.3f ms\n", n, lt.Count,
			float64(lt.Total)/float64(time.Millisecond), float64(lt.Self)/float64(time.Millisecond))
	}
}

// samples is a concurrency-safe set of latency samples in milliseconds.
type samples struct {
	mu sync.Mutex
	v  []float64
}

func (s *samples) add(d time.Duration) {
	s.mu.Lock()
	s.v = append(s.v, float64(d)/float64(time.Millisecond))
	s.mu.Unlock()
}

func (s *samples) reset() {
	s.mu.Lock()
	s.v = nil
	s.mu.Unlock()
}

func (s *samples) n() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.v)
}

// q returns the q-quantile (0..1), interpolated linearly between order
// statistics; 0 when empty.
func (s *samples) q(q float64) float64 {
	s.mu.Lock()
	v := append([]float64(nil), s.v...)
	s.mu.Unlock()
	return quantile(v, q)
}

func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sort.Float64s(v)
	pos := q * float64(len(v)-1)
	lo := int(pos)
	if lo+1 >= len(v) {
		return v[len(v)-1]
	}
	frac := pos - float64(lo)
	return v[lo] + frac*(v[lo+1]-v[lo])
}

func median(v []float64) float64 { return quantile(append([]float64(nil), v...), 0.5) }
