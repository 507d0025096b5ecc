package experiments

import (
	"log/slog"
	"sync/atomic"
	"time"
)

// observable is the optional observer seam a Store implementation may
// expose (BlobCache, RemoteStore and TieredStore all do); a TieredStore
// forwards its logger and storage counters through it to whichever tiers
// support observation.
type observable interface {
	SetObserver(log *slog.Logger, counters *StorageCounters)
}

// Store is the content-addressed blob interface every persisted artifact in
// this repo goes through: cached run stats, crash-fuzzing verdicts, session
// snapshots and manifests. Entries are JSON documents named by a content
// hash; reads report presence, writes and removes are best-effort (failure
// degrades to a miss, never to a wrong result). *BlobCache is the concrete
// disk-backed implementation; TieredStore composes a local L1 with a shared
// L2 so a fleet of nodes shares one warm cache; RemoteStore speaks the
// /v1/blob peer API of another node.
type Store interface {
	// ReadJSON decodes the entry named hash into out, reporting whether a
	// valid, integrity-checked document was present.
	ReadJSON(hash string, out any) bool
	// WriteJSON persists v as the entry named hash, best-effort.
	WriteJSON(hash string, v any)
	// Remove deletes the entry named hash (stale-entry eviction).
	Remove(hash string)
}

// Leaser is a Store that can arbitrate short-lived named leases — the
// fleet-wide singleflight primitive. A lease names a unit of work (a run
// key hash); exactly one claimant holds it until it is released or its TTL
// expires. Disk-backed stores implement it with O_CREATE|O_EXCL lease
// files, which is atomic on a shared directory, so a directory store shared
// by a fleet gives cross-node mutual exclusion for free; RemoteStore
// delegates to the peer's arbiter over HTTP.
type Leaser interface {
	// Claim attempts to take the lease for owner. It returns false while
	// another owner holds an unexpired lease; an expired lease is broken
	// and re-claimed.
	Claim(name, owner string, ttl time.Duration) bool
	// Renew extends a lease the owner already holds; it returns false if
	// the lease was lost (expired and taken by someone else).
	Renew(name, owner string, ttl time.Duration) bool
	// Release drops the lease if owner still holds it.
	Release(name, owner string)
}

// TieredCounters tallies a TieredStore's traffic, all fields atomic.
type TieredCounters struct {
	// L1Hits counts reads served by the local tier.
	L1Hits atomic.Uint64
	// L2Hits counts reads that missed L1 and were served by the shared
	// tier (each one verified against its integrity seal by the L2
	// implementation, then written back into L1).
	L2Hits atomic.Uint64
	// Misses counts reads absent from both tiers.
	Misses atomic.Uint64
	// Writebacks counts L2-hit payloads promoted into L1.
	Writebacks atomic.Uint64
}

// TieredStore is a read-through/write-back pair of Stores: a fast local L1
// (the node's own disk cache) in front of a shared L2 (a fleet-wide
// directory store or a peer node). Reads try L1, then L2; an L2 hit is
// promoted into L1 so the next read is local. Writes land in both tiers
// synchronously — the write path is already asynchronous to the simulation
// (best-effort cache fill), and a synchronous L2 publish is what lets a
// follower node observe the leader's result the moment the leader's store
// call returns.
//
// Integrity: both tiers verify the CRC seal on their own read path (a
// BlobCache L2 verifies on ReadFile, a RemoteStore verifies the fetched
// bytes before decoding), so a corrupt L2 entry quarantines remotely and
// reads as a miss here — it is never promoted into L1.
type TieredStore struct {
	l1, l2   Store
	counters TieredCounters
}

// NewTieredStore composes l1 (local) and l2 (shared). Either may be nil,
// in which case the other serves alone.
func NewTieredStore(l1, l2 Store) *TieredStore {
	return &TieredStore{l1: l1, l2: l2}
}

// Counters exposes the traffic tallies for telemetry.
func (t *TieredStore) Counters() *TieredCounters { return &t.counters }

// SetObserver forwards the logger and storage counters to whichever tiers
// support observation.
func (t *TieredStore) SetObserver(log *slog.Logger, counters *StorageCounters) {
	if o, ok := t.l1.(observable); ok {
		o.SetObserver(log, counters)
	}
	if o, ok := t.l2.(observable); ok {
		o.SetObserver(log, counters)
	}
}

// ReadJSON reads through the tiers: L1 hit, else L2 hit promoted into L1,
// else miss.
func (t *TieredStore) ReadJSON(hash string, out any) bool {
	if t.l1 != nil && t.l1.ReadJSON(hash, out) {
		t.counters.L1Hits.Add(1)
		return true
	}
	if t.l2 != nil && t.l2.ReadJSON(hash, out) {
		t.counters.L2Hits.Add(1)
		if t.l1 != nil {
			t.counters.Writebacks.Add(1)
			t.l1.WriteJSON(hash, out)
		}
		return true
	}
	t.counters.Misses.Add(1)
	return false
}

// WriteJSON persists to both tiers.
func (t *TieredStore) WriteJSON(hash string, v any) {
	if t.l1 != nil {
		t.l1.WriteJSON(hash, v)
	}
	if t.l2 != nil {
		t.l2.WriteJSON(hash, v)
	}
}

// Remove evicts from both tiers.
func (t *TieredStore) Remove(hash string) {
	if t.l1 != nil {
		t.l1.Remove(hash)
	}
	if t.l2 != nil {
		t.l2.Remove(hash)
	}
}

// Claim delegates lease arbitration to the shared tier when it supports
// leases — the whole point is fleet-wide exclusion — falling back to L1 for
// single-node setups.
func (t *TieredStore) Claim(name, owner string, ttl time.Duration) bool {
	if l, ok := t.leaser(); ok {
		return l.Claim(name, owner, ttl)
	}
	return true // no arbiter anywhere: caller proceeds alone
}

// Renew extends a held lease on the arbitrating tier.
func (t *TieredStore) Renew(name, owner string, ttl time.Duration) bool {
	if l, ok := t.leaser(); ok {
		return l.Renew(name, owner, ttl)
	}
	return true
}

// Release drops a held lease on the arbitrating tier.
func (t *TieredStore) Release(name, owner string) {
	if l, ok := t.leaser(); ok {
		l.Release(name, owner)
	}
}

func (t *TieredStore) leaser() (Leaser, bool) {
	if l, ok := t.l2.(Leaser); ok && l != nil {
		return l, true
	}
	if l, ok := t.l1.(Leaser); ok && l != nil {
		return l, true
	}
	return nil, false
}
