package experiments

import (
	"encoding/json"
	"errors"
	"log/slog"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"lightwsp/internal/hostfs"
)

// ScrubOptions tunes ScrubStore.
type ScrubOptions struct {
	// Referenced, when non-nil, is the set of blob hashes some live
	// manifest still points at; entries outside the set are garbage
	// collected. Nil skips reference GC (run caches have no manifests).
	Referenced map[string]bool
	// QuotaBytes, when positive, caps the store size: after validity and
	// reference GC, unreferenced survivors are removed oldest-first until
	// the kept bytes fit. Zero means unbounded.
	QuotaBytes int64
	// Counters receives quarantine/checksum tallies; nil uses the
	// process-wide default.
	Counters *StorageCounters
	// Log receives one line per removed or quarantined entry; nil discards.
	Log *slog.Logger
}

// ScrubReport itemises one ScrubStore pass.
type ScrubReport struct {
	Scanned             int   `json:"scanned"`
	Kept                int   `json:"kept"`
	KeptBytes           int64 `json:"kept_bytes"`
	Quarantined         int   `json:"quarantined"`
	RemovedLegacy       int   `json:"removed_legacy"`
	RemovedStale        int   `json:"removed_stale"`
	RemovedUnreferenced int   `json:"removed_unreferenced"`
	RemovedTemp         int   `json:"removed_temp"`
	RemovedQuota        int   `json:"removed_quota"`
}

// Removed is the total number of entries deleted (quarantined entries are
// moved aside, not deleted, and are counted separately).
func (r ScrubReport) Removed() int {
	return r.RemovedLegacy + r.RemovedStale + r.RemovedUnreferenced + r.RemovedTemp + r.RemovedQuota
}

// ScrubStore walks a blob store, verifies every entry's integrity seal and
// codec envelope, quarantines detected corruption, removes stale/legacy/
// orphaned-temp entries, garbage-collects blobs no manifest references, and
// enforces an optional size quota. It is the offline counterpart of the
// read-path self-healing in BlobCache: ReadJSON heals entries a live
// workload touches; scrub heals the ones nothing reads anymore.
func ScrubStore(fsys hostfs.FS, dir string, opt ScrubOptions) (ScrubReport, error) {
	counters := opt.Counters
	if counters == nil {
		counters = DefaultStorageCounters
	}
	note := func(action, name string, err error) {
		if opt.Log != nil {
			opt.Log.Info("scrub", "action", action, "entry", name, "dir", dir, "cause", err)
		}
	}
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		return ScrubReport{}, err
	}
	type survivor struct {
		name  string
		size  int64
		mtime time.Time
		ref   bool
	}
	var rep ScrubReport
	var kept []survivor
	for _, ent := range entries {
		name := ent.Name()
		if ent.IsDir() {
			continue // quarantine/ and friends
		}
		p := filepath.Join(dir, name)
		if strings.Contains(name, ".tmp") {
			// Orphaned temp file from a writer that died mid-publish.
			if fsys.Remove(p) == nil {
				rep.RemovedTemp++
				note("removed-temp", name, nil)
			}
			continue
		}
		if filepath.Ext(name) != ".json" {
			continue
		}
		rep.Scanned++
		data, err := fsys.ReadFile(p)
		if err != nil {
			continue
		}
		payload, err := hostfs.UnsealPayload(data, true)
		switch {
		case errors.Is(err, hostfs.ErrCorrupt):
			counters.ChecksumFailures.Add(1)
			counters.Quarantined.Add(1)
			rep.Quarantined++
			qdir := filepath.Join(dir, quarantineDir)
			if fsys.MkdirAll(qdir, 0o755) != nil || fsys.Rename(p, filepath.Join(qdir, name)) != nil {
				fsys.Remove(p)
			}
			note("quarantined", name, err)
			continue
		case errors.Is(err, hostfs.ErrNotSealed):
			counters.LegacyEvictions.Add(1)
			if fsys.Remove(p) == nil {
				rep.RemovedLegacy++
				note("removed-legacy", name, err)
			}
			continue
		case err != nil:
			continue
		}
		var env codecEnvelope
		if json.Unmarshal(payload, &env) != nil || !knownEnvelope(env) {
			if fsys.Remove(p) == nil {
				rep.RemovedStale++
				note("removed-stale", name, nil)
			}
			continue
		}
		hash := strings.TrimSuffix(name, ".json")
		referenced := opt.Referenced == nil || opt.Referenced[hash]
		if !referenced {
			if fsys.Remove(p) == nil {
				rep.RemovedUnreferenced++
				note("removed-unreferenced", name, nil)
			}
			continue
		}
		s := survivor{name: name, size: int64(len(data)), ref: opt.Referenced != nil}
		if info, err := fsys.Stat(p); err == nil {
			s.size = info.Size()
			s.mtime = info.ModTime()
		}
		kept = append(kept, s)
	}
	var total int64
	for _, s := range kept {
		total += s.size
	}
	if opt.QuotaBytes > 0 && total > opt.QuotaBytes {
		// Evict oldest-first, but never an entry a manifest still needs:
		// the quota trims cache weight, it must not break a session.
		sort.Slice(kept, func(i, j int) bool { return kept[i].mtime.Before(kept[j].mtime) })
		pruned := kept[:0]
		for _, s := range kept {
			if total > opt.QuotaBytes && !s.ref {
				if fsys.Remove(filepath.Join(dir, s.name)) == nil {
					rep.RemovedQuota++
					total -= s.size
					note("removed-quota", s.name, nil)
					continue
				}
			}
			pruned = append(pruned, s)
		}
		kept = pruned
	}
	rep.Kept = len(kept)
	rep.KeptBytes = total
	return rep, nil
}
