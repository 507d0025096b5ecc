package experiments

import (
	"encoding/json"
	"errors"
	iofs "io/fs"
	"os"
	"path/filepath"
	"time"

	"lightwsp/internal/hostfs"
)

// leaseDir is the subdirectory lease files live in, beside the blobs they
// coordinate. Lease files are advisory coordination state, not durable
// artifacts: they are small plain-JSON files created with O_CREATE|O_EXCL,
// which is atomic on a shared directory — the fleet's cross-node mutex.
const leaseDir = "leases"

// leaseRecord is the content of one lease file.
type leaseRecord struct {
	Owner string `json:"owner"`
	// Expires is the lease deadline in Unix nanoseconds. An expired lease
	// is dead weight from a crashed holder; the next claimant breaks it.
	Expires int64 `json:"expires"`
}

func (c *BlobCache) leasePath(name string) string {
	return filepath.Join(c.dir, leaseDir, name+".lease")
}

// Claim implements Leaser: attempt to take the named lease for owner. The
// claim is an O_EXCL create of the lease file; losing the race (the file
// exists with an unexpired record) returns false. A record that is expired
// belonged to a crashed or wedged holder and is broken: removed, then
// re-claimed through the same exclusive create so two breakers still
// serialize. A torn or undecodable record is broken the same way once the
// file is older than ttl; a younger one is a live claimant caught between
// its exclusive create and its write, and breaking it would hand the lease
// to two owners at once. A filesystem that keeps no modification times
// (hostfs.MemFS) never ages such a record out; the Runner's lease failsafe
// bounds that wait.
func (c *BlobCache) Claim(name, owner string, ttl time.Duration) bool {
	for attempt := 0; attempt < 2; attempt++ {
		if c.tryCreateLease(name, owner, ttl) {
			return true
		}
		rec, err := c.readLease(name)
		if err == nil && time.Now().UnixNano() < rec.Expires {
			return false // live holder
		}
		if err != nil {
			info, serr := c.fs.Stat(c.leasePath(name))
			if serr == nil && (info.ModTime().IsZero() || time.Since(info.ModTime()) < ttl) {
				return false // record still being written
			}
		}
		// Expired or unreadable: break it and retry the exclusive create
		// exactly once — if another breaker wins the re-create, we lose.
		if err := c.fs.Remove(c.leasePath(name)); err != nil && !errors.Is(err, iofs.ErrNotExist) {
			return false
		}
	}
	return false
}

// Renew implements Leaser: extend a lease owner already holds. Returns
// false when the lease was lost — expired and broken, or taken by another
// owner — in which case the holder must assume a competitor is running.
func (c *BlobCache) Renew(name, owner string, ttl time.Duration) bool {
	rec, err := c.readLease(name)
	if err != nil || rec.Owner != owner {
		return false
	}
	return c.writeLease(name, owner, ttl) == nil
}

// Release implements Leaser: drop the lease if owner still holds it.
func (c *BlobCache) Release(name, owner string) {
	rec, err := c.readLease(name)
	if err != nil || rec.Owner != owner {
		return
	}
	if err := c.fs.Remove(c.leasePath(name)); err != nil && !errors.Is(err, iofs.ErrNotExist) {
		c.counters.RemoveErrors.Add(1)
	}
}

func (c *BlobCache) tryCreateLease(name, owner string, ttl time.Duration) bool {
	if c.fs.MkdirAll(filepath.Join(c.dir, leaseDir), 0o755) != nil {
		return false
	}
	f, err := c.fs.OpenFile(c.leasePath(name), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return false
	}
	data, _ := json.Marshal(leaseRecord{Owner: owner, Expires: time.Now().Add(ttl).UnixNano()})
	_, werr := f.Write(data)
	cerr := f.Close()
	if werr != nil || cerr != nil {
		// A torn lease file reads as breakable; remove our debris eagerly.
		c.fs.Remove(c.leasePath(name))
		return false
	}
	return true
}

// writeLease overwrites the lease file in place (renew path). Leases are
// advisory, so no fsync ceremony: a lease lost to a power cut just means
// the work is claimed again.
func (c *BlobCache) writeLease(name, owner string, ttl time.Duration) error {
	f, err := c.fs.OpenFile(c.leasePath(name), os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	data, _ := json.Marshal(leaseRecord{Owner: owner, Expires: time.Now().Add(ttl).UnixNano()})
	_, werr := f.Write(data)
	cerr := f.Close()
	if werr != nil {
		return werr
	}
	return cerr
}

func (c *BlobCache) readLease(name string) (leaseRecord, error) {
	data, err := c.fs.ReadFile(c.leasePath(name))
	if err != nil {
		return leaseRecord{}, err
	}
	var rec leaseRecord
	if err := json.Unmarshal(data, &rec); err != nil {
		return leaseRecord{}, err
	}
	return rec, nil
}

// ReadRaw returns the sealed on-disk bytes of the entry named hash — the
// peer blob API's transfer unit, so the fetching node can re-verify the
// CRC seal end to end. The seal is verified here too; corruption
// quarantines locally and reads as a miss, exactly like ReadJSON.
func (c *BlobCache) ReadRaw(hash string) ([]byte, bool) {
	data, err := c.fs.ReadFile(c.path(hash))
	if err != nil {
		return nil, false
	}
	if _, err := hostfs.UnsealPayload(data, !c.insecureSkipVerify); err != nil {
		if errors.Is(err, hostfs.ErrCorrupt) {
			c.counters.ChecksumFailures.Add(1)
			c.quarantine(hash, err)
		}
		return nil, false
	}
	return data, true
}

// WriteRaw atomically persists pre-sealed bytes as the entry named hash —
// the peer blob API's ingest path. The seal is verified before anything
// touches the store: a peer (or the network) handing over corrupt bytes is
// a counted failure, not a stored entry.
func (c *BlobCache) WriteRaw(hash string, sealed []byte) error {
	if _, err := hostfs.UnsealPayload(sealed, true); err != nil {
		c.counters.ChecksumFailures.Add(1)
		c.warn("raw blob write rejected: bad seal", hash, err)
		return err
	}
	err := c.writeSealed(hash, sealed)
	if err != nil && hostfs.Transient(err) {
		c.counters.Retries.Add(1)
		err = c.writeSealed(hash, sealed)
	}
	if err != nil {
		c.counters.WriteErrors.Add(1)
		c.warn("raw blob write failed", hash, err)
	}
	return err
}
