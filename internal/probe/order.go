package probe

import "fmt"

// RegionOrder is a streaming checker of LightWSP's persist-order invariants
// (DESIGN.md invariant 2) over the WPQFlush events of a run:
//
//   - per controller, the region IDs of flushed entries never decrease
//     (the gated WPQ opens quarantines strictly in flush-ID order), and
//   - per address, region IDs never decrease across controllers either
//     (same-address conflicts are homed on one controller, so cross-region
//     write order is preserved exactly where it matters).
//
// It keeps one region cursor per controller and one per address, never the
// event stream itself, so it checks runs of any length in bounded memory.
// The cWSP baseline's speculative FIFO flushing visibly violates the
// per-controller ordering, which is precisely the behaviour its undo logging
// exists to repair. Attach it with System.SetProbeSink (probe.Multi to
// combine) and read Err after the run.
type RegionOrder struct {
	perMC   []uint64
	perAddr map[uint64]uint64
	flushes uint64
	err     error
}

// NewRegionOrder returns a checker for a machine with numMCs controllers.
func NewRegionOrder(numMCs int) *RegionOrder {
	return &RegionOrder{perMC: make([]uint64, numMCs), perAddr: map[uint64]uint64{}}
}

// Emit implements Sink. Events other than WPQFlush are ignored; checking
// stops at the first violation, which Err reports.
func (o *RegionOrder) Emit(e Event) {
	if e.Kind != WPQFlush || o.err != nil {
		return
	}
	o.flushes++
	if e.MC < 0 || e.MC >= len(o.perMC) {
		o.err = fmt.Errorf("flush %d (cycle %d): controller %d out of range", o.flushes, e.Cycle, e.MC)
		return
	}
	if e.Region < o.perMC[e.MC] {
		o.err = fmt.Errorf("flush %d (cycle %d): controller %d flushed region %d after region %d",
			o.flushes, e.Cycle, e.MC, e.Region, o.perMC[e.MC])
		return
	}
	o.perMC[e.MC] = e.Region
	if last, ok := o.perAddr[e.Addr]; ok && e.Region < last {
		o.err = fmt.Errorf("flush %d (cycle %d): address %#x written by region %d after region %d",
			o.flushes, e.Cycle, e.Addr, e.Region, last)
		return
	}
	o.perAddr[e.Addr] = e.Region
}

// Err returns the first ordering violation seen, or nil.
func (o *RegionOrder) Err() error { return o.err }

// Summary renders a one-line digest for logs.
func (o *RegionOrder) Summary() string {
	return fmt.Sprintf("persist order: %d PM writes to %d addresses across %d controllers",
		o.flushes, len(o.perAddr), len(o.perMC))
}
