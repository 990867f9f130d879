package fabric

import (
	"sync"
	"time"

	"repro/internal/exp"
)

// rangeStatus is one range's lease state. The state machine:
//
//	pending --grant--> leased --deliver--> done
//	   ^                  |
//	   +------fail--------+   (attempts exhausted => localOnly)
//
// A leased range may hold up to two concurrent attempts (the original
// plus one straggler duplicate); it returns to pending only when every
// outstanding attempt has failed. done is terminal — late duplicate
// deliveries are dropped.
type rangeStatus int

const (
	rangePending rangeStatus = iota
	rangeLeased
	rangeDone
)

// maxInflightPerRange bounds concurrent attempts on one range: the
// original lease plus one straggler duplicate.
const maxInflightPerRange = 2

// maxAttempts caps remote attempts per range; a range that exhausts
// them falls back to local execution.
const maxAttempts = 3

// specRange is one leased unit: the half-open slice specs[lo:hi] plus
// its lease state and, once done, its validated records.
type specRange struct {
	lo, hi    int
	status    rangeStatus
	inflight  int       // outstanding lease attempts
	attempts  int       // attempts granted so far (success or not)
	localOnly bool      // remote attempts exhausted; only local may run it
	started   time.Time // start of the oldest outstanding attempt
	records   []exp.Record
}

// leaseTable is the coordinator's shared scheduling state: which
// ranges are pending, leased, or done, how many live workers remain,
// and whether the merge was canceled. One mutex + condition variable
// serialize it; grants, deliveries, failures and retirements all
// broadcast so blocked workers and the in-order emitter re-evaluate.
// The range slice is fixed at construction: indices are stable, reading
// len(ranges) needs no lock, and the merge waits on range i, then i+1.
type leaseTable struct {
	mu   sync.Mutex
	cond *sync.Cond

	ranges      []*specRange
	done        int
	liveWorkers int
	canceled    bool
}

// newLeaseTable splits n specs into ranges of size (the last may be
// ragged) for liveWorkers registered workers.
func newLeaseTable(n, size, liveWorkers int) *leaseTable {
	t := &leaseTable{liveWorkers: liveWorkers}
	t.cond = sync.NewCond(&t.mu)
	for lo := 0; lo < n; lo += size {
		t.ranges = append(t.ranges, &specRange{lo: lo, hi: min(lo+size, n)})
	}
	return t
}

// grant is one lease assignment: the granted range and the attempt
// ordinal (1-based, for lease IDs and logs).
type grant struct {
	r       *specRange
	attempt int
}

// next blocks until work is available and returns the next grant, or
// ok=false when every range is done (or the table was canceled) and
// the caller should exit.
//
// Remote callers (local=false) get the first pending non-localOnly
// range; with nothing pending they duplicate the longest-running
// in-flight range that has capacity (straggler re-issue). Local
// callers (local=true) get ranges whose remote attempts are exhausted
// — or any unfinished range once no live workers remain — and never
// duplicate in-flight work.
func (t *leaseTable) next(local bool) (grant, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for {
		if t.canceled || t.done == len(t.ranges) {
			return grant{}, false
		}
		if r := t.pickLocked(local); r != nil {
			r.status = rangeLeased
			if r.inflight == 0 {
				r.started = time.Now()
			}
			r.inflight++
			r.attempts++
			return grant{r: r, attempt: r.attempts}, true
		}
		t.cond.Wait()
	}
}

// pickLocked chooses a range for a grant, or nil. Caller holds t.mu.
func (t *leaseTable) pickLocked(local bool) *specRange {
	if local {
		for _, r := range t.ranges {
			if r.status == rangeDone || r.inflight > 0 {
				continue
			}
			if r.localOnly || t.liveWorkers == 0 {
				return r
			}
		}
		return nil
	}
	for _, r := range t.ranges {
		if r.status == rangePending && !r.localOnly {
			return r
		}
	}
	// Straggler re-issue: duplicate the oldest outstanding lease.
	var best *specRange
	for _, r := range t.ranges {
		if r.status != rangeLeased || r.localOnly || r.inflight >= maxInflightPerRange {
			continue
		}
		if best == nil || r.started.Before(best.started) {
			best = r
		}
	}
	return best
}

// deliver completes one attempt with validated records. The first
// delivery wins and returns true; late duplicates return false and are
// dropped (both copies are bit-equal anyway — the simulator is
// deterministic).
func (t *leaseTable) deliver(g grant, recs []exp.Record) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	r := g.r
	if r.inflight > 0 {
		r.inflight--
	}
	defer t.cond.Broadcast()
	if r.status == rangeDone {
		return false
	}
	r.status = rangeDone
	r.records = recs
	t.done++
	return true
}

// fail aborts one attempt. With no other attempt outstanding the range
// returns to pending; once its attempts reach maxAttempts it is marked
// localOnly so only the local executor will touch it again.
func (t *leaseTable) fail(g grant) {
	t.mu.Lock()
	defer t.mu.Unlock()
	r := g.r
	if r.inflight > 0 {
		r.inflight--
	}
	if r.status != rangeDone {
		if r.inflight == 0 {
			r.status = rangePending
		}
		if r.attempts >= maxAttempts {
			r.localOnly = true
		}
	}
	t.cond.Broadcast()
}

// retireWorker removes one live worker from the table's accounting;
// at zero the local executor may claim anything unfinished.
func (t *leaseTable) retireWorker() {
	t.mu.Lock()
	t.liveWorkers--
	t.mu.Unlock()
	t.cond.Broadcast()
}

// cancel aborts the merge: blocked callers drain and exit.
func (t *leaseTable) cancel() {
	t.mu.Lock()
	t.canceled = true
	t.mu.Unlock()
	t.cond.Broadcast()
}

// waitDone blocks until range i is done and returns its records;
// ok=false means the table was canceled first.
func (t *leaseTable) waitDone(i int) ([]exp.Record, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for t.ranges[i].status != rangeDone {
		if t.canceled {
			return nil, false
		}
		t.cond.Wait()
	}
	return t.ranges[i].records, true
}

// doneRanges returns how many ranges have completed (for progress).
func (t *leaseTable) doneRanges() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.done
}
