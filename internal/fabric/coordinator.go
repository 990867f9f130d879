package fabric

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/exp"
	"repro/internal/metrics"
)

// Coordinator distributes a spec list across HTTP workers and merges
// their record streams into spec order, byte-identically to a local
// sweep. Zero values get sane defaults; a Coordinator is good for one
// Run at a time.
type Coordinator struct {
	// Workers are worker base addresses (host:port or full URLs). An
	// empty or unreachable fleet degrades to local execution.
	Workers []string
	// RangeSize is the number of specs per lease; 0 means 4.
	RangeSize int
	// LeaseTimeout bounds one lease's wall time before the coordinator
	// abandons it and reassigns the range; 0 means 2 minutes.
	LeaseTimeout time.Duration
	// Speedup and Observe mirror exp.Engine.JoinSpeedup / Observe on
	// the workers and the local fallback engine.
	Speedup bool
	Observe bool
	// Engine is the local fallback engine; nil builds exp.New(). Its
	// JoinSpeedup/Observe are forced to match Speedup/Observe.
	Engine *exp.Engine
	// Client performs worker requests; nil uses a fresh http.Client
	// (per-request contexts carry the deadlines).
	Client *http.Client
	// Metrics, when non-nil, carries the coordinator's fleet counters
	// (and the local engine's host telemetry).
	Metrics *metrics.Registry
	// Out, when non-nil, receives a throttled fleet progress line.
	Out io.Writer
	// Logf, when non-nil, receives one line per fleet event (worker
	// registered/rejected/retired, lease expiry, local fallback).
	Logf func(format string, args ...any)

	mu       sync.Mutex
	start    time.Time
	lastLine time.Time
	workers  []*workerState

	recordsTotal int64

	recordsDone   atomic.Int64
	recordsFailed atomic.Int64
	duplicates    atomic.Int64
	localRecords  atomic.Int64

	metricsOnce sync.Once
	tbl         *leaseTable
}

// workerState is one registered worker's live accounting.
type workerState struct {
	addr string // normalized base URL

	leases   atomic.Int64
	records  atomic.Int64
	expiries atomic.Int64
	failures atomic.Int64
	inflight atomic.Int64
	retired  atomic.Bool

	consecFail int // touched only by the worker's own goroutine
}

// maxWorkerFailures retires a worker after that many consecutive
// failed leases.
const maxWorkerFailures = 3

func (c *Coordinator) rangeSize() int {
	if c.RangeSize > 0 {
		return c.RangeSize
	}
	return 4
}

func (c *Coordinator) leaseTimeout() time.Duration {
	if c.LeaseTimeout > 0 {
		return c.LeaseTimeout
	}
	return 2 * time.Minute
}

func (c *Coordinator) client() *http.Client {
	if c.Client != nil {
		return c.Client
	}
	return &http.Client{}
}

func (c *Coordinator) logf(format string, args ...any) {
	if c.Logf != nil {
		c.Logf(format, args...)
	}
}

// localEngine resolves the fallback engine with the coordinator's
// options applied.
func (c *Coordinator) localEngine() *exp.Engine {
	e := c.Engine
	if e == nil {
		e = exp.New()
		c.Engine = e
	}
	e.JoinSpeedup = c.Speedup
	e.Observe = c.Observe
	if e.Metrics == nil {
		e.Metrics = c.Metrics
	}
	return e
}

// Run executes specs across the fleet and writes one JSON-lines record
// per spec to out, in spec order. The stats and joined error follow
// the same failure accounting as exp.Engine.StreamWith: run failures
// are error records counted in stats.Failed and joined into err, and a
// write failure aborts the merge. The bytes written are identical to a
// local sweep of the same specs, whatever the fleet does.
func (c *Coordinator) Run(out io.Writer, specs []exp.Spec) (exp.StreamStats, error) {
	eng := c.localEngine()
	if len(specs) == 0 {
		return exp.StreamStats{}, nil
	}
	c.mu.Lock()
	c.start = time.Now()
	c.recordsTotal = int64(len(specs))
	c.mu.Unlock()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	live := c.handshake(ctx)
	c.registerMetrics()
	if len(live) == 0 {
		c.logf("fabric: no workers registered; running the sweep locally")
		stats, err := eng.StreamWith(out, specs, func(rec *exp.Record) {
			c.recordsDone.Add(1)
			c.localRecords.Add(1)
			if rec.Error != "" {
				c.recordsFailed.Add(1)
			}
			c.progressLine()
		})
		return stats, err
	}

	tbl := newLeaseTable(len(specs), c.rangeSize(), len(live))
	c.mu.Lock()
	c.tbl = tbl
	c.mu.Unlock()

	var wg sync.WaitGroup
	for _, ws := range live {
		wg.Add(1)
		go func(ws *workerState) {
			defer wg.Done()
			c.serveWorker(ctx, ws, tbl, specs)
		}(ws)
	}
	// The local executor picks up ranges the fleet cannot finish:
	// attempt-exhausted ranges, and everything once all workers retire.
	wg.Add(1)
	go func() {
		defer wg.Done()
		c.serveLocal(eng, tbl, specs)
	}()

	// Merge: emit ranges strictly in spec order as their records land.
	enc := json.NewEncoder(out)
	var stats exp.StreamStats
	var errs []error
	seenErr := map[string]bool{}
	for i := range tbl.ranges {
		recs, ok := tbl.waitDone(i)
		if !ok {
			break // canceled — only the write-failure path below does that
		}
		for _, rec := range recs {
			if rec.Error != "" {
				stats.Failed++
				c.recordsFailed.Add(1)
				if k := rec.Key(); !seenErr[k] {
					seenErr[k] = true
					errs = append(errs, errors.New(rec.Error))
				}
			}
			if werr := enc.Encode(rec); werr != nil {
				tbl.cancel()
				cancel()
				wg.Wait()
				return stats, werr
			}
			stats.Records++
			c.recordsDone.Add(1)
			c.progressLine()
		}
	}
	wg.Wait()
	return stats, errors.Join(errs...)
}

// handshake probes every configured worker address and registers the
// ones that answer /healthz with a matching schema version.
func (c *Coordinator) handshake(ctx context.Context) []*workerState {
	var live []*workerState
	for _, addr := range c.Workers {
		base := NormalizeAddr(addr)
		if base == "" {
			continue
		}
		hello, err := c.probe(ctx, base)
		switch {
		case err != nil:
			c.logf("fabric: worker %s not registered: %v", base, err)
		case !hello.OK || hello.SchemaVersion != exp.SchemaVersion:
			c.logf("fabric: worker %s rejected: schema_version %d, this build %d",
				base, hello.SchemaVersion, exp.SchemaVersion)
		default:
			c.logf("fabric: worker %s registered (schema_version %d)", base, hello.SchemaVersion)
			live = append(live, &workerState{addr: base})
		}
	}
	c.mu.Lock()
	c.workers = live
	c.mu.Unlock()
	return live
}

// probe performs one /healthz request.
func (c *Coordinator) probe(ctx context.Context, base string) (Hello, error) {
	rctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(rctx, http.MethodGet, base+HealthPath, nil)
	if err != nil {
		return Hello{}, err
	}
	resp, err := c.client().Do(req)
	if err != nil {
		return Hello{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return Hello{}, fmt.Errorf("healthz status %s", resp.Status)
	}
	var hello Hello
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&hello); err != nil {
		return Hello{}, fmt.Errorf("malformed healthz body: %v", err)
	}
	return hello, nil
}

// serveWorker is one registered worker's dispatch loop: lease, run,
// deliver, and ask for the next range only once this one returns, so
// a slow worker simply takes fewer ranges. A worker is retired after
// maxWorkerFailures consecutive failed leases.
func (c *Coordinator) serveWorker(ctx context.Context, ws *workerState, tbl *leaseTable, specs []exp.Spec) {
	for {
		g, ok := tbl.next(false)
		if !ok {
			return
		}
		r := g.r
		ws.leases.Add(1)
		ws.inflight.Add(1)
		recs, err := c.runRemote(ctx, ws, g, specs[r.lo:r.hi])
		ws.inflight.Add(-1)
		if err != nil {
			expired := errors.Is(err, context.DeadlineExceeded)
			if expired {
				ws.expiries.Add(1)
			} else {
				ws.failures.Add(1)
			}
			tbl.fail(g)
			ws.consecFail++
			c.logf("fabric: worker %s lease %s failed (expired=%v, consecutive %d): %v",
				ws.addr, leaseID(g), expired, ws.consecFail, err)
			if ws.consecFail >= maxWorkerFailures {
				ws.retired.Store(true)
				tbl.retireWorker()
				c.logf("fabric: worker %s retired after %d consecutive failures", ws.addr, ws.consecFail)
				return
			}
			continue
		}
		ws.consecFail = 0
		ws.records.Add(int64(len(recs)))
		if !tbl.deliver(g, recs) {
			c.duplicates.Add(int64(len(recs)))
		}
	}
}

// leaseID names one grant for logs and the wire: spec bounds plus the
// attempt ordinal.
func leaseID(g grant) string {
	return fmt.Sprintf("r%d-%d.%d", g.r.lo, g.r.hi, g.attempt)
}

// serveLocal is the fallback executor: it runs attempt-exhausted
// ranges (and, once no live workers remain, everything unfinished)
// through the local engine.
func (c *Coordinator) serveLocal(eng *exp.Engine, tbl *leaseTable, specs []exp.Spec) {
	for {
		g, ok := tbl.next(true)
		if !ok {
			return
		}
		r := g.r
		c.logf("fabric: running range r%d-%d (%d specs) locally", r.lo, r.hi, r.hi-r.lo)
		recs := make([]exp.Record, 0, r.hi-r.lo)
		for _, s := range specs[r.lo:r.hi] {
			recs = append(recs, eng.Record(s))
		}
		c.localRecords.Add(int64(len(recs)))
		if !tbl.deliver(g, recs) {
			c.duplicates.Add(int64(len(recs)))
		}
	}
}

// runRemote executes one lease against one worker: POST the range,
// validate the streamed records (strict schema, matching stamp, lease
// order), and strip the wire stamp so merged bytes equal local bytes.
// Short, over-long, misordered and malformed streams all fail the
// lease the same way.
func (c *Coordinator) runRemote(ctx context.Context, ws *workerState, g grant, specs []exp.Spec) ([]exp.Record, error) {
	keys := make([]string, len(specs))
	for i, s := range specs {
		keys[i] = s.Key()
	}
	body, err := json.Marshal(RunRequest{
		SchemaVersion: exp.SchemaVersion,
		Lease:         leaseID(g),
		Speedup:       c.Speedup,
		Observe:       c.Observe,
		Keys:          keys,
	})
	if err != nil {
		return nil, err
	}
	rctx, cancel := context.WithTimeout(ctx, c.leaseTimeout())
	defer cancel()
	req, err := http.NewRequestWithContext(rctx, http.MethodPost, ws.addr+RunPath, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.client().Do(req)
	if err != nil {
		if rctx.Err() != nil {
			err = fmt.Errorf("%w: %v", context.DeadlineExceeded, err)
		}
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<12))
		return nil, fmt.Errorf("run status %s: %s", resp.Status, bytes.TrimSpace(msg))
	}

	recs := make([]exp.Record, 0, len(specs))
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		rec, err := exp.ValidateLine(line)
		if err != nil {
			return nil, fmt.Errorf("record %d: %v", len(recs)+1, err)
		}
		if rec.SchemaVersion != exp.SchemaVersion {
			return nil, fmt.Errorf("record %d: missing or mismatched schema_version %d (want %d)",
				len(recs)+1, rec.SchemaVersion, exp.SchemaVersion)
		}
		if len(recs) >= len(specs) {
			return nil, fmt.Errorf("worker streamed more records than the %d leased specs", len(specs))
		}
		rec.SchemaVersion = 0 // strip the wire stamp: merged bytes == local bytes
		if rec.Spec != specs[len(recs)] {
			return nil, fmt.Errorf("record %d is %s, want lease order %s",
				len(recs)+1, rec.Key(), specs[len(recs)].Key())
		}
		recs = append(recs, rec)
	}
	if err := sc.Err(); err != nil {
		if rctx.Err() != nil {
			err = fmt.Errorf("%w: %v", context.DeadlineExceeded, err)
		}
		return nil, fmt.Errorf("after %d of %d records: %v", len(recs), len(specs), err)
	}
	if len(recs) != len(specs) {
		err := fmt.Errorf("stream truncated at %d of %d records", len(recs), len(specs))
		if rctx.Err() != nil {
			err = fmt.Errorf("%w: %v", context.DeadlineExceeded, err)
		}
		return nil, err
	}
	return recs, nil
}
