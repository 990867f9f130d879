package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	rtmetrics "runtime/metrics"
	"sync"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/fabric"
	"repro/internal/sim"
	"repro/internal/store"
)

// bench is one run's prepared state: the seeded grid, its reference,
// and the store the fabric passes serve from.
type bench struct {
	specs []exp.Spec
	ref   map[string]refRecord
	// storeDir is the store the fabric passes serve from. The first
	// local pass writes its records through to it; later local passes
	// run without a store.
	storeDir string
	// cold is the first local pass's stream, which every later pass
	// must reproduce byte for byte.
	cold []byte
	// coldLines and coldBad are the cold stream split into records and
	// which of them miss the reference.
	coldLines [][]byte
	coldBad   []bool
	tr        *tracer
}

// newEngine builds the engine every pass streams through: the calibrated
// model, a pool as wide as the host, and the sequential-baseline join.
func newEngine() *exp.Engine {
	e := exp.New()
	e.Workers = runtime.NumCPU()
	e.JoinSpeedup = true
	return e
}

// setup prepares one run: the reference, the seeded grid and the
// scratch store the fabric passes serve from.
func setup(wl *workload, apps []string, seed int64, scratch string) (*bench, error) {
	ref, err := loadRef(wl.name)
	if err != nil {
		return nil, err
	}
	b := &bench{ref: ref}
	if b.specs, err = configure(wl, apps, seed); err != nil {
		return nil, err
	}
	if b.storeDir, err = tempDir(scratch, "store-"); err != nil {
		return nil, err
	}
	return b, nil
}

// configure is the program's share of set-up, the part setup_s times:
// it expands the seeded grid, validates every spec, resolves its
// application and configures it on a fresh engine, so a bad grid fails
// here rather than in a pass.
func configure(wl *workload, apps []string, seed int64) ([]exp.Spec, error) {
	specs := wl.grid(apps, rand.New(rand.NewSource(seed)))
	eng := newEngine()
	for _, s := range specs {
		if err := s.Validate(); err != nil {
			return nil, err
		}
		a, err := exp.AppByName(s.App)
		if err != nil {
			return nil, err
		}
		eng.Config(a, s)
	}
	return specs, nil
}

// counters are the process-wide readings a pass takes on each side.
type counters struct {
	cpu        time.Duration
	allocBytes uint64
	sim        sim.HostStats
}

func readCounters() counters {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru) //nolint:errcheck // RUSAGE_SELF cannot fail
	alloc := []rtmetrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	rtmetrics.Read(alloc)
	return counters{
		cpu:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		allocBytes: alloc[0].Value.Uint64(),
		sim:        sim.HostTotals(),
	}
}

// pass is one streamed sweep of the grid, local or through the fabric.
type pass struct {
	fabric  bool
	traced  bool
	out     []byte
	records int
	wall    time.Duration
	cpu     time.Duration
	alloc   uint64
	sim     sim.HostStats // dispatch and delivery deltas

	// Local passes: the engine's counters and, when traced, the
	// OnRunDone host time by version.
	host    exp.HostStats
	hostByV map[core.Version]int64
	// Fabric passes: the coordinator's view and the workers' engines.
	fleet    fabric.FleetSnapshot
	executed int // simulations the workers ran
	diskHits int // specs the workers served from the store

	// slow is the host's slowdown around the pass's turn (see
	// hostSlowdown): the pass's times over slow are nominal times.
	slow float64

	failed int   // records that failed the check
	err    error // the pass could not run at all
}

func (p *pass) finish(start time.Time, c0 counters) {
	p.wall = time.Since(start)
	c1 := readCounters()
	p.cpu = c1.cpu - c0.cpu
	p.alloc = c1.allocBytes - c0.allocBytes
	p.sim = sim.HostStats{
		Dispatches: c1.sim.Dispatches - c0.sim.Dispatches,
		Delivered:  c1.sim.Delivered - c0.sim.Delivered,
	}
}

func (p pass) kind() string {
	if p.fabric {
		return "fabric"
	}
	return "local"
}

// logBlock prints a finished block's passes to standard error: every
// pass that took a second or more, and per kind the medians.
func logBlock(passes []pass) {
	for _, fabric := range []bool{false, true} {
		var wall, cpu, slow []float64
		kind := "local"
		for _, p := range passes {
			if p.fabric != fabric {
				continue
			}
			kind = p.kind()
			wall = append(wall, p.wall.Seconds())
			cpu = append(cpu, p.cpu.Seconds())
			slow = append(slow, p.slow)
			if p.wall >= time.Second {
				fmt.Fprintf(os.Stderr, "hostbench: %s pass: %d records in %.3fs, cpu %.3fs, %d dispatches, %.0f MB allocated\n",
					kind, p.records, p.wall.Seconds(), p.cpu.Seconds(), p.sim.Dispatches, float64(p.alloc)/1e6)
			}
		}
		fmt.Fprintf(os.Stderr, "hostbench: %d %s passes: median %.4fs wall, %.4fs cpu, host slowdown %.3f\n",
			len(wall), kind, median(wall), median(cpu), median(slow))
	}
}

// specTags labels a per-spec span.
func specTags(s exp.Spec, source string) map[string]string {
	return map[string]string{"app": s.App, "version": string(s.Version), "source": source}
}

// local streams the grid through a fresh engine in this process. The
// engine has no store, so it simulates every spec, except that the
// first pass writes its records (and the seq baselines) through to the
// store for the fabric passes.
func (b *bench) local(tr *tracer, parent int) pass {
	traced := tr != nil
	p := pass{traced: traced}
	id := tr.begin("pass", parent, map[string]string{"kind": "local"})
	defer tr.end(id)
	e := newEngine()
	if traced {
		var mu sync.Mutex
		p.hostByV = map[core.Version]int64{}
		e.OnRunDone = func(s exp.Spec, ns int64, _ error) {
			end := time.Now()
			tr.add("spec", id, end.Add(-time.Duration(ns)), end, specTags(s, "sim"))
			mu.Lock()
			p.hostByV[s.Version] += ns
			mu.Unlock()
		}
	}
	out := bytes.NewBuffer(make([]byte, 0, len(b.cold)))
	c0 := readCounters()
	start := time.Now()
	var st *store.Store
	if b.storeDir != "" && b.cold == nil {
		var err error
		if st, err = store.Open(b.storeDir, exp.StoreOptions(0)); err != nil {
			p.err = err
			return p
		}
		e.Store = st
	}
	stats, _ := e.StreamWith(out, b.specs, nil) // failed records are counted by the check
	if st != nil {
		if err := st.Close(); err != nil {
			p.err = err
		}
	}
	p.finish(start, c0)
	p.out, p.records, p.host = out.Bytes(), stats.Records, e.HostStats()
	return p
}

// fabricWorkers is the number of in-process fabric workers a fabric
// pass starts, each with a one-simulation engine.
const fabricWorkers = 2

// fabricPass streams the grid through a Coordinator and two fresh
// fabric.Workers serving HTTP on loopback from the store. The
// coordinator's own fallback engine has no store, so any range it ends
// up running locally shows as simulations.
func (b *bench) fabricPass(tr *tracer, parent int) pass {
	traced := tr != nil
	p := pass{fabric: true, traced: traced}
	id := tr.begin("pass", parent, map[string]string{"kind": "fabric"})
	defer tr.end(id)
	out := bytes.NewBuffer(make([]byte, 0, len(b.cold)))
	c0 := readCounters()
	start := time.Now()
	st, err := store.Open(b.storeDir, exp.StoreOptions(0))
	if err != nil {
		p.err = err
		return p
	}
	fleet, err := startFleet(st)
	if err == nil {
		c := &fabric.Coordinator{
			Workers: fleet.addrs,
			Speedup: true,
			Engine:  newEngine(),
			Client:  &http.Client{Transport: fleet.transport},
		}
		var w io.Writer = out
		if traced {
			w = &mergeSpans{w: out, tr: tr, parent: id, specs: b.specs, last: time.Now()}
		}
		stats, _ := c.Run(w, b.specs) // failed records are counted by the check
		p.records, p.fleet = stats.Records, c.Snapshot()
		for _, w := range fleet.workers {
			snap := w.Progress.Snapshot()
			p.executed += snap.Executed
			p.diskHits += snap.DiskHits
		}
	}
	err = errors.Join(err, fleet.stop(), st.Close())
	p.finish(start, c0)
	p.out, p.err = out.Bytes(), err
	return p
}

// fleet is the set of in-process fabric workers of one pass.
type fleet struct {
	workers   []*fabric.Worker
	servers   []*http.Server
	addrs     []string
	transport *http.Transport
	serving   sync.WaitGroup
}

func startFleet(st *store.Store) (*fleet, error) {
	f := &fleet{transport: &http.Transport{}}
	for i := 0; i < fabricWorkers; i++ {
		w := fabric.NewWorker(nil)
		w.Workers = 1
		w.Store = st
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return f, fmt.Errorf("fabric worker: %w", err)
		}
		srv := &http.Server{Handler: w.Handler()}
		f.workers = append(f.workers, w)
		f.servers = append(f.servers, srv)
		f.addrs = append(f.addrs, ln.Addr().String())
		f.serving.Add(1)
		go func() {
			defer f.serving.Done()
			srv.Serve(ln) //nolint:errcheck // returns ErrServerClosed on stop
		}()
	}
	return f, nil
}

// stop shuts every worker server down and waits for them to exit.
func (f *fleet) stop() error {
	f.transport.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var err error
	for _, srv := range f.servers {
		err = errors.Join(err, srv.Shutdown(ctx))
	}
	f.serving.Wait()
	return err
}

// mergeSpans records one span per record the coordinator merges: the
// coordinator encodes each record with a single Write, in spec order,
// and the span covers the wait since the previous one.
type mergeSpans struct {
	w      io.Writer
	tr     *tracer
	parent int
	specs  []exp.Spec
	n      int
	last   time.Time
}

func (m *mergeSpans) Write(b []byte) (int, error) {
	now := time.Now()
	if m.n < len(m.specs) {
		m.tr.add("spec", m.parent, m.last, now, specTags(m.specs[m.n], "fabric"))
	}
	m.n++
	m.last = now
	return m.w.Write(b)
}
