// Command hostbench measures what it costs the host to produce sweep
// records: set-up time, records per second locally and through a
// loopback fabric, and CPU per record, on two workloads that each
// load a different layer. A traced run (--trace 1) attributes host time
// to the repo's modules instead. Every record is checked against a
// committed reference; virtual results are never what it measures.
//
// Run it from the repo root through run.sh, which builds it first:
//
//	hostbench/run.sh --workload mid-grid --seed 1 --seconds 50 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. See README.md for the
// workloads and the metrics.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"

	"repro/internal/exp"
)

// outDir holds what a run leaves behind: trace dumps, profiles, and
// scratch stores while it runs. It is relative to the working
// directory, the repo root.
const outDir = ".bench_out"

func main() {
	workload := flag.String("workload", "", "workload to run: mid-grid or small-scaling")
	seed := flag.Int64("seed", 1, "seed of the grid's submission order")
	seconds := flag.Float64("seconds", 10, "length of the measured phase in seconds")
	trace := flag.Int("trace", 0, "1: traced run printing the per-layer metrics")
	refDir := flag.String("write-ref", "", "sweep the workload's canonical grid once and write its reference into this directory")
	flag.Parse()
	wl, err := workloadByName(*workload)
	if err == nil {
		if *refDir != "" {
			err = writeWorkloadRef(wl, *refDir)
		} else {
			err = run(wl, exp.AppNames(), *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "hostbench:", err)
		os.Exit(1)
	}
}

// result is the line the benchmark ends with.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(wl *workload, apps []string, seed int64, seconds time.Duration, traced bool) error {
	res, err := measureRun(wl, apps, seed, seconds, traced)
	if err != nil {
		return err
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// measureRun sets the workload up, measures it, checks every record,
// and computes the metrics of an untraced or a traced run. A traced run
// spends half its time on untraced passes and half on traced ones, so
// it can report what tracing costs.
func measureRun(wl *workload, apps []string, seed int64, seconds time.Duration, traced bool) (result, error) {
	scratch, err := tempDir(outDir, "run-")
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(scratch)
	var tr *tracer
	minLocal := 2 // specs_per_s is a median: never of one pass
	if traced {
		tr = &tracer{}
		seconds /= 2
		minLocal = 1
	}
	root := tr.begin("workload", 0, map[string]string{"workload": wl.name, "seed": fmt.Sprint(seed)})
	b, err := setup(wl, apps, seed, scratch)
	if err != nil {
		return result{}, fmt.Errorf("set-up: %w", err)
	}
	b.tr = tr
	setups, err := timeSetup(wl, apps, seed, tr, root)
	if err != nil {
		return result{}, fmt.Errorf("set-up: %w", err)
	}
	passes, err := b.block(seconds, minLocal, false, root)
	if err != nil {
		return result{}, err
	}
	if !traced {
		// Time set-up again after the phase: one moment of a shared
		// host, the start of the process, must not set setup_s alone.
		after, err := timeSetup(wl, apps, seed, nil, 0)
		if err != nil {
			return result{}, fmt.Errorf("set-up: %w", err)
		}
		attempted, failed := tally(b, passes)
		return finalize(endToEnd, endToEndValues(append(setups, after...), passes), attempted, failed)
	}

	in := layerInputs{}
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return result{}, err
	}
	more, err := b.block(seconds, 1, true, root)
	pprof.StopCPUProfile()
	if err != nil {
		return result{}, err
	}
	in.passes = append(passes, more...)
	if in.prof, err = foldProfile(prof.Bytes()); err != nil {
		return result{}, err
	}
	id := tr.begin("driver", root, map[string]string{"driver": "sim-ring"})
	if in.ring8, err = ringDriver(8); err == nil {
		in.ring32, err = ringDriver(32)
	}
	tr.end(id)
	if err != nil {
		return result{}, err
	}
	id = tr.begin("driver", root, map[string]string{"driver": "store"})
	in.store, err = storeDriver(b, scratch)
	tr.end(id)
	if err != nil {
		return result{}, err
	}
	in.attempted, in.failed = tally(b, in.passes)
	tr.end(root)

	base := filepath.Join(outDir, fmt.Sprintf("%s-seed%d", wl.name, seed))
	if err := os.WriteFile(base+".pprof", prof.Bytes(), 0o644); err != nil {
		return result{}, err
	}
	if err := tr.write(base + ".trace.json"); err != nil {
		return result{}, err
	}
	return finalize(perLayer, perLayerValues(in), in.attempted, in.failed)
}

// setup_s is the median of setupSamples timings on each side of the
// measured phase. One set-up takes a fraction of a millisecond, too
// short to time alone on a shared host, so each timing covers
// setupBatch set-ups back to back and yields their mean.
const (
	setupSamples = 15
	setupBatch   = 200
)

// timeSetup times configure in setupSamples batches, in nominal
// seconds: each timing is divided by the host's slowdown, read before
// and after the batches. Each batch starts from a collected heap, so a
// collection the passes left due does not land in one batch and not
// the next.
func timeSetup(wl *workload, apps []string, seed int64, tr *tracer, root int) ([]time.Duration, error) {
	var setups []time.Duration
	slow := hostSlowdown()
	for i := 0; i < setupSamples; i++ {
		runtime.GC()
		id := tr.begin("setup", root, nil)
		start := time.Now()
		for j := 0; j < setupBatch; j++ {
			if _, err := configure(wl, apps, seed); err != nil {
				return nil, err
			}
		}
		setups = append(setups, time.Since(start)/setupBatch)
		tr.end(id)
	}
	slow = (slow + hostSlowdown()) / 2
	for i := range setups {
		setups[i] = time.Duration(float64(setups[i]) / slow)
	}
	return setups, nil
}

// A local turn runs local passes until a tenth of the budget is spent,
// and a fabric turn runs fabric passes for a twentieth; each turn runs
// at least one pass. Fabric passes take milliseconds, so a short turn
// holds hundreds of them, and the long local passes get most of the
// budget.
const (
	localTurn  = 10
	fabricTurn = 20
)

// block runs turns of local and fabric passes, alternating, local
// first, until the next turn would overrun the budget, once the fabric
// has run and local passes have run at least minLocal times. Every pass
// starts from a collected heap, as a fresh process would, and the host
// is probed between turns. For cold workloads the first local pass
// becomes the stream every later pass must reproduce.
func (b *bench) block(budget time.Duration, minLocal int, traced bool, parent int) ([]pass, error) {
	id := b.tr.begin("block", parent, map[string]string{"traced": fmt.Sprint(traced)})
	defer b.tr.end(id)
	tr := b.tr // passes record spans only in the traced block
	if !traced {
		tr = nil
	}
	start := time.Now()
	var out []pass
	locals, fabrics := 0, 0
	lastLocal := time.Duration(0)
	slow := b.probe(id)
	for fabric := false; ; fabric = !fabric {
		turnLen := budget / localTurn
		if fabric {
			turnLen = budget / fabricTurn
		}
		turn, first := time.Now(), len(out)
		for {
			runtime.GC()
			var p pass
			if fabric {
				p = b.fabricPass(tr, id)
				fabrics++
			} else {
				p = b.local(tr, id)
				locals++
				lastLocal = p.wall
			}
			if p.err != nil {
				return out, p.err
			}
			if b.cold == nil {
				b.setCold(p.out)
			}
			// Check now and drop the bytes: a run keeps no pass output
			// but the cold stream, so its live heap stays flat.
			p.failed, p.out = b.failures(p), nil
			out = append(out, p)
			if time.Since(turn) >= turnLen {
				break
			}
		}
		after := b.probe(id)
		for i := first; i < len(out); i++ {
			out[i].slow = (slow + after) / 2
		}
		slow = after
		// The next turn is a local one after a fabric turn, and lasts
		// at least one local pass.
		next := budget / fabricTurn
		if fabric {
			next = max(budget/localTurn, lastLocal)
		}
		if locals >= minLocal && fabrics >= 1 && time.Since(start)+next > budget {
			logBlock(out)
			return out, nil
		}
	}
}

// probe reads the host's slowdown, as a span of the block.
func (b *bench) probe(parent int) float64 {
	id := b.tr.begin("probe", parent, nil)
	defer b.tr.end(id)
	return hostSlowdown()
}

// tally sums the records a run attempted and those that failed.
func tally(b *bench, passes []pass) (attempted, failed int) {
	for _, p := range passes {
		attempted += len(b.specs)
		failed += p.failed
	}
	return attempted, failed
}

// finalize pairs the values with their definitions; a value without a
// definition, or the reverse, is a bug in this file's metric tables.
func finalize(defs []metricDef, values map[string]float64, attempted, failed int) (result, error) {
	res := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			return result{}, fmt.Errorf("metric %s was not computed", d.name)
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	if len(values) != len(defs) {
		var extra []string
		for k := range values {
			if _, ok := res.Metrics[k]; !ok {
				extra = append(extra, k)
			}
		}
		sort.Strings(extra)
		return result{}, fmt.Errorf("metrics without a definition: %v", extra)
	}
	return res, nil
}

// writeWorkloadRef sweeps the canonical grid once and records it as the
// workload's reference.
func writeWorkloadRef(wl *workload, dir string) error {
	b := &bench{specs: wl.grid(exp.AppNames(), nil)}
	p := b.local(nil, 0)
	if p.err != nil {
		return p.err
	}
	if p.records != len(b.specs) {
		return errors.New("short stream")
	}
	return writeRef(filepath.Join(dir, wl.name+".json"), p.out)
}
