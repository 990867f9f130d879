package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"repro/internal/exp"
)

// inTempDir runs the test from a fresh directory, so the .bench_out a
// run leaves behind lands there.
func inTempDir(t *testing.T) {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(wd) }) //nolint:errcheck // best effort in cleanup
}

// benchmarkJSON is the part of the repo's BENCHMARK.json the printed
// metrics must agree with.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	bj := readBenchmarkJSON(t)
	var e2e, layer []metricDef
	for _, m := range bj.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit})
	}
	for _, m := range bj.PerLayer {
		layer = append(layer, metricDef{m.Name, m.Unit})
	}
	sameDefs(t, "end_to_end", e2e, endToEnd)
	sameDefs(t, "per_layer", layer, perLayer)
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	var ours []string
	for _, w := range workloads {
		ours = append(ours, w.name)
	}
	if strings.Join(names, ",") != strings.Join(ours, ",") {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, ours)
	}
}

func sameDefs(t *testing.T, what string, json, code []metricDef) {
	t.Helper()
	want := map[metricDef]bool{}
	for _, d := range json {
		want[d] = true
	}
	for _, d := range code {
		if !want[d] {
			t.Errorf("%s: the benchmark prints %s (%s), BENCHMARK.json does not list it", what, d.name, d.unit)
		}
		delete(want, d)
	}
	for d := range want {
		t.Errorf("%s: BENCHMARK.json lists %s (%s), the benchmark does not print it", what, d.name, d.unit)
	}
}

// TestSmokeWorkloads runs each workload on one application's block of
// its grid, untraced and traced, and checks the printed line.
func TestSmokeWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates every workload")
	}
	inTempDir(t)
	for _, wl := range workloads {
		for _, traced := range []bool{false, true} {
			res, err := measureRun(wl, []string{"Jacobi"}, 7, time.Millisecond, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", wl.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d",
					wl.name, traced, res.Correct, res.Attempted, res.Failed)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics, want %d", wl.name, traced, len(res.Metrics), len(defs))
			}
			if traced {
				if n := res.Metrics["fabric.local_records"].Value; n != 0 {
					t.Errorf("%s: %v records ran on the coordinator", wl.name, n)
				}
				if res.Metrics["exp.store_hits"].Value == 0 {
					t.Errorf("%s: fabric passes served nothing from the store", wl.name)
				}
				if v := res.Metrics["bench.host_slowdown"].Value; !(v > 0) {
					t.Errorf("%s: host slowdown %v", wl.name, v)
				}
			} else if res.Metrics["setup_s"].Value <= 0 || res.Metrics["specs_per_s"].Value <= 0 {
				t.Errorf("%s: non-positive end-to-end metric: %+v", wl.name, res.Metrics)
			}
		}
		if _, err := os.Stat(filepath.Join(outDir, wl.name+"-seed7.trace.json")); err != nil {
			t.Errorf("%s: no span dump: %v", wl.name, err)
		}
	}
}

// TestTamperedRecordFails checks that the correctness check counts a
// record whose virtual result differs from the reference, and a pass
// that broke a pass-wide rule.
func TestTamperedRecordFails(t *testing.T) {
	wl, err := workloadByName("small-scaling")
	if err != nil {
		t.Fatal(err)
	}
	ref, err := loadRef(wl.name)
	if err != nil {
		t.Fatal(err)
	}
	specs := wl.grid([]string{"Jacobi"}, rand.New(rand.NewSource(3)))
	b := &bench{specs: specs, ref: ref}
	p := b.local(nil, 0)
	if p.err != nil {
		t.Fatal(p.err)
	}
	b.setCold(p.out)
	if failed := b.failures(p); failed != 0 {
		t.Fatalf("untampered pass: %d failed records", failed)
	}

	tamper := func(out []byte) []byte {
		lines := splitLines(out)
		var rec map[string]any
		if err := json.Unmarshal(lines[2], &rec); err != nil {
			t.Fatal(err)
		}
		rec["checksum"] = rec["checksum"].(float64) + 1
		b, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		lines[2] = b
		return append(bytes.Join(lines, []byte("\n")), '\n')
	}

	later := p
	later.out = tamper(p.out)
	if failed := b.failures(later); failed != 1 {
		t.Errorf("one tampered record in a later pass: %d failed, want 1", failed)
	}

	badCold := &bench{specs: specs, ref: ref}
	badCold.setCold(tamper(p.out))
	first := p
	first.out = badCold.cold
	if failed := badCold.failures(first); failed != 1 {
		t.Errorf("tampered cold stream: %d failed, want 1", failed)
	}

	fallback := p
	fallback.fabric = true
	fallback.diskHits = exp.UniqueRuns(specs, true)
	fallback.fleet.LocalRecords = 4
	if failed := b.failures(fallback); failed != len(specs) {
		t.Errorf("fabric pass with local records: %d failed, want %d", failed, len(specs))
	}

	simulated := p
	simulated.fabric = true
	simulated.executed = 1
	if failed := b.failures(simulated); failed != len(specs) {
		t.Errorf("fabric pass that simulated: %d failed, want %d", failed, len(specs))
	}
}

// TestReferenceAgreesWithBench6 holds the committed references to the
// repo's exact virtual-result gate wherever the two share a spec.
func TestReferenceAgreesWithBench6(t *testing.T) {
	f, err := os.Open(filepath.Join("..", "BENCH_6.json"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	refs := map[string]refRecord{}
	for _, wl := range workloads {
		ref, err := loadRef(wl.name)
		if err != nil {
			t.Fatal(err)
		}
		if len(ref) != len(wl.grid(exp.AppNames(), nil)) {
			t.Errorf("%s: reference has %d records, grid %d", wl.name, len(ref), len(wl.grid(exp.AppNames(), nil)))
		}
		for k, r := range ref {
			refs[k] = r
		}
	}
	shared := 0
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		rec, err := exp.ValidateLine(sc.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		r, ok := refs[rec.Key()]
		if !ok {
			continue
		}
		shared++
		if r.TimeNS != rec.TimeNanos || r.Msgs != rec.Msgs || r.Bytes != rec.Bytes || r.Checksum != rec.Checksum || r.SeqNS != rec.SeqNanos {
			t.Errorf("%s: reference %+v disagrees with BENCH_6.json", rec.Key(), r)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if shared == 0 {
		t.Error("no spec shared with BENCH_6.json")
	}
}

// TestNominalTimes checks that end-to-end times are divided by the
// host slowdown read around each pass: a pass on a host 1.5× slow counts
// as two thirds of its wall and CPU time.
func TestNominalTimes(t *testing.T) {
	p := pass{records: 10, wall: 2 * time.Second, cpu: 3 * time.Second, slow: 1.5}
	f := pass{fabric: true, records: 30, wall: 100 * time.Millisecond, slow: 1.5}
	v := endToEndValues([]time.Duration{3 * time.Millisecond}, []pass{p, f})
	for name, want := range map[string]float64{"specs_per_s": 7.5, "cpu_ms_per_spec": 200, "fabric_specs_per_s": 450} {
		if got := v[name]; got < want*0.999 || got > want*1.001 {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
}

func TestLayerOf(t *testing.T) {
	for _, tc := range []struct{ fn, layer, app string }{
		{"repro/internal/apps/mgs.dot64", "apps", "mgs"},
		{"repro/internal/apps/apputil.RunTmk.func1", "apps", ""},
		{"repro/internal/fft.(*Plan).Transform", "apps", "fft3d"},
		{"repro/internal/sim.(*Cluster).Run", "sim", ""},
		{"repro/internal/proto.(*homeless).Fault", "proto", ""},
		{"repro/internal/loopc/gen.AppForSeed", "other", ""},
		{"main.main", "bench", ""},
		{"repro/hostbench.measureRun", "bench", ""},
	} {
		layer, app, ok := layerOf(tc.fn)
		if !ok || layer != tc.layer || app != tc.app {
			t.Errorf("layerOf(%q) = %q, %q, %v; want %q, %q", tc.fn, layer, app, ok, tc.layer, tc.app)
		}
	}
	if _, _, ok := layerOf("runtime.mallocgc"); ok {
		t.Error("runtime frames must not be charged to a repo module")
	}
}

// TestFoldProfile folds a real CPU profile of this test's own busy loop:
// the decoder must find the samples and charge them to the benchmark.
func TestFoldProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiler busy:", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	f, err := foldProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if f.totalNS == 0 {
		t.Fatal("no samples")
	}
	if f.frac("bench") < 0.5 {
		t.Errorf("bench share %.2f of a profile of the test's own loop; layers %v", f.frac("bench"), f.layer)
	}
}

var sink uint64

func spin(d time.Duration) {
	x := uint64(1)
	for start := time.Now(); time.Since(start) < d; {
		for i := 0; i < 1e5; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	sink = x
}
