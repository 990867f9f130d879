package main

import (
	"runtime"
	"syscall"
	"time"

	"repro/internal/core"
)

// metricDef names one printed metric and its unit. BENCHMARK.json at
// the repo root lists the same names; the tests hold the two together.
type metricDef struct {
	name string
	unit string
}

// endToEnd are the metrics an untraced run prints.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"specs_per_s", "records/s"},
	{"fabric_specs_per_s", "records/s"},
	{"cpu_ms_per_spec", "ms"},
}

// appPackages are the application packages under internal/apps, the
// names of the apps.<app>.self_s metrics.
var appPackages = []string{"mgs", "shallow", "jacobi", "fft3d", "igrid", "nbf", "rbsor"}

// foldLayers are the modules the CPU profile is folded into, each
// printed as <layer>.self_frac.
var foldLayers = []string{"sim", "apps", "tmk", "proto", "spf", "xhpf", "pvm",
	"exp", "store", "fabric", "gc", "bench", "other"}

// perLayer are the metrics a traced run prints.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"sim.dispatches", "count"},
		{"sim.delivered", "count"},
		{"sim.ns_per_dispatch", "ns"},
		{"sim.ring_ns_per_msg_p8", "ns"},
		{"sim.ring_ns_per_msg_p32", "ns"},
		{"sim.ring_allocs_per_msg", "count"},
		{"apps.seq_host_s", "s"},
	}
	for _, a := range appPackages {
		defs = append(defs, metricDef{"apps." + a + ".self_s", "s"})
	}
	defs = append(defs,
		metricDef{"tmk.host_s", "s"},
		metricDef{"spf.host_s", "s"},
		metricDef{"xhpf.host_s", "s"},
		metricDef{"pvm.host_s", "s"},
		metricDef{"exp.runs", "count"},
		metricDef{"exp.store_hits", "count"},
		metricDef{"exp.worker_busy_frac", "ratio"},
		metricDef{"store.open_ms", "ms"},
		metricDef{"store.get_us", "us"},
		metricDef{"store.put_us", "us"},
		metricDef{"store.bytes", "bytes"},
		metricDef{"fabric.duplicate_frac", "ratio"},
		metricDef{"fabric.leases", "count"},
		metricDef{"fabric.local_records", "count"},
		metricDef{"fabric.alloc_mb_per_record", "MB"},
		metricDef{"gc.alloc_mb_per_spec", "MB"},
		metricDef{"gc.peak_rss_mb", "MB"},
		metricDef{"trace.overhead_frac", "ratio"},
		metricDef{"failed_frac", "ratio"},
		metricDef{"bench.host_slowdown", "ratio"},
	)
	for _, l := range foldLayers {
		defs = append(defs, metricDef{l + ".self_frac", "ratio"})
	}
	return defs
}()

// split sorts a run's passes by kind.
func split(passes []pass, fabric, traced bool) []pass {
	var out []pass
	for _, p := range passes {
		if p.fabric == fabric && p.traced == traced {
			out = append(out, p)
		}
	}
	return out
}

// rates is the records per nominal second of each pass.
func rates(ps []pass) []float64 {
	var out []float64
	for _, p := range ps {
		out = append(out, float64(p.records)*p.slow/p.wall.Seconds())
	}
	return out
}

// endToEndValues computes the untraced run's metrics: medians over its
// passes, so one pass disturbed by the host does not move them, of
// times in nominal seconds (see hostSlowdown).
func endToEndValues(setup []time.Duration, passes []pass) map[string]float64 {
	local, fab := split(passes, false, false), split(passes, true, false)
	var setupS, cpu []float64
	for _, d := range setup {
		setupS = append(setupS, d.Seconds())
	}
	for _, p := range local {
		cpu = append(cpu, float64(p.cpu.Nanoseconds())/1e6/p.slow/float64(p.records))
	}
	return map[string]float64{
		"setup_s":            median(setupS),
		"specs_per_s":        median(rates(local)),
		"fabric_specs_per_s": median(rates(fab)),
		"cpu_ms_per_spec":    median(cpu),
	}
}

// layerInputs is everything a traced run measured.
type layerInputs struct {
	passes    []pass
	prof      fold
	ring8     ringResult
	ring32    ringResult
	store     storeResult
	failed    int
	attempted int
}

// perLayerValues computes the traced run's metrics. Per-pass figures
// come from the traced passes, which the CPU profile covers; the
// untraced passes of the same run give the fabric and tracing
// overheads.
func perLayerValues(in layerInputs) map[string]float64 {
	local, fab := split(in.passes, false, true), split(in.passes, true, true)
	uLocal := split(in.passes, false, false)
	traced := append(append([]pass(nil), local...), fab...)

	v := map[string]float64{}
	var dispatches, delivered []float64
	var simDispatches int64
	for _, p := range local {
		dispatches = append(dispatches, float64(p.sim.Dispatches))
		delivered = append(delivered, float64(p.sim.Delivered))
	}
	for _, p := range traced {
		simDispatches += p.sim.Dispatches
	}
	v["sim.dispatches"] = median(dispatches)
	v["sim.delivered"] = median(delivered)
	v["sim.ns_per_dispatch"] = 0
	if simDispatches > 0 {
		v["sim.ns_per_dispatch"] = float64(in.prof.layer["sim"]) / float64(simDispatches)
	}
	v["sim.ring_ns_per_msg_p8"] = in.ring8.nsPerMsg
	v["sim.ring_ns_per_msg_p32"] = in.ring32.nsPerMsg
	v["sim.ring_allocs_per_msg"] = in.ring8.allocsPerMsg

	byVersion := map[core.Version]int64{}
	var busy, poolNS int64
	var alloc uint64
	records := 0
	for _, p := range local {
		for ver, ns := range p.hostByV {
			byVersion[ver] += ns
		}
		busy += p.host.WorkerBusyNS
		poolNS += int64(runtime.NumCPU()) * p.wall.Nanoseconds()
		alloc += p.alloc
		records += p.records
	}
	// Kernels run only in local passes: the fabric passes are served
	// from the store, so application time is per traced local pass.
	perLocal := func(ns int64) float64 { return float64(ns) / 1e9 / float64(len(local)) }
	v["apps.seq_host_s"] = perLocal(byVersion[core.Seq])
	for _, a := range appPackages {
		v["apps."+a+".self_s"] = perLocal(in.prof.app[a])
	}
	v["tmk.host_s"] = perLocal(byVersion[core.Tmk])
	v["spf.host_s"] = perLocal(byVersion[core.SPF])
	v["xhpf.host_s"] = perLocal(byVersion[core.XHPF])
	v["pvm.host_s"] = perLocal(byVersion[core.PVMe])

	var storeHits []float64
	for _, p := range fab {
		storeHits = append(storeHits, float64(p.diskHits))
	}
	v["exp.runs"] = float64(local[len(local)-1].host.RunsCompleted)
	v["exp.store_hits"] = median(storeHits)
	// Busy time over the pool's whole wall time: a worker idling while
	// another finishes the sweep's tail counts as idle.
	v["exp.worker_busy_frac"] = float64(busy) / float64(poolNS)

	v["store.open_ms"] = in.store.openMS
	v["store.get_us"] = in.store.getUS
	v["store.put_us"] = in.store.putUS
	v["store.bytes"] = float64(in.store.bytes)

	var dup, leases, localRecs, fabRecords int64
	var fabAlloc uint64
	for _, p := range fab {
		dup += p.fleet.DuplicateRecords
		fabRecords += int64(p.records)
		fabAlloc += p.alloc
		for _, w := range p.fleet.Workers {
			leases += w.Leases
		}
	}
	for _, p := range in.passes {
		localRecs += p.fleet.LocalRecords
	}
	v["fabric.duplicate_frac"] = float64(dup) / float64(fabRecords)
	v["fabric.leases"] = float64(leases) / float64(len(fab))
	v["fabric.local_records"] = float64(localRecs)
	v["fabric.alloc_mb_per_record"] = float64(fabAlloc) / 1e6 / float64(fabRecords)

	v["gc.alloc_mb_per_spec"] = float64(alloc) / 1e6 / float64(records)
	v["gc.peak_rss_mb"] = peakRSSMB()
	v["trace.overhead_frac"] = median(rates(uLocal))/median(rates(local)) - 1
	v["failed_frac"] = float64(in.failed) / float64(in.attempted)
	var slow []float64
	for _, p := range in.passes {
		slow = append(slow, p.slow)
	}
	v["bench.host_slowdown"] = median(slow)
	for _, l := range foldLayers {
		v[l+".self_frac"] = in.prof.frac(l)
	}
	return v
}

// peakRSSMB is the process's resident-set high-water mark.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru) //nolint:errcheck // RUSAGE_SELF cannot fail
	return float64(ru.Maxrss) / 1024            // kilobytes on Linux
}
