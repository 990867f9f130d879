package main

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"repro/internal/exp"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/store"
)

// Layer drivers time one layer alone through its public calls, so a
// change to that layer shows without the rest of the stack around it.

// ringMsgs is the number of messages one ring run sends; it divides
// evenly among 8 and 32 processes.
const ringMsgs = 32000

// ringReps is how many ring runs each process count takes the median
// of.
const ringReps = 7

type ringResult struct {
	nsPerMsg     float64
	allocsPerMsg float64
}

// ringDriver passes messages around a ring of procs simulated
// processes (each sends to its successor, then receives from its
// predecessor) and reports host nanoseconds and heap allocations per
// message, each the median of ringReps runs.
func ringDriver(procs int) (ringResult, error) {
	var ns, allocs []float64
	for r := 0; r < ringReps; r++ {
		c := sim.New(sim.Config{
			Procs: procs, Latency: 10 * sim.Microsecond, NanosPerByte: 30,
			SendOverhead: 5 * sim.Microsecond, RecvOverhead: 5 * sim.Microsecond,
		})
		per := ringMsgs / procs
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		start := time.Now()
		err := c.Run(func(p *sim.Proc) {
			next, prev := (p.ID()+1)%procs, (p.ID()+procs-1)%procs
			for k := 0; k < per; k++ {
				p.Send(next, 1, nil, 64, stats.KindData)
				p.Recv(prev, 1)
			}
		})
		wall := time.Since(start)
		runtime.ReadMemStats(&m1)
		if err != nil {
			return ringResult{}, fmt.Errorf("ring at %d procs: %w", procs, err)
		}
		msgs := float64(per * procs)
		ns = append(ns, float64(wall.Nanoseconds())/msgs)
		allocs = append(allocs, float64(m1.Mallocs-m0.Mallocs)/msgs)
	}
	return ringResult{nsPerMsg: median(ns), allocsPerMsg: median(allocs)}, nil
}

type storeResult struct {
	openMS float64
	getUS  float64
	putUS  float64
	bytes  int64
}

// storeReps is how many opens the open time is the median of, and how
// many rounds of gets over every key the get time averages.
const storeReps = 5

// storeDriver times the store's Open, Get and Put over the entries of
// the store the fabric passes serve from: Open and Get on that store,
// Put of its own keys and values into a fresh scratch store.
func storeDriver(b *bench, scratch string) (storeResult, error) {
	keys, vals, err := storeEntries(b)
	if err != nil {
		return storeResult{}, err
	}
	var res storeResult
	putDir, err := tempDir(scratch, "put-")
	if err != nil {
		return res, err
	}
	defer os.RemoveAll(putDir)
	st, err := store.Open(putDir, exp.StoreOptions(0))
	if err != nil {
		return res, err
	}
	start := time.Now()
	for i, k := range keys {
		if err := st.Put(k, vals[i]); err != nil {
			st.Close()
			return res, err
		}
	}
	res.putUS = float64(time.Since(start).Nanoseconds()) / 1e3 / float64(len(keys))
	if err := st.Close(); err != nil {
		return res, err
	}

	var opens []float64
	for r := 0; r < storeReps; r++ {
		start := time.Now()
		st, err = store.Open(b.storeDir, exp.StoreOptions(0))
		if err != nil {
			return res, err
		}
		opens = append(opens, float64(time.Since(start).Nanoseconds())/1e6)
		if r < storeReps-1 {
			st.Close()
		}
	}
	defer st.Close()
	res.openMS = median(opens)
	start = time.Now()
	for r := 0; r < storeReps; r++ {
		for _, k := range keys {
			if _, ok := st.Get(k); !ok {
				return res, fmt.Errorf("store driver: %s missing", k)
			}
		}
	}
	res.getUS = float64(time.Since(start).Nanoseconds()) / 1e3 / float64(storeReps*len(keys))
	res.bytes = st.SizeBytes()
	return res, nil
}

// storeEntries lists the entries the store driver writes and reads.
func storeEntries(b *bench) (keys []string, vals [][]byte, err error) {
	st, err := store.Open(b.storeDir, exp.StoreOptions(0))
	if err != nil {
		return nil, nil, err
	}
	defer st.Close()
	keys = st.Keys()
	for _, k := range keys {
		v, ok := st.Get(k)
		if !ok {
			return nil, nil, fmt.Errorf("store driver: %s missing", k)
		}
		vals = append(vals, v)
	}
	return keys, vals, nil
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func tempDir(parent, prefix string) (string, error) {
	if err := os.MkdirAll(parent, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(parent, prefix)
}
