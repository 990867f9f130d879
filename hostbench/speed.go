package main

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// The benchmark shares its host with other work, and the host's speed
// drifts by up to 1.8× over minutes: a run taken in a slow stretch is
// slower on every metric, CPU time per record included. So the
// benchmark times probes of its own between turns and expresses every
// end-to-end time in nominal seconds, the time it would have taken on
// the host running the probes in their nominal times. The probes are
// the benchmark's own code and call nothing of the program's, so a
// change to the program moves the metrics by its full amount.
//
// Three probes cover the kinds of work the workloads lean on: a
// floating-point loop, like the application kernels; a handoff between
// two goroutines over unbuffered channels, like the simulator's
// scheduler; and building and dropping small linked objects, like the
// runtimes' and the engine's allocation, which the collector pays for.

// The probes' median times on a shared 2-core Intel Xeon VM in a quiet
// stretch; they fix what a nominal second is.
const (
	loopNominal    = 3850 * time.Microsecond
	handoffNominal = 5300 * time.Microsecond
	allocNominal   = 1430 * time.Microsecond
)

// probeReps is how many timings of each probe one reading takes the
// median of.
const probeReps = 9

// probeSink keeps the probes' results live, so the compiler keeps their
// loops.
var probeSink atomic.Uint64

// loopProbe is a dot product over two 128 KB vectors, repeated.
func loopProbe(a, b []float64) {
	s := 0.0
	for r := 0; r < 320; r++ {
		for i := range a {
			s += a[i] * b[i]
		}
		a[r] += s * 1e-12
	}
	probeSink.Add(math.Float64bits(s))
}

// handoffProbe passes a value back and forth between two goroutines
// 8000 times.
func handoffProbe() {
	ping, pong := make(chan int), make(chan int)
	go func() {
		for v := range ping {
			pong <- v + 1
		}
		close(pong)
	}()
	x := 0
	for i := 0; i < 8000; i++ {
		ping <- x
		x = <-pong
	}
	close(ping)
	<-pong
}

// allocNode is the allocation probe's object: a pointer, which the
// collector must trace, and a few words of payload.
type allocNode struct {
	next *allocNode
	val  [5]int64
}

// allocProbe allocates 40000 nodes in chains of 64, keeping up to 100
// chains live at a time.
func allocProbe() {
	var keep []*allocNode
	var head *allocNode
	for i := 0; i < 40000; i++ {
		n := &allocNode{next: head}
		n.val[0] = int64(i)
		head = n
		if i%64 == 0 {
			keep = append(keep, head)
			head = nil
		}
		if len(keep) > 100 {
			keep = keep[:0]
		}
	}
	probeSink.Add(uint64(len(keep)))
}

// hostSlowdown times each probe probeReps times and returns the
// geometric mean of their median times over their nominal times: 1 on
// a nominal host, 1.5 when the host runs half again slower. A timing of
// the loop or the handoff runs one copy per CPU at once, as the engine
// pool keeps every CPU busy, and takes the mean of the copies' times;
// the allocation probe runs one copy, as the collector it sets off
// already works on every CPU. It starts from a collected heap, so
// collecting what the last pass left behind never lands in a probe.
func hostSlowdown() float64 {
	runtime.GC()
	n := runtime.NumCPU()
	vecs := make([][2][]float64, n)
	for c := range vecs {
		a, b := make([]float64, 1<<14), make([]float64, 1<<14)
		for i := range a {
			a[i], b[i] = float64(i%97)*0.5, float64(i%89)*0.25
		}
		vecs[c] = [2][]float64{a, b}
	}
	loop := timeMedian(n, func(c int) { loopProbe(vecs[c][0], vecs[c][1]) })
	handoff := timeMedian(n, func(int) { handoffProbe() })
	alloc := timeMedian(1, func(int) { allocProbe() })
	return math.Cbrt(loop / float64(loopNominal) * handoff / float64(handoffNominal) * alloc / float64(allocNominal))
}

// timeMedian times probeReps rounds of n concurrent copies of f, each
// given its copy number, and returns the median over rounds of the
// copies' mean time, in nanoseconds.
func timeMedian(n int, f func(copy int)) float64 {
	var rounds []float64
	for r := 0; r < probeReps; r++ {
		var wg sync.WaitGroup
		var total atomic.Int64
		for c := 0; c < n; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				start := time.Now()
				f(c)
				total.Add(int64(time.Since(start)))
			}()
		}
		wg.Wait()
		rounds = append(rounds, float64(total.Load())/float64(n))
	}
	return median(rounds)
}
