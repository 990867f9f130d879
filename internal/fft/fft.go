// Package fft provides the radix-2 complex FFT used by the 3-D FFT
// application (the NAS FT kernel of the paper §5.4). It is a standard
// iterative in-place Cooley-Tukey transform; all problem dimensions in
// the paper (128, 128, 64) are powers of two.
package fft

import (
	"math"
	"math/bits"
	"sync/atomic"
)

// twiddleCache memoizes per-size twiddle tables, indexed by direction
// (0 forward, 1 inverse) and log2 of the size. The simulator runs the
// same transform sizes millions of times, and regenerating twiddles
// dominates otherwise. Concurrent simulations share it, so each slot is
// an atomic pointer: two racing first calls build equal tables and
// either store wins.
var twiddleCache [2][64]atomic.Pointer[[]complex128]

// twiddles returns the table for a power-of-two n.
func twiddles(n int, inverse bool) []complex128 {
	dir, sign := 0, -1.0
	if inverse {
		dir, sign = 1, 1.0
	}
	slot := &twiddleCache[dir][bits.TrailingZeros(uint(n))]
	if tw := slot.Load(); tw != nil {
		return *tw
	}
	tw := make([]complex128, n/2)
	for i := range tw {
		ang := sign * 2 * math.Pi * float64(i) / float64(n)
		tw[i] = complex(math.Cos(ang), math.Sin(ang))
	}
	slot.Store(&tw)
	return tw
}

// Pow2 reports whether n is a positive power of two.
func Pow2(n int) bool { return n > 0 && n&(n-1) == 0 }

// Transform computes the in-place DFT of x. len(x) must be a power of
// two. inverse computes the unnormalized inverse (divide by len(x) to
// invert a forward transform).
func Transform(x []complex128, inverse bool) {
	n := len(x)
	if n <= 1 {
		return
	}
	if !Pow2(n) {
		panic("fft: length must be a power of two")
	}
	// Bit-reversal permutation.
	for i, j := 1, 0; i < n; i++ {
		bit := n >> 1
		for ; j&bit != 0; bit >>= 1 {
			j ^= bit
		}
		j |= bit
		if i < j {
			x[i], x[j] = x[j], x[i]
		}
	}
	tw := twiddles(n, inverse)
	for size := 2; size <= n; size <<= 1 {
		half := size >> 1
		step := n / size
		for base := 0; base < n; base += size {
			k := 0
			for off := 0; off < half; off++ {
				u := x[base+off]
				v := x[base+off+half] * tw[k]
				x[base+off] = u + v
				x[base+off+half] = u - v
				k += step
			}
		}
	}
}

// Butterflies returns the number of butterfly operations Transform
// performs for length n: (n/2)·log2(n). Used for virtual-time charging.
func Butterflies(n int) int {
	if n <= 1 {
		return 0
	}
	lg := 0
	for m := n; m > 1; m >>= 1 {
		lg++
	}
	return n / 2 * lg
}

// Forward computes the in-place forward DFT.
func Forward(x []complex128) { Transform(x, false) }

// Inverse computes the in-place unnormalized inverse DFT.
func Inverse(x []complex128) { Transform(x, true) }
