package fft

import (
	"math"
	"math/cmplx"
	"sync"
	"testing"
	"testing/quick"
)

// naiveDFT is the O(n²) reference.
func naiveDFT(x []complex128, inverse bool) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	sign := -1.0
	if inverse {
		sign = 1.0
	}
	for k := 0; k < n; k++ {
		var s complex128
		for j := 0; j < n; j++ {
			ang := sign * 2 * math.Pi * float64(k*j) / float64(n)
			s += x[j] * cmplx.Exp(complex(0, ang))
		}
		out[k] = s
	}
	return out
}

func approxEqual(a, b []complex128, tol float64) bool {
	for i := range a {
		if cmplx.Abs(a[i]-b[i]) > tol {
			return false
		}
	}
	return true
}

func ramp(n int) []complex128 {
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(float64(i%7)-3, float64((i*i)%5)-2)
	}
	return x
}

func TestMatchesNaiveDFT(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8, 16, 64, 128} {
		x := ramp(n)
		want := naiveDFT(x, false)
		Forward(x)
		if !approxEqual(x, want, 1e-9*float64(n)) {
			t.Errorf("n=%d: FFT disagrees with naive DFT", n)
		}
	}
}

func TestInverseMatchesNaive(t *testing.T) {
	n := 32
	x := ramp(n)
	want := naiveDFT(x, true)
	Inverse(x)
	if !approxEqual(x, want, 1e-9*float64(n)) {
		t.Error("inverse FFT disagrees with naive inverse DFT")
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(re, im [16]float64) bool {
		x := make([]complex128, 16)
		orig := make([]complex128, 16)
		for i := range x {
			x[i] = complex(math.Mod(re[i], 100), math.Mod(im[i], 100))
			orig[i] = x[i]
		}
		Forward(x)
		Inverse(x)
		for i := range x {
			x[i] /= 16
		}
		return approxEqual(x, orig, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestParsevalProperty(t *testing.T) {
	f := func(re [32]float64) bool {
		x := make([]complex128, 32)
		var tEnergy float64
		for i := range x {
			x[i] = complex(math.Mod(re[i], 10), 0)
			tEnergy += real(x[i] * cmplx.Conj(x[i]))
		}
		Forward(x)
		var fEnergy float64
		for i := range x {
			fEnergy += real(x[i] * cmplx.Conj(x[i]))
		}
		return math.Abs(fEnergy-32*tEnergy) < 1e-6*(1+fEnergy)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestLinearityProperty(t *testing.T) {
	f := func(re1, re2 [8]float64) bool {
		a := make([]complex128, 8)
		b := make([]complex128, 8)
		sum := make([]complex128, 8)
		for i := range a {
			a[i] = complex(math.Mod(re1[i], 50), 0)
			b[i] = complex(0, math.Mod(re2[i], 50))
			sum[i] = a[i] + b[i]
		}
		Forward(a)
		Forward(b)
		Forward(sum)
		for i := range a {
			if cmplx.Abs(sum[i]-(a[i]+b[i])) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestImpulseGivesFlatSpectrum(t *testing.T) {
	x := make([]complex128, 64)
	x[0] = 1
	Forward(x)
	for i, v := range x {
		if cmplx.Abs(v-1) > 1e-12 {
			t.Fatalf("X[%d] = %v, want 1", i, v)
		}
	}
}

func TestNonPowerOfTwoPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for n=12")
		}
	}()
	Transform(make([]complex128, 12), false)
}

func TestButterflies(t *testing.T) {
	cases := map[int]int{1: 0, 2: 1, 4: 4, 8: 12, 128: 448, 64: 192}
	for n, want := range cases {
		if got := Butterflies(n); got != want {
			t.Errorf("Butterflies(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestPow2(t *testing.T) {
	for n, want := range map[int]bool{1: true, 2: true, 3: false, 64: true, 0: false, -4: false, 96: false} {
		if Pow2(n) != want {
			t.Errorf("Pow2(%d) = %v", n, Pow2(n))
		}
	}
}

// TestConcurrentTransform runs forward/inverse round trips over every
// size 2..1024 from several goroutines at once, as concurrent
// simulations do; under -race it checks the shared twiddle cache.
func TestConcurrentTransform(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 2; n <= 1024; n <<= 1 {
				x := ramp(n)
				Forward(x)
				Inverse(x)
				for i := range x {
					x[i] /= complex(float64(n), 0)
				}
				if !approxEqual(x, ramp(n), 1e-9*float64(n)) {
					t.Errorf("n=%d: round trip disagrees", n)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func BenchmarkTransform128(b *testing.B) {
	x := ramp(128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Forward(x)
	}
}
