package stats

import (
	"fmt"
	"math"
	"math/bits"
	"math/cmplx"
	"sync"
)

// This file implements the small signal-processing kernel CloudScale's
// demand predictor needs (the paper's reference [8] extracts repeating
// patterns — "signatures" — from per-VM demand series with an FFT): an
// iterative radix-2 FFT, the inverse transform, a power spectrum and
// dominant-period detection.
//
// The signature predictor transforms a window every simulated step, so the
// butterfly twiddle factors of each radix-2 stage size are computed once
// per process and cached (see twiddles) rather than per butterfly. Each
// factor is the same cmplx.Exp(complex(0, step*k)) evaluation, so a
// transform's output does not depend on whether its tables were cached.

// NextPow2 returns the smallest power of two >= n (and 1 for n <= 1).
func NextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// FFT computes the discrete Fourier transform of x using an iterative
// radix-2 Cooley-Tukey algorithm. len(x) must be a power of two (use
// NextPow2 + zero padding). The input is not modified.
func FFT(x []complex128) ([]complex128, error) {
	n := len(x)
	if n == 0 {
		return nil, fmt.Errorf("stats: FFT of empty input")
	}
	if n&(n-1) != 0 {
		return nil, fmt.Errorf("stats: FFT length %d is not a power of two", n)
	}
	out := make([]complex128, n)
	// Bit-reversal permutation.
	shift := 64 - bits.TrailingZeros(uint(n))
	for i, v := range x {
		out[bits.Reverse64(uint64(i))>>shift] = v
	}
	// Butterflies.
	for size := 2; size <= n; size <<= 1 {
		half := size / 2
		tw := twiddles(size)
		for start := 0; start < n; start += size {
			for k, w := range tw {
				a := out[start+k]
				b := out[start+k+half] * w
				out[start+k] = a + b
				out[start+k+half] = a - b
			}
		}
	}
	return out, nil
}

// Twiddle tables, indexed by log2 of the stage size. A table is built
// once, on first use, and only read afterwards.
var (
	twiddleOnce [64]sync.Once
	twiddleTab  [64][]complex128
)

// twiddles returns the size/2 factors exp(-2*pi*i*k/size), k < size/2, of
// one radix-2 butterfly stage; size must be a power of two >= 2.
func twiddles(size int) []complex128 {
	lg := bits.TrailingZeros(uint(size))
	twiddleOnce[lg].Do(func() {
		step := -2 * math.Pi / float64(size)
		w := make([]complex128, size/2)
		for k := range w {
			w[k] = cmplx.Exp(complex(0, step*float64(k)))
		}
		twiddleTab[lg] = w
	})
	return twiddleTab[lg]
}

// IFFT computes the inverse transform. len(X) must be a power of two.
func IFFT(X []complex128) ([]complex128, error) {
	n := len(X)
	conj := make([]complex128, n)
	for i, v := range X {
		conj[i] = cmplx.Conj(v)
	}
	y, err := FFT(conj)
	if err != nil {
		return nil, err
	}
	for i := range y {
		y[i] = cmplx.Conj(y[i]) / complex(float64(n), 0)
	}
	return y, nil
}

// PowerSpectrum returns |X_k|^2 / n for k = 0..n/2 of the mean-removed,
// zero-padded series (bin 0 is therefore ~0). The returned slice has
// NextPow2(len(xs))/2 + 1 entries.
func PowerSpectrum(xs []float64) ([]float64, error) {
	if len(xs) == 0 {
		return nil, fmt.Errorf("stats: PowerSpectrum of empty input")
	}
	mean := Mean(xs)
	n := NextPow2(len(xs))
	buf := make([]complex128, n)
	for i, v := range xs {
		buf[i] = complex(v-mean, 0)
	}
	X, err := FFT(buf)
	if err != nil {
		return nil, err
	}
	half := n/2 + 1
	ps := make([]float64, half)
	for k := 0; k < half; k++ {
		m := cmplx.Abs(X[k])
		ps[k] = m * m / float64(n)
	}
	return ps, nil
}

// DominantPeriod finds the strongest periodic component of xs. It returns
// the period in samples and its strength: the fraction of total spectral
// power concentrated in that frequency bin (0..1). A short or constant
// series returns (0, 0).
func DominantPeriod(xs []float64) (period int, strength float64) {
	if len(xs) < 4 {
		return 0, 0
	}
	ps, err := PowerSpectrum(xs)
	if err != nil {
		return 0, 0
	}
	var total float64
	bestK := 0
	var bestP float64
	for k := 1; k < len(ps); k++ { // skip DC
		total += ps[k]
		if ps[k] > bestP {
			bestP, bestK = ps[k], k
		}
	}
	if total <= 0 || bestK == 0 {
		return 0, 0
	}
	n := NextPow2(len(xs))
	period = int(math.Round(float64(n) / float64(bestK)))
	if period < 2 || period > len(xs)/2 {
		return 0, 0
	}
	// Zero padding to a power of two quantizes the frequency grid and can
	// bias the period by several samples; refine against the actual series
	// with an autocorrelation search around the FFT candidate.
	period = RefinePeriodACF(xs, period)
	return period, bestP / total
}

// RefinePeriodACF returns the lag within +/-30% of candidate that
// maximizes the series' normalized autocorrelation. It returns the
// candidate unchanged when the series is too short or constant.
func RefinePeriodACF(xs []float64, candidate int) int {
	n := len(xs)
	if candidate < 2 || n < 2*candidate {
		return candidate
	}
	mean := Mean(xs)
	var denom float64
	for _, x := range xs {
		d := x - mean
		denom += d * d
	}
	if denom <= 0 {
		return candidate
	}
	lo := candidate - candidate*3/10
	hi := candidate + candidate*3/10
	if lo < 2 {
		lo = 2
	}
	if hi > n/2 {
		hi = n / 2
	}
	best, bestR := candidate, math.Inf(-1)
	for lag := lo; lag <= hi; lag++ {
		var num float64
		for i := lag; i < n; i++ {
			num += (xs[i] - mean) * (xs[i-lag] - mean)
		}
		if r := num / denom; r > bestR {
			bestR, best = r, lag
		}
	}
	return best
}
