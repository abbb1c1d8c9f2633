package stats

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

func TestNextPow2(t *testing.T) {
	cases := map[int]int{0: 1, 1: 1, 2: 2, 3: 4, 4: 4, 5: 8, 1000: 1024}
	for n, want := range cases {
		if got := NextPow2(n); got != want {
			t.Errorf("NextPow2(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestFFTKnownValues(t *testing.T) {
	// DFT of [1,0,0,0] is [1,1,1,1].
	X, err := FFT([]complex128{1, 0, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range X {
		if cmplx.Abs(v-1) > 1e-12 {
			t.Errorf("X[%d] = %v, want 1", i, v)
		}
	}
	// DFT of a constant is an impulse at DC.
	X, err = FFT([]complex128{2, 2, 2, 2})
	if err != nil {
		t.Fatal(err)
	}
	if cmplx.Abs(X[0]-8) > 1e-12 {
		t.Errorf("DC bin = %v, want 8", X[0])
	}
	for i := 1; i < 4; i++ {
		if cmplx.Abs(X[i]) > 1e-12 {
			t.Errorf("bin %d = %v, want 0", i, X[i])
		}
	}
}

func TestFFTErrors(t *testing.T) {
	if _, err := FFT(nil); err == nil {
		t.Error("empty FFT should fail")
	}
	if _, err := FFT(make([]complex128, 3)); err == nil {
		t.Error("non-power-of-two FFT should fail")
	}
}

func TestFFTRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	x := make([]complex128, 64)
	for i := range x {
		x[i] = complex(r.NormFloat64(), r.NormFloat64())
	}
	X, err := FFT(x)
	if err != nil {
		t.Fatal(err)
	}
	y, err := IFFT(X)
	if err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if cmplx.Abs(x[i]-y[i]) > 1e-9 {
			t.Fatalf("round trip diverged at %d: %v vs %v", i, x[i], y[i])
		}
	}
}

func TestFFTParseval(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	x := make([]complex128, 128)
	var timeEnergy float64
	for i := range x {
		x[i] = complex(r.NormFloat64(), 0)
		timeEnergy += real(x[i]) * real(x[i])
	}
	X, err := FFT(x)
	if err != nil {
		t.Fatal(err)
	}
	var freqEnergy float64
	for _, v := range X {
		freqEnergy += cmplx.Abs(v) * cmplx.Abs(v)
	}
	freqEnergy /= float64(len(x))
	if math.Abs(timeEnergy-freqEnergy) > 1e-6*timeEnergy {
		t.Errorf("Parseval violated: time %v vs freq %v", timeEnergy, freqEnergy)
	}
}

func TestFFTDoesNotMutateInput(t *testing.T) {
	x := []complex128{1, 2, 3, 4}
	if _, err := FFT(x); err != nil {
		t.Fatal(err)
	}
	if x[0] != 1 || x[3] != 4 {
		t.Error("FFT mutated its input")
	}
}

func TestPowerSpectrumPeak(t *testing.T) {
	// A pure sine with period 16 over 128 samples: the peak bin must be
	// k = 128/16 = 8.
	xs := make([]float64, 128)
	for i := range xs {
		xs[i] = 10 + 5*math.Sin(2*math.Pi*float64(i)/16)
	}
	ps, err := PowerSpectrum(xs)
	if err != nil {
		t.Fatal(err)
	}
	best := 0
	for k := 1; k < len(ps); k++ {
		if ps[k] > ps[best] {
			best = k
		}
	}
	if best != 8 {
		t.Errorf("peak bin = %d, want 8", best)
	}
	if _, err := PowerSpectrum(nil); err == nil {
		t.Error("empty spectrum should fail")
	}
}

func TestDominantPeriodSine(t *testing.T) {
	xs := make([]float64, 120)
	for i := range xs {
		xs[i] = 40 + 20*math.Sin(2*math.Pi*float64(i)/24)
	}
	p, s := DominantPeriod(xs)
	// Zero padding to 128 shifts the bin slightly; accept 21-27.
	if p < 21 || p > 27 {
		t.Errorf("period = %d, want ~24", p)
	}
	if s < 0.5 {
		t.Errorf("strength = %v, want dominant (> 0.5)", s)
	}
}

func TestDominantPeriodNoise(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	xs := make([]float64, 128)
	for i := range xs {
		xs[i] = r.NormFloat64()
	}
	_, s := DominantPeriod(xs)
	if s > 0.4 {
		t.Errorf("white noise strength = %v, want weak", s)
	}
}

func TestDominantPeriodDegenerate(t *testing.T) {
	if p, s := DominantPeriod([]float64{1, 2}); p != 0 || s != 0 {
		t.Error("short series should return (0,0)")
	}
	if p, s := DominantPeriod(make([]float64, 64)); p != 0 || s != 0 {
		t.Errorf("constant series should return (0,0), got (%d,%v)", p, s)
	}
}

// fftGoldenLengths lists every length 1..64 plus each power of two up to
// 4096 and its two neighbours, so zero padding is exercised at every size.
func fftGoldenLengths() []int {
	var ns []int
	for n := 1; n <= 64; n++ {
		ns = append(ns, n)
	}
	for p := 128; p <= 4096; p <<= 1 {
		ns = append(ns, p-1, p, p+1)
	}
	return ns
}

// TestFFTGolden pins FFT, PowerSpectrum and DominantPeriod to the bit for
// every power-of-two size 1..4096 (and the spectra for the lengths of
// fftGoldenLengths): a changed digest is a changed twiddle or butterfly,
// which would move the elastic-scaling study's signature predictor.
func TestFFTGolden(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	signal := make([]float64, 4097)
	for i := range signal {
		signal[i] = 50 + 20*math.Sin(2*math.Pi*float64(i)/37) + 5*r.NormFloat64()
	}
	h := sha256.New()
	put := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for n := 1; n <= 4096; n <<= 1 {
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(signal[i], signal[len(signal)-1-i])
		}
		X, err := FFT(x)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range X {
			put(math.Float64bits(real(v)))
			put(math.Float64bits(imag(v)))
		}
	}
	if got, want := hex.EncodeToString(h.Sum(nil)), "f5cc394aa389a1cddf2e625021ec157b9c049e40f415fe7216954b72600aaf82"; got != want {
		t.Errorf("FFT digest %s, want %s", got, want)
	}

	h.Reset()
	for _, n := range fftGoldenLengths() {
		ps, err := PowerSpectrum(signal[:n])
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range ps {
			put(math.Float64bits(v))
		}
	}
	if got, want := hex.EncodeToString(h.Sum(nil)), "b16132ea4d95641e8ae133befc1ce5c1a2f66eb70eb850376809f0722b7ae1be"; got != want {
		t.Errorf("PowerSpectrum digest %s, want %s", got, want)
	}

	h.Reset()
	for _, n := range fftGoldenLengths() {
		p, s := DominantPeriod(signal[:n])
		put(uint64(p))
		put(math.Float64bits(s))
	}
	if got, want := hex.EncodeToString(h.Sum(nil)), "48d92397fc97f042f08cadb6e5004004935b6a581d97a4a97d46c6e927183d3c"; got != want {
		t.Errorf("DominantPeriod digest %s, want %s", got, want)
	}
}
