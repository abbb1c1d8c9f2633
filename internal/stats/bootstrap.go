package stats

import (
	"errors"
	"fmt"

	"virtover/internal/simrand"
)

// CoefCI holds pointwise bootstrap confidence intervals for regression
// coefficients (intercept first when the fit has one).
type CoefCI struct {
	Point []float64 // coefficients of the full-data fit
	Lo    []float64 // lower confidence bounds
	Hi    []float64 // upper confidence bounds
	Conf  float64   // confidence level, e.g. 0.9
	B     int       // bootstrap replicates
}

// BootstrapOLS computes percentile bootstrap confidence intervals for OLS
// coefficients by resampling observations with replacement B times and
// refitting. conf is the two-sided confidence level in (0,1); B <= 0
// selects 200 replicates. Replicates whose resample is rank deficient take
// the same ridge-stabilized fallback as OLS and are skipped only when that
// fails too; an error is returned when fewer than half survive.
//
// Each replicate solves for the coefficients alone: the drawn rows (one
// prepared simrand Bounded draw, the Intn(n) sequence) are copied out of
// the full design matrix into one reused resample matrix and solved with
// one reused LeastSquares, so a replicate allocates nothing on the QR path
// and no residual diagnostics are computed. The arithmetic is exactly
// OLS's, so the intervals match refitting OLS per replicate to the bit.
func BootstrapOLS(xs [][]float64, ys []float64, intercept bool, B int, conf float64, seed int64) (*CoefCI, error) {
	if len(xs) != len(ys) {
		return nil, fmt.Errorf("stats: BootstrapOLS got %d feature rows and %d targets", len(xs), len(ys))
	}
	if !(conf > 0 && conf < 1) {
		return nil, fmt.Errorf("stats: BootstrapOLS confidence %v out of (0,1)", conf)
	}
	if B <= 0 {
		B = 200
	}
	full, err := OLS(xs, ys, intercept)
	if err != nil {
		return nil, err
	}
	x, err := designMatrix(xs, intercept)
	if err != nil {
		return nil, err
	}
	n, p := x.Rows, x.Cols
	draw := simrand.New(seed).Bounded(n)

	// coefs holds the surviving replicates' coefficients, p per replicate.
	coefs := make([]float64, 0, B*p)
	rx := NewMatrix(n, p)
	ry := make([]float64, n)
	var ls LeastSquares
	for b := 0; b < B; b++ {
		for i := 0; i < n; i++ {
			j := draw.Next()
			copy(rx.Data[i*p:(i+1)*p], x.Data[j*p:(j+1)*p])
			ry[i] = ys[j]
		}
		if err := ls.Factor(rx); err != nil {
			return nil, err // unreachable: rx has the full fit's shape
		}
		beta, err := ls.Coef(ry)
		if err != nil {
			continue
		}
		coefs = append(coefs, beta...)
	}
	kept := len(coefs) / p
	if kept < B/2 {
		return nil, fmt.Errorf("stats: BootstrapOLS: only %d of %d replicates converged", kept, B)
	}
	out := &CoefCI{
		Point: append([]float64(nil), full.Coef...),
		Lo:    make([]float64, p),
		Hi:    make([]float64, p),
		Conf:  conf,
		B:     kept,
	}
	alpha := (1 - conf) / 2
	col := make([]float64, kept)
	for j := 0; j < p; j++ {
		for i := range col {
			col[i] = coefs[i*p+j]
		}
		// col is scratch rebuilt per coefficient; the in-place selection
		// skips Percentile's copy+sort on every replicate column.
		out.Lo[j] = PercentileInPlace(col, 100*alpha)
		out.Hi[j] = PercentileInPlace(col, 100*(1-alpha))
	}
	return out, nil
}

// BootstrapMean computes the sample mean of xs and its percentile
// bootstrap confidence interval: B resamples with replacement, each
// reduced to its mean, with lo and hi the (1-conf)/2 and (1+conf)/2
// percentiles of those means. conf must lie in (0,1); B <= 0 selects 200.
//
// The resamples draw the same Intn(len(xs)) index sequence from seed
// (through simrand's prepared Bounded draw) as BootstrapOLS does for an
// intercept-only fit, whose intercept is the sample mean; the two
// intervals therefore differ only by floating-point summation order
// (direct sums here, Householder rotations there). This is
// the drift rule's kernel: one pass per replicate and no allocation beyond
// the B replicate means.
func BootstrapMean(xs []float64, B int, conf float64, seed int64) (mean, lo, hi float64, err error) {
	n := len(xs)
	if n == 0 {
		return 0, 0, 0, errors.New("stats: BootstrapMean: no observations")
	}
	if !(conf > 0 && conf < 1) {
		return 0, 0, 0, fmt.Errorf("stats: BootstrapMean confidence %v out of (0,1)", conf)
	}
	if B <= 0 {
		B = 200
	}
	draw := simrand.New(seed).Bounded(n)
	means := make([]float64, B)
	for b := range means {
		var sum float64
		for i := 0; i < n; i++ {
			sum += xs[draw.Next()]
		}
		means[b] = sum / float64(n)
	}
	alpha := (1 - conf) / 2
	lo = PercentileInPlace(means, 100*alpha)
	hi = PercentileInPlace(means, 100*(1-alpha))
	return Mean(xs), lo, hi, nil
}

// Contains reports whether coefficient j's interval contains v.
func (ci *CoefCI) Contains(j int, v float64) bool {
	return v >= ci.Lo[j] && v <= ci.Hi[j]
}

// Width returns the interval width of coefficient j.
func (ci *CoefCI) Width(j int) float64 { return ci.Hi[j] - ci.Lo[j] }
