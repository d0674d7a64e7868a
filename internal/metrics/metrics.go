// Package metrics provides the cost-accounting primitives behind the
// paper's evaluation: the traffic Purpose taxonomy (DAG construction
// vs. consensus, Fig. 8), per-slot series (Figs. 7–8) and empirical
// CDFs (Figs. 7(d), 8(d)). The per-node counters themselves live with
// their accountants (e.g. the simulator's atomic cells), keyed by
// Purpose.
package metrics

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
)

// ErrEmpty reports an operation over an empty sample set.
var ErrEmpty = errors.New("metrics: no samples")

// Purpose classifies communication for the Fig. 8 breakdown.
type Purpose int

const (
	// Construction is DAG-construction traffic: digest announcements
	// (Sec. III-D).
	Construction Purpose = iota + 1
	// Consensus is PoP traffic: REQ_CHILD/RPY_CHILD and block
	// retrievals (Sec. IV).
	Consensus
)

// String names the purpose.
func (p Purpose) String() string {
	switch p {
	case Construction:
		return "construction"
	case Consensus:
		return "consensus"
	default:
		return fmt.Sprintf("purpose(%d)", int(p))
	}
}

// Series is an ordered sequence of (x, y) samples — one figure line.
type Series struct {
	Name string
	X    []float64
	Y    []float64
}

// Append adds a point.
func (s *Series) Append(x, y float64) {
	s.X = append(s.X, x)
	s.Y = append(s.Y, y)
}

// Len returns the number of points.
func (s *Series) Len() int { return len(s.X) }

// Last returns the final y value.
func (s *Series) Last() (float64, error) {
	if len(s.Y) == 0 {
		return 0, fmt.Errorf("%w: series %q", ErrEmpty, s.Name)
	}
	return s.Y[len(s.Y)-1], nil
}

// CDF is an empirical cumulative distribution over a sample set.
type CDF struct {
	sorted []float64
}

// NewCDF builds a CDF from samples (copied, then sorted).
func NewCDF(samples []float64) (*CDF, error) {
	if len(samples) == 0 {
		return nil, ErrEmpty
	}
	cp := append([]float64(nil), samples...)
	sort.Float64s(cp)
	return &CDF{sorted: cp}, nil
}

// Quantile returns the q-th quantile (0 ≤ q ≤ 1, nearest-rank).
func (c *CDF) Quantile(q float64) float64 {
	if q <= 0 {
		return c.sorted[0]
	}
	if q >= 1 {
		return c.sorted[len(c.sorted)-1]
	}
	i := int(math.Ceil(q*float64(len(c.sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return c.sorted[i]
}

// Min returns the smallest sample.
func (c *CDF) Min() float64 { return c.sorted[0] }

// Max returns the largest sample.
func (c *CDF) Max() float64 { return c.sorted[len(c.sorted)-1] }

// Mean returns the sample mean.
func (c *CDF) Mean() float64 {
	sum := 0.0
	for _, v := range c.sorted {
		sum += v
	}
	return sum / float64(len(c.sorted))
}

// Table renders series side by side as an aligned text table with one
// row per x value (series are assumed to share x grids; missing cells
// render blank). Used by cmd/experiments for human-readable output.
func Table(header string, series ...*Series) string {
	var b strings.Builder
	b.WriteString(header)
	b.WriteByte('\n')
	if len(series) == 0 {
		return b.String()
	}
	// Collect the union of x values.
	seen := make(map[float64]bool)
	var xs []float64
	for _, s := range series {
		for _, x := range s.X {
			if !seen[x] {
				seen[x] = true
				xs = append(xs, x)
			}
		}
	}
	sort.Float64s(xs)
	fmt.Fprintf(&b, "%12s", "x")
	for _, s := range series {
		fmt.Fprintf(&b, " %22s", s.Name)
	}
	b.WriteByte('\n')
	for _, x := range xs {
		fmt.Fprintf(&b, "%12.4g", x)
		for _, s := range series {
			cell := ""
			for i, sx := range s.X {
				if sx == x {
					cell = fmt.Sprintf("%.6g", s.Y[i])
					break
				}
			}
			fmt.Fprintf(&b, " %22s", cell)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// CSV renders series as comma-separated rows: x, then one column per
// series.
func CSV(series ...*Series) string {
	var b strings.Builder
	b.WriteString("x")
	for _, s := range series {
		b.WriteByte(',')
		b.WriteString(s.Name)
	}
	b.WriteByte('\n')
	if len(series) == 0 {
		return b.String()
	}
	n := 0
	for _, s := range series {
		if s.Len() > n {
			n = s.Len()
		}
	}
	for i := 0; i < n; i++ {
		for j, s := range series {
			if j == 0 {
				if i < len(s.X) {
					fmt.Fprintf(&b, "%g", s.X[i])
				}
			}
			b.WriteByte(',')
			if i < len(s.Y) {
				fmt.Fprintf(&b, "%g", s.Y[i])
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// BitsToMB converts bits to megabytes (10^6 bytes, as the paper's MB
// axes).
func BitsToMB(bits int64) float64 { return float64(bits) / 8e6 }

// BitsToMb converts bits to megabits (the paper's Mb axes in Fig. 8).
func BitsToMb(bits int64) float64 { return float64(bits) / 1e6 }
