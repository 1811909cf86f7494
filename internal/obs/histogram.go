package obs

import (
	"math"
	"math/bits"
)

// Log-linear histogram of uint64 cycle values (an HDR-histogram-style
// layout): histSub linear buckets per power-of-two octave, so relative
// quantile error is bounded by 1/histSub (6.25%) while the bucket array
// stays small and allocation-free. Values below histSub land in unit-width
// buckets and are exact.
const (
	histSubBits = 4
	histSub     = 1 << histSubBits // 16 sub-buckets per octave

	// numBuckets covers the full uint64 range: histSub unit buckets plus
	// (64 - histSubBits) octaves of histSub sub-buckets each.
	numBuckets = histSub + (64-histSubBits)*histSub
)

// Histogram accumulates a distribution of cycle values.
type Histogram struct {
	buckets [numBuckets]uint64
	count   uint64
	sum     uint64
	max     uint64
}

// NewHistogram creates an empty histogram.
func NewHistogram() *Histogram { return &Histogram{} }

// bucketIndex maps a value to its bucket.
func bucketIndex(v uint64) int {
	if v < histSub {
		return int(v)
	}
	exp := bits.Len64(v) - 1 // position of the leading bit, >= histSubBits
	sub := int((v >> uint(exp-histSubBits)) & (histSub - 1))
	return (exp-histSubBits)*histSub + sub + histSub
}

// bucketLower returns the smallest value mapping to bucket idx.
func bucketLower(idx int) uint64 {
	if idx < histSub {
		return uint64(idx)
	}
	block := idx/histSub - 1
	sub := idx % histSub
	return (uint64(histSub) + uint64(sub)) << uint(block)
}

// Observe records one value. A nil histogram discards it, so callers can
// observe unconditionally with a possibly-disabled sink.
func (h *Histogram) Observe(v uint64) {
	if h == nil {
		return
	}
	h.buckets[bucketIndex(v)]++
	h.count++
	h.sum += v
	if v > h.max {
		h.max = v
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() uint64 { return h.sum }

// Max returns the largest observed value (exact).
func (h *Histogram) Max() uint64 { return h.max }

// Mean returns the arithmetic mean (0 when empty).
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.count)
}

// Quantile returns the value at quantile q in [0, 1]: the lower bound of
// the bucket containing the ceil(q*count)-th observation (so the result
// under-reports by at most one bucket width, i.e. 1/16 relative error).
// The q = 1 quantile returns the exact maximum.
func (h *Histogram) Quantile(q float64) uint64 {
	if h.count == 0 {
		return 0
	}
	if q >= 1 {
		return h.max
	}
	rank := quantileRank(q, h.count)
	var cum uint64
	for idx, n := range h.buckets {
		cum += n
		if cum >= rank {
			return bucketLower(idx)
		}
	}
	return h.max
}

// quantileRank is the 1-based rank of the observation Quantile(q) reports
// among n: ceil(q*n), at least 1.
func quantileRank(q float64, n uint64) uint64 {
	rank := uint64(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	return rank
}

// Reset empties the histogram.
func (h *Histogram) Reset() { *h = Histogram{} }

// Merge folds other into h. All fields are exact uint64 accumulators, so
// merging per-shard histograms yields bit-identical state to observing the
// same values through one histogram, regardless of merge order.
func (h *Histogram) Merge(other *Histogram) {
	if other == nil {
		return
	}
	for i, n := range other.buckets {
		h.buckets[i] += n
	}
	h.count += other.count
	h.sum += other.sum
	if other.max > h.max {
		h.max = other.max
	}
}

// Summary is the JSON-serializable digest of a histogram: the percentiles
// the paper-style latency tables need, in cycles.
type Summary struct {
	Count uint64  `json:"count"`
	Mean  float64 `json:"mean"`
	P50   uint64  `json:"p50"`
	P90   uint64  `json:"p90"`
	P95   uint64  `json:"p95"`
	P99   uint64  `json:"p99"`
	Max   uint64  `json:"max"`
}

// Summary digests the histogram.
func (h *Histogram) Summary() Summary {
	return Summary{
		Count: h.count,
		Mean:  h.Mean(),
		P50:   h.Quantile(0.50),
		P90:   h.Quantile(0.90),
		P95:   h.Quantile(0.95),
		P99:   h.Quantile(0.99),
		Max:   h.max,
	}
}

// SLOSummary is the digest used by SLO-style breakdown reports: like
// Summary but with the p99.9 tail percentile. It is a distinct type so
// adding the tail quantile does not change the serialized shape of
// existing Summary-bearing records.
type SLOSummary struct {
	Count uint64  `json:"count"`
	Mean  float64 `json:"mean"`
	P50   uint64  `json:"p50"`
	P90   uint64  `json:"p90"`
	P99   uint64  `json:"p99"`
	P999  uint64  `json:"p999"`
	Max   uint64  `json:"max"`
}

// SummarySLO digests the histogram with tail percentiles.
func (h *Histogram) SummarySLO() SLOSummary {
	return SLOSummary{
		Count: h.count,
		Mean:  h.Mean(),
		P50:   h.Quantile(0.50),
		P90:   h.Quantile(0.90),
		P99:   h.Quantile(0.99),
		P999:  h.Quantile(0.999),
		Max:   h.max,
	}
}
