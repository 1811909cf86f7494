package bench

import (
	"math"
	"sort"
)

// zipfApportion splits total operations over n slots by zipf(theta)
// rank weight with largest-remainder rounding: slot 0 is the hog and
// the tail stays warm at a one-op floor. Ties break on slot ID and an
// over-assignment from the floor comes off the head slots, so the
// split is deterministic and sums to total when total >= n. With
// total < n every slot keeps its one-op floor, and the split sums to n.
// Shared by the tenants sweep (per-tenant op counts) and the skew
// sweep (per-client op counts in the low-load trough cells).
func zipfApportion(total, n int, theta float64) []int {
	ops := make([]int, n)
	weights := make([]float64, n)
	sum := 0.0
	for t := range weights {
		weights[t] = 1 / math.Pow(float64(t+1), theta)
		sum += weights[t]
	}
	assigned := 0
	fracs := make([]float64, n)
	for t := range ops {
		share := float64(total) * weights[t] / sum
		ops[t] = int(share)
		if ops[t] < 1 {
			ops[t] = 1
		}
		fracs[t] = share - math.Floor(share)
		assigned += ops[t]
	}
	order := make([]int, n)
	for t := range order {
		order[t] = t
	}
	sort.SliceStable(order, func(a, b int) bool { return fracs[order[a]] > fracs[order[b]] })
	for i := 0; assigned < total; i = (i + 1) % n {
		ops[order[i]]++
		assigned++
	}
	// Shed one op a slot per pass from the head, until a pass frees
	// nothing: then every slot sits at the floor.
	for freed := true; assigned > total && freed; {
		freed = false
		for t := 0; t < n && assigned > total; t++ {
			if ops[t] > 1 {
				ops[t]--
				assigned--
				freed = true
			}
		}
	}
	return ops
}
