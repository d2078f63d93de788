// Package a exercises the maprange analyzer: map iterations whose order
// escapes must flag; order-free aggregations and collect-then-sort must not,
// except that a float sum over map order flags even when sorted later.
package a

import (
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"
)

// BadAppend returns keys in map order.
func BadAppend(m map[string]int) []string {
	var out []string
	for k := range m { // want `map iteration order reaches a slice`
		out = append(out, k)
	}
	return out
}

// GoodSorted collects then sorts: the canonical fix.
func GoodSorted(m map[string]int) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// GoodSlicesSorted uses the slices package to restore order.
func GoodSlicesSorted(m map[string]int) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}

// BadWrite streams key/value pairs to a writer in map order.
func BadWrite(w io.Writer, m map[string]int) {
	for k, v := range m { // want `map iteration order reaches an io\.Writer`
		fmt.Fprintf(w, "%s=%d\n", k, v)
	}
}

// BadBuilder accumulates into an outer strings.Builder in map order.
func BadBuilder(m map[string]bool) string {
	var b strings.Builder
	for k := range m { // want `map iteration order reaches a writer or encoder`
		b.WriteString(k)
	}
	return b.String()
}

// BadConcat builds a string across iterations.
func BadConcat(m map[string]int) string {
	s := ""
	for k := range m { // want `map iteration order reaches a string`
		s += k
	}
	return s
}

// GoodCount aggregates order-free.
func GoodCount(m map[string]int) int {
	n := 0
	for _, v := range m {
		n += v
	}
	return n
}

// GoodMapToMap lands every key in its own slot; order cannot show.
func GoodMapToMap(m map[string]int) map[string]int {
	out := make(map[string]int, len(m))
	for k, v := range m {
		out[k] = v * 2
	}
	return out
}

// GoodPerIteration appends only to a slice scoped to one iteration.
func GoodPerIteration(m map[string][]int) map[string]int {
	out := make(map[string]int, len(m))
	for k, vs := range m {
		var doubled []int
		for _, v := range vs {
			doubled = append(doubled, v*2)
		}
		out[k] = len(doubled)
	}
	return out
}

// GoodFreshBuffer writes to a builder created inside the loop.
func GoodFreshBuffer(m map[string][]string) map[string]string {
	out := make(map[string]string, len(m))
	for k, vs := range m {
		var b strings.Builder
		for _, v := range vs {
			b.WriteString(v)
		}
		out[k] = b.String()
	}
	return out
}

// BadFloatSum accumulates a float in map order: the last bits depend on it.
func BadFloatSum(m map[string]float64) float64 {
	sum := 0.0
	for _, v := range m { // want `map iteration order reaches a float accumulated across iterations`
		sum += v
	}
	return sum
}

// BadFloatSumSortedLater sorts after the loop, which cannot fix the sum.
func BadFloatSumSortedLater(m map[string]float64) ([]string, float64) {
	keys := make([]string, 0, len(m))
	h := 1.0
	for k, v := range m { // want `map iteration order reaches a float accumulated across iterations`
		keys = append(keys, k)
		h -= v
	}
	sort.Strings(keys)
	return keys, h
}

// GoodKeyedFloat adds once per key: order cannot show.
func GoodKeyedFloat(m map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(m))
	for k, v := range m {
		out[k] += v / 2
	}
	return out
}

// GoodIntSumSortedLater sums integers, which is exact in any order.
func GoodIntSumSortedLater(m map[string]int) ([]string, int) {
	keys := make([]string, 0, len(m))
	total := 0
	for k, v := range m {
		keys = append(keys, k)
		total += v
	}
	sort.Strings(keys)
	return keys, total
}
