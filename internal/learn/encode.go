package learn

import (
	"slices"
	"strings"
)

// dict maps a categorical value to the code trees split on: its rank in
// value-string order among the values known at the last re-rank.
type dict struct {
	ids  map[string]int32 // value → first-seen code
	rank []int32          // first-seen code → rank; a fresh slice per re-rank, so a forest may keep it
}

// lookup returns v's rank, or -1 for a value the dictionary did not hold
// at the last re-rank.
func (d dict) lookup(v string) int32 {
	id, ok := d.ids[v]
	if !ok || int(id) >= len(d.rank) {
		return -1
	}
	return d.rank[id]
}

// column dictionary-encodes one categorical feature. Values get dense codes
// in first-seen order, which never change as the dictionary grows; trees
// use each code's rank in value-string order instead, re-derived at train
// time only when the dictionary has grown.
type column struct {
	dict
	values []string // first-seen code → value
	codes  []int32  // per example: its value's first-seen code
	order  []int32  // rank → first-seen code
	ranked []int32  // per example: its value's rank, for the first len(ranked) examples
}

func (c *column) add(v string) {
	id, ok := c.ids[v]
	if !ok {
		id = int32(len(c.values))
		c.ids[v] = id
		c.values = append(c.values, v)
	}
	c.codes = append(c.codes, id)
}

// refresh brings ranked up to date with codes: a dictionary that grew since
// the last refresh is re-ranked and every example re-mapped; otherwise only
// the examples added since are mapped.
func (c *column) refresh() {
	if len(c.rank) < len(c.values) {
		c.rerank()
		c.ranked = c.ranked[:0]
	}
	for _, id := range c.codes[len(c.ranked):] {
		c.ranked = append(c.ranked, c.rank[id])
	}
}

// rerank merges the values added since the last re-rank into the value
// order, sorting only the new ones.
func (c *column) rerank() {
	fresh := make([]int32, 0, len(c.values)-len(c.rank))
	for id := len(c.rank); id < len(c.values); id++ {
		fresh = append(fresh, int32(id))
	}
	slices.SortFunc(fresh, func(a, b int32) int { return strings.Compare(c.values[a], c.values[b]) })
	order := make([]int32, 0, len(c.values))
	i, j := 0, 0
	for i < len(c.order) && j < len(fresh) {
		if c.values[fresh[j]] < c.values[c.order[i]] {
			order = append(order, fresh[j])
			j++
		} else {
			order = append(order, c.order[i])
			i++
		}
	}
	order = append(append(order, c.order[i:]...), fresh[j:]...)
	rank := make([]int32, len(c.values))
	for r, id := range order {
		rank[id] = int32(r)
	}
	c.order, c.rank = order, rank
}

// encoding is a training set in the form trees consume: one dictionary-
// encoded column per categorical feature, plus the numeric feature and the
// labels. It is append-only.
type encoding struct {
	cols   []column
	sims   []float64
	labels []Label
}

// add appends one example; the first fixes the categorical arity.
func (e *encoding) add(ex Example) {
	if len(e.labels) == 0 {
		e.cols = make([]column, len(ex.Cats))
		for f := range e.cols {
			e.cols[f].ids = make(map[string]int32)
		}
	}
	if len(ex.Cats) != len(e.cols) {
		panic("learn: feature arity mismatch")
	}
	for f, v := range ex.Cats {
		e.cols[f].add(v)
	}
	e.sims = append(e.sims, ex.Sim)
	e.labels = append(e.labels, ex.Label)
}
