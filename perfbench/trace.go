package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed interval recorded by the benchmark around a call into
// a layer. Spans of one round share the round id; parent is the id of the
// span that caused this one (-1 for a round's root).
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Round  int64         `json:"round"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// recorder keeps one client's spans in memory. It is not safe for
// concurrent use: every client goroutine owns its own. A nil recorder
// records nothing, which is how the untraced runs pay no tracing cost.
type recorder struct {
	epoch time.Time
	spans []span
}

func newRecorder(epoch time.Time) *recorder { return &recorder{epoch: epoch} }

// begin opens a span now and returns its id (-1 on a nil recorder).
func (r *recorder) begin(name string, parent int, round int64) int {
	if r == nil {
		return -1
	}
	now := time.Since(r.epoch)
	r.spans = append(r.spans, span{ID: len(r.spans), Parent: parent, Round: round, Name: name, Start: now, End: now})
	return len(r.spans) - 1
}

// end closes a span opened by begin.
func (r *recorder) end(id int) {
	if r == nil || id < 0 {
		return
	}
	r.spans[id].End = time.Since(r.epoch)
}

// add records a span whose interval is already known (a server stage
// reported in Server-Timing, laid out inside its client call).
func (r *recorder) add(name string, parent int, round int64, start, end time.Duration) int {
	if r == nil {
		return -1
	}
	r.spans = append(r.spans, span{ID: len(r.spans), Parent: parent, Round: round, Name: name, Start: start, End: end})
	return len(r.spans) - 1
}

// at returns the recorder-relative offset of t.
func (r *recorder) at(t time.Time) time.Duration { return t.Sub(r.epoch) }

// layerTotals is the rollup of a set of spans: per span name, the number
// of spans, their summed self time and their individual durations.
type layerTotals struct {
	calls map[string]int
	self  map[string]float64   // seconds
	durs  map[string][]float64 // milliseconds of self time, per span
}

func newLayerTotals() *layerTotals {
	return &layerTotals{calls: map[string]int{}, self: map[string]float64{}, durs: map[string][]float64{}}
}

// rollup adds the spans of one recorder to t. A span's self time is its
// duration minus the part of its interval that its children cover; so
// the self times of a tree add up to its root's duration. Each span's
// self time is also kept, for per-call percentiles.
func (t *layerTotals) rollup(spans []span) {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	for _, s := range spans {
		dur := s.End - s.Start
		self := dur - covered(s.Start, s.End, children[s.ID])
		t.calls[s.Name]++
		t.self[s.Name] += self.Seconds()
		t.durs[s.Name] = append(t.durs[s.Name], float64(self)/float64(time.Millisecond))
	}
}

// covered returns how much of [lo, hi) the union of the children's
// intervals covers.
func covered(lo, hi time.Duration, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		s, e := max(k.Start, lo), min(k.End, hi)
		if e > s {
			iv = append(iv, [2]time.Duration{s, e})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curS, curE time.Duration
	open := false
	for _, x := range iv {
		switch {
		case !open:
			curS, curE, open = x[0], x[1], true
		case x[0] <= curE:
			curE = max(curE, x[1])
		default:
			total += curE - curS
			curS, curE = x[0], x[1]
		}
	}
	if open {
		total += curE - curS
	}
	return total
}

// move transfers up to secs of self time from one layer to another,
// never driving the source below zero, and returns the amount moved. The
// served workloads use it to split a server stage by the engine phases
// /metrics attributes inside it, which keeps the layers' sum unchanged.
func (t *layerTotals) move(from, to string, secs float64) float64 {
	if secs <= 0 {
		return 0
	}
	secs = min(secs, t.self[from])
	t.self[from] -= secs
	t.self[to] += secs
	return secs
}

// writeSpans writes every span as one JSON line, tagged with its client's
// index, so a traced run leaves its raw trace behind for inspection.
func writeSpans(path string, recs []*recorder) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i, r := range recs {
		if r == nil {
			continue
		}
		for _, s := range r.spans {
			if err := enc.Encode(struct {
				Client int `json:"client"`
				span
			}{i, s}); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
