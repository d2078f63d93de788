package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// minTail is the number of samples that must lie beyond a reported
// percentile: a p95 needs at least 200 samples.
const minTail = 10

// percentile returns the nearest-rank p-quantile (0 < p ≤ 1) of xs; xs is
// not modified. It fails when fewer than minTail samples lie beyond
// the rank, because such a percentile is one or two outliers, not a
// distribution. The median (p = 0.5) of a non-empty sample is always
// reported.
func percentile(xs []float64, p float64) (float64, error) {
	n := len(xs)
	if n == 0 {
		return 0, fmt.Errorf("no samples")
	}
	rank := int(math.Ceil(p * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if p > 0.5 && n-rank < minTail {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, need %d", 100*p, n, n-rank, minTail)
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return sorted[rank-1], nil
}

// median is percentile(xs, 0.5) for callers that know xs is non-empty;
// it returns 0 for an empty sample.
func median(xs []float64) float64 {
	v, err := percentile(xs, 0.5)
	if err != nil {
		return 0
	}
	return v
}

// parseServerTiming reads a Server-Timing header value ("queue;dur=0.312,
// exec;dur=4.821", durations in milliseconds) into stage → seconds, in
// header order. Entries without a dur parameter and malformed entries are
// skipped; a repeated stage is summed.
func parseServerTiming(h string) []stageDur {
	var out []stageDur
	for _, entry := range strings.Split(h, ",") {
		parts := strings.Split(strings.TrimSpace(entry), ";")
		name := strings.TrimSpace(parts[0])
		if name == "" {
			continue
		}
		for _, p := range parts[1:] {
			k, v, ok := strings.Cut(strings.TrimSpace(p), "=")
			if !ok || k != "dur" {
				continue
			}
			ms, err := strconv.ParseFloat(strings.Trim(v, `"`), 64)
			if err != nil || ms < 0 {
				continue
			}
			merged := false
			for i := range out {
				if out[i].stage == name {
					out[i].secs += ms / 1e3
					merged = true
				}
			}
			if !merged {
				out = append(out, stageDur{stage: name, secs: ms / 1e3})
			}
		}
	}
	return out
}

// stageDur is one Server-Timing entry.
type stageDur struct {
	stage string
	secs  float64
}

// promSample is one scraped series value, keyed by family and labels.
type promSample map[string]float64

// parseProm reads Prometheus text exposition into series key → value. The
// key is the metric name followed by its labels sorted by name, as in
// `gdrd_stage_seconds_sum{route="feedback",stage="persist"}`, so lookups
// do not depend on the order the exporter wrote the labels in. Comment
// lines are skipped; a malformed line is an error.
func parseProm(r io.Reader) (promSample, error) {
	out := make(promSample)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("metrics line %q: no value", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		name, labels, err := splitLabels(line[:i])
		if err != nil {
			return nil, err
		}
		out[seriesKey(name, labels)] = v
	}
	return out, sc.Err()
}

// splitLabels parses `name{a="x",b="y"}` into the name and label pairs.
func splitLabels(s string) (string, map[string]string, error) {
	open := strings.IndexByte(s, '{')
	if open < 0 {
		return s, nil, nil
	}
	if !strings.HasSuffix(s, "}") {
		return "", nil, fmt.Errorf("metrics series %q: unterminated labels", s)
	}
	labels := make(map[string]string)
	rest := s[open+1 : len(s)-1]
	for rest != "" {
		k, after, ok := strings.Cut(rest, "=")
		if !ok || !strings.HasPrefix(after, `"`) {
			return "", nil, fmt.Errorf("metrics series %q: bad label", s)
		}
		end := strings.IndexByte(after[1:], '"')
		if end < 0 {
			return "", nil, fmt.Errorf("metrics series %q: unterminated label value", s)
		}
		labels[strings.TrimSpace(k)] = after[1 : end+1]
		rest = strings.TrimPrefix(after[end+2:], ",")
	}
	return s[:open], labels, nil
}

// seriesKey renders a series key with labels in name order.
func seriesKey(name string, labels map[string]string) string {
	if len(labels) == 0 {
		return name
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", k, labels[k])
	}
	b.WriteByte('}')
	return b.String()
}

// delta returns after − before for every series in after (a series absent
// before counts from zero).
func delta(before, after promSample) promSample {
	out := make(promSample, len(after))
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}

// add folds other into p, summing series that appear in both (used to
// total the scrapes of several nodes).
func (p promSample) add(other promSample) {
	for k, v := range other {
		p[k] += v
	}
}

// get returns one series value (0 when absent).
func (p promSample) get(name string, labels ...string) float64 {
	m := make(map[string]string, len(labels)/2)
	for i := 0; i+1 < len(labels); i += 2 {
		m[labels[i]] = labels[i+1]
	}
	return p[seriesKey(name, m)]
}

// stageSum is the summed seconds of one gdrd_stage_seconds series.
func (p promSample) stageSum(stage, route string) float64 {
	return p.get("gdrd_stage_seconds_sum", "route", route, "stage", stage)
}

// stageCount is the observation count of one gdrd_stage_seconds series.
func (p promSample) stageCount(stage, route string) float64 {
	return p.get("gdrd_stage_seconds_count", "route", route, "stage", stage)
}
