package cfd

import (
	"testing"

	"gdr/internal/relation"
)

// This file keeps the all-rules loops that anchor dispatch replaced, as the
// reference TestAnchorDispatchMatchesFullScan compares the engine against.
// A full-scan engine files every rule on the free list, so each per-tuple
// loop (Rebuild, Insert, ApplyVID, violatesAny) visits every rule, or every
// rule involving the edited attribute in engine order: the loops the engine
// ran before rules had anchors.

// fullScan builds an engine over db whose per-tuple loops visit every rule.
func fullScan(t testing.TB, db *relation.DB, rules []*CFD) *Engine {
	t.Helper()
	e, err := NewEngine(db, rules)
	if err != nil {
		t.Fatal(err)
	}
	e.anchors = make([][][]int, db.Schema.Arity())
	e.anchorPos = nil
	e.free = make([]int, len(e.states))
	for si := range e.free {
		e.free[si] = si
	}
	e.Rebuild()
	return e
}

// refVioRuleList is VioRuleList as a loop over every rule.
func refVioRuleList(e *Engine, tid int) []int {
	var out []int
	for si, st := range e.states {
		if e.violates(st, tid) {
			out = append(out, si)
		}
	}
	return out
}

// refWhatIfChanged is WhatIfVID over every rule involving ai, with the
// deltas equal to their rule's current state left out.
func refWhatIfChanged(e *Engine, tid, ai int, v relation.VID) []RuleDelta {
	var out []RuleDelta
	for _, d := range e.WhatIfVID(tid, ai, v) {
		if d.Vio != e.Vio(d.Rule) || d.Sat != e.Sat(d.Rule) {
			out = append(out, d)
		}
	}
	return out
}
