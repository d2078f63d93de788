package cfd

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"gdr/internal/relation"
)

// randomRuleSet returns the rule shapes anchor dispatch must handle — an
// all-wildcard FD, a multi-constant LHS, a constant in a non-first LHS
// position, constant and variable rules over the same attributes, and a
// pattern constant absent from the data — plus a few random rules.
func randomRuleSet(r *rand.Rand, attrs, vals []string) []*CFD {
	rules := []*CFD{
		MustNew("fd", []string{"A"}, "B", map[string]string{"A": Wildcard, "B": Wildcard}),
		MustNew("multi", []string{"A", "B"}, "C", map[string]string{"A": "x", "B": "y", "C": "z"}),
		MustNew("second", []string{"A", "B"}, "D", map[string]string{"A": Wildcard, "B": "x", "D": Wildcard}),
		MustNew("mixed", []string{"C", "A"}, "E", map[string]string{"C": "y", "A": Wildcard, "E": Wildcard}),
		MustNew("unseen", []string{"D"}, "A", map[string]string{"D": "q", "A": "x"}),
	}
	for i := 0; i < 4; i++ {
		perm := r.Perm(len(attrs))
		lhs := make([]string, 1+r.Intn(3))
		tp := map[string]string{}
		for j := range lhs {
			lhs[j] = attrs[perm[j]]
			tp[lhs[j]] = Wildcard
			if r.Intn(2) == 0 {
				tp[lhs[j]] = vals[r.Intn(len(vals))]
			}
		}
		rhs := attrs[perm[len(lhs)]]
		tp[rhs] = Wildcard
		if r.Intn(2) == 0 {
			tp[rhs] = vals[r.Intn(len(vals))]
		}
		rules = append(rules, MustNew(fmt.Sprintf("r%d", i), lhs, rhs, tp))
	}
	return rules
}

// sameState fails unless the anchored engine e and the full-scan reference
// ref agree on every counter, dirty flag and violated-rule list, and, when
// ref has seen the same edits, on every rule version.
func sameState(t *testing.T, where string, e, ref *Engine, versions bool) {
	t.Helper()
	for ri, r := range e.Rules() {
		if e.Vio(ri) != ref.Vio(ri) || e.Sat(ri) != ref.Sat(ri) || e.Context(ri) != ref.Context(ri) {
			t.Fatalf("%s: rule %s vio/sat/ctx %d/%d/%d, full scan %d/%d/%d", where, r,
				e.Vio(ri), e.Sat(ri), e.Context(ri), ref.Vio(ri), ref.Sat(ri), ref.Context(ri))
		}
		if versions && e.Version(ri) != ref.Version(ri) {
			t.Fatalf("%s: rule %s version %d, full scan %d", where, r, e.Version(ri), ref.Version(ri))
		}
	}
	if got, want := e.Dirty(), ref.Dirty(); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: dirty %v, full scan %v", where, got, want)
	}
	for tid := 0; tid < e.DB().N(); tid++ {
		if got, want := e.VioRuleList(tid), refVioRuleList(ref, tid); !slices.Equal(got, want) {
			t.Fatalf("%s: VioRuleList(t%d) = %v, full scan %v", where, tid, got, want)
		}
	}
}

// TestAnchorDispatchMatchesFullScan drives random edits and inserts through
// an anchored engine and a full-scan reference in lockstep. Apply and Insert
// must return the same tuples, every rule the same counts and version, and
// AppendWhatIfChanged the reference's changed WhatIfVID deltas, for known,
// new, unchanged and FreshVID values. Neither benchmark dataset has FDs or
// multi-constant LHS rules, so this is the test that covers those shapes.
func TestAnchorDispatchMatchesFullScan(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	attrs := []string{"A", "B", "C", "D", "E"}
	vals := []string{"x", "y", "z", "w"}
	editVals := append(slices.Clone(vals), "q")
	for trial := 0; trial < 30; trial++ {
		schema := relation.MustSchema("R", attrs)
		db := relation.NewDB(schema)
		tuple := func(from []string) relation.Tuple {
			tu := make(relation.Tuple, len(attrs))
			for i := range tu {
				tu[i] = from[r.Intn(len(from))]
			}
			return tu
		}
		for i := 0; i < 30; i++ {
			db.MustInsert(tuple(vals))
		}
		rules := randomRuleSet(r, attrs, vals)
		ref := fullScan(t, db.Clone(), rules)
		e, err := NewEngine(db, rules)
		if err != nil {
			t.Fatal(err)
		}
		e.Rebuild() // fullScan rebuilt once more: keep the versions in step
		sameState(t, fmt.Sprintf("trial %d build", trial), e, ref, true)
		for step := 0; step < 60; step++ {
			where := fmt.Sprintf("trial %d step %d", trial, step)
			for probe := 0; probe < 10; probe++ {
				tid, ai := r.Intn(db.N()), r.Intn(len(attrs))
				var v relation.VID
				switch r.Intn(4) {
				case 0:
					v = FreshVID
				case 1:
					v = db.VIDAt(tid, ai)
				default: // FreshVID when no edit has stored the value yet
					v = e.lookupVID(ai, editVals[r.Intn(len(editVals))])
				}
				got := e.AppendWhatIfChanged(nil, tid, ai, v)
				if want := refWhatIfChanged(ref, tid, ai, v); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: AppendWhatIfChanged(t%d, %s, %d) = %v, full scan %v", where, tid, attrs[ai], v, got, want)
				}
			}
			if r.Intn(10) == 0 {
				tu := tuple(editVals)
				tid, aff, err := e.Insert(tu)
				rtid, raff, rerr := ref.Insert(tu)
				if err != nil || rerr != nil || tid != rtid || !slices.Equal(aff, raff) {
					t.Fatalf("%s: Insert = %d %v %v, full scan %d %v %v", where, tid, aff, err, rtid, raff, rerr)
				}
			} else {
				tid, attr := r.Intn(db.N()), attrs[r.Intn(len(attrs))]
				val := editVals[r.Intn(len(editVals))]
				if r.Intn(8) == 0 {
					val = fmt.Sprintf("n%d", step) // a value no dictionary holds yet
				}
				if got, want := e.Apply(tid, attr, val), ref.Apply(tid, attr, val); !slices.Equal(got, want) {
					t.Fatalf("%s: Apply(t%d, %s, %s) = %v, full scan %v", where, tid, attr, val, got, want)
				}
			}
			sameState(t, where, e, ref, true)
		}
		sameState(t, fmt.Sprintf("trial %d rebuilt", trial), e, fullScan(t, db.Clone(), rules), false)
	}
}
