package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"gdr/internal/dataset"
	"gdr/internal/relation"
	"gdr/internal/repair"
)

// refPendingUpdates is the whole-list sort PendingUpdates replaced: every
// live suggestion, sorted by (tid, attr) with string compares. It is the
// order reference for the counting sort.
func refPendingUpdates(s *Session) []repair.Update {
	out := s.index.AppendAll(make([]repair.Update, 0, s.index.Len()))
	sort.Slice(out, func(i, j int) bool {
		if out[i].Tid != out[j].Tid {
			return out[i].Tid < out[j].Tid
		}
		return out[i].Attr < out[j].Attr
	})
	return out
}

// driveRandomRound answers one of the top VOI groups with a mix of
// truth-derived and random verbs, so confirms, rejects and retains (and
// with them the prevented and locked sets) all accumulate. With learn set
// it trains the committees and runs a learner sweep; otherwise it takes the
// raw ApplyFeedback path. It reports whether any group was left.
func driveRandomRound(t *testing.T, s *Session, truth *relation.DB, r *rand.Rand, learn bool) bool {
	t.Helper()
	gs := s.Groups(OrderVOI, nil)
	if len(gs) == 0 {
		return false
	}
	verbs := []repair.Feedback{repair.Confirm, repair.Reject, repair.Retain}
	for _, u := range s.GroupUpdates(gs[r.Intn(min(3, len(gs)))].Key) {
		cur, live := s.Pending(u.Cell())
		if !live || cur.Value != u.Value {
			continue
		}
		fb := verbs[r.Intn(len(verbs))]
		if r.Intn(3) > 0 {
			switch tv := truth.Get(u.Tid, u.Attr); {
			case u.Value == tv:
				fb = repair.Confirm
			case s.DB().Get(u.Tid, u.Attr) == tv:
				fb = repair.Retain
			default:
				fb = repair.Reject
			}
		}
		if learn {
			s.UserFeedback(cur, fb)
		} else {
			s.ApplyFeedback(cur, fb)
		}
	}
	if learn {
		s.LearnerSweep(2)
	}
	return true
}

// insertNoisyTuple inserts a copy of a random truth tuple with one cell
// taken from another tuple, which often makes it dirty.
func insertNoisyTuple(t *testing.T, s *Session, truth *relation.DB, r *rand.Rand) {
	t.Helper()
	tup := truth.Tuple(r.Intn(truth.N()))
	ai := r.Intn(len(tup))
	tup[ai] = truth.GetAt(r.Intn(truth.N()), ai)
	if _, err := s.Insert(tup); err != nil {
		t.Fatal(err)
	}
}

// TestStateViewMatchesExportState: on randomized learn and no-learn
// sessions with rejects, retains and inserts, at worker counts 1 and 4,
// the aliasing StateView describes exactly the state ExportState copies,
// and PendingUpdates orders exactly like the whole-list sort reference.
func TestStateViewMatchesExportState(t *testing.T) {
	for _, learn := range []bool{false, true} {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("learn=%v/workers=%d", learn, workers), func(t *testing.T) {
				r := rand.New(rand.NewSource(int64(workers) + 31))
				d := dataset.Hospital(dataset.Config{N: 150, Seed: 29, DirtyRate: 0.3})
				s, err := NewSession(d.Dirty.Clone(), d.Rules, Config{Seed: 3, Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				for round := 0; round < 10; round++ {
					if round == 4 {
						insertNoisyTuple(t, s, d.Truth, r)
					}
					if !driveRandomRound(t, s, d.Truth, r, learn) {
						break
					}
					if got, want := s.PendingUpdates(), refPendingUpdates(s); !reflect.DeepEqual(got, want) {
						t.Fatalf("round %d: PendingUpdates order diverges from the sort reference", round)
					}
					if view, exp := s.StateView(), s.ExportState(); !reflect.DeepEqual(view, exp) {
						t.Fatalf("round %d: StateView diverges from ExportState", round)
					}
				}
				st := s.StateView()
				if len(st.Locked) == 0 || len(st.Prevented) == 0 || len(st.Rows) != d.Truth.N()+1 {
					t.Fatalf("drive did not cover the bookkeeping: %d locked, %d prevented, %d rows",
						len(st.Locked), len(st.Prevented), len(st.Rows))
				}
				if learn && len(st.Models) == 0 {
					t.Fatal("learn-mode drive trained no models")
				}
			})
		}
	}
}
