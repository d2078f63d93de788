package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"gdr/internal/cfd"
	"gdr/internal/dataset"
	"gdr/internal/repair"
)

// refRawBenefit is Eq. 6's probability-free sum folded over the full
// WhatIfVID: every rule involving the update's attribute, in engine order.
func refRawBenefit(s *Session, u repair.Update) float64 {
	eng := s.Engine()
	ai := s.DB().Schema.MustIndex(u.Attr)
	vid, ok := s.DB().LookupVID(ai, u.Value)
	if !ok {
		vid = cfd.FreshVID
	}
	raw := 0.0
	for _, d := range eng.WhatIfVID(u.Tid, ai, vid) {
		sat := max(d.Sat, 1)
		raw += s.Ranker().Weight(d.Rule) * float64(eng.Vio(d.Rule)-d.Vio) / float64(sat)
	}
	return raw
}

// TestRawBenefitBitIdentical checks that RawBenefit, which folds only the
// rules an update changes, equals the full fold bit for bit for every
// pending update, through 30 feedback rounds of hospital and census
// sessions, learn and no-learn, at workers 1 and 4.
func TestRawBenefitBitIdentical(t *testing.T) {
	datasets := map[string]func(dataset.Config) *dataset.Data{
		"hospital": dataset.Hospital,
		"census":   dataset.Census,
	}
	for _, name := range []string{"hospital", "census"} {
		for _, learn := range []bool{false, true} {
			for _, workers := range []int{1, 4} {
				t.Run(fmt.Sprintf("%s/learn=%v/workers=%d", name, learn, workers), func(t *testing.T) {
					d := datasets[name](dataset.Config{N: 1000, Seed: 5})
					s, err := NewSession(d.Dirty.Clone(), d.Rules, Config{Seed: 2, Workers: workers})
					if err != nil {
						t.Fatal(err)
					}
					r := rand.New(rand.NewSource(9))
					checked := 0
					for round := 0; round < 30; round++ {
						for _, u := range s.PendingUpdates() {
							checked++
							got, want := s.Ranker().RawBenefit(u), refRawBenefit(s, u)
							if math.Float64bits(got) != math.Float64bits(want) {
								t.Fatalf("round %d: RawBenefit(%v) = %v, full fold %v", round, u, got, want)
							}
						}
						if !driveRandomRound(t, s, d.Truth, r, learn) {
							break
						}
					}
					if checked == 0 {
						t.Fatal("no pending updates to check")
					}
				})
			}
		}
	}
}
